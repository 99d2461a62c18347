"""Empirical stability audits.

The energy models promise lower bounds that are linear in the weighted atom
count Sum_i (1 + |m_i|^e): globally for H and locally for the conditional
energy given a tempered environment. The constants are existential, so the
audits probe random configurations and report the worst observed ratio; the
test suite then checks the report stays bounded as trial counts escalate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy import conditional_energy
from .errors import NumericalFailure
from .points import Configuration, Window, mark_statistic, restrict
from .tempered import is_tempered

__all__ = [
    "StabilityReport",
    "stability_audit",
    "LocalStabilityReport",
    "local_stability_audit",
]


@dataclass(frozen=True)
class StabilityReport:
    c_hat: float
    exponent: float
    two_sided: bool
    n_trials: int
    n_used: int
    n_infinite: int

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.c_hat)


def stability_audit(
    model,
    config_sampler: Callable[[np.random.Generator], Configuration],
    n_trials: int,
    rng: np.random.Generator,
    exponent: float,
    two_sided: bool = False,
) -> StabilityReport:
    """Worst observed -H(gamma) / Sum(1 + |m|^exponent) over random trials.

    Only nonempty configurations with finite energy contribute. The ratio can
    be negative (models with H >= 0 give c_hat <= 0); ``two_sided`` audits
    |H| instead, for models bounded on both sides.
    """
    worst = -math.inf
    used = infinite = 0
    for _ in range(n_trials):
        gamma = config_sampler(rng)
        if len(gamma) == 0:
            continue
        h = model.energy(gamma)
        if h == math.inf:
            infinite += 1
            continue
        stat = mark_statistic(gamma, exponent)
        ratio = (abs(h) if two_sided else -h) / stat
        worst = max(worst, ratio)
        used += 1
    c_hat = worst if used else math.nan
    return StabilityReport(c_hat, exponent, two_sided, n_trials, used, infinite)


@dataclass(frozen=True)
class LocalStabilityReport:
    c_hat: float
    t: int
    exponent: float
    n_trials: int
    n_used: int
    n_infinite: int
    n_env_rejected: int

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.c_hat)


def local_stability_audit(
    model,
    lam: Window,
    t: int,
    n_trials: int,
    rng: np.random.Generator,
    interior_sampler: Callable[[np.random.Generator], Configuration],
    env_sampler: Callable[[np.random.Generator], Configuration],
    delta: float,
    exponent: float,
    max_env_tries: int = 200,
) -> LocalStabilityReport:
    """Worst observed -H_lam(gamma | xi) / Sum(1 + |m|^exponent) over random
    interiors and random t-tempered environments.

    Environment draws failing the temperedness test are redrawn (counted in
    the report); trials whose conditional energy is infinite are skipped the
    same way as in the global audit.
    """
    worst = -math.inf
    used = infinite = env_rejected = 0
    for _ in range(n_trials):
        xi = None
        for _attempt in range(max_env_tries):
            cand = env_sampler(rng)
            ok, _rep = is_tempered(cand, t, delta)
            if ok:
                xi = cand
                break
            env_rejected += 1
        if xi is None:
            raise NumericalFailure(
                f"no {t}-tempered environment found in {max_env_tries} draws; "
                "raise t or tame the environment sampler"
            )
        gamma = restrict(interior_sampler(rng), lam)
        if len(gamma) == 0:
            continue
        h = conditional_energy(model, gamma, xi, lam, t, delta, check_tempered=False)
        if h == math.inf:
            infinite += 1
            continue
        stat = mark_statistic(gamma, exponent)
        worst = max(worst, -h / stat)
        used += 1
    c_hat = worst if used else math.nan
    return LocalStabilityReport(
        c_hat, t, exponent, n_trials, used, infinite, env_rejected
    )
