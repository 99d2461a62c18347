"""Verification-grade estimators: partition functions, entropy, empirical
fields, and kernel-consistency residuals.

Everything here consumes immutable sample batches and aggregates in a fixed
order, so reports are bit-reproducible given the seeds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .functionals import LocalFunctional
from .marks import MarkLaw
from .points import (
    Ball,
    Box,
    Configuration,
    MarkedPoint,
    Window,
    mark_statistic,
    restrict,
    tame_statistic,
    window_contains,
)
from .rng import stream
from .sampler import _poisson_draws, rejection_sample, run_chain

__all__ = [
    "PartitionReport",
    "partition_estimate",
    "JStatistic",
    "j_statistic",
    "EntropyReport",
    "relative_entropy_estimate",
    "EntropyPoint",
    "EntropyCurve",
    "specific_entropy_curve",
    "FieldDraw",
    "empirical_field_draw",
    "DlrReport",
    "dlr_residual",
]

log = logging.getLogger(__name__)

# The smallest batches the estimators accept; the CLI refuses smaller
# counts in a config before a run starts.
MIN_PARTITION_SAMPLES = 1000
MIN_ENERGIES = 2
MIN_INNER_SAMPLES = 100
MIN_OUTER_SAMPLES = 2
# a chain of c steps keeps ceil(c/2) // max(1, c // (2n)) of its last c/2
# states for n >= MIN_ENERGIES energies: at least 2 from c = 3 on, 1 at c = 2
MIN_CHAIN_STEPS = 3
# Draws per block of ``partition_estimate``: the draws of a block are read
# from the stream one after another, then priced by one ``model.energies``
# call. On the ``entropy-nonnegpair`` settings, blocks of 64 to 256 draws
# took the same time within the noise, and each doubling added up to about
# 0.5 MB to the peak RSS of an entropy run.
DRAW_BLOCK = 64


# ---------------------------------------------------------------------------
# Partition function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    """``ess`` is Kish's effective sample size of the importance weights,
    (sum w)^2 / sum w^2, and ``max_weight_share`` the largest weight's share
    of their sum; both are 0 when every weight is 0. ``z_hat`` and
    ``stderr`` are +inf when Z overflows a double; the log estimates stay
    finite."""

    z_hat: float
    stderr: float
    log_z_hat: float
    log_stderr: float
    n_samples: int
    n_infinite: int
    lower_bound: float
    degenerate: bool
    ess: float = 0.0
    max_weight_share: float = 0.0


def _scaled(x: float, log_scale: float) -> float:
    """x * e^log_scale for x >= 0; +inf only when the product overflows."""
    if x == 0.0:
        return 0.0
    try:
        return math.exp(math.log(x) + log_scale)
    except OverflowError:
        return math.inf


def partition_estimate(
    model,
    window: Window,
    z: float,
    mark_law: MarkLaw,
    n_samples: int,
    rng: np.random.Generator,
) -> PartitionReport:
    """Importance-sampling estimate of the normalizer: mean of exp(-H) over
    Poisson draws, with a jackknife-corrected log estimate.

    The weights are kept in log space: each is exp(-H - s), s the largest
    -H of the batch, so the largest is 1 and no energy is clamped. The
    leave-one-out sums of the jackknife are taken on those weights too,
    the largest draw's from the others alone, shifted by their own largest
    -H, so that a draw carrying nearly all the weight cannot cancel itself
    out. That keeps log Z finite, but when one draw carries nearly all the
    weight the jackknife roughly doubles it: H = -600 on one draw of 1000,
    0 on the rest, gives ``log_z_hat`` 1184.6 against the plug-in log-mean
    593.1. A low ``ess`` is the signal that the estimate rests on a few
    draws. With one finite-energy draw every other leave-one-out sum is 0,
    so there is no jackknife: ``log_z_hat`` is the plug-in log-mean and
    ``log_stderr`` is +inf. The empty configuration contributes weight one,
    so the true value is at least exp(-z |W|); the report carries that
    floor. The draws are read and priced in blocks of ``DRAW_BLOCK``
    (``sampler._poisson_draws``, ``model.energies``), which leaves the
    stream and every energy as draws priced one at a time would. A batch in
    which every draw has infinite energy yields estimate 0
    with a logged warning instead of an exception (it is a legitimate
    outcome for hard cores at high activity, and the caller sees
    ``degenerate=True``).
    """
    if n_samples < MIN_PARTITION_SAMPLES:
        raise PreconditionError(
            f"partition_estimate needs at least {MIN_PARTITION_SAMPLES} samples")
    neg_h = np.empty(n_samples)
    for start in range(0, n_samples, DRAW_BLOCK):
        count = min(DRAW_BLOCK, n_samples - start)
        draws, _ = _poisson_draws(window, z, mark_law, rng, count)
        neg_h[start:start + count] = model.energies(draws)
    np.negative(neg_h, out=neg_h)
    n_inf = int(np.count_nonzero(neg_h == -math.inf))
    lower = math.exp(-z * window.volume())
    top = int(neg_h.argmax())
    shift = float(neg_h[top])
    if shift == -math.inf:
        log.warning(
            "all %d importance draws had infinite energy; partition estimate "
            "degenerates to 0",
            n_samples,
        )
        return PartitionReport(0.0, 0.0, math.nan, math.nan, n_samples, n_inf, lower, True)
    weights = np.exp(neg_h - shift)
    total = float(weights.sum())
    z_hat = _scaled(total / n_samples, shift)
    stderr = _scaled(float(weights.std(ddof=1)) / math.sqrt(n_samples), shift)
    ess = total**2 / float(np.dot(weights, weights))
    log_plug = math.log(total / n_samples)
    others = np.delete(neg_h, top)
    second = float(others.max())
    if second == -math.inf:
        return PartitionReport(z_hat, stderr, shift + log_plug, math.inf, n_samples, n_inf,
                               lower, False, ess, 1.0 / total)
    # leave-one-out log means, relative to the shift; the top draw's sum may
    # cancel to 0 here and is recomputed from the others
    with np.errstate(divide="ignore"):
        loo = np.log((total - weights) / (n_samples - 1))
    rest = float(np.exp(others - second).sum())
    loo[top] = second - shift + math.log(rest / (n_samples - 1))
    log_jack = shift + n_samples * log_plug - (n_samples - 1) * float(loo.mean())
    log_se = float(
        math.sqrt((n_samples - 1) / n_samples * np.sum((loo - loo.mean()) ** 2))
    )
    return PartitionReport(
        z_hat, stderr, log_jack, log_se, n_samples, n_inf, lower, False, ess, 1.0 / total
    )


# ---------------------------------------------------------------------------
# Tame-statistic growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JStatistic:
    j_hat: float
    stderr: float
    n_samples: int


def j_statistic(samples: Sequence[Configuration], delta: float) -> JStatistic:
    """Empirical mean of the weighted atom count over a sample batch."""
    if len(samples) < 100:
        raise PreconditionError("j_statistic needs at least 100 samples")
    vals = np.array([tame_statistic(c, delta) for c in samples])
    return JStatistic(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(len(vals))),
        len(vals),
    )


# ---------------------------------------------------------------------------
# Relative entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyReport:
    i_hat: float
    log_z: float
    mean_energy: float
    per_volume: float
    stderr: float
    per_volume_stderr: float
    n_samples: int
    volume: float

    @property
    def nonneg_ok(self) -> bool:
        """Relative entropy is non-negative; flag estimates below -3 sigma."""
        return self.i_hat >= -3.0 * self.stderr


def relative_entropy_estimate(
    energies: Sequence[float], window: Window, partition: PartitionReport
) -> EntropyReport:
    """Relative entropy of the finite-volume law w.r.t. its Poisson reference
    from the energies of samples of that law: I = -E[H] - log Z, with errors
    propagated from both estimates; at least two energies, for a stderr."""
    if partition.degenerate:
        raise PreconditionError("partition estimate degenerated to 0; no log Z")
    energies = np.array(energies, dtype=float)
    if len(energies) < MIN_ENERGIES:
        raise PreconditionError(
            f"need at least {MIN_ENERGIES} energies for a stderr, got {len(energies)}")
    if not np.all(np.isfinite(energies)):
        raise PreconditionError(
            "samples with infinite energy cannot come from the target law"
        )
    mean_h = float(energies.mean())
    se_h = float(energies.std(ddof=1) / math.sqrt(len(energies)))
    i_hat = -mean_h - partition.log_z_hat
    se = math.sqrt(se_h**2 + partition.log_stderr**2)
    vol = window.volume()
    report = EntropyReport(
        i_hat, partition.log_z_hat, mean_h, i_hat / vol, se, se / vol,
        len(energies), vol,
    )
    if not report.nonneg_ok:
        log.warning(
            "relative entropy estimate %.4g is negative beyond 3 sigma (%.4g); "
            "energy and partition estimates disagree",
            i_hat, se,
        )
    return report


@dataclass(frozen=True)
class EntropyPoint(EntropyReport):
    """The entropy report of the cube [-n, n)^d with its ceiling terms and
    the weight diagnostics of its partition estimate."""

    n: int
    a1_hat: float
    ceiling: float
    partition_ess: float
    max_weight_share: float


@dataclass(frozen=True)
class EntropyCurve:
    points: tuple[EntropyPoint, ...]
    c_hat: float
    z: float
    exponent: float

    @property
    def under_ceiling(self) -> bool:
        return all(
            p.per_volume + 3.0 * p.per_volume_stderr <= p.ceiling for p in self.points
        )

    @property
    def trend_ok(self) -> bool:
        """No upward step larger than the combined 3-sigma width."""
        for i, a in enumerate(self.points):
            for b in self.points[i + 1 :]:
                width = 3.0 * math.hypot(a.per_volume_stderr, b.per_volume_stderr)
                if b.per_volume - a.per_volume > width:
                    return False
        return True


def specific_entropy_curve(
    model,
    d: int,
    n_list: Sequence[int],
    z: float,
    mark_law: MarkLaw,
    delta: float,
    seed: int,
    n_energy_samples: int = 400,
    n_partition_samples: int = 2000,
    chain_steps: int = 40_000,
    stat_exponent: float | None = None,
    audit_c: float | None = None,
) -> EntropyCurve:
    """Per-volume relative entropy on centered cubes [-n, n)^d.

    Energy samples come from the exact rejection sampler when the model
    certifies H >= 0 and from the chain otherwise. The ceiling is
    c_hat * a1_hat + z, where c_hat is the worst -H/statistic ratio observed
    across the audit (if supplied) and these very samples, and a1_hat is the
    per-volume mean statistic; by construction -mean(H) <= c_hat * mean(stat)
    on the realized batch, so only the log Z term can push the curve above
    the ceiling.
    """
    if list(n_list) != sorted(set(int(n) for n in n_list)):
        raise PreconditionError("n_list must be strictly increasing")
    if not getattr(model, "nonnegative", False) and chain_steps < MIN_CHAIN_STEPS:
        raise PreconditionError(f"a chain-sampled model needs chain_steps >= {MIN_CHAIN_STEPS}")
    exponent = stat_exponent if stat_exponent is not None else d + delta
    per_n = []
    c_hat = -math.inf if audit_c is None else audit_c
    for i, n in enumerate(n_list):
        window = Box.centered_cube(n, d)
        if getattr(model, "nonnegative", False):
            res = rejection_sample(
                model, window, z, mark_law, n_energy_samples, stream(seed, 10 + i)
            )
            samples, energies = res.samples, res.energies
        else:
            thin = max(1, chain_steps // (2 * n_energy_samples))
            out = run_chain(
                model, window, z, mark_law, chain_steps, stream(seed, 10 + i),
                burn_in=chain_steps // 2, thin=thin,
            )
            samples = out.samples
            energies = [model.energy(c) for c in samples]
        part = partition_estimate(
            model, window, z, mark_law, n_partition_samples, stream(seed, 60 + i)
        )
        if part.ess < 0.01 * part.n_samples:
            log.warning(
                "partition estimate on [-%d, %d)^%d rests on few draws: ESS %.3g of %d "
                "(largest weight share %.3g); log Z is not credible",
                n, n, d, part.ess, part.n_samples, part.max_weight_share,
            )
        report = relative_entropy_estimate(energies, window, part)
        stats = [mark_statistic(c, exponent) for c in samples]
        for h, s in zip(energies, stats):
            if s > 0:
                c_hat = max(c_hat, -h / s)
        a1 = float(np.mean(stats)) / window.volume()
        per_n.append((int(n), report, a1, part))
    points = tuple(
        EntropyPoint(**vars(report), n=n, a1_hat=a1, ceiling=c_hat * a1 + z,
                     partition_ess=part.ess, max_weight_share=part.max_weight_share)
        for n, report, a1, part in per_n
    )
    return EntropyCurve(points, c_hat, z, exponent)


# ---------------------------------------------------------------------------
# Empirical field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDraw:
    config: Configuration
    shift: tuple[int, ...]
    n_blocks: int


def empirical_field_draw(
    block_sampler: Callable[[np.random.Generator], Configuration],
    n: int,
    rng: np.random.Generator,
    obs_window: Box,
    max_blocks: int = 512,
) -> FieldDraw:
    """One draw from the stationarized block mixture.

    The plane is tiled by disjoint translates of [-n, n)^d; each tile meeting
    the shifted observation window receives an independent copy from
    ``block_sampler`` (a sampler for the law on [-n, n)^d). A uniform integer
    shift from [-n, n)^d inter Z^d is then applied and the union restricted
    to the observation window. Needing more than ``max_blocks`` tiles is an
    error: the observation window outgrew the materialized block set.
    """
    if n < 1:
        raise PreconditionError("block half-width n must be >= 1")
    d = obs_window.dimension
    side = 2 * n
    kappa = np.array([int(rng.integers(-n, n)) for _ in range(d)])
    lo = obs_window.bounds[:, 0] + kappa
    hi = obs_window.bounds[:, 1] + kappa
    j_lo = np.floor((lo + n) / side).astype(int)
    j_hi = np.ceil((hi + n) / side).astype(int) - 1
    counts = j_hi - j_lo + 1
    n_blocks = int(np.prod(counts))
    if n_blocks > max_blocks:
        raise ConfigError(
            f"observation window needs {n_blocks} blocks, above the limit {max_blocks}"
        )
    pts: list[MarkedPoint] = []
    for flat in range(n_blocks):
        idx = []
        rem = flat
        for c in counts:
            idx.append(rem % c)
            rem //= c
        j = j_lo + np.array(idx)
        offset = side * j - kappa
        block = block_sampler(rng)
        for p in block.points:
            loc = tuple(float(x + o) for x, o in zip(p.location, offset))
            pts.append(MarkedPoint(loc, p.mark, p.mark_norm))
    full = Configuration(pts, dimension=d)
    return FieldDraw(restrict(full, obs_window), tuple(int(k) for k in kappa), n_blocks)


# ---------------------------------------------------------------------------
# DLR residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DlrReport:
    functional: str
    outer_mean: float
    inner_mean: float
    residual: float
    stderr: float
    n_outer: int
    n_inner: int

    @property
    def passed(self) -> bool:
        """Residual within three paired standard errors."""
        return self.residual <= 3.0 * self.stderr


def dlr_residual(
    model,
    lam: Window,
    z: float,
    mark_law: MarkLaw,
    outer_samples: Sequence[Configuration],
    functionals: Sequence[LocalFunctional],
    n_inner: int,
    rng: np.random.Generator,
) -> tuple[DlrReport, ...]:
    """Paired one-step resampling residuals, one report per functional.

    For each outer sample the window ``lam`` is resampled exactly from the
    conditional kernel given the rest of the configuration (rejection
    sampling, so the model must certify H >= 0), and every functional is
    evaluated on both versions; the residual is |mean difference| with the
    paired standard error, which absorbs outer and inner variance at once.
    All functionals share the same outer and inner draws, so residuals are
    comparable across the library.
    """
    if n_inner < MIN_INNER_SAMPLES:
        raise PreconditionError(
            f"inner budget must be at least {MIN_INNER_SAMPLES} kernel samples")
    if len(outer_samples) < MIN_OUTER_SAMPLES:
        raise PreconditionError(f"need at least {MIN_OUTER_SAMPLES} outer samples")
    origin = (0.0,) * lam.dimension
    for f in functionals:
        if not window_contains(lam, Ball(origin, f.support_radius)):
            raise PreconditionError(
                f"functional {f.name!r} reads outside the resampled window "
                f"(support ball of radius {f.support_radius} not inside {lam!r})"
            )
    n_outer = len(outer_samples)
    outer_vals = np.empty((len(functionals), n_outer))
    inner_vals = np.empty((len(functionals), n_outer))
    for i, gamma in enumerate(outer_samples):
        inner = rejection_sample(
            model, lam, z, mark_law, n_inner, rng, env=gamma
        ).samples
        for fi, f in enumerate(functionals):
            outer_vals[fi, i] = f(gamma)
            inner_vals[fi, i] = float(np.mean([f(c) for c in inner]))
    reports = []
    for fi, f in enumerate(functionals):
        diff = outer_vals[fi] - inner_vals[fi]
        se = float(diff.std(ddof=1) / math.sqrt(n_outer))
        reports.append(
            DlrReport(
                f.name,
                float(outer_vals[fi].mean()),
                float(inner_vals[fi].mean()),
                abs(float(diff.mean())),
                se,
                n_outer,
                n_inner,
            )
        )
    return tuple(reports)
