"""Temperedness classes and the range-separation radius.

A configuration is t-tempered (integer t >= 1) when for every integer l >= 1 the
tame statistic of its restriction to the open ball B(0, l) is at most t * l^d.
For a finite configuration the restriction stabilises once l exceeds the
circumradius, so the check is a finite scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .points import Configuration

__all__ = [
    "l1",
    "l_range",
    "TemperednessReport",
    "is_tempered",
    "minimal_t",
    "in_underline_M",
    "range_separation_check",
]


def _radii(config: Configuration) -> np.ndarray:
    """|x| of each atom: ``np.linalg.norm(locations, axis=1)`` to the bit,
    which is this expression, without the wrapper's argument handling."""
    locs = config.locations()
    return np.sqrt(np.add.reduce(locs * locs, axis=1))


def l1(t: float, eta: float, d: int, delta: float) -> float:
    """Radius beyond which every ball of a t-tempered configuration has
    relative mark norm below eta: (t / eta^(d+delta))^(1/delta)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    if d < 1 or delta <= 0:
        raise ValueError("need d >= 1 and delta > 0")
    return float((t / eta ** (d + delta)) ** (1.0 / delta))


def l_range(t: float, d: int, delta: float) -> float:
    """Half of l1(t, 1/2): grains rooted beyond 2*l_range + 1 miss B(0, l)."""
    return 0.5 * l1(t, 0.5, d, delta)


@dataclass(frozen=True)
class TemperednessReport:
    """Outcome of the ball-by-ball temperedness scan.

    rows holds (l, statistic, bound, slack) for each scanned radius; slack is
    bound - statistic, negative exactly on violated radii.
    """

    t: int
    passed: bool
    minimal_t: int
    rows: tuple[tuple[int, float, float, float], ...]


def is_tempered(
    config: Configuration, t: int, delta: float
) -> tuple[bool, TemperednessReport]:
    """Check membership in the t-tempered class, with a per-radius report.

    The scan runs l = 1 .. ceil(circumradius) + 1; beyond that the restricted
    statistic is the full statistic while the bound t*l^d keeps growing, so no
    further radius can fail.
    """
    if t < 1 or int(t) != t:
        raise ValueError("t must be a positive integer")
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = int(t)
    d = config.dimension
    radii = _radii(config)
    weights = config.mark_norms() ** (d + delta)
    rows = []
    t_min = 1
    for l in range(1, int(math.ceil(radii.max(initial=0.0))) + 2):
        inside = radii < l  # the open ball B(0, l)
        stat = float(np.count_nonzero(inside) + np.add.reduce(weights[inside]))
        vol = l**d
        rows.append((l, stat, float(t) * vol, float(t) * vol - stat))
        # least level at l by the bound's own comparison: the ceiling of the
        # rounded quotient never overshoots it but can fall one short
        need = max(1, math.ceil(stat / vol))
        while stat > float(need) * vol:
            need += 1
        t_min = max(t_min, need)
    passed = t >= t_min  # the bound is monotone in t
    return passed, TemperednessReport(t=t, passed=passed, minimal_t=t_min, rows=tuple(rows))


def minimal_t(config: Configuration, delta: float) -> int:
    """Smallest integer t for which the configuration is t-tempered."""
    _, report = is_tempered(config, 1, delta)
    return report.minimal_t


def in_underline_M(config: Configuration, l: int) -> bool:
    """Geometric envelope class: for every k >= l, every atom rooted at
    |x| >= 2k + 1 satisfies |x| - |m| >= k (its grain misses B(0, k))."""
    if l < 1 or int(l) != l:
        raise ValueError("l must be a positive integer")
    if len(config) == 0:
        return True
    radii = _radii(config)
    norms = config.mark_norms()
    k_max = int(math.floor((radii.max() - 1.0) / 2.0))
    for k in range(int(l), k_max + 1):
        far = radii >= 2 * k + 1
        if np.any(radii[far] - norms[far] < k):
            return False
    return True


def range_separation_check(
    config: Configuration, t: int, delta: float, l: int | None = None
) -> tuple[bool, tuple[float, ...] | None]:
    """Verify that atoms rooted at |x| >= 2l + 1 have grains disjoint from B(0, l).

    l defaults to ceil(l_range(t)); any l >= l_range(t) is a valid choice for a
    t-tempered configuration. Returns (ok, witness_location) with the witness
    set on failure.
    """
    d = config.dimension
    l_star = l_range(t, d, delta)
    if l is None:
        l = max(1, int(math.ceil(l_star)))
    if l < l_star:
        raise ValueError(f"l = {l} is below the separation radius {l_star:.6g}")
    if len(config) == 0:
        return True, None
    radii = _radii(config)
    norms = config.mark_norms()
    far = radii >= 2 * l + 1
    bad = far & (radii - norms < l)
    if np.any(bad):
        idx = int(np.argmax(bad))
        return False, config.points[idx].location
    return True, None
