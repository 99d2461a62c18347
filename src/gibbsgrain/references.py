"""Exact values that the estimators are checked against.

Hard rods on a line (Tonks 1936, *The complete equation of state of one,
two and three-dimensional gases of hard elastic spheres*, Phys. Rev.): a
``HardSphereModel`` in d = 1 with point-mass marks r is a gas of rods of
length sigma = 2r whose centres lie in the window and whose ends may stick
out of it.
"""

from __future__ import annotations

import math

__all__ = ["hard_rods_log_z", "hard_rods_count_law"]


def _check(z: float, sigma: float, length: float) -> None:
    if not (z >= 0.0 and sigma >= 0.0 and length > 0.0):
        raise ValueError("need z >= 0, sigma >= 0 and a positive length")


def _log_terms(z: float, sigma: float, length: float) -> tuple[list[float], float]:
    """The logs of the terms z^k (L - (k - 1) sigma)^k / k! for k = 0, 1, ...
    up to the last k with a positive free length L - (k - 1) sigma (z, sigma
    > 0), with ``math.lgamma`` for k!, and the log of their sum, taken in log
    space so that no term overflows."""
    logs = [0.0]  # k = 0
    k = 1
    while length - (k - 1) * sigma > 0.0:
        free = length - (k - 1) * sigma
        logs.append(k * math.log(z) + k * math.log(free) - math.lgamma(k + 1))
        k += 1
    top = max(logs)
    return logs, top + math.log(sum(math.exp(v - top) for v in logs))


def hard_rods_log_z(z: float, sigma: float, length: float) -> float:
    """log Z_L of hard rods of length ``sigma`` with centres in a window of
    length L, relative to the Poisson(z) reference, as
    ``estimators.partition_estimate`` reports it:

        Z_L = e^{-zL} sum_k z^k (L - (k - 1) sigma)_+^k / k!,

    the k-th term being the Poisson weight of k centres times the volume of
    their configurations whose gaps are all at least sigma. The sum runs to
    the last k with a positive free length (``_log_terms``).
    """
    _check(z, sigma, length)
    if z == 0.0 or sigma == 0.0:
        return 0.0  # no rod excludes another: the Poisson law itself
    return -z * length + _log_terms(z, sigma, length)[1]


def hard_rods_count_law(z: float, sigma: float, length: float) -> list[float]:
    """The law of the number of rods, P(N = k) for k = 0, 1, ..., K, K the
    most rods whose centres fit in the window:

        P(N = k) = z^k (L - (k - 1) sigma)_+^k / k! / sum_j (same in j),

    the terms of ``hard_rods_log_z``, so that -log P(N = 0) - zL is log Z_L.
    With sigma = 0 the law is Poisson(zL), whose support has no last k, and
    is refused.
    """
    _check(z, sigma, length)
    if z == 0.0:
        return [1.0]
    if sigma == 0.0:
        raise ValueError("sigma = 0 gives the Poisson count law, which has no last k")
    logs, log_sum = _log_terms(z, sigma, length)
    return [math.exp(v - log_sum) for v in logs]
