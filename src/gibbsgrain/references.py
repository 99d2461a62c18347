"""Exact values that the estimators are checked against.

Hard rods on a line (Tonks 1936, *The complete equation of state of one,
two and three-dimensional gases of hard elastic spheres*, Phys. Rev.): a
``HardSphereModel`` in d = 1 with point-mass marks r is a gas of rods of
length sigma = 2r whose centres lie in the window and whose ends may stick
out of it.
"""

from __future__ import annotations

import math

__all__ = ["hard_rods_log_z"]


def hard_rods_log_z(z: float, sigma: float, length: float) -> float:
    """log Z_L of hard rods of length ``sigma`` with centres in a window of
    length L, relative to the Poisson(z) reference, as
    ``estimators.partition_estimate`` reports it:

        Z_L = e^{-zL} sum_k z^k (L - (k - 1) sigma)_+^k / k!,

    the k-th term being the Poisson weight of k centres times the volume of
    their configurations whose gaps are all at least sigma. The sum runs to
    the last k with a positive free length and is taken in log space
    (``math.lgamma`` for k!), so no term overflows.
    """
    if not (z >= 0.0 and sigma >= 0.0 and length > 0.0):
        raise ValueError("need z >= 0, sigma >= 0 and a positive length")
    if z == 0.0 or sigma == 0.0:
        return 0.0  # no rod excludes another: the Poisson law itself
    logs = [0.0]  # k = 0
    k = 1
    while length - (k - 1) * sigma > 0.0:
        free = length - (k - 1) * sigma
        logs.append(k * math.log(z) + k * math.log(free) - math.lgamma(k + 1))
        k += 1
    top = max(logs)
    return -z * length + top + math.log(sum(math.exp(v - top) for v in logs))
