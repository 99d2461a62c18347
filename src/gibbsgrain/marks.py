"""Mark laws: scalar radius laws and Langevin path marks.

Scalar laws produce non-negative radii. Path marks are Euler-Maruyama
discretisations of a Langevin diffusion on [0, 1] started at the origin; their
norm is the supremum of |X_s| over the sample grid, which underestimates the
true path supremum by the amount the path wanders between grid points.

A path is drawn by the Euler loop ``x = x - 0.5 * h * grad(x) + noise[i]``
over (2,) arrays, from one (K, 2) noise block drawn in one call. The quartic
potential, the one the diffusion model uses, has a fused twin of that loop
over Python floats (a two-element array costs far more per step in call
overhead than the arithmetic itself): the gradient is inlined as
``s = 4.0 * (x0 * x0 + x1 * x1)`` and ``g = s * x`` (a two-term ``np.sum``
is one addition), so a step makes no call and does the array loop's IEEE
double operations in its order. Every path is bit for bit the one the array
loop draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .points import _mark_norm_of

__all__ = [
    "PathMark",
    "MarkLaw",
    "PointMassLaw",
    "UniformLaw",
    "TruncatedSubbotinLaw",
    "TableLaw",
    "LangevinSpec",
    "MomentAudit",
    "super_exp_moment_estimate",
    "InvariantCheck",
    "langevin_invariant_check",
]


@dataclass(frozen=True, eq=False)
class PathMark:
    """Planar path sampled on a uniform grid over [0, 1], starting at 0."""

    samples: np.ndarray
    sup_norm: float = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("path samples must be a (K+1, 2) array with K >= 1")
        if arr[0].tolist() != [0.0, 0.0]:
            raise ValueError("paths start at the origin")
        if not np.isfinite(arr).all():
            raise ValueError("path samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        # np.linalg.norm(arr, axis=1).max() to the bit: the norm's two-term
        # reduce is one addition, and a correctly rounded sqrt is monotone,
        # so the square root of the largest sum is the largest root
        sq = arr * arr
        object.__setattr__(self, "sup_norm", math.sqrt((sq[:, 0] + sq[:, 1]).max()))

    @property
    def step_count(self) -> int:
        return self.samples.shape[0] - 1


# ---------------------------------------------------------------------------
# Scalar radius laws
# ---------------------------------------------------------------------------


class _RowReplay:
    """Stands in for the generator in a mark law's ``sample``: ``random()``
    returns the doubles of one block row, in order."""

    __slots__ = ("random",)

    def __init__(self, row: list[float]):
        self.random = iter(row).__next__


class MarkLaw:
    """Common interface: ``sample(rng)``. The CLI builds the built-in laws
    from their config blocks with ``law_from_descriptor``.

    ``uniforms`` is how many ``rng.random()`` doubles one ``sample`` call
    reads, for a law whose ``sample`` reads exactly that many and calls no
    other method of ``rng``; it is ``None`` for any law that draws otherwise.
    When it is set, ``sampler.sample_poisson`` draws a whole configuration's
    doubles in one block and takes the marks from ``marks_from_uniforms`` on
    the block's mark columns. That method must return, for each row, the mark
    ``sample`` returns on that row's doubles, of the same type and value,
    and the norm ``points.MarkedPoint.make`` computes for it, bit for bit.
    The default replays ``sample`` row by row, so a custom law needs only
    ``sample``; ``UniformLaw`` overrides it with one array formula.

    ``max_norm`` bounds the norm of every draw (the end of a scalar law's
    support), or is ``None`` when the law has no such bound; ``run_chain``
    certifies the environment at it.
    """

    uniforms: int | None = None
    max_norm: float | None = None

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def marks_from_uniforms(self, u: np.ndarray) -> tuple[list, np.ndarray]:
        """(marks, norms) of the draws whose doubles are the rows of the
        (n, uniforms) array ``u``: a list of n marks and a float array of
        their norms."""
        marks = [self.sample(_RowReplay(row)) for row in u.tolist()]
        return marks, np.array([_mark_norm_of(m) for m in marks], dtype=float)


@dataclass(frozen=True)
class PointMassLaw(MarkLaw):
    value: float

    uniforms = 0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("radius marks are non-negative")

    @property
    def max_norm(self) -> float:
        return float(self.value)

    def sample(self, rng) -> float:
        return self.value


@dataclass(frozen=True)
class UniformLaw(MarkLaw):
    """Uniform on [0, b]."""

    b: float

    uniforms = 1

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("upper endpoint must be positive")

    @property
    def max_norm(self) -> float:
        return float(self.b)

    def sample(self, rng) -> float:
        return float(rng.random() * self.b)

    def marks_from_uniforms(self, u):
        if not isinstance(self.b, (int, float)):
            # a numpy scalar b could round the product differently as a
            # Python float times b than as an array times b
            return super().marks_from_uniforms(u)
        # u >= +0.0 and b > 0, so each mark is its own norm
        x = u[:, 0] * self.b
        return x.tolist(), x


class TruncatedSubbotinLaw(MarkLaw):
    """Density proportional to exp(-x^exponent) on [0, cutoff].

    Sampled exactly by inversion: X^p, p the exponent, is Gamma(1/p)
    truncated at cutoff^p, so X = P^-1(1/p, u P(1/p, cutoff^p))^(1/p) for a
    uniform u, with P the regularised lower incomplete gamma function. The
    inverse can overshoot cutoff by a few ulps for u near 1, so draws are
    clamped to it.
    """

    uniforms = 1

    def __init__(self, exponent: float, cutoff: float = 2.0):
        if not 0 < exponent < math.inf or cutoff <= 0:
            raise ValueError("exponent must be positive and finite, cutoff positive")
        self.exponent = float(exponent)
        self.cutoff = self.max_norm = float(cutoff)
        # scipy.special is imported here, not at module level, so a run
        # without Subbotin marks never loads it
        from scipy import special

        self._shape = 1.0 / self.exponent
        self._mass = float(special.gammainc(self._shape, self.cutoff**self.exponent))
        self._gammaincinv = special.gammaincinv

    def sample(self, rng) -> float:
        x = float(self._gammaincinv(self._shape, rng.random() * self._mass)) ** self._shape
        return min(x, self.cutoff)


class TableLaw(MarkLaw):
    """Discrete law over a user-supplied table of radius values.

    A uniform u draws the first value whose cumulative probability exceeds
    it. Rounding can leave the last cumulative sum a few ulps below 1; a u at
    or above it draws the last value of positive probability.
    """

    uniforms = 1

    def __init__(self, values: Sequence[float], probs: Sequence[float]):
        v = np.asarray(values, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.ndim != 1 or v.shape != p.shape or v.size == 0:
            raise ValueError("values and probs must be matching non-empty vectors")
        if np.any(v < 0):
            raise ValueError("radius marks are non-negative")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("probs must be a probability vector")
        self.values = v
        self.max_norm = float(v.max())
        self.probs = p / p.sum()
        self._cum = np.cumsum(self.probs)
        self._last = int(np.flatnonzero(self.probs)[-1])

    def sample(self, rng) -> float:
        u = rng.random()
        i = min(int(np.searchsorted(self._cum, u, side="right")), self._last)
        return float(self.values[i])


# ---------------------------------------------------------------------------
# Langevin path law
# ---------------------------------------------------------------------------


def _quartic(x):
    return (np.sum(x * x, axis=-1)) ** 2


def _quartic_grad(x):
    return 4.0 * np.sum(x * x, axis=-1)[..., None] * x


def _quadratic(x):
    return np.sum(x * x, axis=-1)


def _quadratic_grad(x):
    return 2.0 * x


def _zero(x):
    return np.zeros(np.asarray(x).shape[:-1])


def _zero_grad(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _quartic_path(noise: list[float], hh: float) -> list[float]:
    """The Euler loop for ``_quartic_grad`` with the gradient inlined: the
    flat list x0, x1 of the K + 1 path points, from the flat noise list
    n0, n1 of the K steps and hh = h / 2. Each step computes
    s = 4.0 * (x0 * x0 + x1 * x1) from the old point, then
    x - hh * (s * x) + n per coordinate: the operations of ``_quartic_grad``
    and of the array step, in their order."""
    x0 = x1 = 0.0
    flat = [x0, x1]
    put = flat.append
    steps = iter(noise)
    for n0, n1 in zip(steps, steps):
        s = 4.0 * (x0 * x0 + x1 * x1)
        x0 = x0 - hh * (s * x0) + n0
        x1 = x1 - hh * (s * x1) + n1
        put(x0)
        put(x1)
    return flat


_POTENTIALS: dict[str, tuple[Callable, Callable]] = {
    "quartic": (_quartic, _quartic_grad),
    "quadratic": (_quadratic, _quadratic_grad),
    "zero": (_zero, _zero_grad),
}


@dataclass(frozen=True)
class LangevinSpec(MarkLaw):
    """Path mark law: dX = -1/2 grad V(X) dt + dW on [0, 1], X_0 = 0.

    ``potential`` and ``grad`` must accept (..., 2) arrays. ``name`` identifies
    the potential in manifests; use "custom" for ad-hoc callables.

    ``sample`` runs the array Euler loop (see the module docstring), which
    calls ``grad`` on a (2,) array each step. When ``grad`` is the built-in
    quartic gradient (by identity, whatever the ``name``) it runs the fused
    float loop instead, with the gradient inlined (``_quartic_path``).
    ``sample_endpoints`` advances many chains at once.
    """

    potential: Callable = _quartic
    grad: Callable = _quartic_grad
    step_count: int = 256
    name: str = "quartic"

    def __post_init__(self):
        k = self.step_count
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"step_count must be an integer, got {k!r}")
        if k < 2:
            raise ValueError("step_count must be at least 2")

    @staticmethod
    def named(name: str, step_count: int = 256) -> "LangevinSpec":
        if name not in _POTENTIALS:
            raise ValueError(f"unknown potential {name!r}; have {sorted(_POTENTIALS)}")
        v, g = _POTENTIALS[name]
        return LangevinSpec(potential=v, grad=g, step_count=step_count, name=name)

    def sample(self, rng) -> PathMark:
        k = self.step_count
        h = 1.0 / k
        hh = 0.5 * h
        noise = rng.standard_normal((k, 2)) * math.sqrt(h)
        if self.grad is _quartic_grad:
            # n0, n1 of each step in turn
            flat = _quartic_path(noise.ravel().tolist(), hh)
            return PathMark(np.fromiter(flat, float, len(flat)).reshape(k + 1, 2))
        out = np.zeros((k + 1, 2))
        x = np.zeros(2)
        for i in range(k):
            x = x - hh * self.grad(x) + noise[i]
            out[i + 1] = x
        return PathMark(out)

    def sample_endpoints(self, rng, n_chains: int, n_steps: int, guard_radius: float):
        """Vectorised chains for the invariant check; returns (endpoints, diverged)."""
        h = 1.0 / self.step_count
        x = np.zeros((n_chains, 2))
        sqrt_h = math.sqrt(h)
        for i in range(n_steps):
            x = x - 0.5 * h * self.grad(x) + sqrt_h * rng.standard_normal((n_chains, 2))
            if (i + 1) % 64 == 0 or i == n_steps - 1:
                if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > guard_radius:
                    return x, True
        return x, False


def law_from_descriptor(desc: dict) -> MarkLaw:
    """The built-in law that a mark-law block names: ``{"kind": k, ...}``
    with the law's parameters (``point``: value; ``uniform``: b;
    ``subbotin``: exponent, cutoff; ``table``: values, probs; ``langevin``:
    potential, step_count). A point, uniform or table block whose largest
    mark is not finite is refused here; the constructors still build such a
    law, whose draws the samplers' own norm check then refuses."""
    kind = desc.get("kind")
    body = {k: v for k, v in desc.items() if k != "kind"}
    scalar = {"point": PointMassLaw, "uniform": UniformLaw, "table": TableLaw}.get(kind)
    if scalar is not None:
        law = scalar(**body)
        if not math.isfinite(law.max_norm):
            raise ValueError(f"{kind} mark law needs finite marks, got max_norm {law.max_norm}")
        return law
    if kind == "subbotin":
        return TruncatedSubbotinLaw(**body)
    if kind == "langevin":
        unknown = set(body) - {"potential", "step_count"}
        if unknown:
            raise ValueError(f"unknown keys in a langevin mark law: {sorted(unknown)}")
        return LangevinSpec.named(body["potential"], body.get("step_count", 256))
    raise ValueError(f"unknown mark law kind {kind!r}")


# ---------------------------------------------------------------------------
# Moment audit and invariant check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentAudit:
    """Monte Carlo estimate of E[exp(|m|^(d + 2 delta))].

    Overflowing terms are counted in n_overflow rather than crashing the
    estimate; ``finite`` is False when any term overflowed, in which case the
    reported mean covers the finite terms only and the law fails the audit.
    """

    estimate: float
    stderr: float
    n: int
    n_overflow: int
    exponent: float

    @property
    def finite(self) -> bool:
        return self.n_overflow == 0


def super_exp_moment_estimate(
    law: MarkLaw, d: int, delta: float, n_samples: int, rng: np.random.Generator
) -> MomentAudit:
    """Estimate the super-exponential mark moment with exponent d + 2*delta."""
    if n_samples < 1000:
        raise ValueError("moment audit needs n_samples >= 1000")
    exponent = d + 2.0 * delta
    norms = np.empty(n_samples)
    for i in range(n_samples):
        norms[i] = _mark_norm_of(law.sample(rng))
    with np.errstate(over="ignore"):
        terms = np.exp(norms**exponent)
    ok = np.isfinite(terms)
    n_over = int(n_samples - ok.sum())
    if ok.any():
        est = float(terms[ok].mean())
        se = float(terms[ok].std(ddof=1) / math.sqrt(ok.sum())) if ok.sum() > 1 else 0.0
    else:
        est, se = math.inf, math.inf
    return MomentAudit(estimate=est, stderr=se, n=n_samples, n_overflow=n_over, exponent=exponent)


# KS distance up to which ``langevin_invariant_check`` passes a law
_KS_THRESHOLD = 0.02


@dataclass(frozen=True)
class InvariantCheck:
    """KS comparison of the simulated radial law against exp(-V) heat-kernel target."""

    ks_stat: float
    threshold: float
    n: int
    diverged: bool

    @property
    def passed(self) -> bool:
        return (not self.diverged) and self.ks_stat <= self.threshold


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x from x[0], starting at 0: the
    expression ``scipy.integrate.cumulative_trapezoid(y, x, initial=0)``
    evaluates, so the values agree bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def langevin_invariant_check(
    spec: LangevinSpec,
    burn_in: int,
    n_samples: int,
    rng: np.random.Generator,
    guard_radius: float = 50.0,
) -> InvariantCheck:
    """Run n_samples independent chains for burn_in steps and KS-test |X|.

    The target radial density is r * exp(-V(r)) (the potential is assumed
    rotation invariant, as all built-ins are), normalised by quadrature. A
    non-confining potential is reported through the divergence guard: any
    chain leaving the guard radius fails the check immediately.
    """
    if burn_in < 1 or n_samples < 100:
        raise ValueError("need burn_in >= 1 and n_samples >= 100")
    x, diverged = spec.sample_endpoints(rng, n_samples, burn_in, guard_radius)
    if diverged:
        return InvariantCheck(ks_stat=1.0, threshold=_KS_THRESHOLD, n=n_samples, diverged=True)
    r = np.sort(np.linalg.norm(x, axis=1))
    grid = np.linspace(0.0, max(4.0, float(r[-1]) * 1.25), 20001)
    axis_pts = np.stack([grid, np.zeros_like(grid)], axis=1)
    pdf = grid * np.exp(-spec.potential(axis_pts))
    cdf = _cumulative_trapezoid(pdf, grid)
    cdf /= cdf[-1]
    f_at = np.interp(r, grid, cdf)
    i = np.arange(1, len(r) + 1)
    ks = float(np.max(np.maximum(f_at - (i - 1) / len(r), i / len(r) - f_at)))
    return InvariantCheck(ks_stat=ks, threshold=_KS_THRESHOLD, n=n_samples, diverged=False)
