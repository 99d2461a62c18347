"""Finite marked configurations on R^d and the observation windows they live in.

A configuration is a finite simple collection of (location, mark) atoms. Marks are
either non-negative scalars (grain radii) or path objects exposing a ``sup_norm``
attribute; the mark norm is cached on the point so energy and temperedness code
never recomputes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PreconditionError

__all__ = [
    "MarkedPoint",
    "Configuration",
    "Window",
    "Box",
    "Ball",
    "window_contains",
    "restrict",
    "restrict_complement",
    "tame_statistic",
    "mark_sup",
]

_NORM_RTOL = 1e-12
# Rows above which ``_check_rows`` checks with numpy: at 64 rows both ways
# took about 4.7 us, at 1024 rows Python's sum and set took 87 us and
# numpy's isfinite and sort 8 us.
_NUMPY_CHECK_ABOVE = 64


def _mark_norm_of(mark) -> float:
    """Norm of a mark: |value| for scalars, sup norm for path marks."""
    sup = getattr(mark, "sup_norm", None)
    if sup is not None:
        return float(sup)
    return abs(float(mark))


@dataclass(frozen=True)
class MarkedPoint:
    """One atom (x, m) with its cached mark norm."""

    location: tuple[float, ...]
    mark: object
    mark_norm: float

    def __post_init__(self):
        expected = _mark_norm_of(self.mark)
        tol = _NORM_RTOL * max(1.0, abs(expected))
        if not math.isfinite(self.mark_norm) or abs(self.mark_norm - expected) > tol:
            raise ValueError(
                f"mark_norm {self.mark_norm!r} disagrees with recomputed norm {expected!r}"
            )

    @staticmethod
    def make(location: Sequence[float], mark) -> "MarkedPoint":
        """Point with the norm of its mark, computed once and checked finite."""
        norm = _mark_norm_of(mark)
        if not math.isfinite(norm):
            raise ValueError(f"mark {mark!r} has non-finite norm {norm!r}")
        p = object.__new__(MarkedPoint)
        p.__dict__.update(location=tuple(map(float, location)), mark=mark, mark_norm=norm)
        return p

    @property
    def dimension(self) -> int:
        return len(self.location)


def _check_simple(locs: list) -> None:
    """ValueError at the first location that repeats an earlier one."""
    if len(set(locs)) != len(locs):
        seen = set()
        for loc in locs:
            if loc in seen:
                raise ValueError(f"duplicate location {loc}: configurations are simple")
            seen.add(loc)


def _check_rows(locations: np.ndarray, marks: list, norms: np.ndarray, starts: list) -> None:
    """The refusals of configurations built from arrays, whose atoms are the
    rows ``starts[k]:starts[k + 1]`` of the arrays: a non-finite norm, with
    ``MarkedPoint.make``'s error, and two atoms of one configuration at one
    location, with the constructor's. One pass checks every norm and one
    pass over the first coordinates every location; only when that pass finds
    a repeat are the configurations checked one by one."""
    x0 = locations[:, 0]
    # two atoms at one location share their first coordinate; numpy checks
    # and sorts long arrays faster than Python sums and hashes them, and
    # short ones slower
    if len(x0) > _NUMPY_CHECK_ABOVE:
        finite = bool(np.isfinite(norms).all())
        x0 = np.sort(x0)
        repeat = bool((x0[1:] == x0[:-1]).any())
    else:
        # a sum of finite norms is finite unless it overflows
        finite = math.isfinite(sum(norms.tolist()))
        repeat = len(set(x0.tolist())) < len(x0)
    if not finite:
        for i, norm in enumerate(norms.tolist()):
            if not math.isfinite(norm):
                raise ValueError(f"mark {marks[i]!r} has non-finite norm {norm!r}")
    if repeat:
        rows = list(map(tuple, locations.tolist()))
        for first, end in zip(starts, starts[1:]):
            _check_simple(rows[first:end])


class Configuration:
    """Immutable finite simple marked configuration.

    Simplicity (no two atoms at the same location) is enforced at construction;
    everything downstream may assume it. A configuration built by
    ``from_arrays`` keeps its arrays and marks and builds its ``points`` the
    first time they are read.
    """

    __slots__ = ("_points", "dimension", "_coords", "_marks", "_locs", "_norms")

    def __init__(self, points: Iterable[MarkedPoint], dimension: int | None = None):
        pts = tuple(points)
        locs = [p.location for p in pts]
        if pts:
            dims = set(map(len, locs))
            if len(dims) != 1:
                raise ValueError(f"mixed dimensions in configuration: {sorted(dims)}")
            d = dims.pop()
            if dimension is not None and dimension != d:
                raise ValueError(f"declared dimension {dimension} != point dimension {d}")
            _check_simple(locs)
        else:
            d = dimension
            if d is None:
                raise ValueError("empty configuration needs an explicit dimension")
        object.__setattr__(self, "_points", pts)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "_coords", locs)
        object.__setattr__(self, "_marks", None)
        object.__setattr__(self, "_locs", None)
        object.__setattr__(self, "_norms", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Configuration is immutable")

    @staticmethod
    def empty(dimension: int) -> "Configuration":
        return Configuration((), dimension=dimension)

    @staticmethod
    def from_arrays(locations: np.ndarray, marks: list, norms: np.ndarray) -> "Configuration":
        """Configuration of the atoms (locations[i], marks[i]), whose mark
        norms the caller has computed as ``norms``.

        The arrays are checked by ``_check_rows``: the norms finite with one
        sum, with ``MarkedPoint.make``'s error, and the location rows simple,
        with the constructor's error. The two arrays, made read-only, become
        ``locations()`` and ``mark_norms()``; the atoms are built, without
        ``MarkedPoint.make``'s per-atom norm and check, only when ``points``
        is first read.
        """
        _check_rows(locations, marks, norms, [0, len(norms)])
        return Configuration._of_checked(locations, marks, norms)

    @staticmethod
    def _of_checked(locations: np.ndarray, marks: list, norms: np.ndarray) -> "Configuration":
        """``from_arrays`` on arrays that ``_check_rows`` has already passed."""
        locations.setflags(write=False)
        norms.setflags(write=False)
        config = object.__new__(Configuration)
        put = object.__setattr__
        put(config, "_points", None)
        put(config, "dimension", locations.shape[1])
        put(config, "_coords", locations.tolist())
        put(config, "_marks", marks)
        put(config, "_locs", locations)
        put(config, "_norms", norms)
        return config

    @property
    def points(self) -> tuple[MarkedPoint, ...]:
        pts = self._points
        if pts is None:
            new = object.__new__
            pts = tuple([new(MarkedPoint) for _ in self._marks])
            coords = map(tuple, self._coords)
            for p, x, mark, norm in zip(pts, coords, self._marks, self._norms.tolist()):
                p.__dict__.update(location=x, mark=mark, mark_norm=norm)
            object.__setattr__(self, "_points", pts)
            object.__setattr__(self, "_marks", None)
        return pts

    def _columns(self) -> tuple[list, list]:
        """The atoms' locations (sequences of floats) and mark norms
        (floats), as lists in atom order, without building the atoms."""
        norms = self._norms
        if norms is None:
            return self._coords, [p.mark_norm for p in self._points]
        return self._coords, norms.tolist()

    def locations(self) -> np.ndarray:
        if self._locs is None:
            arr = (
                np.array([p.location for p in self.points], dtype=float)
                if self.points
                else np.zeros((0, self.dimension))
            )
            arr.flags.writeable = False
            object.__setattr__(self, "_locs", arr)
        return self._locs

    def mark_norms(self) -> np.ndarray:
        if self._norms is None:
            arr = np.array([p.mark_norm for p in self.points], dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, "_norms", arr)
        return self._norms

    def union(self, other: "Configuration") -> "Configuration":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch in union")
        return Configuration(self.points + other.points, dimension=self.dimension)

    def __len__(self) -> int:
        return len(self._coords)

    def __iter__(self) -> Iterator[MarkedPoint]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.dimension == other.dimension and set(self.points) == set(other.points)

    def __hash__(self) -> int:
        return hash((self.dimension, frozenset(self.points)))

    def __repr__(self) -> str:
        return f"Configuration(n={len(self)}, d={self.dimension})"


class Draws:
    """A block of configurations stored back to back, as the samplers draw
    Poisson configurations in blocks: the atoms of draw k are the rows
    ``starts[k]:starts[k + 1]`` of ``locations``, ``marks`` and ``norms``.

    The rows are checked once, with ``from_arrays``' refusals, at
    construction. ``config(k)`` builds draw k's configuration from copies of
    its rows, so a draw that nobody asks for builds neither atoms nor a
    configuration. Draws that are not made from arrays (see
    ``sampler.sample_poisson``) are held as configurations (``of``), and
    ``locations`` is then None.
    """

    __slots__ = ("locations", "marks", "norms", "starts", "_configs")

    def __init__(self, locations: np.ndarray, marks: list, norms: np.ndarray, starts: list):
        _check_rows(locations, marks, norms, starts)
        self.locations = locations
        self.marks = marks
        self.norms = norms
        self.starts = starts
        self._configs = None

    @staticmethod
    def of(configs: list[Configuration]) -> "Draws":
        draws = object.__new__(Draws)
        draws.locations = draws.marks = draws.norms = draws.starts = None
        draws._configs = configs
        return draws

    def __len__(self) -> int:
        return len(self._configs) if self.locations is None else len(self.starts) - 1

    def config(self, k: int) -> Configuration:
        if self.locations is None:
            return self._configs[k]
        first, end = self.starts[k], self.starts[k + 1]
        return Configuration._of_checked(self.locations[first:end].copy(),
                                         self.marks[first:end], self.norms[first:end].copy())


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


class Window:
    """Bounded observation region: membership tests, uniform draws and box
    bounds.

    ``loc in window`` is the one membership test, with the window's own
    boundary convention (half-open boxes, open balls); the chain, the
    environment cut and the energy preconditions all ask it. ``draw(rng)``
    returns one location uniform on the window; the samplers take every
    location they propose from it.
    """

    dimension: int

    def __contains__(self, loc) -> bool:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator) -> tuple[float, ...]:
        raise PreconditionError(f"cannot sample uniformly from {type(self).__name__}")

    def bounding_box(self) -> "Box":
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError


class Box(Window):
    """Half-open axis parallel box: lo_i <= x_i < hi_i.

    ``lo`` (the lower corner), ``hi`` and ``span`` (hi - lo) are tuples of
    Python floats, computed once with the volume at construction: the
    samplers read them on every draw and every move. A draw is
    lo_i + u_i * span_i per coordinate, on the doubles of one
    ``rng.random(d)`` call, which are numpy's array operations to the bit.
    """

    def __init__(self, bounds):
        b = np.asarray(bounds, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValueError("bounds must be a (d, 2) array of (lo, hi) pairs")
        if not np.isfinite(b).all():
            raise ValueError("bounds must be finite")
        if np.any(b[:, 0] >= b[:, 1]):
            raise ValueError("each lo must be < hi")
        b.flags.writeable = False
        self.bounds = b
        self.dimension = b.shape[0]
        self.lo = tuple(b[:, 0].tolist())
        self.hi = tuple(b[:, 1].tolist())
        span = b[:, 1] - b[:, 0]
        self.span = tuple(span.tolist())
        self._volume = float(np.prod(span))

    @staticmethod
    def centered_cube(n: float, dimension: int) -> "Box":
        """[-n, n)^d; n=1,2,... gives the standard exhausting cubes."""
        if n <= 0:
            raise ValueError("half-width must be positive")
        return Box([(-float(n), float(n))] * dimension)

    @staticmethod
    def unit(dimension: int) -> "Box":
        return Box([(0.0, 1.0)] * dimension)

    def __contains__(self, loc) -> bool:
        if len(loc) != self.dimension:
            raise ValueError(f"point has dimension {len(loc)}, window has {self.dimension}")
        for x, lo, hi in zip(loc, self.lo, self.hi):
            if not lo <= x < hi:
                return False
        return True

    def draw(self, rng: np.random.Generator) -> tuple[float, ...]:
        u = rng.random(self.dimension).tolist()
        return tuple([lo + v * span for lo, v, span in zip(self.lo, u, self.span)])

    def bounding_box(self) -> "Box":
        return self

    def volume(self) -> float:
        return self._volume

    def __repr__(self) -> str:
        pairs = ", ".join(f"[{lo:g},{hi:g})" for lo, hi in self.bounds)
        return f"Box({pairs})"


class Ball(Window):
    """Open Euclidean ball B(center, radius).

    A point is in the ball when the square root of its squared coordinate
    differences from the centre, summed left to right in Python floats, is
    below the radius. That sum is the definition: numpy's ``norm`` sums
    pairwise and can round the other way near the sphere from d = 8 on.
    """

    def __init__(self, center, radius: float):
        c = np.asarray(center, dtype=float)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise ValueError("center must be a finite vector")
        if radius <= 0:
            raise ValueError("radius must be positive")
        c.flags.writeable = False
        self.center = c
        self._center = tuple(c.tolist())
        self.radius = float(radius)
        self.dimension = c.shape[0]
        self._box = Box(np.stack([c - self.radius, c + self.radius], axis=1))

    def __contains__(self, loc) -> bool:
        if len(loc) != self.dimension:
            raise ValueError(f"point has dimension {len(loc)}, window has {self.dimension}")
        s = 0.0
        for x, c in zip(loc, self._center):
            t = x - c
            s += t * t
        return math.sqrt(s) < self.radius

    def draw(self, rng: np.random.Generator) -> tuple[float, ...]:
        # bounding-box rejection; how many draws it takes depends on the
        # stream alone, not on the chain state
        while True:
            loc = self._box.draw(rng)
            if loc in self:
                return loc

    def bounding_box(self) -> Box:
        return self._box

    def volume(self) -> float:
        d = self.dimension
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * self.radius**d

    def __repr__(self) -> str:
        return f"Ball(center={tuple(self.center)}, radius={self.radius:g})"


def window_contains(outer: Window, inner: Window) -> bool:
    """True when every point of ``inner`` lies in ``outer``.

    Exact for nested boxes and balls. A window lies in a box when its
    bounding box does: a box is its own, and an open ball's is
    [c - r, c + r), whose faces the ball comes arbitrarily near. A box
    lies in a ball when its lower corner, the one corner the half-open box
    holds, is in the open ball and every other corner is in the closed one:
    the squared distance to the centre is strictly convex, so every other
    point of the box is strictly nearer than some corner. Other pairings fall
    back to testing the corners of the inner bounding box, which is exact for
    convex outer windows up to boundary-contact cases.
    """
    if inner.dimension != outer.dimension:
        raise ValueError("windows live in different dimensions")
    if isinstance(outer, Box):
        box = inner.bounding_box().bounds
        return bool(np.all(outer.bounds[:, 0] <= box[:, 0])
                    and np.all(box[:, 1] <= outer.bounds[:, 1]))
    if isinstance(inner, Ball) and isinstance(outer, Ball):
        gap = float(np.linalg.norm(inner.center - outer.center))
        return gap + inner.radius <= outer.radius
    corners = list(itertools.product(*inner.bounding_box().bounds.tolist()))
    if isinstance(inner, Box) and isinstance(outer, Ball):
        gaps = np.linalg.norm(np.array(corners) - outer.center, axis=-1)
        return inner.lo in outer and bool(np.all(gaps <= outer.radius))
    return all(corner in outer for corner in corners)


# ---------------------------------------------------------------------------
# Configuration functionals
# ---------------------------------------------------------------------------


def _select(config: Configuration, window: Window, inside: bool) -> Configuration:
    """Sub-configuration of the atoms for which ``loc in window`` is ``inside``,
    decided row by row on the location rows.

    When the atoms are not built yet, the result is built from the kept rows
    of the location array, the marks and the norms, so no atom is built.
    """
    if len(config) == 0:
        return config
    keep = [i for i, loc in enumerate(config._coords) if (loc in window) == inside]
    if config._points is None:
        marks = config._marks
        return Configuration.from_arrays(
            config._locs[keep], [marks[i] for i in keep], config._norms[keep]
        )
    points = config._points
    return Configuration([points[i] for i in keep], dimension=config.dimension)


def restrict(config: Configuration, window: Window) -> Configuration:
    """Sub-configuration of atoms whose location lies in the window."""
    return _select(config, window, True)


def restrict_complement(config: Configuration, window: Window) -> Configuration:
    """Sub-configuration of atoms strictly outside the window."""
    return _select(config, window, False)


def mark_statistic(config: Configuration, exponent: float) -> float:
    """Sum of 1 + |m|^exponent over the atoms (0 for the empty configuration)."""
    if len(config) == 0:
        return 0.0
    norms = config.mark_norms()
    return float(len(config) + np.sum(norms**exponent))


def tame_statistic(config: Configuration, delta: float) -> float:
    """sum over atoms of 1 + |m|^(d + delta); 0 for the empty configuration."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return mark_statistic(config, config.dimension + delta)


def mark_sup(config: Configuration) -> float:
    """Largest mark norm; 0 for the empty configuration."""
    if len(config) == 0:
        return 0.0
    return float(config.mark_norms().max())
