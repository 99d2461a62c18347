"""Energy functionals on marked configurations, with conditional variants.

Every model maps a finite configuration to R union {+inf} with H(empty) = 0.
Pair-decomposable models expose self and pair terms so the conditional energy
given an environment is computed structurally: interior terms plus
interior-environment cross terms, where pairs beyond the interaction reach
contribute an exact floating-point zero. The quermass model is not
pair-decomposable; its conditional energy subtracts the environment's own
functional after pruning environment grains that do not meet the interior
grain union, which leaves the value of the stationary-limit definition
unchanged (inclusion-exclusion for area and Euler characteristic, boundary
bookkeeping for perimeter).

A pairwise ``energy`` or ``conditional_energy`` walks index pairs (i, j) in
row-major order and prices each by the model's float-level rule ``_term``
on ``math.dist`` of the two location rows and the two norms, read from the
configuration's lists (``Configuration._columns``): a draw built by
``Configuration.from_arrays`` is priced without building its atoms.
``pair_term`` calls the same rule on two atoms, so each rule is written
once; ``DiffusionModel``, whose terms read the paths, hands each row's
pairs to its batched ``interaction`` on the atoms instead, and its
``pair_term`` is ``interaction`` on one atom. Below ``_ALL_PAIRS_BELOW``
atoms the walk visits every pair; from there on it visits only candidate
pairs: those whose squared distance, in one numpy pass over a block of
rows, is not above reach(|m_i|, |m_j|)^2 padded by a relative slack (the
reach rule ``_near``), so that the candidates are a superset of the pairs
within reach. The sum is
bit for bit the all-pairs one: by the ``reach`` contract every pair left
out has a term of exactly +0.0; a total that starts at +0.0 never becomes
-0.0, so adding +0.0 leaves it unchanged; and no pair left out is +inf, so
the first +inf term, where the sum stops, is the same pair.

The samplers price the unconditional energies of their Poisson draws a
block at a time, through the model's ``energies``, whose default prices
draw by draw with ``energy`` (a conditional energy is priced draw by draw
with ``conditional_energy``). A pairwise model prices a block of draws held
as arrays (``points.Draws``) itself, as the sampler hands it
(``sampler._BLOCK_SIZE`` bounds one), with one search by
``_block_candidates``, keyed by (draw, cell), for the pairs of one draw that
the same reach rule (``_near``) keeps, a superset of the pairs within reach.
Each draw's candidates are added from +0.0 by ``_add_terms``, in row-major
order, each term ``_term`` on ``math.hypot`` of the coordinate
differences, which is ``math.dist`` of the two rows to the bit; a model
without self terms starts ``energy`` at +0.0 too. So each energy is the
draw's ``energy`` to the bit, by the argument above, and a draw that nobody
keeps is priced without building a configuration. The diffusion model (self
terms and path marks) and draws held as configurations keep the default.

The quermass functional F is a valuation of the grain union, so adding a
grain p to any disc family A changes it by

    F(A with p) - F(A) = F(N with p) - F(N),

where N is the set of grains of A whose open disc meets p's: the grains
away from p's disc cancel by inclusion-exclusion, and the identity holds
for N replaced by any subfamily of A that contains it. The chain's
increments (``local_delta``) use it with A the interior plus the
environment, and price it from p's link alone (``geometry.link_increment``):
the arcs inside p's disc and the cliques of N that share a point with p,
with a closed form when N is empty. ``conditional_energy`` stays a global
recomputation of F: it is the reference that the chain's 1e-9 drift check
compares the summed increments against, so the check compares two
independent computations.

The functional is exact only away from tangencies, internal tangencies and
triple points, and the package has one rule for them (``geometry``): a
degenerate grain family is refused. ``energy`` is +inf on it, and
``conditional_energy`` is +inf as soon as the interior with the environment
grains it meets is degenerate, before anything is subtracted, so it is never
NaN. The chain's increments refuse the same states through ``band``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby, product
from operator import itemgetter
from typing import Callable, Iterable

import numpy as np

from .errors import PreconditionError
from .geometry import (
    _DEGENERACY_TOL,
    Disc,
    _degenerate,
    euler_characteristic,
    link_increment,
    meeting_discs,
    union_area_perimeter,
)
from .marks import PathMark
from .points import (
    Configuration,
    Draws,
    MarkedPoint,
    Window,
    mark_sup,
    restrict,
    restrict_complement,
)
from .tempered import is_tempered, l_range

__all__ = [
    "EnergyModel",
    "IdealModel",
    "HardSphereModel",
    "PairPotentialModel",
    "QuermassModel",
    "DiffusionModel",
    "lj_pair",
    "conditional_energy",
    "interaction_range",
    "AdditivityReport",
    "additivity_check",
]

LJ_RANGE = 1.5
LJ_AMPLITUDE = 16.0

# Pairwise energies of configurations with fewer atoms (interior plus
# environment for ``conditional_energy``) visit every pair: there the
# candidate search costs more than the pair terms it leaves out. Measured on
# uniform atoms at density 0.5 with U(0.6) marks: nonnegpair breaks even at
# 12-13 atoms, hardcore (cheaper terms) at 14-16.
_ALL_PAIRS_BELOW = 13
# Rows per block of the candidate search, which holds O(rows * n) doubles.
_CANDIDATE_ROWS = 64
# Padding of reach^2 in the candidate search. numpy's sum of squared
# differences and the ``math.dist`` that ``pair_term`` reads differ by a few
# ulps; the relative slack is far above that, and the floor (the smallest
# normal double) covers squares that underflow.
_REACH_SLACK = 1e-9
_REACH_FLOOR = float(np.finfo(float).tiny)
# Upper triangle of a block of the candidate search of ``energy``.
_UPPER = np.triu(np.ones((_CANDIDATE_ROWS, _CANDIDATE_ROWS), dtype=bool))


def lj_pair(u: float) -> float:
    """Lennard-Jones 12-6 pair value 16((1.5/u)^12 - (1.5/u)^6).

    Zero at u = 1.5, minimum -4 at u = 1.5 * 2^(1/6), repulsive below,
    attractive above. Evaluated as 16 t (t - 1) with t = (1.5/u)^6 so the
    small-u overflow saturates to +inf instead of producing nan.
    """
    if u <= 0:
        raise ValueError("pair distance must be positive")
    try:
        t = (LJ_RANGE / u) ** 6
        return LJ_AMPLITUDE * t * (t - 1.0)
    except OverflowError:
        return math.inf


class EnergyModel:
    """Interface: total energy, and conditional energy given an environment.

    ``nonnegative`` certifies H >= 0 (including conditional energies), which
    is what exact rejection sampling needs. ``pairwise`` marks models whose
    energy is a sum of self terms and pair terms. ``degeneracy_tol`` is the
    relative half-width of the band of degenerate proposals that
    ``local_delta`` refuses (0 for models without grain geometry).
    """

    model_id: str = "abstract"
    nonnegative: bool = False
    pairwise: bool = False
    degeneracy_tol: float = 0.0

    def energy(self, config: Configuration) -> float:
        raise NotImplementedError

    def conditional_energy(self, interior: Configuration, environment: Configuration) -> float:
        """Energy of the interior given environment atoms (already outside the window)."""
        raise NotImplementedError

    def self_term(self, point: MarkedPoint) -> float:
        raise NotImplementedError

    def pair_term(self, p: MarkedPoint, q: MarkedPoint) -> float:
        raise NotImplementedError

    def reach(self, norm_p: float, norm_q: float) -> float:
        """Distance beyond which atoms with these mark norms do not interact
        (``pair_term`` is exactly +0.0, grains do not meet); non-decreasing in
        both norms.

        The norms may also be numpy arrays, and the result then broadcasts
        over them elementwise with the scalar values: the pairwise energies
        call it once on a block of norm pairs (see the module docstring), so
        a custom pairwise model must accept arrays.
        """
        raise NotImplementedError

    def local_delta(
        self, p: MarkedPoint, neighbours: Iterable[MarkedPoint], band: float = 0.0
    ) -> float:
        """H(x with p) - H(x) given an environment, for p not in x.

        ``neighbours`` holds the atoms of x and of the environment within
        reach of p (a superset does not change the value), interior atoms
        first, each group in its list order. ``band`` > 0 asks for +inf when p
        is degenerate with its neighbours (see ``QuermassModel.local_delta``).
        """
        raise NotImplementedError

    def validate_config(self, config: Configuration) -> None:
        """Hook for mark-type and dimension requirements; default accepts all."""

    def energies(self, draws: Draws) -> list[float]:
        """``energy`` of each of a block's draws, in draw order; pairwise models
        price a block of array draws with one candidate search (see the
        module docstring)."""
        return [self.energy(draws.config(k)) for k in range(len(draws))]


class _PairwiseModel(EnergyModel):
    """Pairwise models. Each prices a pair by one float-level rule,
    ``_term(d, norm_p, norm_q)`` of the distance and the two mark norms;
    ``pair_term`` calls it on ``math.dist`` and the atoms' norms, and the
    total and conditional energies call it on the configurations' location
    and norm lists without building atoms (see the module docstring). Self
    terms are 0 unless a model overrides ``self_term`` and ``_self_sum``."""

    pairwise = True

    def _term(self, d: float, norm_p: float, norm_q: float) -> float:
        raise NotImplementedError

    def self_term(self, point) -> float:
        return 0.0

    def pair_term(self, p, q) -> float:
        return self._term(math.dist(p.location, q.location), p.mark_norm, q.mark_norm)

    def interaction(
        self, p: MarkedPoint, others: Iterable[MarkedPoint], total: float = 0.0
    ) -> float:
        """Add p's pair terms with ``others`` to ``total``, one at a time in
        iteration order; +inf at the first infinite term.

        The chain's increments (``local_delta``) add their terms through
        here; the total and conditional energies, and with them the lattice
        instances' state energies, add theirs in ``_add_pairs`` the same
        way. ``DiffusionModel`` batches its path parts but keeps this order.
        """
        for q in others:
            v = self.pair_term(p, q)
            if v == math.inf:
                return math.inf
            total += v
        return total

    def local_delta(self, p, neighbours, band=0.0) -> float:
        return self.interaction(p, neighbours, self.self_term(p))

    def _near(self, d2, norm_p, norm_q):
        """The reach rule of the candidate searches: True where the squared
        distance ``d2`` is not above reach(norm_p, norm_q)^2 padded by
        ``_REACH_SLACK`` (see the module docstring); arrays broadcast."""
        r = self.reach(norm_p, norm_q)
        # "not above" keeps NaN distances, whose terms the sum adds too
        return ~(d2 > r * r * (1.0 + _REACH_SLACK) + _REACH_FLOOR)

    def _candidates(self, rows: Configuration, cols: Configuration, upper: bool):
        """(i, j) index pairs, in row-major order, of each atom i of ``rows``
        with the atoms j of ``cols`` (only j > i when ``upper``) that
        ``_near`` keeps, a superset of the pairs with a nonzero term (see the
        module docstring). The rows are searched in blocks of
        ``_CANDIDATE_ROWS``, so no n x n array is built."""
        a, a_norms = rows.locations(), rows.mark_norms()
        b, b_norms = cols.locations(), cols.mark_norms()
        if len(a) and len(b) and a.shape[1] != b.shape[1]:
            raise ValueError("interior and environment live in different dimensions")
        for start in range(0, len(a), _CANDIDATE_ROWS):
            block = slice(start, start + _CANDIDATE_ROWS)
            first = start + 1 if upper else 0
            diff = np.subtract.outer(a[block, 0], b[first:, 0])
            d2 = diff * diff
            for k in range(1, a.shape[1]):
                diff = np.subtract.outer(a[block, k], b[first:, k])
                d2 += diff * diff
            near = self._near(d2, a_norms[block, None], b_norms[None, first:])
            n_rows, width = near.shape
            if upper:
                # block row i sits at start + i and keeps columns from start + i + 1
                near[:, :_CANDIDATE_ROWS] &= _UPPER[:n_rows, :width]
            for flat in near.ravel().nonzero()[0].tolist():
                i, j = divmod(flat, width)
                yield start + i, first + j

    def _block_candidates(self, x: np.ndarray, norms: np.ndarray, starts: list):
        """(i, j, diffs) of stacked draws, whose atoms are the rows
        ``starts[k]:starts[k + 1]`` of ``x``: the row pairs (i, j) of one
        draw, i < j, that ``_near`` keeps, sorted row-major, so a superset of
        each draw's pairs with a nonzero term, with diffs[k] = x[i, k] - x[j, k].

        One search keyed by (draw, cell) finds them. The cells tile the first
        two axes (one when d = 1) with a side just above the widest reach in
        the rows, so two atoms within reach sit in the same or neighbouring
        cells. With the atoms sorted by key, the half shell of an atom is two
        runs of keys: the atoms after it in its cell and those of the next cell
        in its column, then the three neighbouring cells of the next column
        (d = 1 has the first run only). So each pair of atoms in neighbouring
        cells is generated once, from the atom that sorts first."""
        n, d = x.shape
        axes = min(d, 2)
        top = float(norms.max())
        lows = [float(c.min()) for c in x.T[:axes]]
        width = max(float(c.max()) - low for c, low in zip(x.T, lows))
        # the padding keeps roundoff in the keys from parting atoms within
        # reach; the floor keeps each axis below 2^20 cells
        side = max(float(self.reach(top, top)) * (1.0 + 1e-6) + 1e-150, width / 2**20)
        key = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        for c, low in zip(x.T[:axes], lows):
            cell = np.floor((c - low) / side).astype(np.int64) + 1
            # an empty cell on either side keeps the columns and draws apart
            size = int(cell.max()) + 2
            key = key * size + cell
        order = np.argsort(key)
        key = key[order]
        rows = np.arange(n)
        first, end = rows + 1, np.searchsorted(key, key + 1, "right")
        if axes == 2:
            first = np.concatenate((first, np.searchsorted(key, key + (size - 1))))
            end = np.concatenate((end, np.searchsorted(key, key + (size + 1), "right")))
            rows = np.concatenate((rows, rows))
        count = end - first
        src = np.repeat(rows, count)
        dst = np.arange(len(src)) + np.repeat(first - (np.cumsum(count) - count), count)
        diffs = [c[src] - c[dst] for c in x[order].T]
        d2 = diffs[0] * diffs[0]
        for diff in diffs[1:]:
            d2 += diff * diff
        sorted_norms = norms[order]
        near = np.flatnonzero(self._near(d2, sorted_norms[src], sorted_norms[dst]))
        a, b = order[src[near]], order[dst[near]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        pairs = np.argsort(i * n + j)
        return i[pairs], j[pairs], [diff[near[pairs]] for diff in diffs]

    def _self_sum(self, config: Configuration) -> float:
        """Sum of the self terms over the atoms, in atom order."""
        return 0.0

    def _add_pairs(self, rows: Configuration, cols: Configuration, pairs, total: float) -> float:
        """Add the pair terms of the (i, j) ``pairs``, row atom i of ``rows``
        with column atom j of ``cols``, to ``total`` in order; +inf at the
        first infinite term. The terms come from ``_term`` on the location
        and norm lists (``Configuration._columns``), so no atom is built."""
        term, dist, inf = self._term, math.dist, math.inf
        x, a = rows._columns()
        y, b = (x, a) if cols is rows else cols._columns()
        for i, j in pairs:
            v = term(dist(x[i], y[j]), a[i], b[j])
            if v == inf:
                return inf
            total += v
        return total

    def _add_terms(self, dists: list, norms_p: list, norms_q: list) -> float:
        """``_add_pairs`` on pairs given by their distances and norms, from
        +0.0: the sum of ``_term`` over them in order; +inf at the first
        infinite term."""
        term, inf = self._term, math.inf
        total = 0.0
        for d, a, b in zip(dists, norms_p, norms_q):
            v = term(d, a, b)
            if v == inf:
                return inf
            total += v
        return total

    def energy(self, config: Configuration) -> float:
        self.validate_config(config)
        n = len(config)
        if n < _ALL_PAIRS_BELOW:
            pairs = combinations(range(n), 2)
        else:
            pairs = self._candidates(config, config, upper=True)
        return self._add_pairs(config, config, pairs, self._self_sum(config))

    def energies(self, draws: Draws) -> list[float]:
        """``EnergyModel.energies``, with a block of array draws priced
        together: one ``_block_candidates`` search for the block, then each
        draw's candidates added by ``_add_terms`` in row-major order from
        +0.0. So every energy is the draw's ``energy`` to the bit (see the
        module docstring). Draws held as configurations keep the per-draw
        default, and so does ``DiffusionModel``, whose self terms and path
        marks the block does not price."""
        if draws.locations is None:
            return super().energies(draws)
        x, norms, starts = draws.locations, draws.norms, draws.starts
        if len(x) < 2:
            return [0.0] * len(draws)
        i, j, diffs = self._block_candidates(x, norms, starts)
        # math.dist(x, y) is math.hypot of the differences x - y
        dist = list(map(math.hypot, *[diff.tolist() for diff in diffs]))
        a, b = norms[i].tolist(), norms[j].tolist()
        cut = np.searchsorted(i, starts).tolist()
        return [self._add_terms(dist[f:e], a[f:e], b[f:e]) if e > f else 0.0
                for f, e in zip(cut, cut[1:])]

    def conditional_energy(self, interior: Configuration, environment: Configuration) -> float:
        total = self.energy(interior)
        if total == math.inf or not len(environment):
            return total
        if len(interior) + len(environment) < _ALL_PAIRS_BELOW:
            pairs = product(range(len(interior)), range(len(environment)))
        else:
            pairs = self._candidates(interior, environment, upper=False)
        return self._add_pairs(interior, environment, pairs, total)


class IdealModel(_PairwiseModel):
    """H identically zero: the reference Poisson case."""

    model_id = "ideal"
    nonnegative = True

    def _term(self, d, norm_p, norm_q) -> float:
        return 0.0

    def reach(self, norm_p, norm_q) -> float:
        return 0.0


class HardSphereModel(_PairwiseModel):
    """+inf when any two grains overlap, else 0.

    Grains are open balls B(x, |m|), so contact distance exactly equal to the
    radius sum does not overlap, and zero-radius grains never do.
    """

    model_id = "hardcore"
    nonnegative = True

    def _term(self, d, norm_p, norm_q) -> float:
        if norm_p == 0.0 or norm_q == 0.0:
            return 0.0
        return math.inf if d < norm_p + norm_q else 0.0

    def reach(self, norm_p, norm_q) -> float:
        return norm_p + norm_q


class PairPotentialModel(_PairwiseModel):
    """Non-negative pair interaction phi(|x-y|) gated by grain contact.

    Atoms interact only when |x - y| <= |m_1| + |m_2|; phi must satisfy
    phi(0) = 0 and phi >= 0, which is spot-checked at construction.
    """

    model_id = "nonnegpair"
    nonnegative = True

    def __init__(self, phi: Callable[[float], float]):
        if abs(phi(0.0)) > 1e-12:
            raise ValueError("pair potential must vanish at zero distance")
        for u in (0.1, 0.5, 1.0, 2.0, 5.0):
            if phi(u) < 0:
                raise ValueError("pair potential must be non-negative")
        self.phi = phi

    def _term(self, d, norm_p, norm_q) -> float:
        if d > norm_p + norm_q:
            return 0.0
        return self.phi(d)

    def reach(self, norm_p, norm_q) -> float:
        return norm_p + norm_q


class QuermassModel(EnergyModel):
    """Linear combination of area, perimeter, and Euler characteristic of the
    planar grain union. Bounded but not pair-decomposable: a grain chain can
    carry influence, yet the conditional energy only needs environment grains
    that meet the interior union directly (see module docstring)."""

    model_id = "quermass"
    nonnegative = False
    pairwise = False
    degeneracy_tol = _DEGENERACY_TOL

    def __init__(self, a_area: float, a_perimeter: float, a_euler: float):
        self.a_area = float(a_area)
        self.a_perimeter = float(a_perimeter)
        self.a_euler = float(a_euler)

    def validate_config(self, config: Configuration) -> None:
        if len(config) and config.dimension != 2:
            raise PreconditionError("quermass energies are defined for d = 2")

    def _functional(self, discs: list[Disc]) -> float:
        total = 0.0
        if self.a_area or self.a_perimeter:
            area, perimeter = union_area_perimeter(discs)
            total += self.a_area * area + self.a_perimeter * perimeter
        if self.a_euler:
            total += self.a_euler * euler_characteristic(discs)
        return total

    def _family(self, config: Configuration) -> float:
        """F of the configuration's grains, zero radii dropped; +inf when
        they are degenerate (``geometry._degenerate``)."""
        discs = [Disc(*p.location, p.mark_norm) for p in config.points if p.mark_norm > 0.0]
        return math.inf if _degenerate(discs) else self._functional(discs)

    def energy(self, config: Configuration) -> float:
        self.validate_config(config)
        if len(config) == 0:
            return 0.0
        return self._family(config)

    def reach(self, norm_p, norm_q) -> float:
        return norm_p + norm_q

    def local_delta(self, p, neighbours, band=0.0) -> float:
        """F(N with p) - F(N), N the neighbours whose open disc meets p's
        (distance below the radius sum), from p's link alone
        (``geometry.link_increment``); see the module docstring.

        +inf when ``geometry.meeting_discs`` at tol = ``band`` finds p
        degenerate with its neighbours (a tangency, an internal tangency or
        a triple point). The disc lists are free of degeneracies: p is
        certified against N here, and each grain of N was when it joined the
        chain (see ``geometry._DEGENERACY_TOL``).
        """
        if len(p.location) != 2:
            raise PreconditionError("quermass energies are defined for d = 2")
        r = p.mark_norm
        if r == 0.0:
            return 0.0  # a zero-radius grain is empty
        others = [Disc(q.location[0], q.location[1], q.mark_norm) for q in neighbours]
        disc = Disc(p.location[0], p.location[1], r)
        hits = meeting_discs(disc, others, band)
        if hits is None:
            return math.inf
        area, perimeter, chi = link_increment(disc, [others[i] for i in hits])
        return self.a_area * area + self.a_perimeter * perimeter + self.a_euler * chi

    def conditional_energy(self, interior: Configuration, environment: Configuration) -> float:
        self.validate_config(interior)
        if len(interior) == 0:
            return 0.0
        # environment grains meeting some interior grain (open-ball overlap)
        # or within the degeneracy tolerance of contact, at the scale of
        # interior and environment together, so that a tangent environment
        # grain reaches the degeneracy check as it does in ``energy``
        env_locs, env_norms = environment.locations(), environment.mark_norms()
        int_locs, int_norms = interior.locations(), interior.mark_norms()
        diff = env_locs[:, None, :] - int_locs[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        reach = env_norms[:, None] + int_norms[None, :]
        extent = np.concatenate((np.abs(env_locs).sum(axis=1) + env_norms,
                                 np.abs(int_locs).sum(axis=1) + int_norms))
        tol = _DEGENERACY_TOL * max(1.0, float(extent.max()))
        touches = np.any(dist < reach + tol, axis=1)
        relevant = Configuration([p for p, t in zip(environment.points, touches) if t], 2)
        joint = self._family(interior.union(relevant))
        if joint == math.inf:
            return math.inf
        # the relevant grains come last in the joint family and were checked
        # there against a superset at a tolerance no smaller: never +inf here
        return joint - self._family(relevant)


def _path_parts(p: MarkedPoint, qs: list[MarkedPoint]) -> np.ndarray:
    """Path part of p's pair terms with each of ``qs``: the trapezoid integral
    over s of min(|m_p(s) - m_q(s)|^2, 1e6), one value per q. Every row is
    summed on its own, so a value does not depend on the other rows.

    The value is ``np.trapezoid(np.minimum(sep * sep, 1e6), dx=dx, axis=1)``
    with ``sep = np.linalg.norm(diff, axis=2)``, written as the expressions
    those two functions evaluate, without their call overhead: the norm is
    ``sqrt(add.reduce(diff * diff, axis=2))``, and a reduce over two terms is
    one addition; the trapezoid rule is
    ``add.reduce(dx * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)``, the same
    operations on arrays of the same layout, so the same pairwise sums. The
    bits are the library calls' bits. The neighbours' samples are copied into
    one block by ``np.array``, which checks their shapes in one call where
    ``np.stack`` makes several, and one neighbour is a view of its samples."""
    if len(qs) == 1:
        b = qs[0].mark.samples[None]
    else:
        b = np.array([q.mark.samples for q in qs])
    diff = p.mark.samples - b
    sq = diff * diff
    sep = np.sqrt(sq[..., 0] + sq[..., 1])
    y = np.minimum(sep * sep, 1.0e6)
    dx = 1.0 / p.mark.step_count
    return np.add.reduce(dx * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)


def _default_psi(norm: float) -> float:
    return -1.0 - norm**2.5


class DiffusionModel(_PairwiseModel):
    """Paths as marks: confinement self term plus gated pair interaction.

    Self term: psi(|m|) = -1 - |m|^2.5. Pair term: ``lj_pair``(|x1 - x2|) plus
    the integral over s of min(|m1(s) - m2(s)|^2, 1e6), active only when
    |x1 - x2| <= a0 + |m1| + |m2| with a0 = 1.5; the time integral uses the
    trapezoid rule on the shared sample grid. Marks must be PathMark objects
    with equal step counts.
    """

    model_id = "diffusion"
    nonnegative = False
    a0 = 1.5

    def validate_config(self, config: Configuration) -> None:
        steps = None
        for p in config.points:
            if not isinstance(p.mark, PathMark):
                raise PreconditionError("diffusion model requires path marks")
            if steps is None:
                steps = p.mark.step_count
            elif p.mark.step_count != steps:
                raise PreconditionError("path marks must share one sample grid")

    def self_term(self, point) -> float:
        return float(_default_psi(point.mark_norm))

    def _self_sum(self, config) -> float:
        total = 0.0
        for p in config.points:
            total += self.self_term(p)
        return total

    def pair_term(self, p, q) -> float:
        return self.interaction(p, [q])

    def interaction(self, p, others, total=0.0) -> float:
        """``_PairwiseModel.interaction`` with the path parts of all in-range
        neighbours in one array pass: the distance gate and the +inf exit at
        the first infinite Lennard-Jones term run in list order (the clipped
        path part is finite), then the terms are added in list order, so the
        sum is bit for bit the per-pair one."""
        near, lj = [], []
        for q in others:
            d = math.dist(p.location, q.location)
            if d > self.a0 + p.mark_norm + q.mark_norm:
                continue
            v = lj_pair(d)
            if v == math.inf:
                return math.inf
            near.append(q)
            lj.append(v)
        if near:
            for v, part in zip(lj, _path_parts(p, near).tolist()):
                total += v + part
        return total

    def _add_pairs(self, rows, cols, pairs, total) -> float:
        """``_PairwiseModel._add_pairs`` on the atoms, whose path marks the
        terms read: each row's pairs go to ``interaction`` together."""
        p_rows, q_cols = rows.points, cols.points
        for i, row in groupby(pairs, key=itemgetter(0)):
            total = self.interaction(p_rows[i], [q_cols[j] for _, j in row], total)
            if total == math.inf:
                break
        return total

    def reach(self, norm_p, norm_q) -> float:
        return self.a0 + norm_p + norm_q

    # the block pricing adds no self terms and reads no paths
    energies = EnergyModel.energies

    def conditional_energy(self, interior: Configuration, environment: Configuration) -> float:
        self.validate_config(environment)
        return super().conditional_energy(interior, environment)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def interaction_range(
    config: Configuration, window: Window, t: int, delta: float
) -> float:
    """Locality radius 2 l_range(t) + 2 sup-mark(interior) + 1.

    Enlarging the window by this radius captures every environment grain that
    can reach the window, for t-tempered environments.
    """
    d = config.dimension if len(config) else window.dimension
    return 2.0 * l_range(t, d, delta) + 2.0 * mark_sup(restrict(config, window)) + 1.0


def conditional_energy(
    model: EnergyModel,
    interior: Configuration,
    xi: Configuration,
    window: Window,
    t: int,
    delta: float,
    check_tempered: bool = True,
) -> float:
    """Energy of the interior configuration inside the window given xi outside.

    Preconditions: interior atoms lie in the window, and xi is t-tempered.
    Only the restriction of xi to the window complement enters the value.
    """
    locs, _ = interior._columns()
    if not all(loc in window for loc in locs):
        raise PreconditionError("interior configuration has atoms outside the window")
    if check_tempered:
        ok, report = is_tempered(xi, t, delta)
        if not ok:
            raise PreconditionError(
                f"environment is not {t}-tempered (minimal t = {report.minimal_t})"
            )
    environment = restrict_complement(xi, window)
    return model.conditional_energy(interior, environment)


@dataclass(frozen=True)
class AdditivityReport:
    """Difference of window-increment energies for two interior fillings.

    residual should be 0: H_Delta - H_Lambda depends only on what sits outside
    Lambda, so swapping the interior filling cannot move it. ``comparable`` is
    False when an infinity made the difference meaningless.
    """

    residual: float
    comparable: bool
    increment_a: float
    increment_b: float


def additivity_check(
    model: EnergyModel,
    lam: Window,
    delta_win: Window,
    interior_a: Configuration,
    interior_b: Configuration,
    middle: Configuration,
    xi: Configuration,
    t: int,
    delta: float,
) -> AdditivityReport:
    """Check H_Delta = H_Lambda + (term independent of the Lambda interior).

    ``middle`` fills Delta minus Lambda and ``xi`` is the outside environment;
    both stay fixed while the Lambda interior switches between the two
    supplied fillings.
    """
    if any(p.location in lam for p in middle.points):
        raise PreconditionError("middle configuration must avoid the inner window")
    increments = []
    for interior in (interior_a, interior_b):
        h_big = conditional_energy(
            model, interior.union(middle), xi, delta_win, t, delta, check_tempered=False
        )
        h_small = conditional_energy(
            model, interior, middle.union(xi), lam, t, delta, check_tempered=False
        )
        if math.isinf(h_big) or math.isinf(h_small):
            return AdditivityReport(math.nan, False, math.inf, math.inf)
        increments.append(h_big - h_small)
    return AdditivityReport(
        residual=increments[0] - increments[1],
        comparable=True,
        increment_a=increments[0],
        increment_b=increments[1],
    )
