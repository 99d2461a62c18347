"""Samplers for finite-volume Gibbs measures: exact rejection and a
birth-death-move-remark Metropolis-Hastings chain.

The Poisson reference on a box, with a law whose ``MarkLaw.uniforms`` is set,
takes all the doubles of one configuration from a single ``rng.random`` call
instead of one call per point and mark, and ``_from_uniforms`` builds the
atoms from that block in one array pass. The block holds the same doubles in
the same order as the per-point loop, and the locations come from
``Box.draw``'s expression, lo + u * span, on its location columns. The marks
and their norms come from ``MarkLaw.marks_from_uniforms`` on its mark
columns: ``UniformLaw`` evaluates one array formula that returns, for every
row, the mark its ``sample`` returns on that row's doubles (same type, same
value to the bit) and the norm ``MarkedPoint.make`` computes for it; every
other law falls back to replaying its ``sample`` row by row. So every
configuration is the loop's to the bit. ``Configuration.from_arrays`` checks
the norms finite and the locations simple, keeps the location and norm
arrays as the configuration's ``locations()`` and ``mark_norms()``, and
builds the atoms only when ``points`` is first read.

``rejection_sample`` and ``estimators.partition_estimate`` read their draws
in blocks (``_poisson_draws``, which alone sizes them): the draws read the
stream one after another, as calls of ``sample_poisson`` do, and their
stacked blocks of doubles go through one ``_from_uniforms`` call and one
``points.Draws`` check. A block is priced by one ``model.energies`` call,
and only the draws that are kept become configurations; against an
environment, each draw becomes a configuration once, priced by
``conditional_energy`` and kept as it is. Energies read no randomness, so
drawing a block before pricing it changes nothing in the stream;
``rejection_sample`` asks for no more proposals than it can use, so that it
stops where a loop of one proposal at a time stops (see there).

The chain draws a fixed schedule of variates per proposal kind (selector,
location/index, mark, acceptance uniform) before any accept/reject decision,
so two chains driven by the same stream stay coupled step for step as long as
their decisions agree; the cut-off kernel sampler relies on this to be
bit-identical to the full kernel once the cap and the environment window are
past their thresholds.

A chain step works in Python floats. A birth's location is
``window.draw(rng)``, a move's displacement is one ``rng.standard_normal(d)``
call scaled and turned into floats, and the moved location is kept when
``loc in window``. A box draws lo + u * span per coordinate from one
``rng.random(d)`` call and tests lo <= x < hi, which are numpy's array
operations to the bit; a ball draws by rejection from its bounding box and
tests with the square root of the squared coordinate differences summed
left to right, which is numpy's norm to the bit. So the chain reads the same
doubles in the same order, and makes the same decisions, as array code
would.

Every proposal is ``points[idx : idx + 1] = added``, at most one atom each
side (a birth appends at ``idx == n``), and ``ChainState.delta`` prices all
four kinds. It alone refuses (+inf) a new atom above the mark cap, on another
interior atom (the neighbour walk reports it), or inside the degeneracy band.

One ``ChainState`` holds the model and the atoms once, with their neighbour
cells. Its one constructor starts at the empty configuration, with the atoms
of the boundary configuration ``env`` outside the window as the fixed
environment, and ``run_chain`` builds its state with it. Every increment
reads those cells instead of every atom: a sparse uniform grid (cell lists),
a dict from integer cell key floor(x / side) to the (stamp, atom) entries in
that cell, over the interior atoms and the fixed environment. Interior atoms
are stamped in birth order and keep their stamp through moves and remarks,
which replace in place, so ``stamps`` runs parallel to ``points`` and stamp
order is ``points`` order; environment atoms are stamped after every
interior atom, in environment order. A query is one walk. ``near`` collects
the entries of the cells within r = reach(|p|, bound) + band of p (padded
against roundoff; the band is computed only for a model that has one) and
sorts them by stamp, and ``neighbours`` goes over them once: it drops the
skipped atom's stamp, returns None at the first interior atom on p's
location, and keeps every other atom, or with r = 0 (always for the ideal
model) only the environment atoms on p's location. The list goes to
``model.local_delta``. ``bound`` is the largest
mark norm held so far and never decreases; the cell side is reach(bound,
bound), or 1.0 when that is 0, and the grid is rebuilt, in O(n), whenever an
accepted atom raises the bound; otherwise an accepted proposal writes,
deletes or appends its one entry in place.

Pairwise models' ``local_delta`` is ``model.interaction`` over the
neighbours, which adds the terms in the plain loop's order (points, then
environment) and leaves out only exact-0.0 ones: the increments are bit for
bit those of the plain loop (but for the sign of an all-zero sum). The
quermass ``local_delta`` keeps the neighbours whose open disc meets p's,
environment included, and returns F(N with p) - F(N) on those few discs
(the valuation identity in ``energy``) from p's link alone: the arcs inside
p's disc and the cliques of N through p (``geometry.link_increment``), so a
step costs the same in any window. Births, moves and remarks whose new grain lies within ``band`` of a
tangency or triple point with its neighbours are rejected, and so is an
environment with such a relation among the grains the chain can meet
(``ChainState``). This is the package's one degeneracy rule: the quermass
energies are +inf on a degenerate grain family, so the chain targets the
law restricted to non-degenerate states, a set closed under deletion, and
keeps detailed balance; a degenerate family that reaches the drift check's
recompute makes it +inf, which fails the chain. The band (0 for pairwise
models) is documented beside ``geometry._DEGENERACY_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .errors import NumericalFailure, PreconditionError
from .geometry import Disc, meeting_discs
from .marks import MarkLaw
from .points import (
    Box,
    Configuration,
    Draws,
    MarkedPoint,
    Window,
    restrict,
    restrict_complement,
    window_contains,
)

__all__ = [
    "sample_poisson",
    "RejectionResult",
    "rejection_sample",
    "ProposalMix",
    "ChainState",
    "bdm_step",
    "ChainResult",
    "run_chain",
    "sample_cutoff_kernel",
    "hastings_ratio",
]


def _from_uniforms(window: Box, mark_law: MarkLaw, u: np.ndarray):
    """Locations, marks and norms of the atoms whose doubles are the rows of
    ``u``, an (n, d + uniforms) array: ``Box.draw``'s expression,
    lo + u * span, on the location columns, and the law's
    ``marks_from_uniforms`` on the mark columns. Both work row by row, so an
    atom does not depend on the rows around it."""
    d = window.dimension
    marks, norms = mark_law.marks_from_uniforms(u[:, d:])
    return np.add(window.lo, u[:, :d] * window.span), marks, norms


def _read_draw(window: Window, z: float, mark_law: MarkLaw, rng: np.random.Generator):
    """One Poisson draw read from the stream: its count, then, on a box with a
    law whose ``uniforms`` is set, the (n, d + uniforms) block of its doubles,
    returned as it is; otherwise the per-point loop, whose configuration is
    returned. An activity of 0 reads nothing."""
    if z < 0:
        raise ValueError("activity z must be non-negative")
    n = int(rng.poisson(z * window.volume())) if z else 0
    k = mark_law.uniforms
    if k is None or not isinstance(window, Box):
        return Configuration(
            [MarkedPoint.make(window.draw(rng), mark_law.sample(rng)) for _ in range(n)],
            dimension=window.dimension)
    return rng.random((n, window.dimension + k))


# Draws plus atoms at which ``_poisson_draws`` ends a block. A block's search
# in ``energy._PairwiseModel.energies`` holds about twenty arrays of ~2.5
# pairs per atom (uniform atoms at density 0.5, U(0.6) marks). Blocks of 1024
# to 4096 atoms priced the ``entropy-nonnegpair`` draws equally fast within
# the noise; larger blocks raised the process's peak RSS. Counting the draws
# too bounds a block of near-empty draws, which keeps the search's int64
# (draw, cell) keys far from overflow (about 8 million draws at 2^20 cells
# per axis).
_BLOCK_SIZE = 2048


def _poisson_draws(
    window: Window, z: float, mark_law: MarkLaw, rng: np.random.Generator, count: int,
    accept: bool = False,
) -> tuple[Draws, list[float]]:
    """Poisson draws read from the stream one after another, as calls of
    ``sample_poisson`` read it, until there are ``count`` >= 1 of them or the
    draws plus their atoms reach ``_BLOCK_SIZE``; the caller reads how many
    from ``len(draws)``. With ``accept``, one ``rng.random()`` follows each
    draw, and those doubles are returned too.

    The blocks of doubles of all the draws are stacked and turned into atoms
    by one ``_from_uniforms`` call and checked by one ``Draws``; draws made by
    the per-point loop are held as configurations.
    """
    reads, uniforms, size = [], [], 0
    while len(reads) < count and size < _BLOCK_SIZE:
        reads.append(_read_draw(window, z, mark_law, rng))
        size += 1 + len(reads[-1])
        if accept:
            uniforms.append(rng.random())
    if isinstance(reads[0], Configuration):
        return Draws.of(reads), uniforms
    starts = [0, *accumulate(map(len, reads))]
    return Draws(*_from_uniforms(window, mark_law, np.concatenate(reads)), starts), uniforms


def sample_poisson(
    window: Window, z: float, mark_law: MarkLaw, rng: np.random.Generator
) -> Configuration:
    """Poisson configuration: Poisson(z |W|) points placed uniformly, marks iid.

    On a box, with a law whose ``uniforms`` is set, the n points' doubles are
    drawn as one (n, d + uniforms) block (``_read_draw``). The per-point loop
    reads d location doubles, then the mark's, point after point, which is the
    block's row-major order, so both read the same doubles in the same order.
    ``_from_uniforms`` turns the block into atoms, as it does for the blocks
    of ``_poisson_draws``, so the configuration is the loop's to the bit and
    the stream is left where the loop leaves it. Balls (whose bounding-box
    rejection reads a variable number of doubles) and other laws keep the
    loop.
    """
    draw = _read_draw(window, z, mark_law, rng)
    if isinstance(draw, Configuration):
        return draw
    return Configuration.from_arrays(*_from_uniforms(window, mark_law, draw))


@dataclass(frozen=True)
class RejectionResult:
    """Accepted samples with their energies (conditional on the environment
    when one was given), as computed to accept them."""

    samples: tuple[Configuration, ...]
    energies: tuple[float, ...]
    n_proposed: int
    n_accepted: int


# Proposals between two checks of the acceptance rate.
_RATE_CHECK_EVERY = 2000


def rejection_sample(
    model,
    window: Window,
    z: float,
    mark_law: MarkLaw,
    n_samples: int,
    rng: np.random.Generator,
    env: Configuration | None = None,
    max_proposals: int = 5_000_000,
    min_rate: float = 1e-4,
) -> RejectionResult:
    """Exact sampler for models with certified non-negative energy.

    Proposes Poisson configurations and accepts with probability exp(-H),
    which is a valid thinning exactly because H >= 0. With an environment the
    conditional energy is used (still non-negative for these models). Aborts
    with a diagnostic when the realised acceptance rate, checked every 2000
    proposals, falls below ``min_rate``, rather than spinning forever.

    Proposals are drawn in blocks (``_poisson_draws``) and each block is
    priced by one ``model.energies`` call, or with an environment each
    proposal's configuration by ``conditional_energy``. Each proposal reads
    its count, its block of doubles and then its acceptance uniform, as a
    loop of one proposal at a time does. A block asks for no more proposals
    than the first of: the acceptances that could complete the batch
    (``n_samples`` - accepted proposals), the next rate check, and the
    proposal budget. So no block reads past the double where that loop
    stops, and both checks fire at its proposal counts.
    """
    if not getattr(model, "nonnegative", False):
        raise PreconditionError(
            f"model {model.model_id!r} does not certify H >= 0; rejection sampling invalid"
        )
    env_out = restrict_complement(env, window) if env is not None else None
    samples: list[Configuration] = []
    energies: list[float] = []
    proposed = accepted = 0
    while accepted < n_samples:
        if proposed >= max_proposals:
            raise NumericalFailure(
                f"rejection sampler exceeded {max_proposals} proposals "
                f"({accepted} accepted)"
            )
        count = min(n_samples - accepted, _RATE_CHECK_EVERY - proposed % _RATE_CHECK_EVERY,
                    max_proposals - proposed)
        draws, uniforms = _poisson_draws(window, z, mark_law, rng, count, accept=True)
        count = len(draws)
        configs = None if env_out is None else [draws.config(k) for k in range(count)]
        priced = (model.energies(draws) if configs is None
                  else [model.conditional_energy(c, env_out) for c in configs])
        for k, h in enumerate(priced):
            if h < 0:
                raise NumericalFailure(
                    f"model {model.model_id!r} produced negative energy {h} despite "
                    "its non-negativity certificate"
                )
            if uniforms[k] < math.exp(-h):
                samples.append(draws.config(k) if configs is None else configs[k])
                energies.append(h)
                accepted += 1
        proposed += count
        if proposed % _RATE_CHECK_EVERY == 0 and accepted / proposed < min_rate:
            raise NumericalFailure(
                f"rejection acceptance rate {accepted}/{proposed} below {min_rate}; "
                "the energy scale is too large for exact sampling"
            )
    return RejectionResult(tuple(samples), tuple(energies), proposed, accepted)


# ---------------------------------------------------------------------------
# Birth-death-move-remark chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProposalMix:
    """Move-kind probabilities. Birth and death must be proposed equally
    often; the acceptance ratios below assume that symmetry."""

    birth: float = 0.35
    death: float = 0.35
    move: float = 0.2
    remark: float = 0.1
    move_scale: float = 0.3

    def __post_init__(self):
        probs = (self.birth, self.death, self.move, self.remark)
        if any(p < 0 for p in probs) or self.birth <= 0:
            raise ValueError("move probabilities must be non-negative, birth positive")
        if abs(self.birth - self.death) > 1e-12:
            raise ValueError("birth and death must have equal proposal probability")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("move probabilities must sum to 1")
        if self.move > 0 and self.move_scale <= 0:
            raise ValueError("move_scale must be positive when moves are proposed")


def hastings_ratio(kind: str, z_volume: float, n: int, dh: float) -> float:
    """Unclipped Hastings ratio of a proposal made from a state with n points.

    Birth z|W| e^{-dH} / (n+1), death n e^{-dH} / z|W|, move and remark
    e^{-dH}; 0 for an infinite increment, +inf when e^{-dH} overflows. The
    continuum chain accepts when its uniform falls below this value, and the
    lattice chain of ``DiscreteInstance`` tabulates min(1, ratio) from it.
    """
    if dh == math.inf:
        return 0.0
    try:
        weight = math.exp(-dh)
    except OverflowError:
        return math.inf
    if kind == "birth":
        return z_volume / (n + 1) * weight
    if kind == "death":
        return n / z_volume * weight
    return weight


_KINDS = ("birth", "death", "move", "remark")

# Environment stamps start here, above any interior stamp a chain reaches.
_ENV_STAMP = 1 << 62


class ChainState:
    """Mutable chain state: the model, the interior atoms, the fixed
    environment and their neighbour cells (see module docstring), the cached
    energy and the proposal and accept counts.

    A fresh state is at the empty configuration (conditional energy 0), with
    the atoms of ``env`` outside the window as its environment (none when
    ``env`` is None). ``points`` holds the interior atoms and ``stamps`` their
    stamps, index for index; ``delta`` prices a change and ``replace`` makes
    it, in both lists and the cells. The constructor refuses a degenerate
    environment (see ``_check_environment``), at the band of ``mark_cap`` if
    one is given, else at the initial band.
    """

    def __init__(self, model, window: Window, env: Configuration | None = None,
                 mark_cap: float | None = None):
        self.env = env = (restrict_complement(env, window) if env is not None
                          else Configuration.empty(window.dimension))
        self.model = model
        self.window = window
        self.mark_cap = mark_cap
        self.points: list[MarkedPoint] = []
        self.stamps: list[int] = []
        self.env_entries = [(_ENV_STAMP + j, q) for j, q in enumerate(env.points)]
        self.births = 0
        self.reach = model.reach
        self.bound = max((q.mark_norm for q in env.points), default=0.0)
        # band = tol * max(1, E, W + bound), E the largest |x|+|y|+r in the
        # environment, W the largest |x|+|y| over the window's bounding box;
        # bound includes the new grain's norm (see band)
        self.tol = model.degeneracy_tol
        self.floor = max([1.0] + [sum(map(abs, q.location)) + q.mark_norm for q in env.points])
        self.extent = float(np.abs(window.bounding_box().bounds).max(axis=1).sum())
        self._build()
        if self.tol and window.dimension == 2:
            self._check_environment()
        self.volume = window.volume()
        self.cached_energy = 0.0
        self.proposals = {k: 0 for k in _KINDS}
        self.accepts = {k: 0 for k in _KINDS}

    def _build(self) -> None:
        # A zero reach asks only for p's own cell (see neighbours), which a
        # unit side keeps small.
        self.side = self.reach(self.bound, self.bound) or 1.0
        self.cells: dict[tuple[int, ...], list[tuple[int, MarkedPoint]]] = {}
        for entry in [*zip(self.stamps, self.points), *self.env_entries]:
            self.cells.setdefault(self._key(entry[1].location), []).append(entry)

    def _check_environment(self) -> None:
        """PreconditionError when an environment grain that the chain can
        meet lies within its largest band of a tangency or triple point with
        earlier such grains (``geometry._find_degenerate``'s prefix rule,
        against the earlier grains of the grain's own cells; see
        ``_DEGENERACY_TOL``)."""
        cap = self.mark_cap
        band = self.band(cap or 0.0)
        lo, hi = self.window.bounding_box().bounds.T
        grains = {s: Disc(*q.location, q.mark_norm) for s, q in self.env_entries if q.mark_norm and (
            cap is None
            or math.dist(q.location, np.clip(q.location, lo, hi)) < q.mark_norm + cap + band)}
        for stamp, d in grains.items():
            near = self.near((d.x, d.y), d.r + self.bound + band)
            earlier = [grains[s] for s, _ in near if s < stamp and s in grains]
            if meeting_discs(d, earlier, band) is None:
                raise PreconditionError(
                    f"environment grains are degenerate: the one at ({d.x:g}, {d.y:g}) with radius "
                    f"{d.r:g} lies within {band:.3g} of a tangency or triple point with earlier ones")

    def band(self, norm: float) -> float:
        """Degeneracy band for a grain of this mark norm joining the state."""
        return self.tol and self.tol * max(self.floor, self.extent + max(self.bound, norm))

    def _key(self, loc: tuple[float, ...]) -> tuple[int, ...]:
        return tuple([math.floor(c / self.side) for c in loc])

    def snapshot(self) -> Configuration:
        return Configuration(list(self.points), dimension=self.window.dimension)

    def replace(self, idx: int, added: list[MarkedPoint]) -> None:
        """``points[idx : idx + 1] = added`` (at most one atom each side),
        with the one cell entry written, deleted or appended in place."""
        points, stamps = self.points, self.stamps
        if idx < len(points):
            stamp = stamps[idx]
            self.cells[self._key(points[idx].location)].remove((stamp, points[idx]))
            if not added:
                del points[idx], stamps[idx]
                return
            p = points[idx] = added[0]
        else:
            stamp, p = self.births, added[0]
            self.births += 1
            points.append(p)
            stamps.append(stamp)
        if p.mark_norm > self.bound:
            self.bound = p.mark_norm
            self._build()
        else:
            self.cells.setdefault(self._key(p.location), []).append((stamp, p))

    def near(self, loc: tuple[float, ...], r: float) -> list[tuple[int, MarkedPoint]]:
        """(stamp, atom) entries of the cells within r of loc, in stamp order."""
        side, cells, spans, found = self.side, self.cells, [], []
        for c in loc:
            # the slack covers roundoff in distances and cell keys
            slack = r + 1e-9 * (r + abs(c))
            spans.append(range(math.floor((c - slack) / side), math.floor((c + slack) / side) + 1))
        for key in product(*spans):
            cell = cells.get(key)
            if cell:
                found += cell
        found.sort()
        return found

    def neighbours(self, p: MarkedPoint, skip: int = -1) -> list[MarkedPoint] | None:
        """Atoms within reach of p, interior index ``skip`` left out, in
        list order: interior atoms first, then the environment; None when
        another interior atom sits at p's location, which p's own cell holds."""
        loc, norm = p.location, p.mark_norm
        r = self.reach(norm, self.bound)
        if self.tol:
            r += self.band(norm)
        hidden = self.stamps[skip] if skip >= 0 else -1
        found = []
        for stamp, q in self.near(loc, r):
            if stamp == hidden:
                continue
            if q.location == loc:
                if stamp < _ENV_STAMP:
                    return None
                found.append(q)
            elif r:  # with a zero reach only atoms at p's own location can interact
                found.append(q)
        return found

    def delta(self, idx: int, added: list[MarkedPoint]) -> float:
        """Energy increment of ``points[idx : idx + 1] = added`` (see module
        docstring); +inf for the empty proposal and for a refused new atom. The
        new atom is priced first, at its band, then the removed one (finite by
        invariant) at band 0: a move or a remark pays gain - loss, a death -loss.
        """
        removes = idx < len(self.points)
        if not (added or removes):
            return math.inf
        skip = idx if removes else -1
        if added:
            p = added[0]
            capped = self.mark_cap is not None and p.mark_norm > self.mark_cap
            near = None if capped else self.neighbours(p, skip)
            if near is None:
                return math.inf
            gain = self.model.local_delta(p, near, self.band(p.mark_norm))
            if gain == math.inf or not removes:
                return gain
        old = self.points[idx]
        loss = self.model.local_delta(old, self.neighbours(old, idx))
        return gain - loss if added else -loss


def bdm_step(
    state: ChainState,
    z: float,
    mark_law: MarkLaw,
    mix: ProposalMix,
    rng: np.random.Generator,
) -> None:
    """One Metropolis-Hastings proposal, made on the state in place.

    Each kind draws its full schedule first and names its proposal as
    ``points[idx : idx + 1] = added``: a birth appends, a death removes, a
    move or a remark replaces one atom. A move leaving the window, or any
    kind but birth on the empty state, leaves the empty proposal. One
    ``state.delta`` prices every proposal, +inf for those it refuses, and the
    proposal is accepted when its acceptance uniform falls below
    ``hastings_ratio``, i.e. with probability min(1, ratio).
    """
    u_kind = rng.random()
    n = len(state.points)
    idx, added = n, []
    if u_kind < mix.birth:
        kind = "birth"
        loc = state.window.draw(rng)
        mark = mark_law.sample(rng)
        u_acc = rng.random()
        added = [MarkedPoint.make(loc, mark)]
    elif u_kind < mix.birth + mix.death:
        kind = "death"
        u_sel = rng.random()
        u_acc = rng.random()
        if n > 0:
            idx = min(int(u_sel * n), n - 1)
    elif u_kind < mix.birth + mix.death + mix.move:
        kind = "move"
        u_sel = rng.random()
        disp = (rng.standard_normal(state.window.dimension) * mix.move_scale).tolist()
        u_acc = rng.random()
        if n > 0:
            sel = min(int(u_sel * n), n - 1)
            old = state.points[sel]
            new_loc = tuple([c + dc for c, dc in zip(old.location, disp)])
            if new_loc in state.window:
                idx, added = sel, [MarkedPoint(new_loc, old.mark, old.mark_norm)]
    else:
        kind = "remark"
        u_sel = rng.random()
        mark = mark_law.sample(rng)
        u_acc = rng.random()
        if n > 0:
            idx = min(int(u_sel * n), n - 1)
            added = [MarkedPoint.make(state.points[idx].location, mark)]
    dh = state.delta(idx, added)
    state.proposals[kind] += 1
    if u_acc < hastings_ratio(kind, z * state.volume, n, dh):
        state.replace(idx, added)
        state.cached_energy += dh
        state.accepts[kind] += 1


@dataclass(frozen=True)
class ChainStats:
    steps: int
    proposals: dict
    accepts: dict
    drift_checks: int
    max_drift: float
    final_energy: float


@dataclass(frozen=True)
class ChainResult:
    samples: tuple[Configuration, ...]
    stats: ChainStats
    final: Configuration


def run_chain(
    model,
    window: Window,
    z: float,
    mark_law: MarkLaw,
    steps: int,
    rng: np.random.Generator,
    env: Configuration | None = None,
    burn_in: int = 0,
    thin: int = 1,
    mark_cap: float | None = None,
    drift_check_every: int = 10_000,
) -> ChainResult:
    """Run the chain from the empty configuration, with the default
    ``ProposalMix``, collecting thinned samples.

    Every ``drift_check_every`` steps the cached energy is recomputed from
    scratch; a deviation above 1e-9 (relative to max(1, |H|)), or a cached
    or recomputed value that is not finite, aborts with a NumericalFailure
    carrying the step and both values. Without ``mark_cap`` the chain is
    capped at the mark law's ``max_norm``, which no draw exceeds: it changes
    no decision, and the environment is certified at the widest band the
    chain can reach (see ``ChainState``).
    """
    if z < 0:
        raise ValueError("activity z must be non-negative")
    if steps <= burn_in:
        raise PreconditionError("steps must exceed burn_in")
    if thin < 1:
        raise PreconditionError("thin must be >= 1")
    if drift_check_every < 1:
        raise PreconditionError("drift_check_every must be >= 1")
    mix = ProposalMix()
    state = ChainState(model, window, env, mark_law.max_norm if mark_cap is None else mark_cap)
    samples: list[Configuration] = []
    max_drift = 0.0
    checks = 0
    for s in range(1, steps + 1):
        bdm_step(state, z, mark_law, mix, rng)
        if s % drift_check_every == 0:
            recomputed = model.conditional_energy(state.snapshot(), state.env)
            drift = abs(recomputed - state.cached_energy)
            checks += 1
            max_drift = max(max_drift, drift)
            # written so that an infinite or NaN value fails too
            if not (math.isfinite(recomputed) and drift <= 1e-9 * max(1.0, abs(recomputed))):
                raise NumericalFailure(
                    f"energy drift {drift:.3e} at step {s}: cached "
                    f"{state.cached_energy!r} vs recomputed {recomputed!r} "
                    f"(n = {len(state.points)})"
                )
        if s > burn_in and (s - burn_in) % thin == 0:
            samples.append(state.snapshot())
    stats = ChainStats(
        steps=steps,
        proposals=dict(state.proposals),
        accepts=dict(state.accepts),
        drift_checks=checks,
        max_drift=max_drift,
        final_energy=state.cached_energy,
    )
    return ChainResult(tuple(samples), stats, state.snapshot())


def sample_cutoff_kernel(
    model,
    lam: Window,
    delta_win: Window,
    m0: float,
    xi: Configuration,
    z: float,
    mark_law: MarkLaw,
    steps: int,
    rng: np.random.Generator,
    burn_in: int = 0,
    thin: int = 1,
    drift_check_every: int = 10_000,
) -> ChainResult:
    """Chain targeting the cut-off kernel: marks capped at m0, environment
    truncated to the moat window minus the interior window.

    Coincides with the full-kernel chain whenever no proposed mark exceeds m0
    and the moat window already contains every environment atom the full
    kernel can feel; the fixed draw schedule then makes the two runs
    bit-identical for the same stream.
    """
    if m0 < 0:
        raise PreconditionError("mark cap m0 must be non-negative")
    if not window_contains(delta_win, lam):
        raise PreconditionError("truncation window must contain the interior window")
    return run_chain(
        model, lam, z, mark_law, steps, rng, env=restrict(xi, delta_win),
        burn_in=burn_in, thin=thin, mark_cap=m0, drift_check_every=drift_check_every,
    )
