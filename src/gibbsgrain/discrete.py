"""Exactly solvable finite instances of the Gibbs model.

A DiscreteInstance places at most one atom per cell of a small lattice, with
marks drawn from a finite table. Its state space is small enough to
enumerate, so the target distribution is available in closed form and the
birth-death-move-remark chain can be validated against it (total variation
after many steps) without trusting any sampler output. The acceptance tables
come from ``sampler.hastings_ratio``, the rule the continuum chain
``bdm_step`` applies, and the energies from the model's own
``conditional_energy``. So the check covers the chain's acceptance rule and
the energy its drift check recomputes; the increments the chain prices its
proposals with (``local_delta``) are not on this path.

The same enumeration drives the kernel compatibility check: conditioning the
big-window kernel on its own moat configuration must reproduce the
small-window kernel exactly, which pins down the conditional-energy
bookkeeping to roundoff.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from . import sampler
from .errors import PreconditionError
from .points import Configuration, MarkedPoint

__all__ = ["DiscreteInstance", "tv_distance", "kernel_compatibility_check"]


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


class DiscreteInstance:
    """One-atom-per-cell Gibbs model with a finite mark table.

    States are encoded base (M+1) over the C cells: digit 0 means the cell is
    empty, digit a in 1..M means an atom with mark value ``mark_values[a-1]``.
    The target weight of a state with occupied digits a_i is

        prod_i (z * cell_volume * p_{a_i}) * exp(-H)

    with H from a pairwise energy model (self terms, interior pairs, and
    cross terms against a fixed environment). An optional cap ``n_max`` zeroes
    every state with more atoms; the cap is a global constraint, so capped
    instances are rejected by the compatibility check.
    """

    def __init__(
        self,
        model,
        cell_centers,
        cell_volume: float,
        mark_values,
        mark_probs,
        z: float,
        n_max: int | None = None,
        env: tuple = (),
    ):
        if not getattr(model, "pairwise", False):
            raise PreconditionError("discrete instances need a pairwise energy model")
        if cell_volume <= 0 or z <= 0:
            raise ValueError("cell_volume and z must be positive")
        self.model = model
        self.centers = tuple(tuple(float(c) for c in np.atleast_1d(ctr)) for ctr in cell_centers)
        self.cell_volume = float(cell_volume)
        self.mark_values = tuple(float(v) for v in mark_values)
        self.mark_probs = tuple(float(p) for p in mark_probs)
        if len(self.mark_values) != len(self.mark_probs):
            raise ValueError("mark_values and mark_probs length mismatch")
        if abs(sum(self.mark_probs) - 1.0) > 1e-12 or min(self.mark_probs) <= 0:
            raise ValueError("mark_probs must be positive and sum to 1")
        self.z = float(z)
        self.n_max = n_max
        self.env = Configuration(env, dimension=len(self.centers[0]))
        self.n_cells = C = len(self.centers)
        self.n_marks = M = len(self.mark_values)
        self.n_states = (M + 1) ** C
        if self.n_states > 200_000:
            raise ValueError("state space too large to enumerate")
        self._build_tables()

    # -- enumeration -------------------------------------------------------

    def _atom(self, cell: int, digit: int) -> MarkedPoint:
        return MarkedPoint.make(self.centers[cell], self.mark_values[digit - 1])

    def digits(self, code: int) -> tuple[int, ...]:
        base = self.n_marks + 1
        out = []
        for _ in range(self.n_cells):
            out.append(code % base)
            code //= base
        return tuple(out)

    def encode(self, digits) -> int:
        base = self.n_marks + 1
        code = 0
        for i, d in enumerate(digits):
            code += d * base**i
        return code

    def state_energy(self, code: int) -> float:
        atoms = [self._atom(i, d) for i, d in enumerate(self.digits(code)) if d > 0]
        return self.model.conditional_energy(Configuration(atoms, self.env.dimension), self.env)

    def _build_tables(self):
        C, M, S = self.n_cells, self.n_marks, self.n_states
        zv = self.z * self.cell_volume * C  # z * |window|
        energies = [self.state_energy(c) for c in range(S)]
        counts = [sum(1 for d in self.digits(c) if d > 0) for c in range(S)]
        valid = [
            (self.n_max is None or counts[c] <= self.n_max)
            and energies[c] < math.inf
            for c in range(S)
        ]
        self.energies = energies
        self.counts = counts
        self.valid = valid
        self.occupied = [
            tuple(i for i, d in enumerate(self.digits(c)) if d > 0) for c in range(S)
        ]
        powers = [(M + 1) ** i for i in range(C)]

        def entry(kind: str, code: int, new: int) -> tuple[int, float]:
            if new < 0 or not valid[new]:
                return -1, 0.0
            dh = energies[new] - energies[code]
            return new, min(1.0, sampler.hastings_ratio(kind, zv, counts[code], dh))

        # tables[kind][code][choice] -> (target code or -1, acceptance); the
        # choice is cell*M + a-1 (birth), k (death), k*C + t (move) or
        # k*M + b-1 (remark), for the k-th occupied cell. Invalid states
        # keep empty rows: the chain never visits them.
        self.tables = {kind: [[] for _ in range(S)] for kind in sampler._KINDS}
        birth, death, move, remark = (self.tables[kind] for kind in sampler._KINDS)
        for code in range(S):
            if not valid[code]:
                continue
            digs = self.digits(code)
            birth[code] = [
                entry("birth", code, code + a * powers[cell] if digs[cell] == 0 else -1)
                for cell in range(C)
                for a in range(1, M + 1)
            ]
            for cell in self.occupied[code]:
                a = digs[cell]
                gone = code - a * powers[cell]
                death[code].append(entry("death", code, gone))
                move[code] += [
                    entry("move", code, gone + a * powers[t] if digs[t] == 0 else -1)
                    for t in range(C)
                ]
                remark[code] += [
                    entry("remark", code, gone + b * powers[cell]) for b in range(1, M + 1)
                ]
        self.mark_cum = list(accumulate(self.mark_probs))

    def exact_distribution(self) -> np.ndarray:
        """Normalised target over state codes (zero on invalid states)."""
        w = np.zeros(self.n_states)
        lz = math.log(self.z * self.cell_volume)
        for code in range(self.n_states):
            if not self.valid[code]:
                continue
            logw = -self.energies[code]
            for d in self.digits(code):
                if d > 0:
                    logw += lz + math.log(self.mark_probs[d - 1])
            w[code] = math.exp(logw)
        return w / w.sum()

    # -- chain -------------------------------------------------------------

    def run_chain(
        self,
        steps: int,
        rng: np.random.Generator,
        mix=(0.35, 0.35, 0.2, 0.1),
        start: int = 0,
    ) -> np.ndarray:
        """Run the chain and return visit counts per state code.

        The move semantics mirror the continuum chain: birth picks a uniform
        cell and a table mark, death a uniform atom, move a uniform atom and
        a uniform target cell, remark a uniform atom and a fresh mark.
        Invalid proposals (occupied cell, cap, hard core) are rejected after
        their draws are consumed. A valid proposal is accepted with
        probability min(1, ``sampler.hastings_ratio``), tabulated at
        construction with z|W| = z * cell_volume * n_cells. ``mix`` gives
        the (birth, death, move, remark) probabilities, checked as a
        ``sampler.ProposalMix``.
        """
        sampler.ProposalMix(*mix)
        if not self.valid[start]:
            raise PreconditionError("start state is invalid")
        b1 = mix[0]
        b2 = mix[0] + mix[1]
        b3 = b2 + mix[2]
        C, M = self.n_cells, self.n_marks
        cuts = self.mark_cum[:-1]  # bisect stays below M when the probs sum to 1 - ulp
        birth, death, move, remark = (self.tables[kind] for kind in sampler._KINDS)
        counts = self.counts
        visits = [0] * self.n_states
        code = start
        block = 1 << 20
        buf = rng.random(block)
        ptr = 0
        for _ in range(steps):
            if ptr + 4 > block:
                buf = rng.random(block)
                ptr = 0
            u = buf[ptr]
            n = counts[code]
            if u < b1:
                table = birth
                choice = int(buf[ptr + 1] * C) * M + bisect_right(cuts, buf[ptr + 2])
                u_acc = buf[ptr + 3]
                ptr += 4
            elif u < b2:
                table = death
                choice = int(buf[ptr + 1] * n)
                u_acc = buf[ptr + 2]
                ptr += 3
            elif u < b3:
                table = move
                choice = int(buf[ptr + 1] * n) * C + int(buf[ptr + 2] * C)
                u_acc = buf[ptr + 3]
                ptr += 4
            else:
                table = remark
                choice = int(buf[ptr + 1] * n) * M + bisect_right(cuts, buf[ptr + 2])
                u_acc = buf[ptr + 3]
                ptr += 4
            row = table[code]
            if choice < len(row):  # an empty state has no atom to pick
                new, acc = row[choice]
                if u_acc < acc:
                    code = new
            visits[code] += 1
        return np.array(visits, dtype=float)

    def tv_to_exact(self, visits: np.ndarray) -> float:
        return tv_distance(visits / visits.sum(), self.exact_distribution())


def kernel_compatibility_check(instance: DiscreteInstance, lam_cells) -> float:
    """Largest pointwise gap between the big-window kernel and its
    composition through the small window.

    For every state s of the instance, split it into the part on
    ``lam_cells`` and the rest (the moat). Compatibility demands

        P(s) = P_marginal(moat part) * P_lam(inner part | moat part)

    where the conditional kernel on the small window treats the moat atoms
    as environment. Returns max_s |direct - composed|; the identity is
    algebraic, so anything above roundoff flags a conditional-energy bug.
    Capped instances are rejected: a global atom budget is not expressible
    as small-window energy plus a fixed environment.
    """
    if instance.n_max is not None:
        raise PreconditionError(
            "compatibility requires an uncapped instance (a global count cap "
            "is not a local energy)"
        )
    lam = sorted(set(int(i) for i in lam_cells))
    if not lam or any(i < 0 or i >= instance.n_cells for i in lam):
        raise ValueError("lam_cells must be a non-empty subset of cell indices")
    moat = [i for i in range(instance.n_cells) if i not in lam]
    if not moat:
        raise ValueError("the small window must be a strict subset")
    direct = instance.exact_distribution()

    def split(code: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        digs = instance.digits(code)
        return tuple(digs[i] for i in lam), tuple(digs[i] for i in moat)

    moat_marginal: dict[tuple[int, ...], float] = {}
    for code in range(instance.n_states):
        _, md = split(code)
        moat_marginal[md] = moat_marginal.get(md, 0.0) + direct[code]

    cond_cache: dict[tuple[int, ...], np.ndarray] = {}

    def conditional(moat_digits: tuple[int, ...]) -> np.ndarray:
        if moat_digits not in cond_cache:
            extra = tuple(
                instance._atom(cell, d)
                for cell, d in zip(moat, moat_digits)
                if d > 0
            )
            sub = DiscreteInstance(
                instance.model,
                [instance.centers[i] for i in lam],
                instance.cell_volume,
                instance.mark_values,
                instance.mark_probs,
                instance.z,
                n_max=None,
                env=instance.env.points + extra,
            )
            cond_cache[moat_digits] = sub.exact_distribution()
        return cond_cache[moat_digits]

    worst = 0.0
    for code in range(instance.n_states):
        ld, md = split(code)
        composed = moat_marginal[md] * conditional(md)[instance.encode(ld)]
        worst = max(worst, abs(float(direct[code]) - float(composed)))
    return worst
