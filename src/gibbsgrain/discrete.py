"""Exactly solvable finite instances of the Gibbs model.

A DiscreteInstance places at most one atom per cell of a small lattice, with
marks drawn from a finite table. Its state space is small enough to
enumerate, so the target distribution is available in closed form and the
birth-death-move-remark chain can be validated against it (total variation
after many steps) without trusting any sampler output. The acceptance tables
come from ``sampler.hastings_ratio``, the rule the continuum chain
``bdm_step`` applies, and the energies from the model's own
``conditional_energy``, so the check covers the acceptance rule and the
energy code the continuum chain uses.

The same enumeration drives the kernel compatibility check: conditioning the
big-window kernel on its own moat configuration must reproduce the
small-window kernel exactly, which pins down the conditional-energy
bookkeeping to roundoff.
"""

from __future__ import annotations

import math

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
        base = M + 1
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
        powers = [base**i for i in range(C)]

        def accept(kind: str, n: int, dh: float) -> float:
            return min(1.0, sampler.hastings_ratio(kind, zv, n, dh))

        # birth_t[code][cell][mark-1] -> new code or -1; birth_a -> acceptance
        birth_t = [[[-1] * M for _ in range(C)] for _ in range(S)]
        birth_a = [[[0.0] * M for _ in range(C)] for _ in range(S)]
        death_t: list[list[int]] = [[] for _ in range(S)]
        death_a: list[list[float]] = [[] for _ in range(S)]
        move_t = [[[-1] * C for _ in self.occupied[c]] for c in range(S)]
        move_a = [[[0.0] * C for _ in self.occupied[c]] for c in range(S)]
        remark_t = [[[-1] * M for _ in self.occupied[c]] for c in range(S)]
        remark_a = [[[0.0] * M for _ in self.occupied[c]] for c in range(S)]

        for code in range(S):
            if not valid[code]:
                continue
            digs = self.digits(code)
            n = counts[code]
            h = energies[code]
            for cell in range(C):
                if digs[cell] != 0:
                    continue
                for a in range(1, M + 1):
                    new = code + a * powers[cell]
                    if not valid[new]:
                        continue
                    dh = energies[new] - h
                    birth_t[code][cell][a - 1] = new
                    birth_a[code][cell][a - 1] = accept("birth", n, dh)
            for k, cell in enumerate(self.occupied[code]):
                a = digs[cell]
                new = code - a * powers[cell]
                dh = energies[new] - h
                death_t[code].append(new)
                death_a[code].append(accept("death", n, dh))
                for tgt in range(C):
                    if digs[tgt] != 0:
                        continue
                    new2 = code - a * powers[cell] + a * powers[tgt]
                    if not valid[new2]:
                        continue
                    dh2 = energies[new2] - h
                    move_t[code][k][tgt] = new2
                    move_a[code][k][tgt] = accept("move", n, dh2)
                for b in range(1, M + 1):
                    new3 = code - a * powers[cell] + b * powers[cell]
                    if not valid[new3]:
                        continue
                    dh3 = energies[new3] - h
                    remark_t[code][k][b - 1] = new3
                    remark_a[code][k][b - 1] = accept("remark", n, dh3)
        self.birth_t, self.birth_a = birth_t, birth_a
        self.death_t, self.death_a = death_t, death_a
        self.move_t, self.move_a = move_t, move_a
        self.remark_t, self.remark_a = remark_t, remark_a
        cum = []
        acc = 0.0
        for p in self.mark_probs:
            acc += p
            cum.append(acc)
        self.mark_cum = cum

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
        construction with z|W| = z * cell_volume * n_cells.
        """
        if abs(mix[0] - mix[1]) > 1e-12:
            raise ValueError("birth and death must be proposed equally often")
        if not self.valid[start]:
            raise PreconditionError("start state is invalid")
        b1 = mix[0]
        b2 = mix[0] + mix[1]
        b3 = b2 + mix[2]
        C, M = self.n_cells, self.n_marks
        mark_cum = self.mark_cum
        birth_t, birth_a = self.birth_t, self.birth_a
        death_t, death_a = self.death_t, self.death_a
        move_t, move_a = self.move_t, self.move_a
        remark_t, remark_a = self.remark_t, self.remark_a
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
            if u < b1:
                cell = int(buf[ptr + 1] * C)
                um = buf[ptr + 2]
                a = 0
                while mark_cum[a] <= um:
                    a += 1
                u_acc = buf[ptr + 3]
                ptr += 4
                new = birth_t[code][cell][a]
                if new >= 0 and u_acc < birth_a[code][cell][a]:
                    code = new
            elif u < b2:
                n = counts[code]
                u_sel = buf[ptr + 1]
                u_acc = buf[ptr + 2]
                ptr += 3
                if n > 0:
                    k = int(u_sel * n)
                    if u_acc < death_a[code][k]:
                        code = death_t[code][k]
            elif u < b3:
                n = counts[code]
                u_sel = buf[ptr + 1]
                u_tgt = buf[ptr + 2]
                u_acc = buf[ptr + 3]
                ptr += 4
                if n > 0:
                    k = int(u_sel * n)
                    tgt = int(u_tgt * C)
                    new = move_t[code][k][tgt]
                    if new >= 0 and u_acc < move_a[code][k][tgt]:
                        code = new
            else:
                n = counts[code]
                u_sel = buf[ptr + 1]
                um = buf[ptr + 2]
                u_acc = buf[ptr + 3]
                ptr += 4
                if n > 0:
                    k = int(u_sel * n)
                    a = 0
                    while mark_cum[a] <= um:
                        a += 1
                    new = remark_t[code][k][a]
                    if new >= 0 and u_acc < remark_a[code][k][a]:
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
    base = instance.n_marks + 1

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
        sub_code = 0
        for pos, d in enumerate(ld):
            sub_code += d * base**pos
        composed = moat_marginal[md] * conditional(md)[sub_code]
        worst = max(worst, abs(float(direct[code]) - float(composed)))
    return worst
