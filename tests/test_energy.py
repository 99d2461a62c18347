"""Energy models: values, gating, locality, conditional energies, additivity."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbsgrain import (
    Box,
    Configuration,
    DiffusionModel,
    Disc,
    HardSphereModel,
    IdealModel,
    MarkedPoint,
    PairPotentialModel,
    PreconditionError,
    QuermassModel,
    additivity_check,
    conditional_energy,
    euler_characteristic,
    interaction_range,
    lj_pair,
    minimal_t,
    restrict,
    restrict_complement,
    sample_poisson,
    stream,
    union_area_perimeter,
)
from gibbsgrain import sampler
from gibbsgrain.energy import _ALL_PAIRS_BELOW
from gibbsgrain.geometry import _DEGENERACY_TOL, _find_degenerate
from gibbsgrain.marks import LangevinSpec, PathMark, UniformLaw
from gibbsgrain.points import Draws
from conftest import config, mp, random_scalar_config


def soft_bump(u):
    return 1.2 * u * math.exp(-u)


def straight_path(end, k=8):
    pts = np.stack(
        [np.linspace(0.0, end[0], k + 1), np.linspace(0.0, end[1], k + 1)], axis=1
    )
    return PathMark(pts)


def path_point(loc, end, k=8):
    return MarkedPoint.make(loc, straight_path(end, k))


ALL_MODELS = [
    IdealModel(),
    HardSphereModel(),
    PairPotentialModel(soft_bump),
    QuermassModel(0.4, -0.2, 0.3),
]


class TestBasics:
    def test_empty_is_zero_for_every_model(self):
        e2 = Configuration.empty(2)
        for model in ALL_MODELS + [DiffusionModel()]:
            assert model.energy(e2) == 0.0

    def test_values_never_nan(self):
        rng = stream(501, 0)
        for _ in range(25):
            g = random_scalar_config(rng, n_max=8, extent=2.0, mark_hi=1.2)
            for model in ALL_MODELS:
                v = model.energy(g)
                assert not math.isnan(v)


class TestHardSphere:
    model = HardSphereModel()

    def test_overlap_is_infinite(self):
        g = config([mp((0.0, 0.0), 1.0), mp((1.5, 0.0), 1.0)])
        assert self.model.energy(g) == math.inf

    def test_separated_is_zero(self):
        g = config([mp((0.0, 0.0), 1.0), mp((2.5, 0.0), 1.0)])
        assert self.model.energy(g) == 0.0

    def test_contact_is_allowed(self):
        # grains are open balls, touching boundaries do not overlap
        g = config([mp((0.0, 0.0), 1.0), mp((2.0, 0.0), 1.0)])
        assert self.model.energy(g) == 0.0

    def test_zero_radius_never_overlaps(self):
        g = config([mp((0.0, 0.0), 0.0), mp((0.1, 0.0), 5.0)])
        assert self.model.energy(g) == 0.0


class TestPairPotential:
    def test_phi_zero_at_origin_enforced(self):
        with pytest.raises(ValueError):
            PairPotentialModel(lambda u: u + 1.0)

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError):
            PairPotentialModel(lambda u: -u)

    def test_gate_and_value(self):
        model = PairPotentialModel(soft_bump)
        near = config([mp((0.0, 0.0), 0.8), mp((1.0, 0.0), 0.7)])
        assert model.energy(near) == pytest.approx(soft_bump(1.0), rel=1e-12)
        far = config([mp((0.0, 0.0), 0.4), mp((1.0, 0.0), 0.5)])
        assert model.energy(far) == 0.0

    def test_three_point_sum(self):
        model = PairPotentialModel(soft_bump)
        g = config([mp((0.0, 0.0), 1.0), mp((1.0, 0.0), 1.0), mp((0.0, 1.5), 1.0)])
        expect = soft_bump(1.0) + soft_bump(1.5) + soft_bump(math.hypot(1.0, 1.5))
        assert model.energy(g) == pytest.approx(expect, rel=1e-12)


class TestQuermass:
    def test_single_disc_area(self):
        model = QuermassModel(1.0, 0.0, 0.0)
        g = config([mp((0.3, 0.4), 1.0)])
        assert model.energy(g) == pytest.approx(math.pi, rel=1e-9)

    def test_matches_geometry_functionals(self):
        rng = stream(502, 0)
        model = QuermassModel(0.7, -0.3, 1.1)
        for _ in range(15):
            g = random_scalar_config(rng, n_max=8, extent=2.0, mark_hi=1.3)
            if len(g.points) == 0:
                continue
            s = [Disc(*p.location, p.mark_norm) for p in g.points]
            expect = (
                0.7 * union_area_perimeter(s)[0]
                - 0.3 * union_area_perimeter(s)[1]
                + 1.1 * euler_characteristic(s)
            )
            assert model.energy(g) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_dimension_guard(self):
        model = QuermassModel(1.0, 0.0, 0.0)
        g = Configuration([MarkedPoint.make((0.0, 0.0, 0.0), 1.0)])
        with pytest.raises(PreconditionError):
            model.energy(g)


# Degenerate families: the grain states the chain's planted degeneracies
# would leave (``TestDegeneracyBand`` in test_sampler.py), then a tangency, an
# internal tangency and a triple point of the circles centred at (-0.3, 0)
# and (0.3, 0), radius 0.5, which cross at (0, 0.4).
DEGENERATE = {
    "birth-tangency": [((0.0, 0.0), 0.5), ((1.0, 0.0), 0.5)],
    "birth-internal-tangency": [((0.0, 0.0), 0.5), ((0.25, 0.0), 0.25)],
    "move-triple-point": [((-0.3, 0.0), 0.5), ((0.3, 0.0), 0.5), ((0.0, 0.9), 0.5)],
    "remark-tangency": [((0.0, 0.0), 0.5), ((1.0, 0.0), 0.5)],
    "tangency": [((0.0, 0.0), 1.0), ((2.0, 0.0), 1.0)],
    "internal-tangency": [((0.0, 0.0), 1.0), ((0.5, 0.0), 0.5)],
    "triple-point": [((-0.3, 0.0), 0.5), ((0.3, 0.0), 0.5), ((0.0, -0.9), 0.5)],
}


class TestQuermassDegeneracy:
    """A degenerate grain family has quermass energy +inf, never NaN."""

    model = QuermassModel(0.4, -0.2, 0.3)

    @pytest.mark.parametrize("family", sorted(DEGENERATE))
    def test_degenerate_families_are_infinite(self, family):
        grains = [mp(loc, r) for loc, r in DEGENERATE[family]]
        assert self.model.energy(config(grains)) == math.inf
        # the whole family inside, or its last grain inside and the rest
        # outside, where that grain meets every other one
        assert self.model.conditional_energy(config(grains), config([], 2)) == math.inf
        if family not in ("birth-tangency", "remark-tangency", "tangency"):
            cond = self.model.conditional_energy(config(grains[-1:]), config(grains[:-1]))
            assert cond == math.inf

    def test_degenerate_environment_gives_inf_not_nan(self):
        # The environment alone has a triple point, so both the joint family
        # and the environment's own functional are degenerate: inf - inf.
        env = config([mp(loc, r) for loc, r in DEGENERATE["move-triple-point"]])
        interior = config([mp((0.0, 0.3), 0.2)])
        assert self.model.energy(env) == math.inf
        assert self.model.conditional_energy(interior, env) == math.inf

    def test_tangent_environment_grain_is_refused(self):
        # An environment grain exactly tangent to the interior grain does not
        # overlap it, yet the pair is degenerate: the conditional energy
        # agrees with the energy of the two grains together.
        interior, env = config([mp((1, 0), 0.5)]), config([mp((0, 0), 0.5)])
        assert self.model.energy(interior.union(env)) == math.inf
        assert self.model.conditional_energy(interior, env) == math.inf
        # a clear gap leaves the environment grain out of the value
        clear = config([mp((0, 0), 0.4)])
        assert self.model.conditional_energy(interior, clear) == self.model.energy(interior)

    @settings(max_examples=300)
    @given(
        grains=st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 3)),
            min_size=2,
            max_size=7,
            unique_by=lambda g: g[:2],
        ),
        split=st.integers(0, 7),
    )
    def test_infinite_exactly_on_flagged_families(self, grains, split):
        # On a 0.5 lattice of centres and radii, tangencies are common (a
        # quarter of the examples) and exact.
        pts = [mp((0.5 * x, 0.5 * y), 0.5 * r) for x, y, r in grains]
        discs = [Disc(*p.location, p.mark_norm) for p in pts if p.mark_norm > 0.0]
        scale = max([1.0] + [abs(d.x) + abs(d.y) + d.r for d in discs])
        flagged = bool(_find_degenerate(discs, _DEGENERACY_TOL * scale))
        h = self.model.energy(config(pts, 2))
        assert (h == math.inf) == flagged
        assert not math.isnan(h)
        # the conditional energy reads a subfamily of pts, in pts order
        cond = self.model.conditional_energy(config(pts[:split], 2), config(pts[split:], 2))
        assert not math.isnan(cond)
        if not flagged:
            assert math.isfinite(cond)
        if split and self.model.energy(config(pts[:split], 2)) == math.inf:
            assert cond == math.inf


class TestLennardJones:
    def test_zero_crossing(self):
        assert lj_pair(1.5) == 0.0

    def test_global_minimum(self):
        u_star = 1.5 * 2.0 ** (1.0 / 6.0)
        assert abs(lj_pair(u_star) + 4.0) <= 1e-9
        for eps in (-1e-4, 1e-4):
            assert lj_pair(u_star + eps) > lj_pair(u_star)

    def test_decay_from_below(self):
        assert -1e-6 < lj_pair(100.0) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lj_pair(0.0)
        assert lj_pair(1e-300) == math.inf


class TestDiffusion:
    def test_scalar_marks_rejected(self):
        model = DiffusionModel()
        with pytest.raises(PreconditionError):
            model.energy(config([mp((0.0, 0.0), 1.0)]))

    def test_mismatched_grids_rejected(self):
        model = DiffusionModel()
        g = Configuration(
            [path_point((0.0, 0.0), (1.0, 0.0), k=8), path_point((5.0, 0.0), (1.0, 0.0), k=16)]
        )
        with pytest.raises(PreconditionError):
            model.energy(g)

    def test_self_term_is_confinement(self):
        model = DiffusionModel()
        p = path_point((0.0, 0.0), (0.6, 0.8), k=8)  # sup norm 1.0
        assert model.energy(Configuration([p])) == pytest.approx(-2.0, rel=1e-12)

    def test_pair_term_against_direct_sum(self):
        model = DiffusionModel()
        k = 8
        p = path_point((0.0, 0.0), (1.0, 0.0), k)
        q = path_point((2.0, 0.0), (0.0, 1.0), k)
        sep = np.linalg.norm(p.mark.samples - q.mark.samples, axis=1)
        vals = np.minimum(sep**2, 1e6)
        h = 1.0 / k
        manual = h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
        expect = model.self_term(p) + model.self_term(q) + lj_pair(2.0) + manual
        got = model.energy(Configuration([p, q]))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_gate_is_exact_zero(self):
        model = DiffusionModel()
        p = path_point((0.0, 0.0), (1.0, 0.0), 8)
        q = path_point((3.6, 0.0), (0.0, 1.0), 8)  # 3.6 > 1.5 + 1 + 1
        assert model.pair_term(p, q) == 0.0


def per_pair_interaction(model, p, others, total):
    """The reference sum: p's pair terms one at a time, in list order, with
    +inf at the first infinite term."""
    for q in others:
        v = model.pair_term(p, q)
        if v == math.inf:
            return math.inf
        total += v
    return total


def one_pair_reference(p, q):
    """``DiffusionModel.pair_term`` on one pair of 1-D arrays, as it was
    written before the path parts were batched."""
    d = math.dist(p.location, q.location)
    if d > DiffusionModel.a0 + p.mark_norm + q.mark_norm:
        return 0.0
    sep = np.linalg.norm(p.mark.samples - q.mark.samples, axis=1)
    part = float(np.trapezoid(np.minimum(sep * sep, 1.0e6), dx=1.0 / p.mark.step_count))
    return lj_pair(d) + part


def random_path(rng, n_points, scale):
    """A random-walk path of ``n_points`` samples from the origin."""
    steps = rng.normal(0.0, scale / math.sqrt(n_points), size=(n_points, 2))
    steps[0] = 0.0
    return PathMark(np.cumsum(steps, axis=0))


def batch_neighbours(rng, p, kinds, n_points, scale):
    """One neighbour of p per kind: "far" beyond the reach, "near" within
    it, "overflow" so close that the Lennard-Jones term is +inf."""
    model = DiffusionModel()
    out = []
    for kind in kinds:
        mark = random_path(rng, n_points, scale)
        direction = rng.normal(size=len(p.location))
        direction /= np.linalg.norm(direction)
        reach = model.reach(p.mark_norm, mark.sup_norm)
        dist = {"far": reach + 1.0 + rng.random(), "near": reach * rng.uniform(0.05, 1.0),
                "overflow": 1e-30}[kind]
        out.append(MarkedPoint.make(tuple(np.asarray(p.location) + dist * direction), mark))
    return out


class TestDiffusionBatch:
    """``DiffusionModel.interaction`` batches the path parts of all in-range
    neighbours; its sums must be the per-pair ones by ``float.hex``."""

    @settings(max_examples=60)
    @given(
        d=st.sampled_from([1, 2, 3]),
        n_points=st.sampled_from([2, 100, 257, 1025]),
        kinds=st.lists(st.sampled_from(["far", "near", "overflow"]), max_size=6),
        scale=st.sampled_from([0.1, 1.0, 3000.0]),
        seed=st.integers(0, 2**16),
        from_self=st.booleans(),
    )
    @example(d=2, n_points=257, kinds=[], scale=1.0, seed=0, from_self=True)
    @example(d=2, n_points=257, kinds=["far", "far", "far"], scale=1.0, seed=1, from_self=True)
    @example(d=1, n_points=2, kinds=["overflow", "near"], scale=1.0, seed=2, from_self=False)
    @example(d=2, n_points=100, kinds=["near", "near", "near"], scale=1.0, seed=4,
             from_self=True)
    @example(d=3, n_points=1025, kinds=["near", "far", "near", "overflow", "near"],
             scale=3000.0, seed=3, from_self=True)
    # six near neighbours of wide paths, so the 1e6 clip fires inside a batch
    @example(d=2, n_points=257, kinds=["near"] * 6, scale=3000.0, seed=5, from_self=True)
    # one near neighbour: a batch of one row, which is not stacked
    @example(d=2, n_points=257, kinds=["near"], scale=1.0, seed=6, from_self=False)
    @example(d=1, n_points=2, kinds=["far", "near", "far"], scale=3000.0, seed=7,
             from_self=True)
    def test_interaction_matches_per_pair_loop(self, d, n_points, kinds, scale, seed,
                                                from_self):
        rng = stream(seed, 0)
        model = DiffusionModel()
        # at the origin, so that an "overflow" neighbour 1e-30 away is not
        # rounded onto p
        p = MarkedPoint.make((0.0,) * d, random_path(rng, n_points, scale))
        others = batch_neighbours(rng, p, kinds, n_points, scale)
        total = model.self_term(p) if from_self else 0.0
        want = per_pair_interaction(model, p, others, total)
        assert model.interaction(p, others, total).hex() == want.hex()
        for q in others:
            assert model.pair_term(p, q).hex() == one_pair_reference(p, q).hex()
        if "overflow" in kinds:
            assert want == math.inf

    @pytest.mark.parametrize("n_points", [2, 257, 1025])
    def test_energies_match_per_pair_sums(self, n_points):
        rng = stream(511, n_points)
        model = DiffusionModel()

        def atoms(lo, hi, n):
            return [MarkedPoint.make(tuple(rng.uniform(lo, hi, size=2)),
                                     random_path(rng, n_points, 1.0)) for _ in range(n)]

        interior, environment = atoms(-1.0, 1.0, 5), atoms(1.0, 4.0, 6)
        want = 0.0
        for p in interior:
            want += model.self_term(p)
        for i, p in enumerate(interior):
            want = per_pair_interaction(model, p, interior[i + 1:], want)
        assert math.isfinite(want)
        assert model.energy(Configuration(interior)).hex() == want.hex()
        for p in interior:
            want = per_pair_interaction(model, p, environment, want)
        got = model.conditional_energy(Configuration(interior), Configuration(environment))
        assert got.hex() == want.hex()


def all_pairs_energy(model, config):
    """``energy`` by the all-pairs loop that every pairwise model ran before
    the candidate-pair search: the reference, kept here."""
    model.validate_config(config)
    pts = config.points
    total = 0.0
    for p in pts:
        total += model.self_term(p)
    for i, p in enumerate(pts):
        total = model.interaction(p, pts[i + 1 :], total)
        if total == math.inf:
            break
    return total


def all_pairs_conditional(model, interior, environment):
    """``conditional_energy`` by the all-pairs loop, as above."""
    model.validate_config(interior)
    total = all_pairs_energy(model, interior)
    for p in interior.points:
        if total == math.inf:
            break
        total = model.interaction(p, environment.points, total)
    return total


def cored_bump(u):
    """``soft_bump`` with a +inf core below 0.05, so that a nonnegpair term
    can be +inf."""
    return math.inf if 0.0 < u < 0.05 else soft_bump(u)


WITHIN_REACH_MODELS = {
    "ideal": IdealModel(),
    "hardcore": HardSphereModel(),
    "nonnegpair": PairPotentialModel(cored_bump),
    "diffusion": DiffusionModel(),
}

# Far from the other atoms, an atom at X_AT_REACH exactly at reach of one at
# 1.0 and one at X_BEYOND one nextafter step beyond the reach of one at -1.0
# (mark norms 0.75 and 1.5, or path norms 0.25 and 0.5: reach 2.25 for every
# model but the ideal one). The sums below are exact.
X_AT_REACH = 3.25
X_BEYOND = -1.0 - math.nextafter(2.25, math.inf)
# A pair so close that its term is +inf: hard cores overlap, the cored bump is
# +inf and the Lennard-Jones term overflows.
X_CLOSE = (2.0**-60, 2.0**-60 + 2.0**-100)


def within_reach_atom(kind, loc, norm, rng):
    """An atom whose mark norm is exactly ``norm``: a scalar mark, or for the
    diffusion model a 4-step path that reaches ``norm`` at its second step."""
    if kind != "diffusion":
        return MarkedPoint.make(loc, norm)
    samples = rng.uniform(-norm / 2, norm / 2, size=(5, 2))
    samples[0] = 0.0
    samples[2] = (norm, 0.0)
    return MarkedPoint.make(loc, PathMark(samples))


def within_reach_case(kind, d, n_interior, n_env, reach_pairs, inf_at, seed):
    """(interior, environment): uniform atoms in [10, 14)^d and [12, 20)^d,
    with the special atoms above on the first axis."""
    rng = stream(seed, d)
    scale = 3.0 if kind == "diffusion" else 1.0  # path norms are a third

    def atom(x, norm):
        return within_reach_atom(kind, (x,) + (0.0,) * (d - 1), norm / scale, rng)

    def uniform(n, lo, hi):
        locs = rng.uniform(lo, hi, size=(n, d)).tolist()
        norms = rng.uniform(0.0, 0.8, size=n).tolist()
        return [within_reach_atom(kind, tuple(x), r / scale, rng) for x, r in zip(locs, norms)]

    close = [atom(x, 0.75) for x in X_CLOSE]
    interior = uniform(n_interior, 10.0, 14.0)
    if reach_pairs:
        interior += [atom(1.0, 0.75), atom(X_AT_REACH, 1.5), atom(-1.0, 0.75),
                     atom(X_BEYOND, 1.5)]
    interior = {"first": close + interior, "late": interior + close}.get(inf_at, interior)
    environment = uniform(n_env, 12.0, 20.0)
    return Configuration(interior, d), Configuration(environment, d)


class TestWithinReach:
    """Pairwise energies visit only candidate pairs within reach; the sums
    must be the all-pairs loop's by ``float.hex``."""

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(sorted(WITHIN_REACH_MODELS)),
        d=st.sampled_from([1, 2, 3]),
        n_interior=st.sampled_from([0, 1, 2, 7, _ALL_PAIRS_BELOW - 1, _ALL_PAIRS_BELOW, 40]),
        n_env=st.sampled_from([0, 1, 5, 30]),
        reach_pairs=st.booleans(),
        inf_at=st.sampled_from([None, "first", "late"]),
        seed=st.integers(0, 2**16),
    )
    @example(kind="nonnegpair", d=1, n_interior=0, n_env=0, reach_pairs=False, inf_at=None,
             seed=0)
    @example(kind="hardcore", d=2, n_interior=1, n_env=30, reach_pairs=False, inf_at=None,
             seed=1)
    @example(kind="nonnegpair", d=2, n_interior=40, n_env=30, reach_pairs=True, inf_at=None,
             seed=2)
    @example(kind="diffusion", d=3, n_interior=13, n_env=5, reach_pairs=True, inf_at=None,
             seed=3)
    @example(kind="hardcore", d=1, n_interior=40, n_env=5, reach_pairs=True, inf_at="first",
             seed=4)
    @example(kind="diffusion", d=2, n_interior=40, n_env=1, reach_pairs=True, inf_at="late",
             seed=5)
    @example(kind="nonnegpair", d=3, n_interior=12, n_env=0, reach_pairs=False, inf_at="late",
             seed=6)
    def test_sums_match_all_pairs_loop(self, kind, d, n_interior, n_env, reach_pairs, inf_at,
                                       seed):
        model = WITHIN_REACH_MODELS[kind]
        interior, environment = within_reach_case(kind, d, n_interior, n_env, reach_pairs,
                                                  inf_at, seed)
        for c in (interior, environment):
            assert model.energy(c).hex() == all_pairs_energy(model, c).hex()
        want = all_pairs_conditional(model, interior, environment)
        assert model.conditional_energy(interior, environment).hex() == want.hex()
        if inf_at is not None and kind != "ideal":
            assert want == math.inf

    @pytest.mark.parametrize("kind", ["hardcore", "nonnegpair", "diffusion"])
    def test_reach_pairs_are_at_and_beyond_reach(self, kind):
        model = WITHIN_REACH_MODELS[kind]
        interior, _ = within_reach_case(kind, 2, 0, 0, True, None, 0)
        a, at, b, beyond = interior.points
        assert math.dist(a.location, at.location) == model.reach(a.mark_norm, at.mark_norm)
        assert math.dist(b.location, beyond.location) == math.nextafter(
            model.reach(b.mark_norm, beyond.mark_norm), math.inf)
        assert model.pair_term(a, at) != 0.0 or kind == "hardcore"
        assert model.pair_term(b, beyond) == 0.0

    def test_nan_location_is_a_candidate(self):
        model = WITHIN_REACH_MODELS["nonnegpair"]
        interior, environment = within_reach_case("nonnegpair", 2, 13, 5, False, None, 7)
        stray = Configuration([MarkedPoint.make((math.nan, 11.0), 0.5)], 2)
        for g in (interior.union(stray), stray.union(interior)):
            assert math.isnan(all_pairs_energy(model, g))
            assert math.isnan(model.energy(g))
        want = all_pairs_conditional(model, interior, environment.union(stray))
        assert math.isnan(want)
        assert math.isnan(model.conditional_energy(interior, environment.union(stray)))

    @pytest.mark.parametrize(
        "model", list(WITHIN_REACH_MODELS.values()) + [QuermassModel(0.4, -0.2, 0.3)],
        ids=lambda m: m.model_id)
    def test_reach_broadcasts_over_arrays(self, model):
        norms_p = np.array([0.0, 0.25, 1.5, 3.0])
        norms_q = np.array([0.0, 0.5, 2.0])
        got = np.broadcast_to(model.reach(norms_p[:, None], norms_q[None, :]), (4, 3))
        want = [[model.reach(float(p), float(q)) for q in norms_q] for p in norms_p]
        assert got.tolist() == want

    def test_large_energy_allocates_no_square_array(self):
        import tracemalloc

        n = 4000
        rng = stream(517, 0)
        g = Configuration([MarkedPoint.make(tuple(x), r) for x, r in zip(
            rng.uniform(-60.0, 60.0, size=(n, 2)).tolist(),
            rng.uniform(0.0, 0.3, size=n).tolist())], 2)
        model = PairPotentialModel(soft_bump)
        tracemalloc.start()
        try:
            h = model.energy(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < h < math.inf
        assert peak < n * n  # bytes of one n x n array of bools


def stacked(configs, d):
    """The configurations as one block of draws, stored back to back."""
    locs = [c.locations() for c in configs]
    starts = [0]
    for c in configs:
        starts.append(starts[-1] + len(c))
    return Draws(np.concatenate(locs) if configs else np.zeros((0, d)),
                 [p.mark for c in configs for p in c.points],
                 np.concatenate([c.mark_norms() for c in configs]), starts)


def block_case(kind, d, sizes, reach_pairs, inf_at, seed):
    """Draws of the given sizes in [10, 14)^d, uniform marks up to 0.8; one
    draw carries the at-reach and beyond-reach pairs, one a +inf pair."""
    configs = []
    for k, n in enumerate(sizes):
        interior, _ = within_reach_case(kind, d, n, 0, reach_pairs and k == 1,
                                        inf_at if k == 2 else None, seed + k)
        configs.append(interior)
    return configs


def lattice_draw(d, m, norm, jitter=0.0):
    """m^d atoms of norm ``norm`` on the lattice of spacing 2 * norm (the
    hard-core and bump reach), shifted off the origin: neighbours sit exactly
    at reach, and every row of atoms lies on the edge of a cell of the block
    search (its side is the reach, padded by a millionth)."""
    side = 2.0 * norm
    locs = [tuple(5.0 + side * k + jitter * (-1) ** sum(idx) for k in idx)
            for idx in product(range(m), repeat=d)]
    return Configuration([MarkedPoint.make(x, norm) for x in locs], d)


BLOCK_MODELS = {k: WITHIN_REACH_MODELS[k] for k in ("ideal", "hardcore", "nonnegpair")}


class TestBlockEnergies:
    """``energies`` on a block of array draws: one candidate search for the
    block, and every energy the draw's ``energy`` by ``float.hex``."""

    @staticmethod
    def assert_block_is_per_draw(model, configs, d):
        got = model.energies(stacked(configs, d))
        assert [h.hex() for h in got] == [model.energy(c).hex() for c in configs]
        assert [h.hex() for h in got] == [all_pairs_energy(model, c).hex() for c in configs]
        return got

    @settings(max_examples=120)
    @given(
        kind=st.sampled_from(sorted(BLOCK_MODELS)),
        d=st.sampled_from([1, 2, 3]),
        sizes=st.lists(st.sampled_from([0, 1, 2, 7, _ALL_PAIRS_BELOW, 40]), min_size=1,
                       max_size=6),
        reach_pairs=st.booleans(),
        inf_at=st.sampled_from([None, "first", "late"]),
        seed=st.integers(0, 2**16),
    )
    @example(kind="nonnegpair", d=2, sizes=[0, 1, 40, 0, 13], reach_pairs=True, inf_at="first",
             seed=1)
    @example(kind="hardcore", d=1, sizes=[40, 40, 40], reach_pairs=True, inf_at="first",
             seed=2)
    @example(kind="nonnegpair", d=3, sizes=[2, 40, 40, 1], reach_pairs=True, inf_at="late",
             seed=3)
    def test_block_matches_energy(self, kind, d, sizes, reach_pairs, inf_at, seed):
        model = BLOCK_MODELS[kind]
        configs = block_case(kind, d, sizes, reach_pairs, inf_at, seed)
        got = self.assert_block_is_per_draw(model, configs, d)
        if inf_at is not None and kind != "ideal" and len(sizes) > 2:
            assert got[2] == math.inf

    @pytest.mark.parametrize("kind", sorted(BLOCK_MODELS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_block_of_poisson_draws(self, kind, d):
        # 400 dense draws, tens of atoms each: a block larger than the
        # samplers ever read, with many terms per draw, so a sum taken out of
        # row-major order shows in the last bits
        window = Box.centered_cube({1: 8.0, 2: 3.0, 3: 1.5}[d], d)
        rng = stream(531, d)
        configs = [sample_poisson(window, 2.5, UniformLaw(0.6), rng) for _ in range(400)]
        assert sum(map(len, configs)) > 2 * sampler._BLOCK_SIZE
        got = self.assert_block_is_per_draw(BLOCK_MODELS[kind], configs, d)
        if kind == "nonnegpair":
            assert 0 < sum(0.0 < h < math.inf for h in got)

    @pytest.mark.parametrize("kind", ["hardcore", "nonnegpair"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("jitter", [0.0, 1e-12])
    def test_atoms_on_cell_edges(self, kind, d, jitter):
        # every neighbour pair sits exactly at reach (nonnegpair: a nonzero
        # term) or just inside or beyond it, across the edges of the cells
        m = {1: 30, 2: 6, 3: 3}[d]
        configs = [lattice_draw(d, m, 0.375, jitter), lattice_draw(d, m, 0.5, jitter)]
        got = self.assert_block_is_per_draw(BLOCK_MODELS[kind], configs, d)
        if kind == "nonnegpair" and jitter == 0.0:
            assert all(h > 0.0 for h in got)

    def test_empty_and_one_atom_draws(self):
        one = Configuration([MarkedPoint.make((0.5, 0.5), 0.3)], 2)
        for configs in ([Configuration.empty(2)], [one], [one, Configuration.empty(2), one]):
            for model in BLOCK_MODELS.values():
                assert self.assert_block_is_per_draw(model, configs, 2) == [0.0] * len(configs)

    def test_diffusion_prices_per_draw(self):
        model = WITHIN_REACH_MODELS["diffusion"]
        configs = block_case("diffusion", 2, [7, 13], True, None, 10)
        assert model.energies(stacked(configs, 2)) == [model.energy(c) for c in configs]
        with pytest.raises(PreconditionError, match="path marks"):
            model.energies(stacked([random_scalar_config(stream(532, 0))], 2))


class TestTranslationInvariance:
    def test_all_models(self):
        rng = stream(503, 0)
        spec = LangevinSpec.named("quartic", step_count=16)
        for _ in range(10):
            g = random_scalar_config(rng, n_max=6, extent=2.0, mark_hi=1.0)
            v = rng.uniform(-20, 20, size=2)
            shifted = Configuration(
                [
                    MarkedPoint((p.location[0] + v[0], p.location[1] + v[1]), p.mark, p.mark_norm)
                    for p in g.points
                ],
                dimension=2,
            )
            for model in ALL_MODELS:
                a, b = model.energy(g), model.energy(shifted)
                if math.isinf(a) or math.isinf(b):
                    assert a == b
                else:
                    assert b == pytest.approx(a, rel=1e-9, abs=1e-9)
        # diffusion needs path marks
        pts = []
        for _ in range(4):
            loc = tuple(rng.uniform(-2, 2, size=2))
            pts.append(MarkedPoint.make(loc, spec.sample(rng)))
        g = Configuration(pts)
        v = rng.uniform(-20, 20, size=2)
        shifted = Configuration(
            [
                MarkedPoint((p.location[0] + v[0], p.location[1] + v[1]), p.mark, p.mark_norm)
                for p in g.points
            ]
        )
        model = DiffusionModel()
        assert model.energy(shifted) == pytest.approx(model.energy(g), rel=1e-9)


class TestInteractionRange:
    def test_examples(self):
        w = Box.centered_cube(1.0, 2)
        empty = Configuration.empty(2)
        assert interaction_range(empty, w, 1, 1.0) == pytest.approx(9.0)
        g0 = config([mp((0.0, 0.0), 0.0)])
        assert interaction_range(g0, w, 1, 1.0) == pytest.approx(9.0)
        g5 = config([mp((0.0, 0.0), 0.5)])
        assert interaction_range(g5, w, 1, 1.0) == pytest.approx(10.0)

    def test_only_window_marks_count(self):
        w = Box.centered_cube(1.0, 2)
        g = config([mp((0.5, 0.5), 0.25), mp((5.0, 5.0), 3.0)])
        assert interaction_range(g, w, 1, 1.0) == pytest.approx(9.5)


class TestConditionalEnergy:
    def test_free_boundary_is_plain_energy(self):
        w = Box.centered_cube(1.0, 2)
        g = config([mp((0.2, 0.1), 0.5), mp((-0.5, 0.4), 0.6)])
        empty = Configuration.empty(2)
        for model in ALL_MODELS:
            assert conditional_energy(model, g, empty, w, 1, 1.0) == model.energy(g)

    def test_interior_must_sit_in_window(self):
        w = Box.centered_cube(1.0, 2)
        g = config([mp((2.0, 0.0), 0.1)])
        with pytest.raises(PreconditionError):
            conditional_energy(IdealModel(), g, Configuration.empty(2), w, 1, 1.0)

    def test_untempered_environment_rejected(self):
        w = Box.centered_cube(1.0, 2)
        xi = config([mp((1.5, 0.0), 3.0)])  # statistic 28 > 1*l^2 for small l
        assert not minimal_t(xi, 1.0) == 1
        with pytest.raises(PreconditionError):
            conditional_energy(
                HardSphereModel(), Configuration.empty(2), xi, w, 1, 1.0
            )

    def test_diffusion_cross_term(self):
        model = DiffusionModel()
        w = Box.centered_cube(1.0, 2)
        p = path_point((0.0, 0.0), (0.6, 0.8), 8)
        q = path_point((1.8, 0.0), (0.0, 0.5), 8)
        interior = Configuration([p])
        xi = Configuration([q])
        t = minimal_t(xi, 1.0)
        got = conditional_energy(model, interior, xi, w, t, 1.0)
        assert got == pytest.approx(model.self_term(p) + model.pair_term(p, q), rel=1e-12)

    def test_far_environment_is_bit_identical_to_free(self):
        rng = stream(504, 0)
        w = Box.centered_cube(1.0, 2)
        for model in ALL_MODELS:
            for _ in range(10):
                g = restrict(random_scalar_config(rng, n_max=5, extent=0.95, mark_hi=0.8), w)
                r = interaction_range(g, w, 2, 1.0)
                far = []
                for _ in range(4):
                    ang = rng.uniform(0, 2 * math.pi)
                    dist = 1.0 + r + float(rng.uniform(1.0, 4.0))
                    far.append(
                        mp(
                            (dist * math.cos(ang), dist * math.sin(ang)),
                            float(rng.uniform(0.0, 0.4)),
                        )
                    )
                xi = Configuration(far)
                t = max(2, minimal_t(xi, 1.0))
                base = model.energy(g)
                cond = conditional_energy(model, g, xi, w, t, 1.0)
                assert cond == base

    def test_range_locality_under_environment_edits(self):
        # Changing the environment beyond the interaction range never moves
        # the conditional energy, even when near atoms are present.
        rng = stream(505, 0)
        w = Box.centered_cube(1.0, 2)
        model = PairPotentialModel(soft_bump)
        for _ in range(15):
            g = restrict(random_scalar_config(rng, n_max=5, extent=0.95, mark_hi=0.7), w)
            near = [
                mp(
                    (float(rng.uniform(1.0, 1.8)), float(rng.uniform(-1.0, 1.0))),
                    float(rng.uniform(0.0, 0.6)),
                )
            ]
            r = interaction_range(g, w, 3, 1.0)
            far_a = mp((r + 5.0, 0.0), 0.3)
            far_b = mp((0.0, -(r + 7.0)), 0.2)
            xi1 = Configuration(near)
            xi2 = Configuration(near + [far_a, far_b])
            t = max(3, minimal_t(xi2, 1.0))
            v1 = conditional_energy(model, g, xi1, w, t, 1.0)
            v2 = conditional_energy(model, g, xi2, w, t, 1.0)
            assert v1 == v2

    def test_quermass_conditional_matches_window_limit(self):
        # The pruned evaluation must agree with the stabilized increment
        # H(gamma union xi_k) - H(xi_k) over growing environment windows.
        rng = stream(506, 0)
        model = QuermassModel(0.5, 0.2, 0.8)
        w = Box.centered_cube(1.0, 2)
        for _ in range(10):
            g = restrict(random_scalar_config(rng, n_max=4, extent=0.9, mark_hi=0.8), w)
            env_pts = []
            for _ in range(6):
                ang = rng.uniform(0, 2 * math.pi)
                dist = float(rng.uniform(1.2, 4.0))
                env_pts.append(
                    mp((dist * math.cos(ang), dist * math.sin(ang)), float(rng.uniform(0.1, 0.9)))
                )
            xi = Configuration(env_pts)
            t = minimal_t(xi, 1.0)
            cond = conditional_energy(model, g, xi, w, t, 1.0)
            xi_out = restrict_complement(xi, w)
            increments = []
            for k in (8.0, 12.0):
                big = Box.centered_cube(1.0 + k, 2)
                xi_k = restrict(xi_out, big)
                joint = model.energy(g.union(xi_k))
                alone = model.energy(xi_k)
                increments.append(joint - alone)
            assert increments[0] == pytest.approx(increments[1], abs=1e-9)
            assert cond == pytest.approx(increments[0], abs=1e-9)


class TestAdditivity:
    def setup_method(self):
        self.lam = Box.centered_cube(1.0, 2)
        self.delta = Box.centered_cube(2.0, 2)

    def _fillings(self, rng, mark_hi=0.5):
        a = restrict(random_scalar_config(rng, n_max=4, extent=0.9, mark_hi=mark_hi), self.lam)
        b = restrict(random_scalar_config(rng, n_max=4, extent=0.9, mark_hi=mark_hi), self.lam)
        mids = []
        for _ in range(3):
            x = float(rng.uniform(1.05, 1.95)) * (1 if rng.random() < 0.5 else -1)
            y = float(rng.uniform(-1.95, 1.95))
            mids.append(mp((x, y), float(rng.uniform(0.0, mark_hi))))
        return a, b, Configuration(mids)

    def test_free_boundary_zero_residual(self):
        rng = stream(507, 0)
        empty = Configuration.empty(2)
        for model in ALL_MODELS:
            for _ in range(6):
                a, b, mid = self._fillings(rng)
                report = additivity_check(model, self.lam, self.delta, a, b, mid, empty, 2, 1.0)
                if report.comparable:
                    assert abs(report.residual) <= 1e-9

    def test_conditioned_zero_residual(self):
        rng = stream(508, 0)
        model = PairPotentialModel(soft_bump)
        for _ in range(20):
            a, b, mid = self._fillings(rng)
            xi = Configuration(
                [
                    mp(
                        (float(rng.uniform(2.05, 5.0)), float(rng.uniform(-3.0, 3.0))),
                        float(rng.uniform(0.0, 0.5)),
                    )
                    for _ in range(3)
                ]
            )
            t = minimal_t(xi, 1.0)
            report = additivity_check(model, self.lam, self.delta, a, b, mid, xi, t, 1.0)
            assert report.comparable
            assert abs(report.residual) <= 1e-9

    def test_diffusion_residual(self):
        # Floating-point cancellation in the two window increments scales with
        # the largest pair term, so keep atoms separated the way the repulsive
        # core would in equilibrium; the identity being checked is algebraic.
        rng = stream(509, 0)
        spec = LangevinSpec.named("quartic", step_count=16)
        model = DiffusionModel()

        def place(taken, lo_x, hi_x, lo_y, hi_y, sep=0.7):
            for _ in range(200):
                loc = (float(rng.uniform(lo_x, hi_x)), float(rng.uniform(lo_y, hi_y)))
                if all(math.dist(loc, q) >= sep for q in taken):
                    taken.append(loc)
                    return MarkedPoint.make(loc, spec.sample(rng))
            raise RuntimeError("could not place a separated atom")

        for _ in range(20):
            taken_a, taken_b = [], []
            a = Configuration([place(taken_a, -0.95, 0.95, -0.95, 0.95) for _ in range(3)])
            b = Configuration([place(taken_b, -0.95, 0.95, -0.95, 0.95) for _ in range(2)])
            shared = taken_a + taken_b
            mid_pts = []
            for side in (1.0, -1.0):
                x_lo, x_hi = (1.05, 1.95) if side > 0 else (-1.95, -1.05)
                mid_pts.append(place(shared, x_lo, x_hi, -1.95, 1.95))
            mid = Configuration(mid_pts)
            xi_pts = [place(shared, 2.05, 6.0, -4.0, 4.0) for _ in range(3)]
            xi = Configuration(xi_pts)
            t = minimal_t(xi, 1.0)
            report = additivity_check(model, self.lam, self.delta, a, b, mid, xi, t, 1.0)
            assert report.comparable
            assert abs(report.residual) <= 1e-9

    def test_middle_must_avoid_inner_window(self):
        bad_mid = config([mp((0.0, 0.0), 0.1)])
        with pytest.raises(PreconditionError):
            additivity_check(
                IdealModel(),
                self.lam,
                self.delta,
                Configuration.empty(2),
                Configuration.empty(2),
                bad_mid,
                Configuration.empty(2),
                1,
                1.0,
            )

    def test_infinite_case_reported_incomparable(self):
        a = config([mp((0.0, 0.0), 1.0), mp((0.5, 0.0), 1.0)])
        report = additivity_check(
            HardSphereModel(),
            self.lam,
            self.delta,
            a,
            Configuration.empty(2),
            Configuration.empty(2),
            Configuration.empty(2),
            1,
            1.0,
        )
        assert not report.comparable
