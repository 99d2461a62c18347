"""Samplers: Poisson reference, exact rejection, and the birth-death-move chain."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from gibbsgrain import (
    Ball,
    Box,
    Configuration,
    DiffusionModel,
    HardSphereModel,
    IdealModel,
    LangevinSpec,
    MarkedPoint,
    MarkLaw,
    NumericalFailure,
    PairPotentialModel,
    PointMassLaw,
    PreconditionError,
    ProposalMix,
    QuermassModel,
    TableLaw,
    TruncatedSubbotinLaw,
    UniformLaw,
    rejection_sample,
    restrict_complement,
    run_chain,
    sample_cutoff_kernel,
    sample_poisson,
    stream,
    tame_statistic,
)
from gibbsgrain import energy as energy_module
from gibbsgrain import sampler
from gibbsgrain.geometry import _DEGENERACY_TOL, Disc, _find_degenerate, link_increment
from gibbsgrain.estimators import partition_estimate
from gibbsgrain.io import write_configs_jsonl
from gibbsgrain.points import Draws
from gibbsgrain.sampler import (
    ChainState,
    bdm_step,
    hastings_ratio,
)
from conftest import config, mp


def soft_bump(u):
    return 1.2 * u * math.exp(-u)


class TestPoisson:
    def test_zero_intensity_always_empty(self):
        rng = stream(601, 0)
        w = Box.unit(2)
        for _ in range(30):
            assert len(sample_poisson(w, 0.0, UniformLaw(1.0), rng)) == 0

    def test_void_probability(self):
        rng = stream(602, 0)
        w = Box.unit(2)
        n = 100_000
        empties = sum(
            1 for _ in range(n) if len(sample_poisson(w, 2.0, PointMassLaw(0.1), rng)) == 0
        )
        p = math.exp(-2.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(empties / n - p) <= 3.0 * se

    def test_campbell_mean_of_tame_statistic(self):
        # E <gamma, 1 + |m|^(d+delta)> = z |W| (1 + E rho^(d+delta))
        rng = stream(603, 0)
        w = Box.centered_cube(1.0, 2)
        z, delta, b = 1.5, 1.0, 1.0
        n = 20_000
        vals = np.array(
            [tame_statistic(sample_poisson(w, z, UniformLaw(b), rng), delta) for _ in range(n)]
        )
        target = z * w.volume() * (1.0 + b**3 / 4.0)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 3.0 * se

    def test_locations_inside_window(self):
        rng = stream(604, 0)
        w = Box([(2.0, 3.0), (-1.0, 4.0)])
        for _ in range(50):
            g = sample_poisson(w, 3.0, UniformLaw(0.5), rng)
            if len(g):
                assert all(p.location in w for p in g)


def loop_poisson(window, z, mark_law, rng):
    """The per-point loop that sample_poisson's block draw reproduces: a
    location, then a mark, point after point."""
    if z == 0:
        return Configuration.empty(window.dimension)
    n = int(rng.poisson(z * window.volume()))
    pts = []
    for _ in range(n):
        if isinstance(window, Box):
            lo, hi = window.bounds[:, 0], window.bounds[:, 1]
            u = rng.random(window.dimension)
            loc = tuple(float(v) for v in lo + u * (hi - lo))
        else:
            bb = window.bounding_box()
            lo, hi = bb.bounds[:, 0], bb.bounds[:, 1]
            while True:
                x = lo + rng.random(window.dimension) * (hi - lo)
                loc = tuple(float(v) for v in x)
                if loc in window:
                    break
        pts.append(MarkedPoint.make(loc, mark_law.sample(rng)))
    return Configuration(pts, dimension=window.dimension)


def atoms_hex(configs):
    """Every (location, mark) of a batch, exactly: scalars as float.hex,
    path marks as their sample bytes."""
    out = []
    for c in configs:
        for p in c.points:
            m = p.mark
            mark = m.samples.tobytes().hex() if hasattr(m, "samples") else float(m).hex()
            out.append((tuple(map(float.hex, p.location)), mark))
        out.append(None)  # configuration boundary
    return out


class TwoDoubleLaw(MarkLaw):
    """Reads two doubles per mark and weighs them unequally, so a replay that
    repeats or reorders a row's columns shows in the marks."""

    uniforms = 2

    def sample(self, rng):
        u = rng.random()
        return u + 2.0 * rng.random()


SCALAR_LAWS = {
    "point": PointMassLaw(0.3),
    "uniform-int-b": UniformLaw(3),
    "subbotin": TruncatedSubbotinLaw(1.5, cutoff=2.5),
    "table-rare-4": TableLaw([0.1, 0.5, 4.0], [0.6, 0.39, 0.01]),
    "two-doubles": TwoDoubleLaw(),
}

# z = 0, small, moderate and large against volumes 0.1 to 64
ACTIVITIES = [0.0, 1e-3, 0.7, 25.0]


def assert_same_draws(window, z, law, seed, n_draws=4):
    rng_a, rng_b = stream(seed, 0), stream(seed, 0)
    block = [sample_poisson(window, z, law, rng_a) for _ in range(n_draws)]
    loop = [loop_poisson(window, z, law, rng_b) for _ in range(n_draws)]
    assert atoms_hex(block) == atoms_hex(loop)
    # the stream is left where the loop leaves it
    assert rng_a.random() == rng_b.random()


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 3))
    lo = draw(st.lists(st.floats(-50.0, 50.0), min_size=d, max_size=d))
    width = draw(st.lists(st.floats(0.1, 4.0 if d < 3 else 2.0), min_size=d, max_size=d))
    return Box([(a, a + w) for a, w in zip(lo, width)])


class TestBlockPoissonDraw:
    """sample_poisson's block draw against the per-point loop, to the bit."""

    @given(
        law=st.sampled_from(sorted(SCALAR_LAWS)),
        window=boxes(),
        z=st.sampled_from(ACTIVITIES),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=120)
    def test_block_matches_the_loop_on_boxes(self, law, window, z, seed):
        assert SCALAR_LAWS[law].uniforms is not None
        assert_same_draws(window, z, SCALAR_LAWS[law], seed)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("law", sorted(SCALAR_LAWS))
    def test_large_activity_on_centred_cubes(self, law, d):
        window = Box.centered_cube(1.5 if d == 3 else 2.0, d)
        assert_same_draws(window, 25.0, SCALAR_LAWS[law], 612 + d)

    @given(
        law=st.sampled_from(sorted(SCALAR_LAWS)),
        d=st.integers(1, 3),
        radius=st.floats(0.2, 2.0),
        z=st.sampled_from(ACTIVITIES),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40)
    def test_balls_keep_the_loop(self, law, d, radius, z, seed):
        window = Ball([0.5 * (i + 1) for i in range(d)], radius)
        assert_same_draws(window, z, SCALAR_LAWS[law], seed)

    @pytest.mark.parametrize("z", ACTIVITIES[:3])
    def test_path_marks_keep_the_loop(self, z):
        assert LangevinSpec.uniforms is None
        spec = LangevinSpec.named("quartic", 8)
        assert_same_draws(Box([(-1.0, 1.5), (2.0, 3.0)]), z, spec, 613)

    # sha256 of atoms_hex over 200 draws and the stream's next double,
    # recorded with the per-point loop (Subbotin: with the exact inverse
    # incomplete gamma law, which replaced an interpolated table)
    PINNED = {
        "point": ("cf993ed5eda3be0db15ec033eda10dd8b2ae39b701d034a0cf847c872b2d5bfe",
                  "0x1.864709c62d66ap-2"),
        "uniform": ("53f41088c6f4c0b7d89c18586503bb37504372927e0197335509b32e0a4ce757",
                    "0x1.e48bb5a95adb0p-2"),
        "subbotin": ("8da418b33ed7a17cbda8c9461021cdc38b117d0c2264e2ea7be0c9c5a1c2ab2a",
                     "0x1.9c7f951d80c08p-3"),
        "table": ("9ebb20a384afc80e3d06b26e303870c04dee3d4c42707ff638d85478d299485b",
                  "0x1.a87d36a448908p-3"),
        "ball-uniform": ("a33a43ce2c021a2632ef7f8801d3940bb764d7b07ab55ac7f0fcf6b79d601de2",
                         "0x1.ae13cb3def3e0p-6"),
        "langevin": ("74d9ba34af00155cd26aac18a76b4276926279349baf5e6cd27926c135fa1060",
                     "0x1.f5fe3d95382b4p-1"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_batches_are_pinned(self, case):
        box = Box([(-1.0, 2.0), (0.5, 2.5)])
        window, law = {
            "point": (box, PointMassLaw(0.3)),
            "uniform": (box, UniformLaw(0.6)),
            "subbotin": (box, TruncatedSubbotinLaw(2.0)),
            "table": (box, TableLaw([0.1, 0.5, 4.0], [0.6, 0.39, 0.01])),
            "ball-uniform": (Ball([0.5, -0.5], 1.5), UniformLaw(0.6)),
            "langevin": (box, LangevinSpec.named("quartic", 8)),
        }[case]
        rng = stream(650, list(self.PINNED).index(case))
        batch = [sample_poisson(window, 1.5, law, rng) for _ in range(200)]
        digest = hashlib.sha256(repr(atoms_hex(batch)).encode()).hexdigest()
        assert (digest, rng.random().hex()) == self.PINNED[case]


class Replay:
    """A generator stand-in whose ``random()`` returns the given doubles."""

    def __init__(self, doubles):
        self.random = iter(doubles).__next__


def assert_formula_is_sample(law, u):
    """``law.marks_from_uniforms`` on the rows of ``u`` against ``law.sample``
    on each row's doubles: same mark types, and marks and norms by float.hex."""
    u = np.asarray(u, dtype=float)
    u = u.reshape(len(u), law.uniforms) if law.uniforms else np.zeros((len(u), 0))
    marks, norms = law.marks_from_uniforms(u)
    want = [law.sample(Replay(row)) for row in u.tolist()]
    assert [type(m) for m in marks] == [type(m) for m in want]
    assert [float(m).hex() for m in marks] == [float(m).hex() for m in want]
    want_norms = [MarkedPoint.make((0.0,), m).mark_norm for m in want]
    assert norms.dtype == np.float64
    assert [v.hex() for v in norms.tolist()] == [v.hex() for v in want_norms]
    return marks


# largest doubles below 1, which rng.random() can return
NEAR_ONE = [1.0 - k * 2.0**-53 for k in range(1, 9)]


class TestBlockFormulas:
    """``UniformLaw``'s array formula and the default row replay against
    ``sample``, and the configurations ``sample_poisson`` builds from them."""

    @given(
        b=st.integers(1, 5) | st.floats(1e-3, 50.0),
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(NEAR_ONE),
                   max_size=40),
    )
    @settings(max_examples=300)
    def test_uniform_formula_is_sample(self, b, u):
        assert_formula_is_sample(UniformLaw(b), u)

    class NegatedLaw(MarkLaw):
        """Marks -u, so u = 0 draws -0.0."""

        uniforms = 1

        def sample(self, rng):
            return -rng.random()

    def test_replay_norms_are_those_of_make(self):
        # each norm is MarkedPoint.make's, |mark|, also for -0.0
        marks = assert_formula_is_sample(self.NegatedLaw(), [0.0, 0.3] + NEAR_ONE)
        assert math.copysign(1.0, marks[0]) == -1.0

    @pytest.mark.parametrize("exponent, cutoff", [(1.7, 1.0), (3.0, 0.5)])
    def test_subbotin_clamp_near_one(self, exponent, cutoff):
        # the inverse overshoots the cutoff here, and sample clamps it
        law = TruncatedSubbotinLaw(exponent, cutoff)
        shape = 1.0 / exponent
        raw = [float(law._gammaincinv(shape, v * law._mass)) ** shape for v in NEAR_ONE]
        assert max(raw) > cutoff
        assert [law.sample(Replay([v])) for v in NEAR_ONE] == [min(x, cutoff) for x in raw]

    def test_table_past_a_short_cumulative_sum(self):
        # ten tenths add up to the largest double below 1, which a u can
        # equal; it draws the last value of positive probability, not an
        # index past the table or the value of probability 0
        law = TableLaw([0.5 * k for k in range(11)], [0.1] * 10 + [0.0])
        assert law._cum[-1] == NEAR_ONE[0]
        marks = [law.sample(Replay([v])) for v in [0.05, 0.95] + NEAR_ONE]
        assert marks == [0.0, 4.5] + [4.5] * len(NEAR_ONE)

    def test_point_mass_int_stays_int(self, tmp_path):
        law = PointMassLaw(1)
        window = Box([(-1.0, 2.0), (0.5, 2.5)])
        block = [sample_poisson(window, 1.5, law, stream(651, 0)) for _ in range(3)]
        loop = [loop_poisson(window, 1.5, law, stream(651, 0)) for _ in range(3)]
        assert all(type(p.mark) is int and p.mark == 1 for c in block for p in c)
        write_configs_jsonl(tmp_path / "block.jsonl", block)
        write_configs_jsonl(tmp_path / "loop.jsonl", loop)
        assert (tmp_path / "block.jsonl").read_bytes() == (tmp_path / "loop.jsonl").read_bytes()

    def test_numpy_scalar_endpoint_replays_sample(self):
        law = UniformLaw(np.float32(0.7))
        assert_formula_is_sample(law, [0.1, 0.3, 0.9] + NEAR_ONE)

    def test_custom_law_replays_its_rows(self):
        u = np.array([[0.25, 0.5], [0.125, 0.0]])
        marks, norms = TwoDoubleLaw().marks_from_uniforms(u)
        assert marks == [1.25, 0.125]
        assert norms.tolist() == [1.25, 0.125]

    @pytest.mark.parametrize("law", sorted(SCALAR_LAWS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_drawn_arrays_are_the_points(self, law, d):
        rng = stream(652, d)
        for _ in range(5):
            c = sample_poisson(Box.centered_cube(1.5, d), 3.0, SCALAR_LAWS[law], rng)
            locs, norms = c.locations(), c.mark_norms()
            rebuilt = Configuration(c.points, dimension=d)
            assert locs.shape == rebuilt.locations().shape == (len(c), d)
            assert locs.tobytes() == rebuilt.locations().tobytes()
            assert norms.tobytes() == rebuilt.mark_norms().tobytes()
            assert all(type(x) is float for p in c for x in p.location)
            assert all(type(p.mark_norm) is float for p in c)
            for arr in (locs, norms):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    def test_empty_draw_arrays(self):
        c = sample_poisson(Box.unit(3), 1e-9, UniformLaw(0.5), stream(653, 0))
        assert len(c) == 0
        assert c.locations().shape == (0, 3)
        assert c.mark_norms().shape == (0,)

    class HalfInfiniteLaw(MarkLaw):
        """Infinite marks for doubles above one half."""

        uniforms = 1

        def sample(self, rng):
            u = rng.random()
            return math.inf if u > 0.5 else u

    @pytest.mark.parametrize(
        "law",
        [PointMassLaw(math.inf), PointMassLaw(math.nan), UniformLaw(math.inf),
         TableLaw([0.5, math.inf], [0.5, 0.5]), HalfInfiniteLaw()],
        ids=["point-inf", "point-nan", "uniform-inf", "table-inf", "custom-inf"],
    )
    def test_non_finite_mark_raises(self, law):
        window = Box.centered_cube(2.0, 2)
        with pytest.raises(ValueError, match="non-finite norm") as block_err:
            for _ in range(20):
                sample_poisson(window, 2.0, law, stream(654, 0))
        with pytest.raises(ValueError, match="non-finite norm") as loop_err:
            for _ in range(20):
                loop_poisson(window, 2.0, law, stream(654, 0))
        assert str(block_err.value) == str(loop_err.value)

    def test_from_arrays_checks_norms(self):
        locations = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="mark 'x' has non-finite norm nan"):
            Configuration.from_arrays(locations, [0.5, "x"], np.array([0.5, math.nan]))

    @pytest.mark.parametrize("rows", [3, 100])
    def test_a_block_refuses_per_draw(self, rows):
        # short and long blocks (the check switches to numpy above 64 rows):
        # a location may repeat across draws, not within one
        x = np.arange(rows, dtype=float)
        locations = np.stack([np.concatenate([x, x]), np.zeros(2 * rows)], axis=1)
        norms = np.full(2 * rows, 0.5)
        marks = norms.tolist()
        assert len(Draws(locations, marks, norms, [0, rows, 2 * rows])) == 2
        with pytest.raises(ValueError, match=r"duplicate location \(0.0, 0.0\)"):
            Draws(locations, marks, norms, [0, rows + 1, 2 * rows])
        norms[-1] = math.inf
        with pytest.raises(ValueError, match="mark 0.5 has non-finite norm inf"):
            Draws(locations, marks, norms, [0, rows, 2 * rows])


class TestRejection:
    def test_requires_certified_nonnegative_model(self):
        with pytest.raises(PreconditionError):
            rejection_sample(
                QuermassModel(1.0, 0.0, 0.0), Box.unit(2), 0.5, UniformLaw(0.5), 10, stream(605, 0)
            )

    def test_ideal_matches_poisson_counts(self):
        rng = stream(606, 0)
        w = Box.unit(2)
        z, n = 2.0, 5_000
        rej = rejection_sample(IdealModel(), w, z, UniformLaw(0.5), n, rng)
        assert rej.n_proposed == rej.n_accepted == n
        counts = np.array([len(g) for g in rej.samples])
        direct = np.array([len(sample_poisson(w, z, UniformLaw(0.5), rng)) for _ in range(n)])
        hi = int(max(counts.max(), direct.max()))
        table = np.array(
            [
                [np.sum(counts == k) for k in range(hi + 1)],
                [np.sum(direct == k) for k in range(hi + 1)],
            ]
        )
        keep = table.sum(axis=0) >= 10
        _, p, _, _ = stats.chi2_contingency(table[:, keep])
        assert p > 0.01

    def test_hard_spheres_never_overlap(self):
        rng = stream(607, 0)
        model = HardSphereModel()
        res = rejection_sample(model, Box.centered_cube(1.0, 2), 0.8, PointMassLaw(0.4), 400, rng)
        assert all(model.energy(g) == 0.0 for g in res.samples)

    def test_hard_rod_two_particle_probability(self):
        # d = 1 rods of radius 1/2 on [0, 2): P(N = 2) from the excluded
        # volume integral, computed here by independent quadrature.
        z, length = 0.2, 2.0
        w = Box([(0.0, length)])
        area, _ = integrate.dblquad(
            lambda y, x: 1.0 if abs(x - y) >= 1.0 else 0.0, 0.0, length, 0.0, length
        )
        weights = [1.0, z * length, 0.5 * z**2 * area]
        p2 = weights[2] / sum(weights)
        rng = stream(608, 0)
        res = rejection_sample(HardSphereModel(), w, z, PointMassLaw(0.5), 20_000, rng)
        counts = np.array([len(g) for g in res.samples])
        frac = float(np.mean(counts == 2))
        se = math.sqrt(p2 * (1 - p2) / len(counts))
        assert abs(frac - p2) <= 3.0 * se
        assert counts.max() <= 2  # three rods of length 1 cannot pack in [0, 2)

    @pytest.mark.parametrize("with_env", [False, True])
    def test_energies_are_those_of_the_samples(self, with_env):
        model = PairPotentialModel(soft_bump)
        w = Box.centered_cube(1.0, 2)
        env = env_out = None
        if with_env:
            env = config([mp((1.3, 0.2), 0.5), mp((-0.4, -1.2), 0.3), mp((0.1, 0.1), 0.2)])
            env_out = restrict_complement(env, w)
        res = rejection_sample(model, w, 0.8, UniformLaw(0.6), 60, stream(615, 0), env=env)
        assert len(res.energies) == len(res.samples) == 60
        for g, h in zip(res.samples, res.energies):
            want = model.conditional_energy(g, env_out) if with_env else model.energy(g)
            assert h == want
        if with_env:
            assert any(h != model.energy(g) for g, h in zip(res.samples, res.energies))

    @pytest.mark.parametrize("with_env", [False, True])
    def test_each_kept_or_conditioned_draw_is_built_once(self, monkeypatch, with_env):
        # unconditional blocks build only the accepted draws; against an
        # environment every proposal is built once, priced and kept as it is
        built = []
        draw_config = Draws.config
        monkeypatch.setattr(Draws, "config", lambda d, k: built.append(k) or draw_config(d, k))
        env = config([mp((1.3, 0.2), 0.5), mp((-0.4, -1.2), 0.3)]) if with_env else None
        res = rejection_sample(PairPotentialModel(soft_bump), Box.centered_cube(1.0, 2), 0.8,
                               UniformLaw(0.6), 100, stream(616, 0), env=env)
        assert res.n_proposed > res.n_accepted == 100
        assert len(built) == (res.n_proposed if with_env else res.n_accepted)

    def test_min_rate_abort(self):
        # Nearly every proposal overlaps, so the acceptance monitor trips.
        rng = stream(609, 0)
        with pytest.raises(NumericalFailure):
            rejection_sample(
                HardSphereModel(),
                Box.unit(2),
                30.0,
                PointMassLaw(5.0),
                50,
                rng,
                max_proposals=100_000,
                min_rate=1e-3,
            )

    def test_proposal_budget_abort(self):
        # the ideal model accepts every proposal, so 3 proposals give 3 of 5
        with pytest.raises(NumericalFailure, match=r"exceeded 3 proposals \(3 accepted\)"):
            rejection_sample(IdealModel(), Box.unit(2), 1.0, UniformLaw(0.5), 5,
                             stream(640, 0), max_proposals=3)

    def test_negative_energy_breaks_the_certificate(self, monkeypatch):
        model = HardSphereModel()
        monkeypatch.setattr(model, "energies", lambda draws: [-1.0] * len(draws))
        with pytest.raises(NumericalFailure, match="negative energy -1.0"):
            rejection_sample(model, Box.unit(2), 1.0, UniformLaw(0.5), 5, stream(641, 0))


def stream_state(rng):
    """The generator's state as text (Philox keeps numpy arrays in it)."""
    return repr(rng.bit_generator.state)


def one_at_a_time_rejection(model, window, z, law, n_samples, rng, env=None,
                            max_proposals=5_000_000, min_rate=1e-4):
    """The rejection loop of one proposal at a time: its count and block of
    doubles (``sample_poisson``), its energy, then its acceptance uniform."""
    env_out = restrict_complement(env, window) if env is not None else None
    samples, energies = [], []
    proposed = accepted = 0
    while accepted < n_samples:
        if proposed >= max_proposals:
            raise NumericalFailure(f"rejection sampler exceeded {max_proposals} proposals "
                                   f"({accepted} accepted)")
        gamma = sample_poisson(window, z, law, rng)
        proposed += 1
        h = model.energy(gamma) if env is None else model.conditional_energy(gamma, env_out)
        if rng.random() < math.exp(-h):
            samples.append(gamma)
            energies.append(h)
            accepted += 1
        if proposed % 2000 == 0 and accepted / proposed < min_rate:
            raise NumericalFailure(f"rejection acceptance rate {accepted}/{proposed} below "
                                   f"{min_rate}")
    return samples, energies, proposed


def one_at_a_time_log_weights(model, window, z, law, n_samples, rng):
    """-H of ``n_samples`` Poisson draws, drawn and priced one at a time."""
    return np.array([-model.energy(sample_poisson(window, z, law, rng))
                     for _ in range(n_samples)])


BLOCK_CASES = {
    "rods": (HardSphereModel(), Box.centered_cube(2.0, 1), 1.0, PointMassLaw(0.25)),
    "bump-n4": (PairPotentialModel(soft_bump), Box.centered_cube(4.0, 2), 0.5, UniformLaw(0.6)),
    "hardcore-3d": (HardSphereModel(), Box.centered_cube(1.0, 3), 1.5, UniformLaw(0.4)),
    "ideal-two-doubles": (IdealModel(), Box([(0.0, 2.0), (1.0, 2.0)]), 2.0, TwoDoubleLaw()),
    "bump-ball": (PairPotentialModel(soft_bump), Ball([0.0, 0.0], 1.7), 1.2, UniformLaw(0.6)),
    "bump-table": (PairPotentialModel(soft_bump), Box.centered_cube(2.0, 2), 0.8,
                   TableLaw([0.1, 0.5, 1.0], [0.6, 0.3, 0.1])),
    "zero-activity": (HardSphereModel(), Box.unit(2), 0.0, UniformLaw(0.5)),
}


class TestBlockDraws:
    """Poisson draws read and priced in blocks leave the stream where the
    one-at-a-time loops leave it, and give their results."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("accept", [False, True])
    def test_block_reads_as_sample_poisson_does(self, case, accept):
        _, window, z, law = BLOCK_CASES[case]
        rng, ref = stream(661, 0), stream(661, 0)
        draws, uniforms = sampler._poisson_draws(window, z, law, rng, 37, accept=accept)
        want, want_u = [], []
        for _ in range(37):
            want.append(sample_poisson(window, z, law, ref))
            if accept:
                want_u.append(ref.random())
        assert len(draws) == 37 and uniforms == want_u
        assert atoms_hex([draws.config(k) for k in range(37)]) == atoms_hex(want)
        assert stream_state(rng) == stream_state(ref)

    def test_path_marks_are_drawn_by_the_loop(self):
        spec = LangevinSpec.named("quartic", 8)
        rng, ref = stream(662, 0), stream(662, 0)
        draws, _ = sampler._poisson_draws(Box.unit(2), 2.0, spec, rng, 5)
        want = [sample_poisson(Box.unit(2), 2.0, spec, ref) for _ in range(5)]
        assert draws.locations is None
        assert atoms_hex([draws.config(k) for k in range(5)]) == atoms_hex(want)
        assert stream_state(rng) == stream_state(ref)

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_partition_estimate(self, case):
        model, window, z, law = BLOCK_CASES[case]
        rng, ref = stream(663, 0), stream(663, 0)
        report = partition_estimate(model, window, z, law, 1000, rng)
        neg_h = one_at_a_time_log_weights(model, window, z, law, 1000, ref)
        assert stream_state(rng) == stream_state(ref)
        assert report.n_infinite == int(np.count_nonzero(neg_h == -math.inf))
        shift = neg_h.max()
        mean = float(np.exp(neg_h - shift).sum()) / 1000
        assert report.z_hat.hex() == math.exp(math.log(mean) + shift).hex()

    @pytest.mark.parametrize("case", sorted(set(BLOCK_CASES) - {"ideal-two-doubles"}))
    @pytest.mark.parametrize("with_env", [False, True])
    def test_rejection_sample(self, case, with_env):
        model, window, z, law = BLOCK_CASES[case]
        env = None
        if with_env:
            # three grains just past the window's upper face, within reach
            edge = window.bounding_box().hi[0]
            env = Configuration([MarkedPoint.make((edge + 0.1 + 0.2 * k,) + (0.0,) * (
                window.dimension - 1), 0.5) for k in range(3)], window.dimension)
        rng, ref = stream(664, 0), stream(664, 0)
        res = rejection_sample(model, window, z, law, 60, rng, env=env)
        samples, energies, proposed = one_at_a_time_rejection(model, window, z, law, 60, ref,
                                                              env=env)
        assert stream_state(rng) == stream_state(ref)
        assert res.n_proposed == proposed and res.n_accepted == 60
        assert atoms_hex(res.samples) == atoms_hex(samples)
        assert [h.hex() for h in res.energies] == [h.hex() for h in energies]

    @pytest.mark.parametrize("budget", [1, 37, 2000, 2001])
    def test_runs_that_stop_at_the_proposal_budget(self, budget):
        args = (HardSphereModel(), Box.unit(2), 3.0, PointMassLaw(0.3), 10**6)
        rng, ref = stream(665, budget), stream(665, budget)
        with pytest.raises(NumericalFailure, match="exceeded") as got:
            rejection_sample(*args, rng, max_proposals=budget)
        with pytest.raises(NumericalFailure) as want:
            one_at_a_time_rejection(*args, ref, max_proposals=budget)
        assert str(got.value) == str(want.value)
        assert stream_state(rng) == stream_state(ref)

    @pytest.mark.parametrize("n_samples", [10, 5000])
    def test_runs_that_stop_at_the_rate_check(self, n_samples):
        # a few proposals in 2000 are accepted, so the check at 2000 trips on
        # a rate of 1e-2; n_samples 10 makes every chunk short, 5000 one long
        args = (HardSphereModel(), Box.unit(2), 10.0, PointMassLaw(0.3), n_samples)
        rng, ref = stream(666, n_samples), stream(666, n_samples)
        with pytest.raises(NumericalFailure, match="below 0.01") as got:
            rejection_sample(*args, rng, min_rate=0.01)
        with pytest.raises(NumericalFailure) as want:
            one_at_a_time_rejection(*args, ref, min_rate=0.01)
        assert str(got.value).startswith(str(want.value))
        assert stream_state(rng) == stream_state(ref)


class TestAcceptanceRatios:
    def test_birth_death_are_reciprocal(self):
        # Detailed balance at the ratio level: the birth acceptance from n to
        # n+1 and the death acceptance back must multiply to the target ratio.
        rng = stream(610, 0)
        for _ in range(500):
            zv = float(rng.uniform(0.05, 8.0))
            n = int(rng.integers(0, 12))
            dh = float(rng.uniform(-6.0, 6.0))
            r = zv * math.exp(-dh) / (n + 1)
            raw_birth = hastings_ratio("birth", zv, n, dh)
            raw_death = hastings_ratio("death", zv, n + 1, -dh)
            assert raw_birth == pytest.approx(r, rel=1e-12)
            assert raw_birth * raw_death == pytest.approx(1.0, rel=1e-12)
            a_birth = min(1.0, raw_birth)
            a_death = min(1.0, raw_death)
            assert a_birth == pytest.approx(min(1.0, r), rel=1e-12)
            assert a_death == pytest.approx(min(1.0, 1.0 / r), rel=1e-12)
            assert a_birth == pytest.approx(r * a_death, rel=1e-12)

    def test_infinite_proposals_rejected(self):
        for kind in ("birth", "death", "move", "remark"):
            assert hastings_ratio(kind, 1.0, 1, math.inf) == 0.0

    def test_move_and_remark_ratio_is_boltzmann_factor(self):
        # Moves and remarks are symmetric proposals: neither z|W| nor n enters.
        rng = stream(611, 0)
        for _ in range(200):
            zv = float(rng.uniform(0.05, 8.0))
            n = int(rng.integers(1, 12))
            dh = float(rng.uniform(-6.0, 6.0))
            for kind in ("move", "remark"):
                assert hastings_ratio(kind, zv, n, dh) == math.exp(-dh)
        # a very negative increment overflows e^{-dH}; the ratio saturates
        for kind in ("birth", "death", "move", "remark"):
            assert hastings_ratio(kind, 1.0, 1, -1000.0) == math.inf

    def test_proposal_mix_validation(self):
        with pytest.raises(ValueError):
            ProposalMix(birth=0.4, death=0.3, move=0.2, remark=0.1)
        with pytest.raises(ValueError):
            ProposalMix(birth=0.5, death=0.5, move=0.2, remark=0.1)


class TestChain:
    def test_ideal_counts_match_poisson(self):
        rng = stream(611, 0)
        w = Box.unit(2)
        z = 2.0
        res = run_chain(IdealModel(), w, z, UniformLaw(0.5), 150_000, rng, burn_in=10_000, thin=20)
        counts = np.array([len(g) for g in res.samples])
        hi = int(counts.max())
        observed = np.array([np.sum(counts == k) for k in range(hi + 1)], dtype=float)
        pmf = np.array([stats.poisson.pmf(k, z) for k in range(hi + 1)])
        pmf[-1] = 1.0 - pmf[:-1].sum()
        keep = pmf * len(counts) >= 8
        observed[~keep] = 0.0
        expected = pmf * len(counts)
        chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        p = 1.0 - stats.chi2.cdf(chi2, df=int(keep.sum()) - 1)
        assert p > 0.01

    def test_hard_spheres_never_enter_overlap(self):
        rng = stream(612, 0)
        model = HardSphereModel()
        res = run_chain(
            model, Box.centered_cube(1.0, 2), 1.0, PointMassLaw(0.35), 20_000, rng, thin=50
        )
        assert all(model.energy(g) == 0.0 for g in res.samples)
        assert res.stats.final_energy == 0.0

    def test_thin_one_burn_zero_reproduces_raw_chain(self):
        model = PairPotentialModel(soft_bump)
        w = Box.unit(2)
        z = 1.5
        res = run_chain(model, w, z, UniformLaw(0.8), 60, stream(613, 0), burn_in=0, thin=1)
        assert len(res.samples) == 60
        # replay the same stream step by step
        rng = stream(613, 0)
        state = ChainState(model, w, None, None)
        mix = ProposalMix()
        for k in range(60):
            bdm_step(state, z, UniformLaw(0.8), mix, rng)
            got = res.samples[k]
            assert tuple(p.location for p in got.points) == tuple(
                p.location for p in state.points
            )
            assert tuple(p.mark_norm for p in got.points) == tuple(
                p.mark_norm for p in state.points
            )
        assert res.final.points == res.samples[-1].points

    def test_zero_intensity_chain_stays_empty(self):
        res = run_chain(IdealModel(), Box.unit(2), 0.0, UniformLaw(1.0), 500, stream(614, 0))
        assert all(len(g) == 0 for g in res.samples)

    def test_step_budget_validation(self):
        with pytest.raises(PreconditionError):
            run_chain(IdealModel(), Box.unit(2), 1.0, UniformLaw(1.0), 100, stream(615, 0), burn_in=100)
        with pytest.raises(PreconditionError):
            run_chain(IdealModel(), Box.unit(2), 1.0, UniformLaw(1.0), 100, stream(615, 1), thin=0)
        for every in (0, -1):
            with pytest.raises(PreconditionError, match="drift_check_every"):
                run_chain(IdealModel(), Box.unit(2), 1.0, UniformLaw(1.0), 100, stream(615, 2),
                          drift_check_every=every)

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_chain(IdealModel(), Box.unit(2), -0.5, UniformLaw(1.0), 100, stream(615, 3))

    def test_proposal_bookkeeping(self):
        res = run_chain(IdealModel(), Box.unit(2), 1.0, UniformLaw(0.5), 4_000, stream(616, 0))
        assert sum(res.stats.proposals.values()) == 4_000
        for kind, acc in res.stats.accepts.items():
            assert 0 <= acc <= res.stats.proposals[kind]

    def test_mark_cap_respected(self):
        res = run_chain(
            IdealModel(), Box.unit(2), 3.0, UniformLaw(1.0), 8_000, stream(617, 0), mark_cap=0.5
        )
        for g in res.samples:
            for p in g.points:
                assert p.mark_norm <= 0.5

    def test_drift_detector_trips(self):
        class Drifting(IdealModel):
            """Energy that changes value between cache time and check time."""

            model_id = "drifting"

            def __init__(self):
                self.calls = 0

            def energy(self, cfg):
                self.calls += 1
                return 0.0 if self.calls < 50 else 1.0

            def self_term(self, p):
                return 0.0

            def pair_term(self, p, q):
                return 0.0

        with pytest.raises(NumericalFailure):
            run_chain(
                Drifting(),
                Box.unit(2),
                5.0,
                UniformLaw(0.5),
                2_000,
                stream(618, 0),
                drift_check_every=10,
            )

    def test_drift_check_fails_on_an_infinite_recompute(self, monkeypatch):
        # Increments that ignore the hard core let atoms overlap; the cached
        # energy stays 0 while a recompute is +inf, a drift that compares
        # equal to its own tolerance, inf * 1e-9.
        model = HardSphereModel()
        monkeypatch.setattr(model, "local_delta", lambda p, neighbours, band=0.0: 0.0)
        with pytest.raises(NumericalFailure, match="recomputed inf"):
            run_chain(model, Box.centered_cube(1.0, 2), 5.0, UniformLaw(0.5), 4_000,
                      stream(619, 0), drift_check_every=500)

    def test_environment_pressure_shows_up(self):
        # A hard wall of environment grains along one side of the window
        # must push interior mass away from it.
        wall = Configuration(
            [mp((1.25, -1.0 + 0.5 * k), 0.45) for k in range(9)], dimension=2
        )
        model = HardSphereModel()
        res = run_chain(
            model,
            Box.centered_cube(1.0, 2),
            2.0,
            PointMassLaw(0.3),
            60_000,
            stream(619, 0),
            env=wall,
            burn_in=5_000,
            thin=25,
        )
        xs = np.concatenate([[p.location[0] for p in g.points] for g in res.samples if g.points])
        # Interior grains of radius 0.3 must keep their centers at distance
        # >= 0.75 from every wall center; between two wall centers (vertical
        # offset 0.25) that caps x at 1.25 - sqrt(0.75**2 - 0.25**2).
        assert xs.max() <= 1.25 - math.sqrt(0.75**2 - 0.25**2) + 1e-9
        assert (xs < 0).mean() > 0.5


class TestCutoffKernel:
    def test_mark_floor_validation(self):
        with pytest.raises(PreconditionError):
            sample_cutoff_kernel(
                IdealModel(),
                Box.unit(2),
                Box.centered_cube(3.0, 2),
                -0.1,
                Configuration.empty(2),
                1.0,
                UniformLaw(1.0),
                100,
                stream(620, 0),
            )

    def test_delta_must_contain_lambda(self):
        with pytest.raises(PreconditionError):
            sample_cutoff_kernel(
                IdealModel(),
                Box.centered_cube(2.0, 2),
                Box.unit(2),
                1.0,
                Configuration.empty(2),
                1.0,
                UniformLaw(1.0),
                100,
                stream(621, 0),
            )

    def test_zero_cap_freezes_chain_at_empty(self):
        res = sample_cutoff_kernel(
            IdealModel(),
            Box.unit(2),
            Box.centered_cube(3.0, 2),
            0.0,
            Configuration.empty(2),
            2.0,
            UniformLaw(1.0),
            2_000,
            stream(622, 0),
        )
        assert all(len(g) == 0 for g in res.samples)

    def test_generous_cutoff_couples_bit_exactly(self):
        # With the mark cap above the law's support and the environment box
        # beyond the interaction range, the cut-off chain consumes the same
        # draws and visits the same states as the untruncated kernel.
        model = PairPotentialModel(soft_bump)
        lam = Box.centered_cube(1.0, 2)
        law = UniformLaw(0.8)
        xi = Configuration(
            [mp((2.0, 0.5), 0.5), mp((-14.0, 3.0), 0.7), mp((0.5, 18.0), 0.3)],
            dimension=2,
        )
        full = run_chain(model, lam, 1.2, law, 5_000, stream(623, 0), env=xi, thin=10)
        cut = sample_cutoff_kernel(
            model,
            lam,
            Box.centered_cube(12.0, 2),
            0.85,
            xi,
            1.2,
            law,
            5_000,
            stream(623, 0),
            thin=10,
        )
        assert len(full.samples) == len(cut.samples)
        for a, b in zip(full.samples, cut.samples):
            assert tuple(p.location for p in a.points) == tuple(p.location for p in b.points)
            assert tuple(p.mark_norm for p in a.points) == tuple(p.mark_norm for p in b.points)


# ---------------------------------------------------------------------------
# Neighbour index: indexed increments equal the plain insertion-order loop
# ---------------------------------------------------------------------------

INDEX_MODELS = {
    "ideal": IdealModel(),
    "hardcore": HardSphereModel(),
    "nonnegpair": PairPotentialModel(soft_bump),
    "diffusion": DiffusionModel(),
}
# One rare large mark spreads the norms over two orders of magnitude.
SPREAD_LAW = TableLaw([0.05, 0.3, 0.6, 4.0], [0.3, 0.4, 0.27, 0.03])
PATH_LAW = LangevinSpec.named("quartic", 8)


def plain_add(model, state, p, skip=-1):
    """The unindexed increment: every interior atom, then the environment."""
    pts = state.points if skip < 0 else state.points[:skip] + state.points[skip + 1 :]
    return model.interaction(p, list(pts) + list(state.env.points), model.self_term(p))


def plain_remove(model, state, idx):
    return -plain_add(model, state, state.points[idx], skip=idx)


def plain_swap(model, state, idx, new_p):
    gain = plain_add(model, state, new_p, skip=idx)
    return math.inf if gain == math.inf else gain + plain_remove(model, state, idx)


def assert_increments_match(model, state, rng, law, queries=12):
    """Indexed ChainState.delta of births, deaths and swaps against the plain loop,
    bit for bit, for fresh atoms, every removal and moves plus remarks."""
    held = sorted(entry for cell in state.cells.values() for entry in cell)
    assert held == list(zip(state.stamps, state.points)) + state.env_entries
    for _ in range(queries):
        p = MarkedPoint.make(state.window.draw(rng), law.sample(rng))
        assert state.delta(len(state.points), [p]).hex() == plain_add(model, state, p).hex()
    for idx in range(len(state.points)):
        assert state.delta(idx, []).hex() == plain_remove(model, state, idx).hex()
        old = state.points[idx]
        for new_p in (
            MarkedPoint.make(state.window.draw(rng), old.mark),
            MarkedPoint.make(old.location, law.sample(rng)),
        ):
            got = state.delta(idx, [new_p])
            assert got.hex() == plain_swap(model, state, idx, new_p).hex()


def scramble(state, rng, law, n_ops, n_births=0):
    """``n_births`` births, then ``n_ops`` births, deaths, moves and remarks,
    through ChainState.replace."""
    for _ in range(n_births):
        loc = state.window.draw(rng)
        state.replace(len(state.points), [MarkedPoint.make(loc, law.sample(rng))])
    for _ in range(n_ops):
        n = len(state.points)
        op = int(rng.integers(0, 4)) if n else 0
        idx = int(rng.integers(0, n)) if n else 0
        if op == 0:
            loc = state.window.draw(rng)
            state.replace(n, [MarkedPoint.make(loc, law.sample(rng))])
        elif op == 1:
            state.replace(idx, [])
        elif op == 2:
            loc = state.window.draw(rng)
            state.replace(idx, [MarkedPoint.make(loc, state.points[idx].mark)])
        else:
            state.replace(idx, [MarkedPoint.make(state.points[idx].location, law.sample(rng))])


class TestNeighbourIndex:
    @settings(max_examples=60)
    @given(
        name=st.sampled_from(sorted(INDEX_MODELS)),
        d=st.integers(1, 3),
        ball=st.booleans(),
        half=st.sampled_from([1.0, 3.0, 6.0]),
        spread=st.booleans(),
        n_ops=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_increments_match_plain_loop(self, name, d, ball, half, spread, n_ops, seed):
        model = INDEX_MODELS[name]
        rng = np.random.default_rng(seed)
        law = PATH_LAW if name == "diffusion" else (SPREAD_LAW if spread else UniformLaw(0.6))
        window = Ball([0.0] * d, half) if ball else Box.centered_cube(half, d)
        # environment: a shell just outside the window plus far-away atoms
        near = [Box.centered_cube(half + 2.0, d).draw(rng) for _ in range(20)]
        far = [tuple(float(c) for c in rng.uniform(-1.0, 1.0, d) * 50.0 + 60.0) for _ in range(3)]
        xi = Configuration(
            [MarkedPoint.make(loc, law.sample(rng)) for loc in near + far], dimension=d
        )
        state = ChainState(model, window, xi)
        # births first, so the wider windows hold atoms in many cells; the
        # count comes from the seed, since hypothesis favours small integers
        scramble(state, rng, law, n_ops, n_births=seed % 61)
        assert_increments_match(model, state, rng, law)

    @pytest.mark.parametrize("name", sorted(INDEX_MODELS))
    def test_increments_match_plain_loop_in_a_full_window(self, name):
        model = INDEX_MODELS[name]
        rng = stream(628, 0)
        law = PATH_LAW if name == "diffusion" else UniformLaw(0.6)
        state = ChainState(model, Box.centered_cube(6.0, 2))
        scramble(state, rng, law, 30, n_births=60)
        assert len(state.points) >= 30
        # more cells hold atoms than one query spans (3 x 3 cells)
        assert len({state._key(q.location) for q in state.points}) > 9
        assert_increments_match(model, state, rng, law)

    def test_remark_that_raises_the_bound_rebuilds_the_grid(self):
        model = INDEX_MODELS["nonnegpair"]
        rng = stream(624, 0)
        state = ChainState(model, Box.centered_cube(6.0, 2))
        scramble(state, rng, UniformLaw(0.3), 80)
        side = state.side
        assert side <= 0.6
        idx = len(state.points) // 2
        state.replace(idx, [MarkedPoint.make(state.points[idx].location, 2.5)])
        assert state.bound == 2.5
        assert state.side == model.reach(2.5, 2.5) > side
        assert_increments_match(model, state, rng, UniformLaw(0.3))
        assert_increments_match(model, state, rng, UniformLaw(3.0))

    def test_contact_at_exactly_the_reach_interacts(self):
        # nonnegpair gates on d <= |m_p| + |m_q|: the pair at equality counts,
        # and here it sits in the next cell over.
        model = INDEX_MODELS["nonnegpair"]
        state = ChainState(model, Box.centered_cube(4.0, 2))
        state.replace(0, [mp((1.0, 0.0), 0.5)])
        assert state.side == 1.0
        p = mp((0.0, 0.0), 0.5)
        assert math.dist(p.location, state.points[0].location) == model.reach(0.5, 0.5)
        expected = soft_bump(1.0)
        assert expected > 0.0
        assert state.delta(len(state.points), [p]) == plain_add(model, state, p) == expected

    @pytest.mark.parametrize("name", ["ideal", "nonnegpair"])
    def test_a_new_atom_on_another_interior_atom_is_refused(self, name):
        # Both models price coincident atoms finitely (the plain loop does),
        # so +inf can only come from the collision rule.
        model = INDEX_MODELS[name]
        outside = mp((2.5, 0.5), 0.3)
        state = ChainState(model, Box.centered_cube(2.0, 2), config([outside]))
        a, b = mp((0.5, 0.5), 0.3), mp((-1.0, 1.0), 0.4)
        state.replace(0, [a])
        state.replace(1, [b])
        birth = mp(a.location, 0.2)
        assert math.isfinite(plain_add(model, state, birth))
        assert state.delta(2, [birth]) == math.inf
        move = mp(a.location, b.mark_norm)
        assert math.isfinite(plain_swap(model, state, 1, move))
        assert state.delta(1, [move]) == math.inf
        # a remark keeps the location of the atom it replaces, which is skipped
        remark = mp(a.location, 0.2)
        assert state.delta(0, [remark]) == plain_swap(model, state, 0, remark)
        assert math.isfinite(state.delta(0, [remark]))
        # an environment atom at the location does not block
        probe = mp(outside.location, 0.2)
        assert state.delta(2, [probe]) == plain_add(model, state, probe)
        assert math.isfinite(state.delta(2, [probe]))

    def test_zero_reach_queries_only_coincident_atoms(self, monkeypatch):
        # The ideal model's reach is 0, so an increment can only meet atoms at
        # p's own location; the plain loop calls pair_term on every atom.
        class CountingIdeal(IdealModel):
            calls = 0

            def pair_term(self, p, q):
                CountingIdeal.calls += 1
                return 0.0

        def run():
            CountingIdeal.calls = 0
            result = run_chain(CountingIdeal(), Box.centered_cube(4.0, 2), 0.5,
                               UniformLaw(0.5), 10_000, stream(626, 0), thin=500)
            return CountingIdeal.calls, [c.points for c in result.samples]

        indexed_calls, indexed = run()
        # an environment atom at p's location is still a neighbour
        coincident = mp((0.5, -1.5), 0.2)
        state = ChainState(IdealModel(), Box.centered_cube(1.0, 2),
                           config([coincident, mp((0.5, -1.25))]))
        assert state.neighbours(mp((0.5, -1.5))) == [coincident]

        def plain_neighbours(state, p, skip=-1):
            interior = [q for i, q in enumerate(state.points) if i != skip]
            return interior + list(state.env.points)

        monkeypatch.setattr(sampler.ChainState, "neighbours", plain_neighbours)
        plain_calls, plain = run()
        assert indexed == plain
        assert indexed_calls * 100 < plain_calls

    @settings(max_examples=200)
    @given(
        name=st.sampled_from(sorted(INDEX_MODELS)),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        excess=st.floats(0.0, 5.0, exclude_min=True),
    )
    def test_pair_term_vanishes_beyond_reach(self, name, d, seed, excess):
        model = INDEX_MODELS[name]
        rng = np.random.default_rng(seed)
        law = PATH_LAW if name == "diffusion" else SPREAD_LAW
        p = MarkedPoint.make(tuple(rng.uniform(-3.0, 3.0, d)), law.sample(rng))
        q_mark = law.sample(rng)
        q_norm = MarkedPoint.make((0.0,) * d, q_mark).mark_norm
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        dist = model.reach(p.mark_norm, q_norm) + excess
        q = MarkedPoint.make(tuple(np.asarray(p.location) + dist * direction), q_mark)
        if math.dist(p.location, q.location) > model.reach(p.mark_norm, q.mark_norm):
            assert model.pair_term(p, q) == 0.0
            assert model.pair_term(q, p) == 0.0


# ---------------------------------------------------------------------------
# Increment audit: the chain's increments against global recomputations
# ---------------------------------------------------------------------------

AUDIT_MODELS = dict(INDEX_MODELS, quermass=QuermassModel(0.4, -0.2, 0.3))


def scramble_finite(model, state, rng, law, n_births, n_ops):
    """``n_births`` births, then ``scramble``'s mix of operations, keeping
    only those after which the conditional energy is finite, as every chain
    state's is."""
    for k in range(n_births + n_ops):
        saved = list(state.points)
        if k < n_births:
            loc = state.window.draw(rng)
            state.replace(len(saved), [MarkedPoint.make(loc, law.sample(rng))])
        else:
            scramble(state, rng, law, 1)
        if model.conditional_energy(state.snapshot(), state.env) == math.inf:
            for idx in range(len(state.points) - 1, -1, -1):
                state.replace(idx, [])
            for q in saved:
                state.replace(len(state.points), [q])


def assert_increment_is_global_difference(model, state, before, got, after, plain):
    """``got`` against H(after) - H(state), with ``before`` = H(state), and
    pairwise increments against the plain loop ``plain`` bit for bit (the
    difference of two float sums rounds differently from the increment's own
    sum)."""
    h_after = model.conditional_energy(Configuration(after, dimension=2), state.env)
    if h_after == math.inf:
        assert got == math.inf
        return
    assert abs(got - (h_after - before)) <= 1e-9 * max(1.0, abs(before), abs(h_after))
    if plain is not None:
        assert got.hex() == plain.hex()



def spy_link_sizes(monkeypatch):
    """The sizes of the links that the quermass increments price, in call
    order."""
    sizes = []

    def link(disc, meet):
        sizes.append(len(meet))
        return link_increment(disc, meet)

    monkeypatch.setattr(energy_module, "link_increment", link)
    return sizes


def dense_shell(rng, law):
    """A boundary of 16 grains just outside [-2, 2)^2, which interior grains
    meet."""
    shell = [Box.centered_cube(3.0, 2).draw(rng) for _ in range(16)]
    return config([MarkedPoint.make(loc, law.sample(rng)) for loc in shell])


class TestIncrementAudit:
    @pytest.mark.parametrize("name", sorted(AUDIT_MODELS))
    @settings(max_examples=20)
    @given(
        with_env=st.booleans(),
        half=st.sampled_from([1.0, 2.0, 3.0]),
        spread=st.booleans(),
        n_births=st.integers(5, 30),
        n_ops=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_increments_equal_global_differences(
        self, name, with_env, half, spread, n_births, n_ops, seed
    ):
        model = AUDIT_MODELS[name]
        pairwise = name != "quermass"
        rng = np.random.default_rng(seed)
        law = PATH_LAW if name == "diffusion" else (SPREAD_LAW if spread else UniformLaw(0.6))
        window = Box.centered_cube(half, 2)
        env = None
        if with_env:
            # a shell just outside the window, which interior grains meet
            shell = [Box.centered_cube(half + 1.0, 2).draw(rng) for _ in range(16)]
            xi = [MarkedPoint.make(loc, law.sample(rng)) for loc in shell]
            env = Configuration(xi, dimension=2)
        state = ChainState(model, window, env)
        scramble_finite(model, state, rng, law, n_births, n_ops)
        pts = state.points
        before = model.conditional_energy(state.snapshot(), state.env)
        assert before < math.inf
        for _ in range(6):
            p = MarkedPoint.make(window.draw(rng), law.sample(rng))
            got = state.delta(len(state.points), [p])
            plain = plain_add(model, state, p) if pairwise else None
            assert_increment_is_global_difference(model, state, before, got, pts + [p], plain)
        for idx in rng.permutation(len(pts))[:6].tolist():
            rest = pts[:idx] + pts[idx + 1 :]
            got = state.delta(idx, [])
            plain = plain_remove(model, state, idx) if pairwise else None
            assert_increment_is_global_difference(model, state, before, got, rest, plain)
            old = pts[idx]
            disp = rng.standard_normal(2) * 0.3
            moved = tuple(float(c + e) for c, e in zip(old.location, disp))
            proposals = [MarkedPoint.make(old.location, law.sample(rng))]
            if moved in window:
                proposals.append(MarkedPoint(moved, old.mark, old.mark_norm))
            for new_p in proposals:
                got = state.delta(idx, [new_p])
                plain = plain_swap(model, state, idx, new_p) if pairwise else None
                after = pts[:idx] + [new_p] + pts[idx + 1 :]
                assert_increment_is_global_difference(model, state, before, got, after, plain)


    @pytest.mark.parametrize("with_env", [False, True], ids=["free", "env"])
    def test_dense_quermass_increments_equal_global_differences(self, with_env, monkeypatch):
        # U(1.2) at z 1.0 packs grains so that links of three and more discs,
        # and so triple faces through p, occur on chain-reached states
        model, law = AUDIT_MODELS["quermass"], UniformLaw(1.2)
        window = Box.centered_cube(2.0, 2)
        rng = stream(631, with_env)
        links = spy_link_sizes(monkeypatch)
        state = ChainState(model, window, dense_shell(rng, law) if with_env else None,
                           law.max_norm)
        for _ in range(8):
            for _ in range(150):
                bdm_step(state, 1.0, law, ProposalMix(), rng)
            pts = state.points
            before = model.conditional_energy(state.snapshot(), state.env)
            for _ in range(4):
                p = MarkedPoint.make(window.draw(rng), law.sample(rng))
                got = state.delta(len(pts), [p])
                assert_increment_is_global_difference(model, state, before, got, pts + [p], None)
            for idx in rng.permutation(len(pts))[:4].tolist():
                got = state.delta(idx, [])
                rest = pts[:idx] + pts[idx + 1 :]
                assert_increment_is_global_difference(model, state, before, got, rest, None)
                new_p = MarkedPoint.make(pts[idx].location, law.sample(rng))
                got = state.delta(idx, [new_p])
                after = pts[:idx] + [new_p] + pts[idx + 1 :]
                assert_increment_is_global_difference(model, state, before, got, after, None)
        assert max(links) >= 3 and sum(n >= 3 for n in links) >= 50, max(links)



# ---------------------------------------------------------------------------
# Reversibility: every proposal against its reverse
# ---------------------------------------------------------------------------

REVERSE_KIND = {"birth": "death", "death": "birth", "move": "move", "remark": "remark"}


def draw_proposal(state, kind, law, rng):
    """(idx, added) of a ``kind`` proposal as ``bdm_step`` makes it, on a
    non-empty state unless ``kind`` is birth (a move may leave the window)."""
    n = len(state.points)
    if kind == "birth":
        return n, [MarkedPoint.make(state.window.draw(rng), law.sample(rng))]
    idx = int(rng.integers(n))
    old = state.points[idx]
    if kind == "death":
        return idx, []
    if kind == "remark":
        return idx, [MarkedPoint.make(old.location, law.sample(rng))]
    disp = rng.standard_normal(2) * 0.3
    return idx, [MarkedPoint(tuple(float(c + e) for c, e in zip(old.location, disp)),
                             old.mark, old.mark_norm)]


class TestReversibility:
    """On chain-reached states, every finite proposal and its reverse pay
    opposite increments, and their Hastings ratios multiply to 1: detailed
    balance, one proposal at a time. The reverse of a death is a birth
    appended at the end."""

    @pytest.mark.parametrize("with_env", [False, True], ids=["free", "env"])
    @pytest.mark.parametrize("name", sorted(AUDIT_MODELS))
    def test_reverse_proposal_pays_minus_the_increment(self, name, with_env):
        model = AUDIT_MODELS[name]
        rng = stream(629, 2 * sorted(AUDIT_MODELS).index(name) + with_env)
        law = PATH_LAW if name == "diffusion" else UniformLaw(0.6)
        window = Box.centered_cube(2.0, 2)
        env = None
        if with_env:
            # a shell just outside the window, which interior atoms meet
            shell = [Box.centered_cube(3.0, 2).draw(rng) for _ in range(16)]
            env = config([MarkedPoint.make(loc, law.sample(rng)) for loc in shell])
        state = ChainState(model, window, env, law.max_norm)
        z, mix = 1.0, ProposalMix()
        checked = {kind: 0 for kind in REVERSE_KIND}
        for _ in range(30):
            for _ in range(40):
                bdm_step(state, z, law, mix, rng)
            for kind in REVERSE_KIND:
                n = len(state.points)
                if n == 0 and kind != "birth":
                    continue
                idx, added = draw_proposal(state, kind, law, rng)
                if added and added[0].location not in window:
                    continue
                forward = state.delta(idx, added)
                if forward == math.inf:
                    continue
                removed = state.points[idx : idx + 1]
                state.replace(idx, added)
                back = (n, []) if idx == n else (idx if added else n - 1, removed)
                reverse = state.delta(*back)
                assert forward == -reverse, (kind, forward, reverse)
                if abs(forward) < 700.0:  # e^{-dH} and e^{dH} both finite
                    ratio = hastings_ratio(kind, z * state.volume, n, forward)
                    ratio *= hastings_ratio(REVERSE_KIND[kind], z * state.volume,
                                            len(state.points), reverse)
                    assert ratio == pytest.approx(1.0, rel=1e-12, abs=0.0), kind
                state.replace(*back)
                checked[kind] += 1
        assert min(checked.values()) >= 10, checked

    @pytest.mark.parametrize("with_env", [False, True], ids=["free", "env"])
    def test_dense_quermass_reverse_pays_minus_the_increment(self, with_env, monkeypatch):
        # U(1.2) at z 1.0: links of three and more discs, so the exact check
        # reaches triple faces through p
        model, law = AUDIT_MODELS["quermass"], UniformLaw(1.2)
        window = Box.centered_cube(2.0, 2)
        rng = stream(630, with_env)
        links = spy_link_sizes(monkeypatch)
        state = ChainState(model, window, dense_shell(rng, law) if with_env else None,
                           law.max_norm)
        z, mix = 1.0, ProposalMix()
        checked = {kind: 0 for kind in REVERSE_KIND}
        for _ in range(20):
            for _ in range(40):
                bdm_step(state, z, law, mix, rng)
            for kind in REVERSE_KIND:
                n = len(state.points)
                idx, added = draw_proposal(state, kind, law, rng)
                if added and added[0].location not in window:
                    continue
                forward = state.delta(idx, added)
                if forward == math.inf:
                    continue
                removed = state.points[idx : idx + 1]
                state.replace(idx, added)
                back = (n, []) if idx == n else (idx if added else n - 1, removed)
                assert forward == -state.delta(*back), kind
                state.replace(*back)
                checked[kind] += 1
        assert min(checked.values()) >= 10, checked
        assert max(links) >= 3 and sum(n >= 3 for n in links) >= 50, max(links)


# ---------------------------------------------------------------------------


class PlannedDraws:
    """Stand-in generator that replays planned variates in draw order."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])

    def standard_normal(self, size):
        return np.asarray(self.values.pop(0), dtype=float)


QUERMASS = QuermassModel(0.4, -0.2, 0.3)
TANGENT_ENV = Configuration([mp((1.2, 0.0), 0.5), mp((1.2, 1.0), 0.5)], dimension=2)


class TestDegeneracyBand:
    """Births, moves and remarks onto a tangency, an internal tangency or a
    triple point are refused before any functional is evaluated."""

    # In [-2, 2)^2 a location coordinate is -2 + 4u and a UniformLaw(1.0)
    # mark is u, so these draws land exactly where planned. Every proposal
    # has acceptance uniform 0.0, so only an infinite increment rejects it.
    PLANTS = {
        # birth at (1, 0), radius 0.5: distance 1 = 0.5 + 0.5
        "birth-tangency": ([mp((0.0, 0.0), 0.5)], (0.1, 0.75, 0.5, 0.5, 0.0)),
        # birth at (0.25, 0), radius 0.25: distance 0.25 = 0.5 - 0.25
        "birth-internal-tangency": ([mp((0.0, 0.0), 0.5)], (0.1, 0.5625, 0.5, 0.25, 0.0)),
        # move of the third grain to (0, 0.9): its circle, radius 0.5, passes
        # through (0, 0.4), a vertex of the first two circles
        "move-triple-point": (
            [mp((-0.3, 0.0), 0.5), mp((0.3, 0.0), 0.5), mp((0.0, 1.5), 0.5)],
            (0.75, 0.9, [0.0, -0.6], 0.0),
        ),
        # remark of the second grain to radius 0.5: distance 1 = 0.5 + 0.5
        "remark-tangency": ([mp((0.0, 0.0), 0.5), mp((1.0, 0.0), 0.2)], (0.95, 0.9, 0.5, 0.0)),
    }

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_planted_degeneracy_is_rejected(self, plant, monkeypatch, caplog):
        grains, draws = self.PLANTS[plant]
        state = ChainState(QUERMASS, Box.centered_cube(2.0, 2))
        for g in grains:
            state.replace(len(state.points), [g])
        state.cached_energy = QUERMASS.energy(state.snapshot())
        before = list(state.points)
        evaluated = []
        monkeypatch.setattr(QUERMASS, "_functional", lambda discs: evaluated.append(discs))
        monkeypatch.setattr(energy_module, "link_increment",
                            lambda disc, meet: evaluated.append(meet + [disc]))
        increments = []

        def local_delta(p, neighbours, band=0.0):
            increments.append(QuermassModel.local_delta(QUERMASS, p, neighbours, band))
            return increments[-1]

        monkeypatch.setattr(QUERMASS, "local_delta", local_delta)
        mix = ProposalMix(move_scale=1.0)
        with caplog.at_level("WARNING"):
            bdm_step(state, 0.4, UniformLaw(1.0), mix, PlannedDraws(*draws))
        assert sum(state.proposals.values()) == 1
        assert increments == [math.inf]
        assert sum(state.accepts.values()) == 0
        assert state.points == before
        assert evaluated == []
        assert caplog.records == []

    def test_planted_states_would_need_a_radius_bump(self, caplog):
        # Accepted, each proposal would leave a degenerate state, whose
        # energy, as the drift check recomputes it, is +inf.
        after = {
            "birth-tangency": [mp((0.0, 0.0), 0.5), mp((1.0, 0.0), 0.5)],
            "birth-internal-tangency": [mp((0.0, 0.0), 0.5), mp((0.25, 0.0), 0.25)],
            "move-triple-point": [mp((-0.3, 0.0), 0.5), mp((0.3, 0.0), 0.5), mp((0.0, 0.9), 0.5)],
            "remark-tangency": [mp((0.0, 0.0), 0.5), mp((1.0, 0.0), 0.5)],
        }
        assert sorted(after) == sorted(self.PLANTS)
        with caplog.at_level("WARNING"):
            for plant, grains in after.items():
                assert QUERMASS.energy(config(grains)) == math.inf, plant
                assert QUERMASS.conditional_energy(config(grains), config([], 2)) == math.inf
        assert caplog.records == []

    def test_seeded_chain_builds_disc_systems_only_in_drift_checks(
        self, monkeypatch, caplog
    ):
        # The increments hand the functionals plain disc lists, none of them
        # degenerate at the chain's band; the drift checks recompute the
        # whole state, and every recompute is finite and passes.
        xi = Configuration(
            [mp((2.3, 0.4), 0.5), mp((-2.2, -1.0), 0.6), mp((0.5, 2.4), 0.45),
             mp((-0.7, -2.3), 0.55)],
            dimension=2,
        )
        window = Box.centered_cube(2.0, 2)
        # U(0.6) marks never raise the bound past the environment's 0.6
        band = ChainState(QUERMASS, window, xi).band(0.6)
        where, handed, recomputed = ["chain"], [], []

        def link(disc, meet):
            if where[0] == "chain":
                handed.append(meet + [disc])
            return link_increment(disc, meet)

        def conditional_energy(interior, environment):
            where[0] = "drift check"
            try:
                recomputed.append(QuermassModel.conditional_energy(QUERMASS, interior, environment))
                return recomputed[-1]
            finally:
                where[0] = "chain"

        monkeypatch.setattr(energy_module, "link_increment", link)
        monkeypatch.setattr(QUERMASS, "conditional_energy", conditional_energy)
        with caplog.at_level("WARNING"):
            res = run_chain(QUERMASS, window, 0.5, UniformLaw(0.6), 4000, stream(627, 0),
                            env=xi, thin=100, drift_check_every=1000)
        assert res.stats.drift_checks == 4
        assert len(handed) > 4000
        assert all(not _find_degenerate(discs, band) for discs in handed)
        assert caplog.records == []
        assert len(recomputed) == 4 and all(math.isfinite(h) for h in recomputed)
        assert res.stats.max_drift <= 1e-9 * max(1.0, *map(abs, recomputed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tangent_environment_is_refused_at_the_start(self, seed, monkeypatch):
        # Two environment grains touch at (1.2, 0.5). Chains whose increments
        # pass these grains unbumped while the drift check bumps one of them
        # drift apart, so the chain refuses them before its first step.
        steps, step = [], sampler.bdm_step
        monkeypatch.setattr(sampler, "bdm_step", lambda *a: steps.append(1) or step(*a))
        with pytest.raises(PreconditionError, match="environment grains"):
            run_chain(QUERMASS, Box.centered_cube(1.0, 2), 1.0, UniformLaw(0.6), 800,
                      stream(seed, 0), env=TANGENT_ENV,
                      drift_check_every=200)
        assert steps == []

    def test_capped_chain_ignores_degeneracies_it_cannot_meet(self):
        # The pair touches at (5.2, 0.5); a grain centred in [-1, 1)^2 with
        # radius at most 0.6 meets neither, one with a larger radius may.
        far = Configuration([mp((5.2, 0.0), 0.5), mp((5.2, 1.0), 0.5)], dimension=2)
        window = Box.centered_cube(1.0, 2)
        ChainState(QUERMASS, window, far, mark_cap=0.6)
        with pytest.raises(PreconditionError, match="environment grains"):
            ChainState(QUERMASS, window, far)
        with pytest.raises(PreconditionError, match="environment grains"):
            ChainState(QUERMASS, window, far, mark_cap=4.0)

    def test_capped_chain_certifies_its_environment_at_the_largest_band(self):
        # A tangency gap of 5e-9 lies between the initial band (2.7e-9) and
        # the band a grain of radius 5 reaches (7e-9).
        gapped = Configuration([mp((1.2, 0.0), 0.5), mp((1.2, 1.0 + 5e-9), 0.5)], dimension=2)
        window = Box.centered_cube(1.0, 2)
        state = ChainState(QUERMASS, window, gapped)
        assert state.band(0.0) < 5e-9 < state.band(5.0)
        with pytest.raises(PreconditionError, match="environment grains"):
            ChainState(QUERMASS, window, gapped, mark_cap=5.0)
        # an uncapped chain is certified at its mark law's largest norm
        assert UniformLaw(5.0).max_norm == 5.0
        with pytest.raises(PreconditionError, match="environment grains"):
            run_chain(QUERMASS, window, 1.0, UniformLaw(5.0), 100, stream(0, 0), env=gapped)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_environment_check_follows_the_prefix_rule(self, seed):
        # Checking each grain against the earlier grains of its neighbour
        # cells refuses exactly the environments _find_degenerate flags.
        rng = stream(seed, 0)
        grains = [mp((x, y), r) for x, y, r in zip(rng.uniform(1.0, 13.0, 600),
                                                   rng.uniform(-6.0, 6.0, 600),
                                                   rng.uniform(0.0, 0.4, 600))]
        (ax, ay), ar = grains[100].location, grains[100].mark_norm
        touching = [mp((ax + ar + 0.3, ay), 0.3)]
        triple = [mp((7.7, 0.0), 0.5), mp((8.3, 0.0), 0.5), mp((8.0, 0.9), 0.5)]
        window = Box.centered_cube(1.0, 2)
        for env, refused in ((grains, False), (grains + touching, True),
                             (triple[:1] + grains + triple[1:], True)):
            bc = Configuration(env, dimension=2)
            scale = max([1.0 + max(q.mark_norm for q in env)]
                        + [sum(map(abs, q.location)) + q.mark_norm for q in env])
            discs = [Disc(*q.location, q.mark_norm) for q in env]
            assert bool(_find_degenerate(discs, _DEGENERACY_TOL * scale)) == refused
            if refused:
                with pytest.raises(PreconditionError, match="environment grains"):
                    ChainState(QUERMASS, window, bc)
            else:
                assert ChainState(QUERMASS, window, bc).band(0.0) == _DEGENERACY_TOL * scale

    def test_band_covers_every_disc_system_scale(self):
        # E (environment) and W + bound (window and largest mark, the new
        # grain's included) all count.
        xi = Configuration([mp((9.0, 0.5), 0.5)], dimension=2)
        state = ChainState(QUERMASS, Box.centered_cube(2.0, 2), xi)
        assert state.band(0.3) == _DEGENERACY_TOL * 10.0
        assert state.band(6.5) == _DEGENERACY_TOL * 10.5
        state.replace(0, [mp((1.0, 1.0), 7.0)])
        assert state.band(0.3) == _DEGENERACY_TOL * 11.0
        assert ChainState(HardSphereModel(), Box.centered_cube(2.0, 2)).band(9.0) == 0.0

    def test_quermass_chain_needs_the_plane(self):
        state = ChainState(QUERMASS, Box.centered_cube(1.0, 3))
        with pytest.raises(PreconditionError):
            state.delta(0, [mp((0.0, 0.0, 0.0), 0.3)])


def test_deaths_ignore_grains_that_only_touch(caplog):
    # Deaths query their neighbours at band 0, where open discs that touch
    # at one point do not meet: the increment is minus F of the lone grain.
    state = ChainState(QUERMASS, Box.centered_cube(2.0, 2))
    for g in (mp((0.0, 0.0), 0.5), mp((1.0, 0.0), 0.5)):
        state.replace(len(state.points), [g])
    lone = QUERMASS.energy(config([mp((1.0, 0.0), 0.5)]))
    with caplog.at_level("WARNING"):
        assert state.delta(1, []) == -lone
    assert caplog.records == []
