"""Mark laws: radius distributions, Langevin path marks, and moment audits."""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from gibbsgrain import (
    PathMark,
    PointMassLaw,
    TableLaw,
    TruncatedSubbotinLaw,
    UniformLaw,
    law_from_descriptor,
    stream,
    super_exp_moment_estimate,
)
from gibbsgrain import marks
from gibbsgrain.marks import (
    LangevinSpec,
    _cumulative_trapezoid,
    _quartic_grad,
    langevin_invariant_check,
)


class Fixed:
    """Stand-in generator whose every ``random()`` is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestRadiusLaws:
    def test_point_mass_constant(self):
        rng = stream(301, 0)
        law = PointMassLaw(1.0)
        assert all(law.sample(rng) == 1.0 for _ in range(50))

    def test_uniform_mean(self):
        rng = stream(302, 0)
        law = UniformLaw(1.0)
        draws = np.array([law.sample(rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_table_law_frequencies(self):
        rng = stream(303, 0)
        law = TableLaw([0.5, 1.0, 2.0], [0.2, 0.5, 0.3])
        draws = np.array([law.sample(rng) for _ in range(20_000)])
        for v, p in zip([0.5, 1.0, 2.0], [0.2, 0.5, 0.3]):
            frac = np.mean(draws == v)
            assert abs(frac - p) < 3.0 * math.sqrt(p * (1 - p) / len(draws))

    def test_subbotin_between_zero_and_cutoff(self):
        rng = stream(304, 0)
        law = TruncatedSubbotinLaw(exponent=6.0, cutoff=2.0)
        draws = np.array([law.sample(rng) for _ in range(5_000)])
        assert draws.min() >= 0.0 and draws.max() <= 2.0

    def test_subbotin_mean_matches_quadrature(self):
        p, cutoff = 6.0, 2.0
        norm, _ = integrate.quad(lambda x: math.exp(-(x**p)), 0.0, cutoff)
        target, _ = integrate.quad(lambda x: x * math.exp(-(x**p)) / norm, 0.0, cutoff)
        rng = stream(305, 0)
        law = TruncatedSubbotinLaw(exponent=p, cutoff=cutoff)
        draws = np.array([law.sample(rng) for _ in range(50_000)])
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - target) < 3.0 * se + 1e-5

    @pytest.mark.parametrize("p, cutoff", [(0.5, 3.0), (1.5, 2.5), (2.0, 2.0), (6.0, 2.0)])
    def test_subbotin_draw_inverts_the_cdf(self, p, cutoff):
        # the draw from uniform u is the x whose CDF, by quadrature, is u
        law = TruncatedSubbotinLaw(exponent=p, cutoff=cutoff)

        def mass(x):
            return integrate.quad(lambda y: math.exp(-(y**p)), 0.0, x, epsabs=1e-14)[0]

        for u in (0.0, 1e-6, 0.1, 0.5, 0.9, 0.999999):
            assert mass(law.sample(Fixed(u))) / mass(cutoff) == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("p, cutoff", [(0.7, 3.0), (0.7, 5.0), (3.0, 1.0), (12.0, 1.0)])
    def test_subbotin_draws_are_clamped_at_the_cutoff(self, p, cutoff):
        # for these laws the inverse incomplete gamma function overshoots
        # the cutoff by a few ulps at the largest double below 1
        law = TruncatedSubbotinLaw(exponent=p, cutoff=cutoff)
        assert law.sample(Fixed(1.0 - 2.0**-53)) == cutoff == law.max_norm

    def test_max_norm_bounds_every_draw(self):
        laws = [
            (PointMassLaw(0.3), 0.3),
            (UniformLaw(3), 3.0),
            (TruncatedSubbotinLaw(2.0, cutoff=1.5), 1.5),
            (TableLaw([0.1, 4.0, 0.5], [0.6, 0.01, 0.39]), 4.0),
        ]
        rng = stream(307, 0)
        for law, bound in laws:
            assert law.max_norm == bound
            assert max(law.sample(rng) for _ in range(2000)) <= bound
        assert LangevinSpec.named("quartic", 8).max_norm is None

    @pytest.mark.parametrize(
        "make",
        [
            lambda: UniformLaw(-1.0),
            lambda: PointMassLaw(-0.5),
            lambda: TableLaw([1.0, -2.0], [0.5, 0.5]),
            lambda: TableLaw([1.0, 2.0], [0.7, 0.7]),
            lambda: TableLaw([1.0, 2.0], [math.nan, math.nan]),
            lambda: TruncatedSubbotinLaw(exponent=0.0),
            lambda: TruncatedSubbotinLaw(exponent=math.inf),
        ],
    )
    def test_bad_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_law_from_descriptor_builds_each_kind(self):
        rng1 = stream(306, 0)
        rng2 = stream(306, 0)
        for block, law, params in (
            ({"kind": "point", "value": 0.7}, PointMassLaw(0.7), {"value": 0.7}),
            ({"kind": "uniform", "b": 1.3}, UniformLaw(1.3), {"b": 1.3}),
            (
                {"kind": "table", "values": [0.5, 1.5], "probs": [0.4, 0.6]},
                TableLaw([0.5, 1.5], [0.4, 0.6]),
                {"values": [0.5, 1.5], "probs": [0.4, 0.6]},
            ),
            (
                {"kind": "subbotin", "exponent": 5.0, "cutoff": 1.8},
                TruncatedSubbotinLaw(exponent=5.0, cutoff=1.8),
                {"exponent": 5.0, "cutoff": 1.8},
            ),
        ):
            built = law_from_descriptor(block)
            assert type(built) is type(law)
            for name, value in params.items():
                assert np.array_equal(getattr(built, name), value), name
            a = [law.sample(rng1) for _ in range(200)]
            b = [built.sample(rng2) for _ in range(200)]
            assert a == b
        paths = law_from_descriptor({"kind": "langevin", "potential": "quartic", "step_count": 16})
        assert isinstance(paths, LangevinSpec)
        assert (paths.name, paths.step_count) == ("quartic", 16)
        assert law_from_descriptor({"kind": "langevin", "potential": "quartic"}).step_count == 256
        with pytest.raises(ValueError):
            law_from_descriptor({"kind": "gamma", "shape": 2.0})

    @pytest.mark.parametrize("block", [
        {"kind": "point", "value": math.inf},
        {"kind": "point", "value": math.nan},
        {"kind": "uniform", "b": math.inf},
        {"kind": "uniform", "b": math.nan},
        {"kind": "table", "values": [0.1, math.inf], "probs": [0.5, 0.5]},
        {"kind": "table", "values": [0.1, math.nan], "probs": [0.5, 0.5]},
    ], ids=["point-inf", "point-nan", "uniform-inf", "uniform-nan", "table-inf", "table-nan"])
    def test_law_from_descriptor_refuses_non_finite_marks(self, block):
        # the constructors still build these, for the samplers' own check
        with pytest.raises(ValueError, match="needs finite marks"):
            law_from_descriptor(block)


class TestPathMarks:
    def test_paths_start_at_origin(self):
        rng = stream(307, 0)
        spec = LangevinSpec.named("quartic", step_count=64)
        for _ in range(10):
            m = spec.sample(rng)
            assert isinstance(m, PathMark)
            assert np.all(m.samples[0] == 0.0)
            assert m.samples.shape == (65, 2)

    def test_sup_norm_examples(self):
        zero = PathMark(np.zeros((9, 2)))
        assert zero.sup_norm == 0.0
        visiting = PathMark(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]))
        assert visiting.sup_norm >= 5.0
        seg = PathMark(np.stack([np.linspace(0, 1, 17), np.zeros(17)], axis=1))
        assert seg.sup_norm == pytest.approx(1.0, rel=1e-12)

    @given(
        rows=st.integers(1, 40),
        scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e150, 1e160]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sup_norm_is_the_norm_of_numpy(self, rows, scale, seed):
        arr = np.random.default_rng(seed).standard_normal((rows + 1, 2)) * scale
        arr[0] = 0.0
        with np.errstate(over="ignore"):
            want = float(np.linalg.norm(arr, axis=1).max())
            assert PathMark(arr).sup_norm.hex() == want.hex()

    @pytest.mark.parametrize("first", [(0.0, 1e-300), (math.nan, 0.0), (0.0, math.inf)])
    def test_checks_the_start(self, first):
        arr = np.zeros((4, 2))
        arr[0] = first
        with pytest.raises(ValueError, match="origin"):
            PathMark(arr)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_checks_every_sample_finite(self, bad):
        arr = np.zeros((4, 2))
        arr[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PathMark(arr)

    def test_signed_zero_start_is_the_origin(self):
        assert PathMark(np.array([[-0.0, 0.0], [1.0, 0.0]])).sup_norm == 1.0

    def test_free_motion_endpoint_second_moment(self):
        # With no potential the scheme telescopes to a sum of Gaussian
        # increments, so |X_1|^2 has mean exactly 2 regardless of step count.
        spec = LangevinSpec(potential=lambda x: 0.0 * x[..., 0], grad=lambda x: 0.0 * x, step_count=8, name="free")
        rng = stream(308, 0)
        x, diverged = spec.sample_endpoints(rng, 100_000, 8, guard_radius=1e9)
        assert not diverged
        sq = np.sum(x * x, axis=1)
        assert abs(sq.mean() - 2.0) < 0.05

    def test_increment_variance_is_step_size(self):
        spec = LangevinSpec(potential=lambda x: 0.0 * x[..., 0], grad=lambda x: 0.0 * x, step_count=64, name="free")
        rng = stream(309, 0)
        paths = [spec.sample(rng).samples for _ in range(2_000)]
        incs = np.concatenate([np.diff(p, axis=0).ravel() for p in paths])
        h = 1.0 / 64
        se = math.sqrt(2.0) * h / math.sqrt(len(incs))  # var of sample variance of N(0, h)
        assert abs(incs.var() - h) < 3.0 * se

    def test_step_count_floor(self):
        with pytest.raises(ValueError):
            LangevinSpec.named("quartic", step_count=1)

    @pytest.mark.parametrize("step_count", [2.5, 8.0, True, "8"])
    def test_step_count_must_be_an_integer(self, step_count):
        with pytest.raises(ValueError, match="step_count must be an integer"):
            LangevinSpec.named("quartic", step_count)
        with pytest.raises(ValueError, match="step_count must be an integer"):
            law_from_descriptor({"kind": "langevin", "potential": "quartic",
                                 "step_count": step_count})


def array_euler_path(spec, rng):
    """The Euler loop over (2,) arrays that LangevinSpec.sample reproduces."""
    k = spec.step_count
    h = 1.0 / k
    noise = rng.standard_normal((k, 2)) * math.sqrt(h)
    out = np.empty((k + 1, 2))
    out[0] = 0.0
    x = np.zeros(2)
    for i in range(k):
        x = x - 0.5 * h * spec.grad(x) + noise[i]
        out[i + 1] = x
    return out


@dataclass
class LinearGrad:
    """A callable dataclass; its generated __eq__ leaves it unhashable."""

    c: float

    def __call__(self, x):
        return self.c * x


# Custom gradients run in sample's array Euler loop, which calls them on a
# (2,) array; the first indexes the last axis, so it fails on anything but an
# array argument.
CUSTOM_GRADS = {
    "axis-index": lambda x: np.stack([x[..., 0] ** 3, x[..., 1] + x[..., 0]], axis=-1),
    "free": lambda x: 0.0 * x,
    "sextic": lambda x: 6.0 * np.sum(x * x, axis=-1)[..., None] ** 2 * x,
    "sinh": np.sinh,
    "unhashable": LinearGrad(1.5),
    # the built-in quartic gradient in a hand-built spec: by identity it
    # takes the fused loop, not the array Euler loop
    "quartic-by-hand": _quartic_grad,
}


class TestScalarEulerLoop:
    @given(
        potential=st.sampled_from(["quartic", "quadratic", "zero", *sorted(CUSTOM_GRADS)]),
        step_count=st.integers(2, 256),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(potential="quartic", step_count=256, seed=0)
    @example(potential="quartic", step_count=256, seed=2**32 - 1)
    @example(potential="quartic-by-hand", step_count=256, seed=1)
    @example(potential="quartic-by-hand", step_count=3, seed=2)
    def test_paths_match_the_array_loop_bit_for_bit(self, potential, step_count, seed):
        if potential in CUSTOM_GRADS:
            spec = LangevinSpec(grad=CUSTOM_GRADS[potential], step_count=step_count,
                                name="custom")
        else:
            spec = LangevinSpec.named(potential, step_count)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            samples = array_euler_path(spec, rng_b)
            if not np.all(np.isfinite(samples)):
                # coarse steps can blow up; such a path is refused either way
                with pytest.raises(ValueError, match="finite"):
                    spec.sample(rng_a)
                return
            path = spec.sample(rng_a)
        reference = PathMark(samples)
        assert path.samples.tobytes() == reference.samples.tobytes()
        assert path.sup_norm == reference.sup_norm
        # the stream is left where the array loop leaves it
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("spec", [
        LangevinSpec.named("quartic", 64),
        LangevinSpec(grad=_quartic_grad, step_count=64, name="custom"),
    ], ids=["named", "by-hand"])
    def test_quartic_specs_take_the_fused_loop(self, spec, monkeypatch):
        calls, fused = [], marks._quartic_path
        monkeypatch.setattr(marks, "_quartic_path", lambda *a: calls.append(1) or fused(*a))
        path = spec.sample(np.random.default_rng(5))
        assert calls == [1]
        want = array_euler_path(spec, np.random.default_rng(5))
        assert path.samples.tobytes() == want.tobytes()

    def test_quartic_256_step_path_is_pinned(self):
        # digest recorded with the array loop
        path = LangevinSpec.named("quartic", 256).sample(np.random.default_rng(0))
        assert (
            hashlib.sha256(path.samples.tobytes()).hexdigest()
            == "5b8bea42dd0ecdd474549088afa214199e36ef7519c50e0802dc260e97ed9ceb"
        )

    def test_quartic_250_step_path_is_pinned(self):
        # At 256 steps hh = 1/512 is a power of two, so a reassociated Euler
        # product keeps that digest; at 250 it does not. Digest recorded with
        # the array loop.
        path = LangevinSpec.named("quartic", 250).sample(np.random.default_rng(0))
        assert (
            hashlib.sha256(path.samples.tobytes()).hexdigest()
            == "aa30dc016f505cdc33486d38530480ba659a09a938122ee9b8228178d17a1f0f"
        )


class TestInvariantCheck:
    def test_ou_matches_gaussian_target(self):
        spec = LangevinSpec.named("quadratic", step_count=256)
        rng = stream(310, 0)
        report = langevin_invariant_check(spec, burn_in=2048, n_samples=20_000, rng=rng)
        assert not report.diverged
        assert report.ks_stat <= 0.02

    def test_quartic_matches_target(self):
        spec = LangevinSpec.named("quartic", step_count=256)
        rng = stream(311, 0)
        report = langevin_invariant_check(spec, burn_in=2048, n_samples=20_000, rng=rng)
        assert not report.diverged
        assert report.ks_stat <= 0.02

    def test_free_motion_trips_divergence_guard(self):
        spec = LangevinSpec(potential=lambda x: 0.0 * x[..., 0], grad=lambda x: 0.0 * x, step_count=256, name="free")
        rng = stream(312, 0)
        report = langevin_invariant_check(
            spec, burn_in=100_000, n_samples=200, rng=rng, guard_radius=8.0
        )
        assert report.diverged

    @pytest.mark.parametrize("potential", ["quadratic", "quartic", "zero"])
    @pytest.mark.parametrize("n", [2, 5, 20001])
    def test_trapezoid_matches_scipy(self, potential, n):
        # the radial density langevin_invariant_check integrates, on its
        # 20001-point grid and on short ones
        spec = LangevinSpec.named(potential)
        grid = np.linspace(0.0, 7.3, n)
        pdf = grid * np.exp(-spec.potential(np.stack([grid, np.zeros_like(grid)], axis=1)))
        want = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
        assert np.array_equal(_cumulative_trapezoid(pdf, grid), want)


class TestMomentAudit:
    def test_point_mass_at_zero_is_one(self):
        rng = stream(313, 0)
        audit = super_exp_moment_estimate(PointMassLaw(0.0), 2, 1.0, 2_000, rng)
        assert audit.estimate == 1.0
        assert audit.stderr == 0.0

    def test_point_mass_at_two(self):
        rng = stream(314, 0)
        audit = super_exp_moment_estimate(PointMassLaw(2.0), 2, 1.0, 2_000, rng)
        assert audit.estimate == pytest.approx(math.exp(16.0), rel=1e-12)

    def test_uniform_matches_quadrature(self):
        target, _ = integrate.quad(lambda x: math.exp(x**4), 0.0, 1.0)
        rng = stream(315, 0)
        audit = super_exp_moment_estimate(UniformLaw(1.0), 2, 1.0, 50_000, rng)
        assert audit.n_overflow == 0
        assert abs(audit.estimate - target) < 3.0 * audit.stderr

    def test_overflow_reported_not_raised(self):
        rng = stream(316, 0)
        audit = super_exp_moment_estimate(PointMassLaw(40.0), 2, 1.0, 1_000, rng)
        assert audit.n_overflow == 1_000

    def test_monotone_in_delta_on_same_stream(self):
        # Valid pathwise comparison needs norms >= 1 so that a larger
        # exponent increases every summand.
        law = TableLaw([1.0, 1.4, 1.9], [0.5, 0.3, 0.2])
        estimates = []
        for delta in (0.25, 0.5, 0.75):
            audit = super_exp_moment_estimate(law, 2, delta, 5_000, stream(317, 0))
            estimates.append(audit.estimate)
        assert estimates[0] < estimates[1] < estimates[2]

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            super_exp_moment_estimate(UniformLaw(1.0), 2, 1.0, 999, stream(318, 0))
