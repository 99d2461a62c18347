"""Tests for the estimator layer: partition function, tame-statistic means,
relative entropy, the stationarized empirical field, and DLR residuals."""

import logging
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from gibbsgrain import (
    Ball,
    Box,
    Configuration,
    ConfigError,
    EnergyModel,
    HardSphereModel,
    IdealModel,
    MarkedPoint,
    PairPotentialModel,
    PointMassLaw,
    PreconditionError,
    QuermassModel,
    UniformLaw,
    rejection_sample,
    restrict,
    restrict_complement,
    sample_poisson,
    stream,
    tame_statistic,
)
from gibbsgrain.audits import local_stability_audit, stability_audit
from gibbsgrain.estimators import (
    EntropyCurve,
    EntropyPoint,
    PartitionReport,
    dlr_residual,
    empirical_field_draw,
    j_statistic,
    partition_estimate,
    relative_entropy_estimate,
    specific_entropy_curve,
)
from gibbsgrain.functionals import build_library
from gibbsgrain.references import hard_rods_log_z

from conftest import config, mp, random_scalar_config

ROD_WINDOW = Box([[0.0, 2.0]])
ROD_Z = 0.2


def soft_bump(u: float) -> float:
    return 1.2 * u * math.exp(-u)


def rod_partition_oracle():
    """Grand partition of length-1 hard rods on [0, 2) at activity 0.2,
    normalised by the Poisson mass, via independent quadrature."""
    # pair volume where two rod centers coexist: |x - y| >= 1 on [0, 2)^2
    pair_ok = 2.0 * integrate.quad(lambda x: 1.0 - x, 0.0, 1.0)[0]
    grand = 1.0 + ROD_Z * 2.0 + 0.5 * ROD_Z**2 * pair_ok
    return math.exp(-ROD_Z * 2.0) * grand


def poisson_counts_pvalue(counts, mean):
    """Chi-squared goodness of fit of integer counts against Poisson(mean),
    folding bins until every expected cell is at least 5."""
    counts = np.asarray(counts)
    kmax = int(counts.max())
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    exp = np.array(
        [stats.poisson.pmf(k, mean) for k in range(kmax + 1)]
    ) * len(counts)
    exp[-1] += stats.poisson.sf(kmax, mean) * len(counts)
    while len(exp) > 2 and exp[-1] < 5.0:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    return stats.chisquare(obs, exp).pvalue


class TestPartition:
    def test_ideal_is_exactly_one(self):
        rep = partition_estimate(
            IdealModel(), Box.unit(2), 0.7, UniformLaw(1.0), 1500, stream(901, 0)
        )
        assert rep.z_hat == 1.0
        assert rep.stderr == 0.0
        assert rep.log_z_hat == 0.0
        assert rep.log_stderr == 0.0
        assert rep.n_infinite == 0
        assert not rep.degenerate

    def test_nonnegative_model_sandwich(self):
        w = Box.centered_cube(1.0, 2)
        rep = partition_estimate(
            HardSphereModel(), w, 0.8, PointMassLaw(0.3), 4000, stream(902, 0)
        )
        assert rep.lower_bound == pytest.approx(math.exp(-0.8 * 4.0))
        assert rep.z_hat >= rep.lower_bound - 3.0 * rep.stderr
        assert rep.z_hat <= 1.0 + 1e-12
        assert rep.n_infinite > 0

    def test_hard_rod_oracle(self):
        rep = partition_estimate(
            HardSphereModel(),
            ROD_WINDOW,
            ROD_Z,
            PointMassLaw(0.5),
            20_000,
            stream(903, 0),
        )
        oracle = rod_partition_oracle()
        assert abs(rep.z_hat - oracle) <= 3.0 * rep.stderr
        assert abs(rep.log_z_hat - math.log(oracle)) <= 3.0 * rep.log_stderr

    def test_degenerate_batch_warns_not_raises(self, caplog):
        class AlwaysInf(EnergyModel):
            def energy(self, c):
                return math.inf

        with caplog.at_level(logging.WARNING, logger="gibbsgrain.estimators"):
            rep = partition_estimate(
                AlwaysInf(), Box.centered_cube(3.0, 2), 0.5, PointMassLaw(0.2),
                1000, stream(904, 0),
            )
        assert rep.degenerate
        assert rep.z_hat == 0.0
        assert math.isnan(rep.log_z_hat)
        assert rep.n_infinite == 1000
        assert "infinite energy" in caplog.text

    def test_sample_floor(self):
        with pytest.raises(PreconditionError):
            partition_estimate(
                IdealModel(), Box.unit(2), 0.5, UniformLaw(1.0), 999, stream(905, 0)
            )

    def test_weight_diagnostics(self):
        # Equal weights: every draw counts. One planted draw with energy -40
        # carries all but about 1e-14 of the weight: the estimate rests on it.
        flat = partition_estimate(
            IdealModel(), Box.unit(2), 0.7, UniformLaw(1.0), 1500, stream(906, 0)
        )
        assert flat.ess == 1500.0
        assert flat.max_weight_share == 1.0 / 1500

        class OneDominantDraw(EnergyModel):
            calls = 0

            def energy(self, c):
                self.calls += 1
                return -40.0 if self.calls == 700 else 0.0

        plain = partition_estimate(
            OneDominantDraw(), Box.unit(2), 0.7, UniformLaw(1.0), 1000, stream(906, 1)
        )
        assert plain.ess == pytest.approx(1.0, abs=1e-9)
        assert plain.max_weight_share == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def planted(h_top, at=700):
        """A model with energy ``h_top`` on draw ``at`` and 0 on every other."""

        class Planted(EnergyModel):
            calls = 0

            def energy(self, c):
                self.calls += 1
                return h_top if self.calls == at else 0.0

        return Planted()

    @staticmethod
    def closed_form(log_w, n):
        """log Z, the jackknife estimate and its stderr for one draw of
        log-weight ``log_w`` and n - 1 of weight 1, from the two distinct
        leave-one-out means: without the draw (0) and with it."""
        log_plug = log_w + math.log1p((n - 1) * math.exp(-log_w)) - math.log(n)
        with_top = log_w + math.log1p((n - 2) * math.exp(-log_w)) - math.log(n - 1)
        mean = (n - 1) * with_top / n
        jack = n * log_plug - (n - 1) * mean
        se = math.sqrt((n - 1) / n * ((n - 1) * (with_top - mean) ** 2 + mean**2))
        return log_plug, jack, se

    @pytest.mark.parametrize("h_top", [-600.0, -800.0])
    def test_a_dominant_draw_keeps_a_finite_log_estimate(self, h_top):
        # The old weights exp(-clamp(H, -700, 700)) gave +inf and NaN at
        # H = -600 (e^600 + 999 rounds to e^600, so the dominant draw's
        # leave-one-out sum was 0) and read H = -800 as -700.
        n = 1000
        rep = partition_estimate(
            self.planted(h_top), Box.unit(2), 0.7, UniformLaw(1.0), n, stream(908, 0)
        )
        _log_plug, jack, se = self.closed_form(-h_top, n)
        assert math.isfinite(rep.log_z_hat) and math.isfinite(rep.log_stderr)
        assert rep.log_z_hat == pytest.approx(jack, rel=0, abs=1e-9)
        assert rep.log_stderr == pytest.approx(se, rel=0, abs=1e-9)
        assert rep.ess == pytest.approx(1.0, abs=1e-9)
        assert not rep.degenerate and rep.n_infinite == 0

    def test_the_log_weight_is_not_clamped(self):
        n = 1000
        rep = partition_estimate(
            self.planted(-800.0), Box.unit(2), 0.7, UniformLaw(1.0), n, stream(908, 1)
        )
        # the draw's log-weight is 800; the clamp read it as 700, which puts
        # the jackknife estimate about 200 lower
        assert rep.log_z_hat == pytest.approx(self.closed_form(800.0, n)[1], rel=0, abs=1e-9)
        assert rep.log_z_hat - self.closed_form(700.0, n)[1] > 199.0
        # Z itself is about e^793, beyond a double
        assert rep.z_hat == math.inf and rep.stderr == math.inf

    @pytest.mark.parametrize("h_one", [0.0, 5.0])
    def test_one_finite_draw_gives_the_plug_in_estimate(self, h_one):
        # Every leave-one-out sum but the finite draw's own is 0 here, and
        # its own is log 0, which made the jackknife +inf with a NaN stderr.
        class OneFinite(EnergyModel):
            calls = 0

            def energy(self, c):
                self.calls += 1
                return h_one if self.calls == 1 else math.inf

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = partition_estimate(
                OneFinite(), Box.unit(2), 0.7, UniformLaw(1.0), 1000, stream(909, 0)
            )
        assert rep.log_z_hat == pytest.approx(-h_one - math.log(1000), rel=0, abs=1e-12)
        assert rep.log_stderr == math.inf
        assert not rep.degenerate and rep.n_infinite == 999
        assert rep.ess == 1.0 and rep.max_weight_share == 1.0

    def test_weight_diagnostics_of_a_degenerate_batch(self):
        class AlwaysInf(EnergyModel):
            def energy(self, c):
                return math.inf

        rep = partition_estimate(
            AlwaysInf(), Box.unit(2), 0.5, PointMassLaw(0.2), 1000, stream(907, 0)
        )
        assert rep.degenerate and rep.ess == 0.0 and rep.max_weight_share == 0.0


class TestHardRodsExact:
    """``partition_estimate`` against Tonks' closed form for hard rods,
    which exercises the block draws and the block search in d = 1."""

    def test_closed_form(self):
        # rods of length 1 on [0, 2): at most two fit, with the pair volume
        # of the quadrature oracle above
        assert hard_rods_log_z(ROD_Z, 1.0, 2.0) == pytest.approx(
            math.log(rod_partition_oracle()), rel=0, abs=1e-14)
        assert hard_rods_log_z(0.7, 0.0, 3.0) == 0.0
        # rods of length 0.5 on a window of length 2: up to five fit
        z = 0.5
        terms = [z**k * (2.0 - (k - 1) * 0.5) ** k / math.factorial(k) for k in range(6)]
        assert hard_rods_log_z(z, 0.5, 2.0) == pytest.approx(
            -z * 2.0 + math.log(sum(terms)), rel=1e-14)

    @pytest.mark.parametrize("z", [0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_partition_estimate_pulls(self, z, n):
        # sigma = 0.5 on [-n, n); seed 701 of the sweep 701-710, whose pulls
        # stayed within 2.9 sigma
        rep = partition_estimate(HardSphereModel(), Box.centered_cube(n, 1), z,
                                 PointMassLaw(0.25), 5000, stream(701, 10 * int(z == 1.0) + n))
        pull = (rep.log_z_hat - hard_rods_log_z(z, 0.5, 2.0 * n)) / rep.log_stderr
        assert abs(pull) <= 4.0
        assert rep.ess > 0.09 * rep.n_samples


class TestJStatistic:
    def test_poisson_campbell_mean(self):
        w = Box.centered_cube(1.0, 2)
        z, b = 1.5, 0.8
        rng = stream(906, 0)
        samples = [sample_poisson(w, z, UniformLaw(b), rng) for _ in range(2000)]
        rep = j_statistic(samples, delta=1.0)
        # E sum(1 + |m|^3) = z |W| (1 + b^3 / 4) for uniform marks on [0, b]
        want = z * 4.0 * (1.0 + b**3 / 4.0)
        assert abs(rep.j_hat - want) <= 3.0 * rep.stderr
        assert rep.n_samples == 2000

    def test_hard_spheres_thin_the_statistic(self):
        w = Box.centered_cube(1.0, 2)
        z, r = 1.2, 0.35
        res = rejection_sample(
            HardSphereModel(), w, z, PointMassLaw(r), 800, stream(907, 0)
        )
        rep = j_statistic(list(res.samples), delta=1.0)
        poisson_mean = z * 4.0 * (1.0 + r**3)
        assert rep.j_hat <= poisson_mean + 3.0 * rep.stderr

    def test_empty_batch_is_zero(self):
        samples = [Configuration.empty(2) for _ in range(150)]
        rep = j_statistic(samples, delta=0.5)
        assert rep.j_hat == 0.0
        assert rep.stderr == 0.0

    def test_per_volume_mean_is_size_free(self):
        z, b = 0.9, 0.6
        rng = stream(908, 0)
        per_vol = []
        ses = []
        for n in (1, 2):
            w = Box.centered_cube(float(n), 2)
            samples = [sample_poisson(w, z, UniformLaw(b), rng) for _ in range(1500)]
            rep = j_statistic(samples, delta=1.0)
            per_vol.append(rep.j_hat / w.volume())
            ses.append(rep.stderr / w.volume())
        assert abs(per_vol[0] - per_vol[1]) <= 3.0 * math.hypot(*ses)

    def test_sample_floor(self):
        with pytest.raises(PreconditionError):
            j_statistic([Configuration.empty(2)] * 99, delta=1.0)


class TestRelativeEntropy:
    def test_ideal_entropy_is_exactly_zero(self):
        w = Box.centered_cube(1.0, 2)
        rng = stream(909, 0)
        samples = [sample_poisson(w, 0.8, UniformLaw(1.0), rng) for _ in range(300)]
        part = partition_estimate(
            IdealModel(), w, 0.8, UniformLaw(1.0), 1200, stream(909, 1)
        )
        rep = relative_entropy_estimate([IdealModel().energy(c) for c in samples], w, part)
        assert rep.i_hat == 0.0
        assert rep.stderr == 0.0
        assert rep.per_volume == 0.0
        assert rep.nonneg_ok

    def test_hard_rod_entropy_oracle(self):
        model = HardSphereModel()
        res = rejection_sample(
            model, ROD_WINDOW, ROD_Z, PointMassLaw(0.5), 400, stream(910, 0)
        )
        part = partition_estimate(
            model, ROD_WINDOW, ROD_Z, PointMassLaw(0.5), 20_000, stream(910, 1)
        )
        rep = relative_entropy_estimate([model.energy(c) for c in res.samples], ROD_WINDOW, part)
        truth = -math.log(rod_partition_oracle())  # E[H] = 0 under the target
        assert rep.mean_energy == 0.0
        assert abs(rep.i_hat - truth) <= 3.0 * rep.stderr
        assert rep.nonneg_ok

    def test_negative_estimate_flagged(self, caplog):
        # Feed energies that cannot come from the claimed reference pair, so
        # the estimate lands negative far beyond its error bar.
        model = PairPotentialModel(soft_bump)
        w = Box.unit(2)
        gamma = config([mp((0.0, 0.0), 0.6), mp((0.99, 0.0), 0.6)])
        part = partition_estimate(
            model, w, 0.5, UniformLaw(0.5), 2000, stream(911, 0)
        )
        with caplog.at_level(logging.WARNING, logger="gibbsgrain.estimators"):
            rep = relative_entropy_estimate([model.energy(gamma)] * 200, w, part)
        assert not rep.nonneg_ok
        assert rep.i_hat < 0
        assert "negative beyond 3 sigma" in caplog.text

    def test_infinite_sample_energy_rejected(self):
        w = Box.centered_cube(1.0, 2)
        bad = config([mp((0.0, 0.0), 0.5), mp((0.2, 0.0), 0.5)])
        part = partition_estimate(
            HardSphereModel(), w, 0.5, PointMassLaw(0.5), 1000, stream(912, 0)
        )
        with pytest.raises(PreconditionError):
            relative_entropy_estimate([HardSphereModel().energy(bad)] * 10, w, part)

    def test_degenerate_partition_rejected(self):
        part = PartitionReport(
            0.0, 0.0, math.nan, math.nan, 1000, 1000, 0.01, True
        )
        with pytest.raises(PreconditionError):
            relative_entropy_estimate(
                [IdealModel().energy(Configuration.empty(2))] * 10, Box.unit(2), part
            )

    @pytest.mark.parametrize("energies", [[], [0.0]])
    def test_fewer_than_two_energies_have_no_stderr(self, energies, caplog):
        part = PartitionReport(1.0, 0.0, 0.0, 0.0, 1000, 0, 0.01, False)
        with pytest.raises(PreconditionError, match="at least 2 energies"):
            relative_entropy_estimate(energies, Box.unit(2), part)
        assert caplog.records == []


class TestEntropyCurve:
    def test_trend_fails_on_an_upward_step_beyond_3_sigma(self):
        # every point's per-volume stderr is 0.1, so the combined width of
        # two points is 3 * hypot(0.1, 0.1) = 0.424
        def curve(*per_volume):
            pts = tuple(
                EntropyPoint(
                    i_hat=0.0, log_z=0.0, mean_energy=0.0, per_volume=v, stderr=0.4,
                    per_volume_stderr=0.1, n_samples=100, volume=4.0 * n * n, n=n,
                    a1_hat=1.0, ceiling=10.0, partition_ess=1000.0, max_weight_share=0.001,
                )
                for n, v in enumerate(per_volume, 1)
            )
            return EntropyCurve(pts, c_hat=0.0, z=0.5, exponent=2.5)

        assert curve(0.5, 0.9).trend_ok
        assert not curve(0.5, 1.0).trend_ok
        # steps are checked between every pair, not only neighbours
        assert not curve(0.5, 0.8, 1.0).trend_ok
        assert curve(0.5, 0.2, 0.6).trend_ok

    def test_ideal_curve_is_flat_zero(self):
        curve = specific_entropy_curve(
            IdealModel(),
            d=2,
            n_list=(1, 2),
            z=0.8,
            mark_law=UniformLaw(1.0),
            delta=0.5,
            seed=913,
            n_energy_samples=300,
            n_partition_samples=1500,
        )
        assert len(curve.points) == 2
        assert tuple(p.n for p in curve.points) == (1, 2)
        assert all(p.per_volume == 0.0 for p in curve.points)
        assert all(p.per_volume_stderr == 0.0 for p in curve.points)
        assert curve.c_hat == 0.0
        assert curve.under_ceiling
        assert curve.trend_ok
        assert curve.exponent == pytest.approx(2.5)

    def test_quermass_curve_under_ceiling(self):
        model = QuermassModel(0.4, -0.2, 0.3)
        audit = stability_audit(
            model,
            lambda r: random_scalar_config(r, n_max=8, mark_hi=0.6),
            200,
            stream(914, 0),
            exponent=2.0,
        )
        curve = specific_entropy_curve(
            model,
            d=2,
            n_list=(1, 2),
            z=0.4,
            mark_law=UniformLaw(0.6),
            delta=0.5,
            seed=914,
            n_energy_samples=250,
            n_partition_samples=1500,
            chain_steps=16_000,
            stat_exponent=2.0,
            audit_c=max(audit.c_hat, 0.0),
        )
        assert curve.exponent == 2.0
        assert all(p.a1_hat > 0 for p in curve.points)
        assert all(math.isfinite(p.log_z) for p in curve.points)
        assert curve.under_ceiling
        assert curve.trend_ok

    @pytest.mark.parametrize("chain_steps", [1, 2])
    def test_chain_sampled_curve_refuses_too_few_steps(self, chain_steps):
        # two steps keep a single state, too few energies for a stderr
        with pytest.raises(PreconditionError, match="chain_steps >= 3"):
            specific_entropy_curve(QuermassModel(0.4, -0.2, 0.3), 2, (1,), 0.4, UniformLaw(0.6),
                                   0.5, seed=933, n_partition_samples=1000,
                                   chain_steps=chain_steps)

    POINT_FIELDS = ("volume", "mean_energy", "log_z", "i_hat", "stderr", "per_volume",
                    "per_volume_stderr", "a1_hat", "ceiling")

    def curve_hex(self, curve):
        return [float.hex(curve.c_hat)] + [
            [float.hex(float(getattr(p, f))) for f in self.POINT_FIELDS]
            for p in curve.points
        ]

    def test_rejection_path_curve_is_pinned(self):
        """A small nonnegpair curve (exact rejection samples), every float
        pinned to the bit."""
        curve = specific_entropy_curve(
            PairPotentialModel(soft_bump), 2, (1, 2), 0.5, UniformLaw(0.6), 0.5,
            seed=931, n_energy_samples=40, n_partition_samples=1000,
        )
        assert [p.n for p in curve.points] == [1, 2]
        assert self.curve_hex(curve) == [
            "-0x0.0p+0",
            ["0x1.0000000000000p+2", "0x1.e48a5d2508132p-5", "-0x1.7cda17e72d000p-4",
             "0x1.1529d2a951ecep-5", "0x1.902129c8f21fep-6", "0x1.1529d2a951ecep-7",
             "0x1.902129c8f21fep-8", "0x1.39d18ad7228aap-1", "0x1.0000000000000p-1"],
            ["0x1.0000000000000p+4", "0x1.bc5451596ab33p-2", "-0x1.0c42f98968400p-1",
             "0x1.70c686e597334p-4", "0x1.4f9e8ae2bc424p-4", "0x1.70c686e597334p-8",
             "0x1.4f9e8ae2bc424p-8", "0x1.d06a4b49ab395p-2", "0x1.0000000000000p-1"],
        ]

    def test_chain_path_curve_is_pinned(self):
        """A small quermass curve (chain samples), every float pinned to the
        bit."""
        curve = specific_entropy_curve(
            QuermassModel(0.4, -0.2, 0.3), 2, (1,), 0.4, UniformLaw(0.6), 0.5,
            seed=932, n_energy_samples=40, n_partition_samples=1000,
            chain_steps=2000, stat_exponent=2.0,
        )
        assert [p.n for p in curve.points] == [1]
        # Weights shifted by the largest -H (here > 0) round log Z differently
        # from the unshifted ones (-0x1.3c5ec422a7800p-4), 3e-14 apart; the
        # rejection-path curve above has empty draws, so its shift is 0.
        assert self.curve_hex(curve) == [
            "0x1.a32d8d440e66fp-6",
            ["0x1.0000000000000p+2", "0x1.27e21f5880083p-4", "-0x1.3c5ec422a7000p-4",
             "0x1.47ca4ca26f7d0p-8", "0x1.6411b62400f37p-6", "0x1.47ca4ca26f7d0p-10",
             "0x1.6411b62400f37p-8", "0x1.f68b0df4ca94ap-2", "0x1.a67515a7fec7ap-2"],
        ]

    def test_low_partition_ess_warns(self, caplog):
        # The rejection path asks the model for 40 energies (all 0, all
        # accepted), then partition_estimate for 1000; draw 500 of those
        # carries nearly all the weight.
        class Planted(IdealModel):
            calls = 0

            def energies(self, draws):
                out = []
                for h in super().energies(draws):
                    self.calls += 1
                    out.append(-40.0 if self.calls == 40 + 500 else h)
                return out

        def run(model):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="gibbsgrain.estimators"):
                curve = specific_entropy_curve(
                    model, 2, (1,), 0.5, UniformLaw(0.6), 0.5, seed=933,
                    n_energy_samples=40, n_partition_samples=1000,
                )
            return curve.points[0], caplog.text

        point, text = run(Planted())
        assert point.partition_ess == pytest.approx(1.0, abs=1e-9)
        assert "rests on few draws: ESS 1 of 1000" in text
        point, text = run(IdealModel())
        assert point.partition_ess == 1000.0
        assert "rests on few draws" not in text

    def test_n_list_must_increase(self):
        for bad in ((2, 1), (1, 1)):
            with pytest.raises(PreconditionError):
                specific_entropy_curve(
                    IdealModel(), 2, bad, 0.5, UniformLaw(1.0), 0.5, seed=915
                )


class TestEmpiricalField:
    def test_ideal_blocks_give_poisson_field(self):
        z = 0.9
        block = Box.centered_cube(1.0, 2)
        obs = Box.centered_cube(1.0, 2)
        rng = stream(916, 0)
        sampler = lambda r: sample_poisson(block, z, PointMassLaw(0.2), r)
        counts = [
            len(empirical_field_draw(sampler, 1, rng, obs).config)
            for _ in range(600)
        ]
        assert poisson_counts_pvalue(counts, z * 4.0) > 0.01

    def test_lattice_shift_invariance(self):
        model = HardSphereModel()
        block = Box.centered_cube(1.0, 2)
        obs = Box([[-1.5, 2.5], [-1.5, 1.5]])
        cell_a = Box([[-0.5, 0.5], [-0.5, 0.5]])
        cell_b = Box([[0.5, 1.5], [-0.5, 0.5]])  # cell_a shifted by one lattice step
        rng = stream(917, 0)

        def sampler(r):
            return rejection_sample(model, block, 0.6, PointMassLaw(0.3), 1, r).samples[0]

        diffs = []
        for _ in range(300):
            draw = empirical_field_draw(sampler, 1, rng, obs)
            assert len(draw.shift) == 2
            assert all(-1 <= k < 1 for k in draw.shift)
            diffs.append(
                len(restrict(draw.config, cell_a)) - len(restrict(draw.config, cell_b))
            )
        diffs = np.array(diffs, dtype=float)
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 3.0 * se

    def test_field_tame_mean_matches_block_mean(self):
        # The shifted tiling partitions a tile-sized observation window into
        # pieces whose expectations add up to one whole block, exactly.
        model = HardSphereModel()
        block = Box.centered_cube(1.0, 2)
        obs = Box.centered_cube(1.0, 2)
        law = UniformLaw(0.4)
        rng = stream(918, 0)

        def sampler(r):
            return rejection_sample(model, block, 0.8, law, 1, r).samples[0]

        field_stats = np.array(
            [
                tame_statistic(empirical_field_draw(sampler, 1, rng, obs).config, 1.0)
                for _ in range(400)
            ]
        )
        direct_stats = np.array(
            [tame_statistic(sampler(rng), 1.0) for _ in range(400)]
        )
        gap = abs(field_stats.mean() - direct_stats.mean())
        se = math.hypot(
            field_stats.std(ddof=1) / 20.0, direct_stats.std(ddof=1) / 20.0
        )
        assert gap <= 3.0 * se

    def test_block_budget_enforced(self):
        sampler = lambda r: Configuration.empty(2)
        with pytest.raises(ConfigError):
            empirical_field_draw(
                sampler, 1, stream(919, 0), Box.centered_cube(20.0, 2), max_blocks=100
            )
        with pytest.raises(PreconditionError):
            empirical_field_draw(sampler, 0, stream(919, 1), Box.unit(2))


class TestDlrResidual:
    lam = Box.centered_cube(2.0, 2)
    lib = build_library(2, 0.5)

    def test_ideal_passes_all_functionals(self):
        z, law = 0.7, UniformLaw(0.8)
        rng = stream(920, 0)
        outer = [sample_poisson(self.lam, z, law, rng) for _ in range(60)]
        reports = dlr_residual(
            IdealModel(), self.lam, z, law, outer, self.lib, 150, stream(920, 1)
        )
        assert len(reports) == 10
        for rep in reports:
            assert rep.passed, rep
            assert rep.residual == pytest.approx(
                abs(rep.outer_mean - rep.inner_mean), abs=1e-12
            )

    def test_exact_gibbs_law_passes(self):
        model = HardSphereModel()
        z, law = 0.7, PointMassLaw(0.35)
        outer = list(
            rejection_sample(model, self.lam, z, law, 50, stream(921, 0)).samples
        )
        reports = dlr_residual(
            model, self.lam, z, law, outer, self.lib, 120, stream(921, 1)
        )
        for rep in reports:
            assert rep.passed, (rep.functional, rep.residual, rep.stderr)
            assert rep.n_outer == 50
            assert rep.n_inner == 120

    def test_wrong_law_fails_somewhere(self):
        # Poisson draws at triple the activity are not Gibbs for the hard
        # model, and at least the count functionals notice on 60 samples.
        model = HardSphereModel()
        law = PointMassLaw(0.3)
        rng = stream(922, 0)
        outer = [sample_poisson(self.lam, 2.1, law, rng) for _ in range(60)]
        reports = dlr_residual(
            model, self.lam, 0.7, law, outer, self.lib, 120, stream(922, 1)
        )
        assert any(not rep.passed for rep in reports)

    def test_ball_window_inradius(self):
        z, law = 0.5, UniformLaw(0.5)
        rng = stream(923, 0)
        lam = Ball((0.0, 0.0), 2.0)
        outer = [sample_poisson(lam, z, law, rng) for _ in range(5)]
        reports = dlr_residual(
            IdealModel(), lam, z, law, outer, self.lib[:2], 100, stream(923, 1)
        )
        assert len(reports) == 2

    def test_support_larger_than_window_rejected(self):
        small = Box.centered_cube(1.0, 2)  # inradius 1 < sqrt(2)
        big_support = [f for f in self.lib if f.support_radius > 1.0]
        assert big_support
        with pytest.raises(PreconditionError):
            dlr_residual(
                IdealModel(),
                small,
                0.5,
                UniformLaw(0.5),
                [Configuration.empty(2)] * 5,
                big_support[:1],
                100,
                stream(924, 0),
            )
        offset = Box([[1.0, 3.0], [1.0, 3.0]])  # origin outside entirely
        with pytest.raises(PreconditionError):
            dlr_residual(
                IdealModel(),
                offset,
                0.5,
                UniformLaw(0.5),
                [Configuration.empty(2)] * 5,
                self.lib[:1],
                100,
                stream(924, 1),
            )

    def test_budget_floors(self):
        with pytest.raises(PreconditionError):
            dlr_residual(
                IdealModel(), self.lam, 0.5, UniformLaw(0.5),
                [Configuration.empty(2)] * 5, self.lib[:1], 99, stream(925, 0),
            )
        with pytest.raises(PreconditionError):
            dlr_residual(
                IdealModel(), self.lam, 0.5, UniformLaw(0.5),
                [Configuration.empty(2)], self.lib[:1], 100, stream(925, 1),
            )


class TestDrawsBuildNoAtoms:
    """Poisson draws that the estimators price and throw away are read from
    their arrays: no atom of a block draw is built."""

    MODEL = PairPotentialModel(lambda u: 1.2 * u * math.exp(-u))
    WINDOW = Box.centered_cube(4.0, 2)
    LAW = UniformLaw(0.6)

    @pytest.fixture
    def built(self, monkeypatch):
        """Sizes of the configurations whose atoms get built, lazily or by
        ``MarkedPoint.make``, while the test runs."""
        sizes = []
        points = Configuration.points

        def counting(config):
            if config._points is None:
                sizes.append(len(config))
            return points.fget(config)

        make = MarkedPoint.make
        monkeypatch.setattr(Configuration, "points", property(counting))
        monkeypatch.setattr(MarkedPoint, "make",
                            staticmethod(lambda loc, mark: sizes.append(1) or make(loc, mark)))
        return sizes

    def test_the_count_sees_atoms_read(self, built):
        draw = sample_poisson(self.WINDOW, 0.5, self.LAW, stream(941, 0))
        assert built == []
        draw.points
        assert built == [len(draw)] and len(draw) > 13

    def test_partition_estimate(self, built):
        report = partition_estimate(self.MODEL, self.WINDOW, 0.5, self.LAW, 1000,
                                    stream(941, 1))
        assert 0.0 < report.z_hat and built == []

    def test_stability_audit(self, built):
        report = stability_audit(
            self.MODEL, lambda r: sample_poisson(self.WINDOW, 0.5, self.LAW, r), 300,
            stream(941, 2), 2.5)
        assert report.n_used > 0 and built == []

    @pytest.mark.parametrize("with_env", [False, True])
    def test_rejection_sample(self, built, with_env):
        env = None
        if with_env:
            env = Configuration([MarkedPoint((4.2, y), 0.5, 0.5) for y in (-3.0, 0.0, 3.0)], 2)
            built.clear()
        res = rejection_sample(self.MODEL, self.WINDOW, 0.5, self.LAW, 20, stream(941, 3),
                               env=env)
        assert res.n_proposed > res.n_accepted == 20
        assert built == []

    def test_local_stability_audit(self, built):
        # the audit cuts its interiors with restrict and its environments
        # with restrict_complement; both cuts keep the block draws unbuilt
        lam = Box.centered_cube(2.0, 2)
        report = local_stability_audit(
            self.MODEL, lam, 5, 200, stream(941, 4),
            lambda r: sample_poisson(self.WINDOW, 0.5, self.LAW, r),
            lambda r: sample_poisson(self.WINDOW, 0.5, self.LAW, r), 1.0, 3.0)
        assert report.n_used > 100 and built == []

    def test_restrict_keeps_the_rows_in_order(self, built):
        draw = sample_poisson(self.WINDOW, 0.5, self.LAW, stream(941, 5))
        lam = Box.centered_cube(2.0, 2)
        inside, outside = restrict(draw, lam), restrict_complement(draw, lam)
        assert built == [] and 0 < len(inside) < len(draw)
        assert len(inside) + len(outside) == len(draw)
        for part, want in ((inside, True), (outside, False)):
            rows = [i for i, p in enumerate(draw.points) if (p.location in lam) == want]
            assert part.points == tuple(draw.points[i] for i in rows)
            assert part.locations().tobytes() == draw.locations()[rows].tobytes()
            assert part.mark_norms().tobytes() == draw.mark_norms()[rows].tobytes()
