"""Tests for the stability audits and the bounded local functional library."""

import math

import numpy as np
import pytest

from gibbsgrain import (
    Box,
    Configuration,
    DiffusionModel,
    HardSphereModel,
    IdealModel,
    MarkedPoint,
    NumericalFailure,
    PairPotentialModel,
    PathMark,
    QuermassModel,
    restrict,
    stream,
)
from gibbsgrain.audits import local_stability_audit, stability_audit
from gibbsgrain.functionals import LIBRARY_VERSION, build_library
from gibbsgrain.points import mark_statistic

from conftest import config, mp, random_scalar_config


def soft_bump(u: float) -> float:
    return 1.2 * u * math.exp(-u)


def random_path(rng, k=16, scale=0.6):
    steps = rng.normal(scale=scale / math.sqrt(k), size=(k, 2))
    return PathMark(np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]))


def random_path_config(rng, n_max=5, extent=3.0):
    n = int(rng.integers(0, n_max + 1))
    pts = [
        MarkedPoint.make(tuple(rng.uniform(-extent, extent, size=2)), random_path(rng))
        for _ in range(n)
    ]
    return config(pts, dim=2)


class TestMarkStatistic:
    def test_values(self):
        assert mark_statistic(Configuration.empty(2), 3.0) == 0.0
        assert mark_statistic(config([mp((0.0, 0.0), 2.0)]), 3.0) == 9.0
        got = mark_statistic(
            config([mp((0.0, 0.0), 2.0), mp((1.0, 0.0), 0.5)]), 2.0
        )
        assert got == pytest.approx(2 + 4.0 + 0.25)


class TestStabilityAudit:
    def test_nonnegative_models_have_nonpositive_c(self):
        rng = stream(801, 0)
        sampler = lambda r: random_scalar_config(r, n_max=8, mark_hi=0.8)
        for model in (IdealModel(), HardSphereModel(), PairPotentialModel(soft_bump)):
            rep = stability_audit(model, sampler, 120, stream(801, 1), exponent=2.5)
            assert rep.bounded
            assert rep.c_hat <= 0.0
            assert rep.n_used + rep.n_infinite <= rep.n_trials
        rep = stability_audit(IdealModel(), sampler, 120, rng, exponent=2.5)
        assert rep.c_hat == 0.0
        assert rep.n_infinite == 0

    def test_quermass_two_sided_envelope(self):
        # |H| <= 0.4*pi*sum r^2 + 0.2*sum 2*pi*r + 0.3*|chi| with
        # 2r <= 1 + r^2 and |chi| <= 6n for a union of n discs, so the audited
        # ratio cannot exceed 0.6*pi + 1.8 whatever the sampler produces.
        model = QuermassModel(0.4, -0.2, 0.3)
        sampler = lambda r: random_scalar_config(r, n_max=10, mark_hi=1.4)
        rep = stability_audit(
            model, sampler, 150, stream(802, 0), exponent=2.0, two_sided=True
        )
        assert rep.bounded
        assert rep.two_sided
        assert 0.0 <= rep.c_hat <= 0.6 * math.pi + 1.8 + 1e-9
        assert rep.n_infinite == 0

    def test_escalating_trials_keep_audit_bounded(self):
        # Same stream key, so the longer audit replays the shorter one first
        # and its worst ratio can only move up, never blow up.
        model = DiffusionModel()
        small = stability_audit(
            model, random_path_config, 60, stream(803, 0), exponent=2.5
        )
        large = stability_audit(
            model, random_path_config, 240, stream(803, 0), exponent=2.5
        )
        assert small.bounded and large.bounded
        assert large.c_hat >= small.c_hat
        assert large.c_hat > 0.0  # confinement term makes H negative somewhere

    def test_degenerate_samplers(self):
        rng = stream(804, 0)
        rep = stability_audit(
            IdealModel(), lambda r: Configuration.empty(2), 50, rng, exponent=2.0
        )
        assert rep.n_used == 0 and not rep.bounded and math.isnan(rep.c_hat)
        overlap = config([mp((0.0, 0.0), 1.0), mp((0.5, 0.0), 1.0)])
        rep = stability_audit(
            HardSphereModel(), lambda r: overlap, 50, rng, exponent=2.0
        )
        assert rep.n_infinite == 50 and rep.n_used == 0 and not rep.bounded


class TestLocalStabilityAudit:
    lam = Box.centered_cube(2.0, 2)

    def test_empty_environment_matches_global_audit(self):
        model = PairPotentialModel(soft_bump)
        interior = lambda r: random_scalar_config(r, n_max=8, extent=3.0, mark_hi=0.9)
        local = local_stability_audit(
            model,
            self.lam,
            t=9,
            n_trials=80,
            rng=stream(805, 0),
            interior_sampler=interior,
            env_sampler=lambda r: Configuration.empty(2),
            delta=1.0,
            exponent=3.0,
        )
        glob = stability_audit(
            model,
            lambda r: restrict(interior(r), self.lam),
            80,
            stream(805, 0),
            exponent=3.0,
        )
        assert local.n_used == glob.n_used
        assert local.c_hat == glob.c_hat
        assert local.n_env_rejected == 0

    def test_hard_spheres_stay_nonpositive_with_environment(self):
        def env(r):
            n = int(r.integers(0, 3))
            pts = [
                mp(tuple(r.uniform(3.0, 5.0, size=2)), float(r.uniform(0.1, 0.5)))
                for _ in range(n)
            ]
            return config(pts, dim=2)

        rep = local_stability_audit(
            HardSphereModel(),
            self.lam,
            t=9,
            n_trials=80,
            rng=stream(806, 0),
            interior_sampler=lambda r: random_scalar_config(r, n_max=6, mark_hi=0.5),
            env_sampler=env,
            delta=1.0,
            exponent=3.0,
        )
        assert rep.bounded
        assert rep.c_hat <= 0.0
        assert rep.n_env_rejected == 0
        assert rep.t == 9

    def test_rejected_environments_are_counted(self):
        bad = config([mp((0.0, 0.0), 50.0)])  # tame stat blows past t=9 at l=1
        good = Configuration.empty(2)
        calls = {"n": 0}

        def env(r):
            calls["n"] += 1
            return bad if calls["n"] % 2 == 1 else good

        rep = local_stability_audit(
            HardSphereModel(),
            self.lam,
            t=9,
            n_trials=7,
            rng=stream(807, 0),
            interior_sampler=lambda r: config([mp((0.0, 0.0), 0.2)]),
            env_sampler=env,
            delta=1.0,
            exponent=3.0,
        )
        assert rep.n_env_rejected == 7
        assert rep.n_used == 7

    def test_env_exhaustion_raises(self):
        bad = config([mp((0.0, 0.0), 50.0)])
        with pytest.raises(NumericalFailure):
            local_stability_audit(
                HardSphereModel(),
                self.lam,
                t=9,
                n_trials=3,
                rng=stream(808, 0),
                interior_sampler=lambda r: config([mp((0.0, 0.0), 0.2)]),
                env_sampler=lambda r: bad,
                delta=1.0,
                exponent=3.0,
                max_env_tries=5,
            )


EXPECTED_NAMES = (
    "count_small_box_cap4",
    "count_big_box_cap8",
    "count_unit_ball_cap4",
    "void_ball_075",
    "void_small_box",
    "mark_sum_cap3",
    "close_pairs_cap6",
    "at_least_two_big_box",
    "tame_sum_cap5",
    "lonely_atom_half_ball",
)


class TestFunctionalLibrary:
    def test_frozen_roster(self):
        assert LIBRARY_VERSION == "1"
        lib = build_library(2, 0.5)
        assert tuple(f.name for f in lib) == EXPECTED_NAMES
        assert all(f.bound > 0 and f.support_radius > 0 for f in lib)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_library(0, 0.5)
        with pytest.raises(ValueError):
            build_library(2, 0.0)

    def test_boundedness_on_random_configs(self):
        lib = build_library(2, 0.5)
        for seed in range(30):
            gamma = random_scalar_config(stream(809, seed), n_max=15, extent=2.0, mark_hi=2.5)
            for f in lib:
                v = f(gamma)
                assert math.isfinite(v)
                assert abs(v) <= f.bound + 1e-12

    def test_locality_ignores_atoms_outside_support(self):
        lib = build_library(2, 0.5)
        for seed in range(25):
            rng = stream(810, seed)
            near = random_scalar_config(rng, n_max=8, extent=1.2, mark_hi=1.5)
            for f in lib:
                base = f(near)
                # plant junk just outside the closed support ball
                junk = []
                for k in range(4):
                    ang = rng.uniform(0, 2 * math.pi)
                    rad = f.support_radius + float(rng.uniform(0.01, 1.5))
                    junk.append(
                        mp(
                            (rad * math.cos(ang), rad * math.sin(ang)),
                            float(rng.uniform(0.0, 2.0)),
                        )
                    )
                spiked = config(list(near.points) + junk, dim=2)
                assert f(spiked) == base

    def test_known_values(self):
        lib = {f.name: f for f in build_library(2, 0.5)}
        empty = Configuration.empty(2)
        assert lib["count_small_box_cap4"](empty) == 0.0
        assert lib["void_ball_075"](empty) == 1.0
        assert lib["void_small_box"](empty) == 1.0
        assert lib["mark_sum_cap3"](empty) == 0.0
        assert lib["tame_sum_cap5"](empty) == 0.0
        assert lib["lonely_atom_half_ball"](empty) == 0.0

        one = config([mp((0.0, 0.0), 2.0)])
        assert lib["count_small_box_cap4"](one) == 1.0
        assert lib["count_big_box_cap8"](one) == 1.0
        assert lib["count_unit_ball_cap4"](one) == 1.0
        assert lib["void_ball_075"](one) == 0.0
        assert lib["mark_sum_cap3"](one) == 2.0
        assert lib["close_pairs_cap6"](one) == 0.0
        assert lib["at_least_two_big_box"](one) == 0.0
        # 1 + 2^2.5 > 5 hits the cap
        assert lib["tame_sum_cap5"](one) == 5.0
        assert lib["lonely_atom_half_ball"](one) == 1.0

    def test_caps_engage(self):
        lib = {f.name: f for f in build_library(2, 0.5)}
        cluster = config(
            [mp((0.01 * k, 0.0), 0.0) for k in range(7)]
        )
        assert lib["count_small_box_cap4"](cluster) == 4.0
        assert lib["count_big_box_cap8"](cluster) == 7.0
        assert lib["close_pairs_cap6"](cluster) == 6.0  # 21 close pairs, capped
        assert lib["at_least_two_big_box"](cluster) == 1.0
        assert lib["lonely_atom_half_ball"](cluster) == 0.0
        marks = config([mp((0.0, 0.0), 2.5), mp((0.3, 0.0), 2.5)])
        assert lib["mark_sum_cap3"](marks) == 3.0

    def test_rebuild_gives_identical_values(self):
        lib1 = build_library(2, 0.5)
        lib2 = build_library(2, 0.5)
        for seed in range(10):
            gamma = random_scalar_config(stream(811, seed), n_max=10, extent=1.5)
            for f1, f2 in zip(lib1, lib2):
                assert f1(gamma) == f2(gamma)
