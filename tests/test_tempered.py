"""Temperedness classes, critical radii, and the range separation property."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgrain import (
    Ball,
    Configuration,
    MarkedPoint,
    in_underline_M,
    is_tempered,
    l1,
    l_range,
    mark_sup,
    minimal_t,
    range_separation_check,
    restrict,
    stream,
    tame_statistic,
)
from conftest import config, mp, random_scalar_config


class TestCriticalRadii:
    def test_l1_values(self):
        assert l1(1, 0.5, 2, 1.0) == pytest.approx(8.0, rel=1e-12)
        assert l1(2, 0.5, 2, 2.0) == pytest.approx(math.sqrt(32.0), rel=1e-12)

    def test_l1_limit_eta_to_one(self):
        assert l1(1, 1.0 - 1e-12, 2, 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.5])
    def test_l1_eta_domain(self, eta):
        with pytest.raises(ValueError):
            l1(1, eta, 2, 1.0)

    def test_l_range_values(self):
        assert l_range(1, 2, 1.0) == pytest.approx(4.0, rel=1e-12)
        assert l_range(16, 2, 1.0) == pytest.approx(64.0, rel=1e-12)
        assert l_range(1, 1, 1.0) == pytest.approx(2.0, rel=1e-12)


class TestIsTempered:
    def test_empty_always(self):
        ok, report = is_tempered(Configuration.empty(2), 1, 1.0)
        assert ok and report.passed

    def test_single_point_statistic_two(self):
        g = config([mp((0.0, 0.0), 1.0)])
        ok, _ = is_tempered(g, 2, 1.0)
        assert ok

    def test_fails_at_unit_ball(self):
        # statistic 1 + ||m||^3 = 5 inside B(0,1) exceeds 2 * 1^2
        g = config([mp((0.5, 0.0), 4.0 ** (1.0 / 3.0))])
        ok, report = is_tempered(g, 2, 1.0)
        assert not ok
        assert report.minimal_t >= 5

    def test_monotone_in_t(self):
        rng = stream(201, 0)
        for _ in range(60):
            g = random_scalar_config(rng, n_max=10, extent=4.0, mark_hi=2.0)
            t0 = minimal_t(g, 1.0)
            assert is_tempered(g, t0, 1.0)[0]
            assert is_tempered(g, t0 + 1, 1.0)[0]
            assert is_tempered(g, t0 + 7, 1.0)[0]
            if t0 >= 2:
                assert not is_tempered(g, t0 - 1, 1.0)[0]

    def test_every_finite_config_has_finite_minimal_t(self):
        rng = stream(202, 0)
        for _ in range(40):
            g = random_scalar_config(rng, n_max=25, extent=6.0, mark_hi=3.0)
            t = minimal_t(g, 0.6)
            assert 1 <= t < math.inf
        assert minimal_t(Configuration.empty(2), 1.0) == 1

    def test_mark_negligibility_beyond_l1(self):
        # For tempered configs and l >= l1(t, 1/2): sup of mark norms inside
        # B(0, l) is at most l/2.
        rng = stream(203, 0)
        for _ in range(50):
            g = random_scalar_config(rng, n_max=12, extent=5.0, mark_hi=2.5)
            t = minimal_t(g, 1.0)
            start = math.ceil(l1(t, 0.5, 2, 1.0))
            for l in range(start, start + 6):
                assert mark_sup(restrict(g, Ball((0.0, 0.0), float(l)))) <= 0.5 * l


def reference_scan(config, t, delta):
    """The per-radius scan that is_tempered's one radius pass reproduces:
    restrict to each open ball B(0, l), then take the tame statistic."""
    d = config.dimension
    l_max = 1
    if len(config):
        l_max = int(math.ceil(float(np.linalg.norm(config.locations(), axis=1).max()))) + 1
    rows, passed = [], True
    for l in range(1, l_max + 1):
        stat = tame_statistic(restrict(config, Ball(np.zeros(d), float(l))), delta)
        bound = float(t) * l**d
        rows.append((l, stat, bound, bound - stat))
        if stat > bound:
            passed = False
    return passed, rows


def rows_hex(rows):
    return [(l, stat.hex(), bound.hex(), slack.hex()) for l, stat, bound, slack in rows]


# locations with exactly integer norm, off the axes
_INTEGER_NORM = {2: [(3.0, 4.0), (-4.0, 3.0), (4.0, -3.0)], 3: [(1.0, 2.0, 2.0), (-2.0, 1.0, -2.0)]}
# 1.2599... gives 1 + m^3 = 3.0000000000000098; tiny marks put the statistic
# a few ulp above an integer
_EDGE_MARKS = [0.0, 1e-5, 1e-6, 2e-8, 1.2599210498948752, 1.0, 2.0]


@st.composite
def scan_configs(draw):
    d = draw(st.integers(1, 3))
    seen, pts = set(), []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["uniform", "axis", "norm"]))
        if kind == "uniform":
            loc = tuple(draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
        elif kind == "axis" or d == 1:
            # |x| = l exactly: on the boundary of the open ball B(0, l)
            axis, l = draw(st.integers(0, d - 1)), draw(st.integers(-5, 5))
            loc = tuple(float(l) if i == axis else 0.0 for i in range(d))
        else:
            loc = draw(st.sampled_from(_INTEGER_NORM[d]))
        if loc in seen:
            continue
        seen.add(loc)
        mark = draw(st.one_of(st.sampled_from(_EDGE_MARKS), st.floats(0.0, 3.0)))
        pts.append(MarkedPoint.make(loc, mark))
    return Configuration(pts, dimension=d)


class TestTemperedScan:
    """is_tempered's one radius pass against the per-radius restrict scan, to
    the bit, and minimal_t against the pass test."""

    @given(g=scan_configs(), t=st.sampled_from([1, 2, 5]),
           delta=st.sampled_from([0.5, 1.0, 2.3]))
    @settings(max_examples=300)
    def test_rows_match_the_restrict_scan(self, g, t, delta):
        ok, report = is_tempered(g, t, delta)
        ref_ok, ref_rows = reference_scan(g, t, delta)
        assert (ok, report.passed) == (ref_ok, ref_ok)
        assert rows_hex(report.rows) == rows_hex(ref_rows)

    @given(g=scan_configs(), delta=st.sampled_from([0.5, 1.0, 2.3]))
    @settings(max_examples=300)
    def test_minimal_t_is_the_least_passing_level(self, g, delta):
        t = minimal_t(g, delta)
        assert is_tempered(g, t, delta)[0] and reference_scan(g, t, delta)[0]
        if t >= 2:
            assert not is_tempered(g, t - 1, delta)[0]
            assert not reference_scan(g, t - 1, delta)[0]

    def test_statistic_just_above_an_integer(self):
        g = config([mp((0.0, 0.0), 1.2599210498948752)])
        _, report = is_tempered(g, 1, 1.0)
        assert report.rows[0][1] == 3.0000000000000098
        assert minimal_t(g, 1.0) == 4
        assert is_tempered(g, 4, 1.0)[0]
        assert not is_tempered(g, 3, 1.0)[0]

    @pytest.mark.parametrize("g", [Configuration.empty(2), config([mp((0.5, 0.0), 0.3)])],
                             ids=["empty", "one-atom"])
    @pytest.mark.parametrize("t, delta", [(1.5, 1.0), (0, 1.0), (-2, 1.0), (2, 0.0), (2, -0.5)])
    def test_bad_t_or_delta_raises(self, g, t, delta):
        with pytest.raises(ValueError):
            is_tempered(g, t, delta)


class TestUnderlineM:
    def test_empty_true(self):
        for l in (1, 2, 5):
            assert in_underline_M(Configuration.empty(2), l)

    def test_far_point_small_mark(self):
        g = config([mp((10.0, 0.0), 1.0)])
        assert in_underline_M(g, 1)

    def test_far_point_huge_mark(self):
        g = config([mp((10.0, 0.0), 9.5)])
        assert not in_underline_M(g, 1)

    def test_tempered_class_embeds(self):
        # M^t is contained in the enlarged class at radius l(t).
        rng = stream(204, 0)
        for _ in range(60):
            g = random_scalar_config(rng, n_max=10, extent=6.0, mark_hi=2.0)
            t = minimal_t(g, 1.0)
            l = max(1, math.ceil(l_range(t, 2, 1.0)))
            assert in_underline_M(g, l)


class TestRangeSeparation:
    def test_empty_vacuous(self):
        ok, witness = range_separation_check(Configuration.empty(2), 1, 1.0)
        assert ok and witness is None

    def test_tempered_singletons(self):
        rng = stream(205, 0)
        for _ in range(100):
            loc = tuple(rng.uniform(-8, 8, size=2))
            r = float(rng.uniform(0.0, 2.0))
            g = config([mp(loc, r)])
            t = minimal_t(g, 1.0)
            ok, witness = range_separation_check(g, t, 1.0)
            assert ok, witness

    def test_tempered_samples(self):
        rng = stream(206, 0)
        for _ in range(60):
            g = random_scalar_config(rng, n_max=15, extent=7.0, mark_hi=2.0)
            t = minimal_t(g, 1.0)
            ok, witness = range_separation_check(g, t, 1.0)
            assert ok, witness

    def test_untempered_input_can_fail_with_witness(self):
        # Precondition violated on purpose: the atom sits just outside
        # B(0, 2l+1) for l = 4 but its grain reaches into B(0, 4).
        g = config([mp((9.5, 0.0), 6.0)])
        assert not is_tempered(g, 1, 1.0)[0]
        ok, witness = range_separation_check(g, 1, 1.0, l=4)
        assert not ok
        assert witness is not None
