"""Configurations, windows, restriction, and the tame statistic."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgrain import (
    Ball,
    Box,
    Configuration,
    MarkedPoint,
    mark_sup,
    restrict,
    restrict_complement,
    stream,
    tame_statistic,
    window_contains,
)
from gibbsgrain import points as points_module
from gibbsgrain.energy import HardSphereModel, IdealModel, conditional_energy
from gibbsgrain.errors import PreconditionError
from gibbsgrain.io import read_configs_jsonl, write_configs_jsonl
from gibbsgrain.marks import UniformLaw
from gibbsgrain.sampler import sample_cutoff_kernel
from conftest import config, mp, random_scalar_config


class TestMarkedPoint:
    def test_cached_norm_must_match_mark(self):
        MarkedPoint((0.0, 0.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            MarkedPoint((0.0, 0.0), 1.0, 1.5)

    def test_make_computes_norm(self):
        p = MarkedPoint.make((1.0, 2.0), 0.75)
        assert p.mark_norm == 0.75
        assert p.dimension == 2

    def test_make_computes_the_norm_once(self, monkeypatch):
        calls = []
        norm_of = points_module._mark_norm_of
        monkeypatch.setattr(points_module, "_mark_norm_of", lambda m: calls.append(m) or norm_of(m))
        p = MarkedPoint.make([1, -2.5], -0.75)
        assert calls == [-0.75]
        assert p == MarkedPoint((1.0, -2.5), -0.75, 0.75)
        assert [type(c) for c in p.location] == [float, float]
        with pytest.raises(AttributeError):
            p.mark_norm = 1.0

    @pytest.mark.parametrize("mark", [float("nan"), float("inf"), -float("inf")])
    def test_make_rejects_non_finite_mark(self, mark):
        with pytest.raises(ValueError, match="non-finite norm"):
            MarkedPoint.make((0.0, 0.0), mark)

    def test_nan_norm_rejected(self):
        with pytest.raises(ValueError):
            MarkedPoint((0.0,), 1.0, float("nan"))


class TestConfiguration:
    def test_duplicate_locations_rejected(self):
        pts = [mp((0.0, 0.0), 0.1), mp((0.0, 0.0), 0.2)]
        with pytest.raises(ValueError):
            Configuration(pts)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Configuration([mp((0.0,), 0.1), mp((0.0, 1.0), 0.1)])

    @pytest.mark.parametrize(
        "points, message",
        [([mp((0.0, 1.0), 0.1), mp((2.0, 1.0)), mp((0.0, 1.0), 0.2)],
          "duplicate location (0.0, 1.0): configurations are simple"),
         ([mp((1.0, 2.0)), mp((-0.0, 0.5)), mp((0.0, 0.5))],
          "duplicate location (0.0, 0.5): configurations are simple"),
         ([mp((0.0,), 0.1), mp((0.0, 1.0), 0.1), mp((0.0, 1.0, 2.0))],
          "mixed dimensions in configuration: [1, 2, 3]"),
         ([mp((0.0,)), mp((0.0,)), mp((0.0, 1.0))],
          "mixed dimensions in configuration: [1, 2]")],
        ids=["duplicate", "signed-zero-duplicate", "three-dimensions", "mixed-before-duplicate"],
    )
    def test_error_messages(self, points, message):
        with pytest.raises(ValueError) as info:
            Configuration(points)
        assert str(info.value) == message

    def test_empty_needs_dimension(self):
        with pytest.raises(ValueError):
            Configuration(())
        assert Configuration.empty(3).dimension == 3

    def test_immutable(self):
        g = config([mp((0.0, 0.0), 0.5)])
        with pytest.raises(AttributeError):
            g.points = ()


def hexes(c):
    return [([x.hex() for x in p.location], p.mark, p.mark_norm.hex()) for p in c.points]


class TestLazyConfiguration:
    """``Configuration.from_arrays`` keeps its arrays and builds its atoms on
    first read of ``points``; it must be the configuration that the
    constructor builds from the same atoms."""

    @staticmethod
    def pair(locs, marks, d=2):
        """(from_arrays configuration, constructor configuration) of one set
        of atoms; the first is built anew, atoms unread, on every call."""
        arr = np.array(locs, dtype=float).reshape(len(marks), d)
        norms = np.array([abs(m) for m in marks], dtype=float)
        lazy = Configuration.from_arrays(arr.copy(), list(marks), norms)
        eager = Configuration([MarkedPoint.make(x, m) for x, m in zip(arr.tolist(), marks)],
                              dimension=arr.shape[1])
        return lazy, eager

    @settings(max_examples=60)
    @given(d=st.integers(1, 3), n=st.integers(0, 8), data=st.data())
    def test_equals_the_constructed_configuration(self, d, n, data, tmp_path_factory):
        locs = data.draw(st.lists(st.lists(corners, min_size=d, max_size=d),
                                  min_size=n, max_size=n, unique_by=tuple))
        marks = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        lazy, eager = self.pair(locs, marks, d)
        assert len(lazy) == n and lazy.dimension == d
        assert lazy._points is None
        assert lazy == eager and eager == self.pair(locs, marks, d)[0]
        assert hash(self.pair(locs, marks, d)[0]) == hash(eager)
        lazy = self.pair(locs, marks, d)[0]
        assert hexes(lazy) == hexes(eager)
        assert all(type(x) is float for p in lazy for x in p.location)
        assert lazy.locations().tobytes() == eager.locations().tobytes()
        assert lazy.mark_norms().tobytes() == eager.mark_norms().tobytes()
        other = config([mp((60.0,) * d, 0.5)])
        for a, b in ((self.pair(locs, marks, d)[0].union(other), eager.union(other)),
                     (other.union(self.pair(locs, marks, d)[0]), other.union(eager))):
            assert hexes(a) == hexes(b)
        box = Box([(-20.0, 20.0)] * d)
        for cut in (restrict, restrict_complement):
            assert hexes(cut(self.pair(locs, marks, d)[0], box)) == hexes(cut(eager, box))
        folder = tmp_path_factory.mktemp("lazy")
        write_configs_jsonl(folder / "lazy.jsonl", [self.pair(locs, marks, d)[0]])
        write_configs_jsonl(folder / "eager.jsonl", [eager])
        assert (folder / "lazy.jsonl").read_bytes() == (folder / "eager.jsonl").read_bytes()
        (back,) = read_configs_jsonl(folder / "lazy.jsonl")
        assert hexes(back) == hexes(eager)

    @pytest.mark.parametrize(
        "locs, message",
        [([(0.0, 0.0), (0.0, 0.0)], "duplicate location (0.0, 0.0): configurations are simple"),
         ([(0.0, 1.0), (2.0, 1.0), (0.0, 1.0)],
          "duplicate location (0.0, 1.0): configurations are simple"),
         ([(1.0, 2.0), (-0.0, 0.5), (0.0, 0.5)],
          "duplicate location (0.0, 0.5): configurations are simple")],
        ids=["rejected", "duplicate", "signed-zero-duplicate"],
    )
    def test_duplicate_errors_are_the_constructors(self, locs, message):
        marks = [0.1] * len(locs)
        with pytest.raises(ValueError) as eager:
            Configuration([mp(x, m) for x, m in zip(locs, marks)])
        with pytest.raises(ValueError) as lazy:
            Configuration.from_arrays(np.array(locs), marks, np.array(marks))
        assert str(lazy.value) == str(eager.value) == message

    def test_shared_first_coordinates_are_not_duplicates(self):
        lazy, eager = self.pair([(0.0, 1.0), (0.0, 2.0), (-0.0, 3.0)], [0.1, 0.2, 0.3])
        assert hexes(lazy) == hexes(eager)

    def test_atoms_are_built_once(self):
        lazy, _ = self.pair([(0.0, 1.0), (2.0, 1.0)], [0.1, 0.2])
        assert lazy.points is lazy.points

    def test_restrict_checks_no_rows_again(self, monkeypatch):
        # the kept rows passed ``_check_rows`` with the whole configuration
        lazy, eager = self.pair([(0.0, 1.0), (2.0, 1.0), (5.0, 0.5)], [0.1, 0.2, 0.3])
        box = Box.centered_cube(3.0, 2)
        want = [hexes(cut(eager, box)) for cut in (restrict, restrict_complement)]
        calls = []
        check = points_module._check_rows
        monkeypatch.setattr(points_module, "_check_rows",
                            lambda *args: calls.append(args) or check(*args))
        got = [cut(lazy, box) for cut in (restrict, restrict_complement)]
        assert calls == [] and lazy._points is None
        assert [c._points for c in got] == [None, None]
        assert [hexes(c) for c in got] == want


class TestRestrict:
    def test_empty_any_window(self):
        g = Configuration.empty(2)
        assert len(restrict(g, Box.unit(2)).points) == 0

    def test_contained_config_unchanged(self):
        g = config([mp((0.5, 0.5), 0.3)])
        assert restrict(g, Box.unit(2)).points == g.points

    def test_ball_membership(self):
        inside = mp((0.9, 0.0), 0.1)
        outside = mp((1.1, 0.0), 0.1)
        g = config([inside, outside])
        got = restrict(g, Ball((0.0, 0.0), 1.0))
        assert got.points == (inside,)

    def test_idempotent_and_partition(self):
        rng = stream(101, 0)
        w = Box([(-1.0, 1.5), (-0.5, 2.0)])
        for _ in range(40):
            g = random_scalar_config(rng)
            inner = restrict(g, w)
            assert restrict(inner, w).points == inner.points
            outer = restrict_complement(g, w)
            assert len(inner.points) + len(outer.points) == len(g.points)
            assert set(inner.points) | set(outer.points) == set(g.points)

    def test_lattice_tiling_reassembles(self):
        # Half-open boxes tile the plane exactly, so restriction over a
        # partition must reproduce every atom exactly once.
        rng = stream(102, 0)
        g = random_scalar_config(rng, n_max=20, extent=2.0)
        tiles = [
            Box([(x0, x0 + 2.0), (y0, y0 + 2.0)])
            for x0 in (-2.0, 0.0)
            for y0 in (-2.0, 0.0)
        ]
        pieces = [restrict(g, t).points for t in tiles]
        assert sum(len(p) for p in pieces) == len(g.points)
        assert set().union(*[set(p) for p in pieces]) == set(g.points)


class TestTameStatistic:
    def test_empty_is_zero(self):
        assert tame_statistic(Configuration.empty(2), 1.0) == 0.0

    def test_single_zero_mark(self):
        g = config([mp((0.0, 0.0), 0.0)])
        assert tame_statistic(g, 1.0) == 1.0

    def test_two_point_value(self):
        # d=2, delta=1: (1 + 1^3) + (1 + 2^3) = 11
        g = config([mp((0.0, 0.0), 1.0), mp((1.0, 0.0), 2.0)])
        assert tame_statistic(g, 1.0) == pytest.approx(11.0, rel=1e-12)

    def test_additive_over_partition(self):
        rng = stream(103, 0)
        w = Ball((0.2, -0.1), 1.7)
        for _ in range(40):
            g = random_scalar_config(rng)
            total = tame_statistic(g, 0.7)
            split = tame_statistic(restrict(g, w), 0.7) + tame_statistic(
                restrict_complement(g, w), 0.7
            )
            assert split == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestMarkSup:
    def test_empty_convention(self):
        assert mark_sup(Configuration.empty(2)) == 0.0

    def test_max_of_norms(self):
        g = config([mp((0.0, 0.0), 0.3), mp((1.0, 0.0), 1.7), mp((2.0, 0.0), 0.2)])
        assert mark_sup(g) == 1.7
        assert mark_sup(config([mp((0.0, 0.0), 5.0)])) == 5.0

    def test_restriction_never_increases(self):
        rng = stream(104, 0)
        for _ in range(40):
            g = random_scalar_config(rng)
            w = Ball(tuple(rng.uniform(-2, 2, size=2)), float(rng.uniform(0.5, 3.0)))
            assert mark_sup(restrict(g, w)) <= mark_sup(g)


class TestWindows:
    def test_centered_cube_volume(self):
        assert Box.centered_cube(2.0, 3).volume() == pytest.approx(64.0)
        assert (-1.0, 0.0) in Box.centered_cube(1.0, 2)
        assert (1.0, 0.0) not in Box.centered_cube(1.0, 2)  # half-open

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box([(0.0, 0.0)])

    @pytest.mark.parametrize("make", [
        lambda: Box([(0.0, math.inf)]),
        lambda: Box([(math.nan, 1.0), (0.0, 1.0)]),
        lambda: Ball((math.nan, 0.0), 1.0),
        lambda: Ball((0.0, 0.0), math.inf),
    ], ids=["box-inf", "box-nan", "ball-nan-center", "ball-inf-radius"])
    def test_non_finite_window_rejected(self, make):
        # a Poisson draw on a ball with a NaN centre rejected every point and
        # never returned
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_ball_volume(self):
        assert Ball((0.0, 0.0), 2.0).volume() == pytest.approx(math.pi * 4.0)
        assert Ball((0.0,), 1.0).volume() == pytest.approx(2.0)


def old_box_draw(box, rng):
    """The samplers' former Box draw: numpy's lo + u * span on one
    rng.random(d) call."""
    lo, hi = box.bounds[:, 0], box.bounds[:, 1]
    return tuple(float(v) for v in lo + rng.random(box.dimension) * (hi - lo))


def array_in_box(box, loc):
    """The array membership test boxes had: numpy's lo <= x < hi."""
    x = np.array([loc])
    return bool(np.all((x >= box.bounds[:, 0]) & (x < box.bounds[:, 1]), axis=-1)[0])


def array_in_ball(ball, loc):
    """The array membership test balls had: numpy's norm over the last axis
    below the radius."""
    return bool(np.linalg.norm(np.array([loc]) - ball.center, axis=-1)[0] < ball.radius)


def old_ball_draw(ball, rng):
    """The samplers' former Ball draw: bounding-box rejection tested by the
    array membership test."""
    while True:
        loc = old_box_draw(ball.bounding_box(), rng)
        if array_in_ball(ball, loc):
            return loc


corners = st.floats(-50.0, 50.0, allow_subnormal=False)
widths = st.floats(1e-3, 20.0, allow_subnormal=False)


def near(x, steps=2):
    """x and its neighbouring doubles, ``steps`` on each side."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestWindowDraws:
    """``Window.draw`` and ``loc in window`` against the array expressions
    the samplers used before: the same values, the same stream position,
    the same membership on and near the boundary."""

    @settings(max_examples=60)
    @given(d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_box_draw_matches_array_expression(self, d, data, seed):
        lows = data.draw(st.lists(corners, min_size=d, max_size=d))
        spans = data.draw(st.lists(widths, min_size=d, max_size=d))
        box = Box([(a, a + w) for a, w in zip(lows, spans)])
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            loc = box.draw(new)
            assert [v.hex() for v in loc] == [v.hex() for v in old_box_draw(box, old)]
            assert all(type(v) is float for v in loc)
        assert new.bit_generator.state == old.bit_generator.state

    @settings(max_examples=60)
    @given(d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_ball_draw_matches_array_expression(self, d, data, seed):
        center = data.draw(st.lists(corners, min_size=d, max_size=d))
        ball = Ball(center, data.draw(widths))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            loc = ball.draw(new)
            assert [v.hex() for v in loc] == [v.hex() for v in old_ball_draw(ball, old)]
            assert all(type(v) is float for v in loc)
        assert new.bit_generator.state == old.bit_generator.state

    @settings(max_examples=60)
    @given(d=st.integers(1, 3), data=st.data())
    def test_box_membership_at_its_faces(self, d, data):
        lows = data.draw(st.lists(corners, min_size=d, max_size=d))
        spans = data.draw(st.lists(widths, min_size=d, max_size=d))
        box = Box([(a, a + w) for a, w in zip(lows, spans)])
        # every coordinate at, or a double or two beside, its lo or its hi
        faces = [near(lo) + near(hi) for lo, hi in box.bounds.tolist()]
        for _ in range(20):
            loc = tuple(data.draw(st.sampled_from(f)) for f in faces)
            assert (loc in box) is array_in_box(box, loc)
        assert tuple(box.lo) in box and tuple(box.hi) not in box

    @settings(max_examples=60)
    @given(d=st.integers(1, 3), data=st.data())
    def test_ball_membership_on_and_near_its_sphere(self, d, data):
        center = data.draw(st.lists(corners, min_size=d, max_size=d))
        ball = Ball(center, data.draw(widths))
        direction = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        if not np.linalg.norm(direction) > 1e-3:
            direction = np.eye(d)[0]
        on = ball.center + ball.radius * direction / np.linalg.norm(direction)
        # the rounded point on the sphere and the doubles around it
        for loc in itertools.product(*(near(c, 1) for c in on.tolist())):
            assert (loc in ball) is array_in_ball(ball, loc)
        assert tuple(ball.center.tolist()) in ball

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exactly_on_the_sphere_is_outside(self, d):
        # |x - c| == r exactly: an axis point, and the (3, 4, 5) triangle
        ball = Ball([0.0] * d, 5.0)
        points = [(5.0,) + (0.0,) * (d - 1), (-5.0,) + (0.0,) * (d - 1)]
        if d > 1:
            points.append((3.0, 4.0) + (0.0,) * (d - 2))
        for loc in points:
            assert loc not in ball and not array_in_ball(ball, loc)
            inner = (math.nextafter(loc[0], 0.0),) + loc[1:]
            assert (inner in ball) is array_in_ball(ball, inner)
        assert (math.nextafter(5.0, 0.0),) + (0.0,) * (d - 1) in ball

    def test_membership_needs_the_window_dimension(self):
        with pytest.raises(ValueError):
            (0.0, 0.0, 0.0) in Box.centered_cube(1.0, 2)
        with pytest.raises(ValueError):
            (0.0,) in Ball([0.0, 0.0], 1.0)

    @settings(max_examples=200)
    @given(d=st.integers(1, 3), data=st.data())
    def test_ball_membership_in_floats_is_contains(self, d, data):
        center = data.draw(st.lists(corners, min_size=d, max_size=d))
        ball = Ball(center, data.draw(widths))
        spread = st.floats(-1.5, 1.5)
        for _ in range(20):
            u = data.draw(st.lists(spread, min_size=d, max_size=d))
            loc = tuple((ball.center + ball.radius * np.array(u)).tolist())
            assert (loc in ball) is array_in_ball(ball, loc)


class TestOneMembershipRule:
    """The environment cut and the energy precondition classify points as
    ``loc in window`` does, in the dimensions where numpy's pairwise sum of
    the squares can round the other way."""

    @pytest.mark.parametrize("d", [8, 9, 16])
    def test_ball_cut_agrees_with_membership_near_the_sphere(self, d):
        rng = np.random.default_rng(d)
        ball = Ball([0.0] * d, 1.0)
        directions = rng.standard_normal((400, d))
        on = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        locs = set()
        for row in on.tolist():
            # the rounded point on the sphere, and that point with one
            # coordinate moved up to three doubles either way
            locs.add(tuple(row))
            k = int(rng.integers(d))
            for step in near(row[k], 3):
                locs.add(tuple(row[:k] + [step] + row[k + 1 :]))
        gamma = Configuration([MarkedPoint.make(loc, 0.1) for loc in sorted(locs)])
        inside = {p for p in gamma if p.location in ball}
        assert 0 < len(inside) < len(gamma)
        assert set(restrict(gamma, ball).points) == inside
        assert set(restrict_complement(gamma, ball).points) == set(gamma.points) - inside
        model, xi = IdealModel(), Configuration.empty(d)
        assert conditional_energy(model, Configuration(inside), xi, ball, 1, 1.0) == 0.0
        for p in set(gamma.points) - inside:
            with pytest.raises(PreconditionError):
                conditional_energy(model, Configuration([p]), xi, ball, 1, 1.0)


SQUARE = Box([(-2.0, 2.0), (-2.0, 2.0)])
DISC = Ball([0.0, 0.0], 5.0)


class TestWindowContains:
    @pytest.mark.parametrize(
        "outer, inner, expected",
        [
            # ball in ball: the centre gap plus the inner radius, against the
            # outer radius; internal contact (1 + 2 == 3) counts, as both are open
            (Ball([0.0, 0.0], 3.0), Ball([1.0, 0.0], 2.0), True),
            (Ball([0.0, 0.0], 3.0), Ball([0.5, 0.0], 2.0), True),
            (Ball([0.0, 0.0], 3.0), Ball([1.0, 0.0], 2.5), False),
            (Ball([0.0, 0.0, 0.0], 2.0), Ball([0.0, 0.0, -1.0], 1.0), True),
            # ball in box: every face, contact included
            (SQUARE, Ball([1.0, 0.0], 1.0), True),
            (SQUARE, Ball([-1.0, 0.0], 1.0), True),
            (SQUARE, Ball([0.0, 0.0], 2.0), True),
            (SQUARE, Ball([1.0, 0.5], 1.5), False),
            (SQUARE, Ball([0.0, -1.5], 1.0), False),
            # box in ball: the corners of the box, against the open ball
            (DISC, Box([(-2.0, 2.0), (-3.0, 3.0)]), True),
            (DISC, Box([(-3.0, 3.0), (-4.0, 4.0)]), False),
            (DISC, Box([(-3.0, 3.0), (-4.0, 3.9)]), False),
            (DISC, Box([(-3.0, 2.9), (-3.9, 3.9)]), True),
            # of a half-open box only the lower corner lies in it: the other
            # corners may lie on the sphere, the lower one may not
            (DISC, Box([(0.0, 3.0), (0.0, 4.0)]), True),
            (DISC, Box([(-3.0, 0.0), (-4.0, 0.0)]), False),
            (Ball([0.0, 0.0, 0.0], 3.0), Box([(0.0, 1.0), (0.0, 2.0), (0.0, 2.0)]), True),
            (Ball([0.0, 0.0, 0.0], 3.0), Box([(-1.0, 0.0), (-2.0, 0.0), (-2.0, 0.0)]), False),
        ],
        ids=["ball-ball-contact", "ball-ball-inside", "ball-ball-across", "ball-ball-3d",
             "ball-box-hi-face", "ball-box-lo-face", "ball-box-every-face", "ball-box-across-hi",
             "ball-box-across-lo", "box-ball-inside", "box-ball-corners-on-sphere",
             "box-ball-lo-corner-on-sphere", "box-ball-near-contact",
             "box-ball-hi-corner-on-sphere", "box-ball-lower-corner-on-sphere",
             "box-ball-3d-hi-corner-on-sphere", "box-ball-3d-lower-corner-on-sphere"],
    )
    def test_nesting(self, outer, inner, expected):
        assert window_contains(outer, inner) is expected

    def test_cutoff_kernel_accepts_a_box_touching_its_ball(self):
        # the interior box's upper corner (3, 4) lies on the truncation sphere
        lam, delta_win = Box([(0.0, 3.0), (0.0, 4.0)]), Ball([0.0, 0.0], 5.0)
        xi = config([mp((-1.0, -1.0), 0.2), mp((4.5, 0.5), 0.2), mp((6.0, 0.0), 0.2)])
        res = sample_cutoff_kernel(HardSphereModel(), lam, delta_win, 0.5, xi, 0.5,
                                   UniformLaw(0.3), 200, stream(661, 0), thin=50)
        assert len(res.samples) == 4
        assert all(tuple(p.location) in lam for c in res.samples for p in c)

    def test_windows_of_different_dimensions_are_refused(self):
        with pytest.raises(ValueError, match="different dimensions"):
            window_contains(DISC, Box.centered_cube(1.0, 3))
