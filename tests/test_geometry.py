"""Exact disc-union functionals against closed forms and Monte Carlo oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gibbsgrain import (
    Disc,
    NumericalFailure,
    QuermassModel,
    euler_characteristic,
    mc_geometry_oracle,
    random_disc_system,
    raster_euler,
    stream,
    union_area_perimeter,
)
from gibbsgrain import geometry
from gibbsgrain.geometry import _DEGENERACY_TOL, _find_degenerate, link_increment, meeting_discs
from conftest import config, mp


def lens_area(r1, r2, d):
    """Area of the intersection of two discs (independent closed form)."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
    a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
    corr = 0.5 * math.sqrt(
        (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    )
    return a1 + a2 - corr


class TestClosedForms:
    def test_single_disc(self):
        s = [Disc(0.3, -0.2, 1.0)]
        assert union_area_perimeter(s)[0] == pytest.approx(math.pi, rel=1e-9)
        assert union_area_perimeter(s)[1] == pytest.approx(2 * math.pi, rel=1e-9)
        assert euler_characteristic(s) == 1

    def test_two_disjoint_discs(self):
        s = [Disc(0.0, 0.0, 1.0), Disc(3.0, 0.0, 1.0)]
        assert union_area_perimeter(s)[0] == pytest.approx(2 * math.pi, rel=1e-9)
        assert union_area_perimeter(s)[1] == pytest.approx(4 * math.pi, rel=1e-9)
        assert euler_characteristic(s) == 2

    def test_two_overlapping_discs_area(self):
        s = [Disc(0.0, 0.0, 1.0), Disc(1.0, 0.0, 1.0)]
        target = 2 * math.pi - lens_area(1.0, 1.0, 1.0)
        assert abs(union_area_perimeter(s)[0] - target) <= 1e-6
        assert union_area_perimeter(s)[0] == pytest.approx(5.054815608570829, abs=1e-9)

    def test_two_overlapping_discs_perimeter(self):
        s = [Disc(0.0, 0.0, 1.0), Disc(1.0, 0.0, 1.0)]
        # Each circle keeps 2*pi minus the arc behind the chord, half angle
        # acos(d / 2r) on each side of the center line.
        kept = 2 * (2 * math.pi - 2 * math.acos(0.5))
        assert abs(union_area_perimeter(s)[1] - kept) <= 1e-6
        assert union_area_perimeter(s)[1] == pytest.approx(8 * math.pi / 3.0, abs=1e-9)
        assert euler_characteristic(s) == 1

    def test_nested_disc_vanishes(self):
        s = [Disc(0.0, 0.0, 2.0), Disc(0.1, 0.0, 0.5)]
        assert union_area_perimeter(s)[0] == pytest.approx(4 * math.pi, rel=1e-9)
        assert union_area_perimeter(s)[1] == pytest.approx(4 * math.pi, rel=1e-9)
        assert euler_characteristic(s) == 1


class TestEulerCharacteristic:
    def test_ring_has_a_hole(self):
        # Pairwise overlapping triangle of discs with uncovered middle:
        # nerve count 3 - 3 + 0.
        side = 1.8
        centers = [
            (0.0, 0.0),
            (side, 0.0),
            (side / 2.0, side * math.sqrt(3) / 2.0),
        ]
        s = [Disc(x, y, 1.0) for x, y in centers]
        assert euler_characteristic(s) == 0
        chi, consensus = raster_euler(s)
        assert consensus and chi == 0

    def test_filled_triangle(self):
        side = 1.0
        centers = [
            (0.0, 0.0),
            (side, 0.0),
            (side / 2.0, side * math.sqrt(3) / 2.0),
        ]
        s = [Disc(x, y, 1.0) for x, y in centers]
        assert euler_characteristic(s) == 1

    def test_zero_radius_discs_dropped(self):
        # The quermass energy drops zero-radius grains, so a point inside a
        # disc or far from every disc adds no vertex to the nerve.
        euler = QuermassModel(0.0, 0.0, 1.0)
        base = [mp((0.0, 0.0), 1.0), mp((3.0, 0.0), 1.0)]
        for extra in (mp((10.0, 10.0), 0.0), mp((0.2, 0.1), 0.0)):
            assert euler.energy(config(base + [extra])) == euler.energy(config(base)) == 2.0

    def test_tangency_is_refused(self):
        tangent = config([mp((0.0, 0.0), 1.0), mp((2.0, 0.0), 1.0)])
        assert QuermassModel(0.4, -0.2, 0.3).energy(tangent) == math.inf


# Two circles of radius 0.5 centred at (-0.3, 0) and (0.3, 0) cross at
# (0, 0.4) and (0, -0.4); a third of radius 0.5 at (0, 0.9) passes through
# the upper vertex.
LEFT, RIGHT, TOP = Disc(-0.3, 0.0, 0.5), Disc(0.3, 0.0, 0.5), Disc(0.0, 0.9, 0.5)
TOL = 1e-9


class TestMeetingDiscs:
    """The one degeneracy predicate: discs meeting p, or None when p is
    degenerate with them."""

    # name: (p, discs, meeting at tol = TOL, meeting at tol = 0)
    CASES = {
        "tangency": (Disc(1.0, 0.0, 0.5), [Disc(0.0, 0.0, 0.5)], None, []),
        "near-tangency": (Disc(1.0 + 0.5 * TOL, 0.0, 0.5), [Disc(0.0, 0.0, 0.5)], None, []),
        "internal-tangency": (Disc(0.25, 0.0, 0.25), [Disc(0.0, 0.0, 0.5)], None, [0]),
        "internal-tangency-outer": (Disc(0.0, 0.0, 0.5), [Disc(0.25, 0.0, 0.25)], None, [0]),
        "coincidence": (Disc(0.0, 0.0, 0.5), [Disc(0.0, 0.0, 0.5)], None, [0]),
        "triple-point-on-p": (TOP, [LEFT, RIGHT], None, [0, 1]),
        "triple-point-of-p": (RIGHT, [TOP, LEFT], None, [0, 1]),
        "clear": (
            Disc(0.5, 0.0, 0.5),
            # a zero-radius disc is empty, even on p's circle
            [Disc(5.0, 5.0, 1.0), Disc(0.0, 0.0, 0.5), Disc(1.0, 0.0, 0.0)],
            [1],
            [1],
        ),
        "clear-of-tangency": (Disc(1.0 + 3.0 * TOL, 0.0, 0.5), [Disc(0.0, 0.0, 0.5)], [], []),
        "clear-triple": (Disc(0.0, 0.95, 0.5), [LEFT, RIGHT], [0, 1], [0, 1]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table(self, case):
        p, discs, at_tol, at_zero = self.CASES[case]
        assert meeting_discs(p, discs, TOL) == at_tol
        assert meeting_discs(p, discs, 0.0) == at_zero

    @pytest.mark.parametrize(
        "discs, flagged",
        [
            ([Disc(0.0, 0.0, 0.5), Disc(1.0, 0.0, 0.5)], 1),
            ([LEFT, RIGHT, TOP], 2),
            ([TOP, LEFT, RIGHT], 2),
            ([LEFT, TOP, RIGHT, Disc(5.0, 5.0, 1.0)], 2),
        ],
    )
    def test_prefix_rule_flags_the_latest_degenerate_disc(self, discs, flagged):
        assert _find_degenerate(discs, TOL) == {flagged}
        assert _find_degenerate(discs, 0.0) == set()


def disc_tuples(seed, n_discs, **kwargs):
    system = random_disc_system(np.random.default_rng(seed), n_discs, **kwargs)
    return [(d.x.hex(), d.y.hex(), d.r.hex()) for d in system]


class TestRandomDiscSystemPins:
    """Disc families recorded before random_disc_system went through
    meeting_discs; the crowded ones reject many candidates."""

    def test_small_families(self):
        assert disc_tuples(0, 4, extent=3.0) == [
            ("0x1.e92fc36f8d478p+0", "0x1.9e6473d3111aep-1", "0x1.58f6112e4ee54p-2"),
            ("0x1.962ee447391a0p-5", "0x1.384bb7b4434d8p+1", "0x1.1f19508715a01p+0"),
            ("0x1.d1e5725482c91p+0", "0x1.18206e0ff4c3ep+1", "0x1.941a36a0f0266p-1"),
            ("0x1.67115c0b57021p+1", "0x1.3949aaf3ea804p+1", "0x1.35b94b126a47ap-2"),
        ]
        assert disc_tuples(1, 4, extent=3.0) == [
            ("0x1.891439da6b68ap+0", "0x1.6cfa6219a1fc0p+1", "0x1.b80eb84286852p-2"),
            ("0x1.6c4809063c02ap+1", "0x1.def91dc17ed0ap-1", "0x1.5cab384a90726p-1"),
            ("0x1.3dd679cce8e5ap+1", "0x1.3a43d2e4c55eap+0", "0x1.96da4f37f579ep-1"),
            ("0x1.52a579641d900p-4", "0x1.21595a464c62cp+1", "0x1.9193917d1bb27p-1"),
        ]

    @pytest.mark.parametrize(
        "seed, n_discs, kwargs, digest",
        [
            (2, 12, {}, "0f6f7dc7a4c9506fbebd63ce838baf9f68fcd7cf0576b3b59bb1a878da631e63"),
            (3, 20, {"extent": 4.0},
             "eb69b12099473f03187bce04713a67d2bf54d98a492591f75394760d58422cfe"),
            (4, 30, {"extent": 6.0, "margin": 0.1},
             "a8661d8e4c269b5940853b2ef6c7c58824b8c9a830b660ed8d3be53e03c5b20a"),
        ],
    )
    def test_crowded_families(self, seed, n_discs, kwargs, digest):
        tuples = disc_tuples(seed, n_discs, **kwargs)
        assert hashlib.sha256(repr(tuples).encode()).hexdigest() == digest


class TestUnionAreaPerimeterPins:
    """Area and perimeter as recorded from the separate area and perimeter
    walks that ``union_area_perimeter`` replaced: one arc walk that keeps
    both sums in their old order gives the same bits."""

    @pytest.mark.parametrize(
        "seed, n_discs, kwargs, area, perimeter",
        [
            (0, 4, {"extent": 3.0}, "0x1.9ec2c9feef35cp+2", "0x1.be849b16e0752p+3"),
            (1, 4, {"extent": 3.0}, "0x1.3b8cefc9e9504p+2", "0x1.a7a0a1f04e986p+3"),
            (2, 12, {}, "0x1.5938c990f64aap+4", "0x1.953ac6af535acp+5"),
            (3, 20, {"extent": 4.0}, "0x1.308d0b3eede85p+4", "0x1.5d2255f057954p+4"),
            (4, 30, {"extent": 6.0, "margin": 0.1}, "0x1.5311d75ce46c1p+5",
             "0x1.8ed0314e173ddp+5"),
        ],
    )
    def test_random_families(self, seed, n_discs, kwargs, area, perimeter):
        system = random_disc_system(np.random.default_rng(seed), n_discs, **kwargs)
        got = union_area_perimeter(system)
        assert [v.hex() for v in got] == [area, perimeter]

    def test_criterion_3_lens(self):
        got = union_area_perimeter([Disc(0.0, 0.0, 1.0), Disc(1.0, 0.0, 1.0)])
        assert [v.hex() for v in got] == ["0x1.4382195387cfap+2", "0x1.0c152382d7365p+3"]


class TestInvariances:
    def test_translation_exact(self):
        rng = stream(401, 0)
        for _ in range(20):
            s = random_disc_system(rng, int(rng.integers(1, 12)))
            v = rng.uniform(-40, 40, size=2)
            moved = [Disc(d.x + v[0], d.y + v[1], d.r) for d in s]
            assert union_area_perimeter(moved)[0] == pytest.approx(
                union_area_perimeter(s)[0], rel=1e-9
            )
            assert union_area_perimeter(moved)[1] == pytest.approx(
                union_area_perimeter(s)[1], rel=1e-9
            )
            assert euler_characteristic(moved) == euler_characteristic(s)

    def test_scaling_covariance(self):
        rng = stream(402, 0)
        lam = 2.5
        for _ in range(15):
            s = random_disc_system(rng, int(rng.integers(1, 10)))
            scaled = [Disc(d.x * lam, d.y * lam, d.r * lam) for d in s]
            assert union_area_perimeter(scaled)[0] == pytest.approx(
                lam**2 * union_area_perimeter(s)[0], rel=1e-9
            )
            assert union_area_perimeter(scaled)[1] == pytest.approx(
                lam * union_area_perimeter(s)[1], rel=1e-9
            )
            assert euler_characteristic(scaled) == euler_characteristic(s)

    def test_adding_a_disc_never_shrinks_area(self):
        rng = stream(403, 0)
        for _ in range(20):
            s = random_disc_system(rng, int(rng.integers(1, 12)))
            extra = Disc(
                float(rng.uniform(-10, 10)),
                float(rng.uniform(-10, 10)),
                float(rng.uniform(0.2, 1.2)),
            )
            grown = s + [extra]
            assert union_area_perimeter(grown)[0] >= union_area_perimeter(s)[0] - 1e-12

    def test_disjoint_additivity(self):
        rng = stream(404, 0)
        for _ in range(10):
            a = random_disc_system(rng, int(rng.integers(1, 8)))
            b = random_disc_system(rng, int(rng.integers(1, 8)))
            shifted = [Disc(d.x + 100.0, d.y, d.r) for d in b]
            both = a + shifted
            assert union_area_perimeter(both)[0] == pytest.approx(
                union_area_perimeter(a)[0] + union_area_perimeter(b)[0], rel=1e-9
            )
            assert union_area_perimeter(both)[1] == pytest.approx(
                union_area_perimeter(a)[1] + union_area_perimeter(b)[1], rel=1e-9
            )
            assert euler_characteristic(both) == euler_characteristic(
                a
            ) + euler_characteristic(b)


def functionals(discs):
    scale = max([1.0] + [abs(d.x) + abs(d.y) + d.r for d in discs])
    assert not _find_degenerate(discs, _DEGENERACY_TOL * scale)
    return [*union_area_perimeter(discs), euler_characteristic(discs)]


def assert_same_geometry(got, want, lam=1.0):
    """Area and perimeter within a relative 1e-12 of the reference scaled by
    lam^2 and lam, the Euler characteristic exactly."""
    assert got[0] == pytest.approx(lam**2 * want[0], rel=1e-12)
    assert got[1] == pytest.approx(lam * want[1], rel=1e-12)
    assert got[2] == want[2]


def random_discs(seed, n_discs):
    return random_disc_system(np.random.default_rng(seed), n_discs, extent=6.0)


class TestGeometryProperties:
    """Rigid motions, relabelling and scaling of random disc families, and the
    valuation identity the quermass chain's local increments rest on."""

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
        angle=st.floats(0.0, 2.0 * math.pi),
        lam=st.floats(0.1, 10.0),
    )
    def test_invariance_and_scaling(self, seed, shift, angle, lam):
        # the size comes from the seed, since hypothesis favours small integers
        n_discs = 4 + seed % 13
        discs = random_discs(seed, n_discs)
        base = functionals(discs)
        moved = [Disc(d.x + shift[0], d.y + shift[1], d.r) for d in discs]
        assert_same_geometry(functionals(moved), base)
        c, s = math.cos(angle), math.sin(angle)
        turned = [Disc(c * d.x - s * d.y, s * d.x + c * d.y, d.r) for d in discs]
        assert_same_geometry(functionals(turned), base)
        order = np.random.default_rng(seed).permutation(n_discs)
        assert_same_geometry(functionals([discs[i] for i in order]), base)
        scaled = [Disc(lam * d.x, lam * d.y, lam * d.r) for d in discs]
        assert_same_geometry(functionals(scaled), base, lam=lam)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        extra=st.integers(0, 2**16),
    )
    def test_increment_needs_only_the_discs_meeting_the_new_one(self, seed, extra):
        *others, p = random_discs(seed, 7 + seed % 14)
        meet = [q for q in others if math.hypot(q.x - p.x, q.y - p.y) < p.r + q.r]
        away = [q for q in others if q not in meet]
        # N, N plus some discs away from p, and every disc
        mask = np.random.default_rng(extra).random(len(away)) < 0.5
        supersets = [meet, meet + [q for q, keep in zip(away, mask) if keep], others]
        full = [a - b for a, b in zip(functionals(others + [p]), functionals(others))]
        for family in supersets:
            local = [a - b for a, b in zip(functionals(family + [p]), functionals(family))]
            for got, want in zip(local[:2], full[:2]):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
            assert local[2] == full[2]


def through_origin(rng, k, r_lo=0.4, r_hi=1.2):
    """k discs whose open discs all contain the origin."""
    discs = []
    for _ in range(k):
        r = float(rng.uniform(r_lo, r_hi))
        rho, theta = float(rng.uniform(0.05, 0.9)) * r, float(rng.uniform(0.0, 2.0 * math.pi))
        discs.append(Disc(rho * math.cos(theta), rho * math.sin(theta), r))
    return discs


def link_family(case, rng):
    """p, then the other discs, of one shape of the link test."""
    if case == "random":
        *others, p = random_disc_system(rng, 3 + int(rng.integers(0, 16)), extent=3.0)
    elif case == "empty":
        others = random_disc_system(rng, 6, extent=4.0)
        p = Disc(-3.0, float(rng.uniform(-1.0, 5.0)), float(rng.uniform(0.3, 1.2)))
    elif case == "p-buried":
        # p inside q, among discs that cross q's circle
        others = [Disc(0.0, 0.0, 1.5)] + through_origin(rng, 4, 0.3, 0.6)
        others = others[:1] + [Disc(d.x + 1.5, d.y, d.r) for d in others[1:]]
        p = Disc(*rng.uniform(-0.5, 0.5, 2).tolist(), float(rng.uniform(0.1, 0.6)))
    elif case == "q-buried":
        # discs inside p, and discs across p's circle
        p = Disc(0.0, 0.0, 1.6)
        inner = [Disc(*(0.8 * rng.uniform(-0.7, 0.7, 2)).tolist(), float(rng.uniform(0.1, 0.7)))
                 for _ in range(int(rng.integers(1, 5)))]
        angles = rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(0, 4)))
        rim = [Disc(1.6 * math.cos(a), 1.6 * math.sin(a), float(rng.uniform(0.3, 0.6)))
               for a in angles]
        others = inner + rim
    elif case == "lens-chain":
        # consecutive discs along the x axis overlap in lenses; p crosses the chain
        r = float(rng.uniform(0.4, 0.8))
        xs = np.cumsum(rng.uniform(1.1 * r, 1.9 * r, int(rng.integers(3, 9))))
        others = [Disc(float(x), float(rng.uniform(-0.2, 0.2)) * r, r) for x in xs]
        p = Disc(float(rng.uniform(xs[0], xs[-1])), float(rng.uniform(-0.8, 0.8)),
                 float(rng.uniform(0.3, 1.2)))
    else:  # "common-point": six or more discs and p through the origin
        others = through_origin(rng, int(rng.integers(6, 10)))
        p = through_origin(rng, 1)[0]
    return [p] + others


class TestLinkIncrement:
    """``link_increment`` against the difference of the functionals of the
    meeting discs with and without p, computed here as the reference."""

    @settings(max_examples=240)
    @given(
        case=st.sampled_from(["random", "empty", "p-buried", "q-buried", "lens-chain",
                              "common-point"]),
        seed=st.integers(0, 2**32 - 1),
        shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        lam=st.floats(0.2, 5.0),
        zeroed=st.sampled_from([None, "a_area", "a_perimeter", "a_euler"]),
    )
    def test_matches_the_difference_of_functionals(self, case, seed, shift, lam, zeroed):
        p, *others = [Disc(lam * d.x + shift[0], lam * d.y + shift[1], lam * d.r)
                      for d in link_family(case, np.random.default_rng(seed))]
        scale = max([1.0] + [abs(d.x) + abs(d.y) + d.r for d in others + [p]])
        hits = meeting_discs(p, others, _DEGENERACY_TOL * scale)
        assume(hits is not None)
        meet = [others[i] for i in hits]
        assume(not _find_degenerate(meet, _DEGENERACY_TOL * scale))
        area, perimeter, chi = link_increment(p, meet)
        with_p, without = union_area_perimeter(meet + [p]), union_area_perimeter(meet)
        assert abs(area - (with_p[0] - without[0])) <= 1e-12 * scale**2
        assert abs(perimeter - (with_p[1] - without[1])) <= 1e-12 * scale
        assert chi == euler_characteristic(meet + [p]) - euler_characteristic(meet)
        if case == "empty":
            assert meet == []
            assert (area, perimeter, chi) == (math.pi * p.r * p.r, 2.0 * math.pi * p.r, 1)
        if case == "p-buried":
            assert (area, perimeter, chi) == (0.0, 0.0, 0)
        if case == "common-point":
            assert len(meet) >= 6 and chi == 0
        # the chain's increment, with one coefficient zeroed
        coefs = {"a_area": 0.4, "a_perimeter": -0.2, "a_euler": 0.3}
        if zeroed:
            coefs[zeroed] = 0.0
        model = QuermassModel(**coefs)
        got = model.local_delta(mp((p.x, p.y), p.r), [mp((d.x, d.y), d.r) for d in others],
                                _DEGENERACY_TOL * scale)
        want = model._functional(meet + [p]) - model._functional(meet)
        assert abs(got - want) <= 1e-12 * scale**2

    def test_face_budget(self, monkeypatch):
        # p and eight discs through one point: the link is a full simplex of
        # 2^8 - 1 faces
        rng = np.random.default_rng(7)
        meet, p = through_origin(rng, 8), through_origin(rng, 1)[0]
        assert link_increment(p, meet)[2] == 0
        monkeypatch.setattr(geometry, "_FACE_BUDGET", 200)
        with pytest.raises(NumericalFailure, match="face budget"):
            link_increment(p, meet)


class TestOracles:
    def test_empty_system(self):
        oracle = mc_geometry_oracle([], 10_000, stream(405, 0))
        assert oracle.area == 0.0 and oracle.chi == 0

    def test_exact_vs_mc_on_random_systems(self):
        rng = stream(406, 0)
        for _ in range(8):
            s = random_disc_system(rng, int(rng.integers(1, 20)))
            oracle = mc_geometry_oracle(s, 200_000, rng)
            assert abs(union_area_perimeter(s)[0] - oracle.area) <= 4.0 * oracle.area_stderr
            assert euler_characteristic(s) == oracle.chi

    def test_single_disc_mc_within_error(self):
        oracle = mc_geometry_oracle([Disc(0.0, 0.0, 1.0)], 1_000_000, stream(407, 0))
        assert abs(oracle.area - math.pi) <= 4.0 * oracle.area_stderr

    def test_point_floor(self):
        with pytest.raises(ValueError):
            mc_geometry_oracle([Disc(0.0, 0.0, 1.0)], 9_999, stream(408, 0))
