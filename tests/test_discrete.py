"""Tests for the enumerable finite-state instances.

Everything here is checkable in closed form: weights against a manual
recompute, acceptance tables against the Hastings formulas, the assembled
transition matrix against detailed balance, and the big-window kernel against
its composition through a sub-window.
"""

import hashlib
import math

import numpy as np
import pytest

from gibbsgrain import (
    Box,
    HardSphereModel,
    IdealModel,
    PairPotentialModel,
    PreconditionError,
    QuermassModel,
    UniformLaw,
    run_chain,
    stream,
)
from gibbsgrain import sampler
from gibbsgrain.discrete import (
    DiscreteInstance,
    kernel_compatibility_check,
    tv_distance,
)

from conftest import mp


def soft_bump(u: float) -> float:
    return 1.2 * u * math.exp(-u)


def pair_instance(env=(), n_max=None, z=0.7):
    """Three cells on a line, two marks, smooth gated pair potential."""
    return DiscreteInstance(
        PairPotentialModel(soft_bump),
        cell_centers=[(0.0,), (0.8,), (1.6,)],
        cell_volume=0.8,
        mark_values=[0.5, 0.9],
        mark_probs=[0.6, 0.4],
        z=z,
        n_max=n_max,
        env=env,
    )


def hardcore_instance(env=(), n_max=None):
    """Four cells at spacing 0.9; two large grains in adjacent cells overlap."""
    return DiscreteInstance(
        HardSphereModel(),
        cell_centers=[(0.0,), (0.9,), (1.8,), (2.7,)],
        cell_volume=0.9,
        mark_values=[0.3, 0.5],
        mark_probs=[0.5, 0.5],
        z=1.1,
        n_max=n_max,
        env=env,
    )


class TestEnumeration:
    def test_state_count_with_cap(self):
        inst = DiscreteInstance(
            IdealModel(),
            cell_centers=[(float(i),) for i in range(4)],
            cell_volume=1.0,
            mark_values=[0.2, 0.7],
            mark_probs=[0.5, 0.5],
            z=1.0,
            n_max=3,
        )
        assert inst.n_states == 81
        # states with exactly n atoms: C(4, n) * 2^n
        by_count = [0] * 5
        for code in range(inst.n_states):
            by_count[inst.counts[code]] += 1
        assert by_count == [1, 8, 24, 32, 16]
        # the cap invalidates exactly the 16 four-atom states
        assert sum(inst.valid) == 65
        assert all(
            inst.valid[c] == (inst.counts[c] <= 3) for c in range(inst.n_states)
        )

    def test_encode_digits_roundtrip(self):
        inst = pair_instance()
        for code in range(inst.n_states):
            digs = inst.digits(code)
            assert len(digs) == inst.n_cells
            assert all(0 <= d <= inst.n_marks for d in digs)
            assert inst.encode(digs) == code

    def test_state_space_size_guard(self):
        with pytest.raises(ValueError):
            DiscreteInstance(
                IdealModel(),
                cell_centers=[(float(i),) for i in range(9)],
                cell_volume=1.0,
                mark_values=[0.1, 0.2, 0.3],
                mark_probs=[0.3, 0.3, 0.4],
                z=1.0,
            )

    def test_constructor_validation(self):
        centers = [(0.0,), (1.0,)]
        with pytest.raises(PreconditionError):
            DiscreteInstance(
                QuermassModel(0.4, -0.2, 0.3), centers, 1.0, [0.3], [1.0], z=1.0
            )
        with pytest.raises(ValueError):
            DiscreteInstance(IdealModel(), centers, 1.0, [0.3], [1.0], z=0.0)
        with pytest.raises(ValueError):
            DiscreteInstance(IdealModel(), centers, 0.0, [0.3], [1.0], z=1.0)
        with pytest.raises(ValueError):
            DiscreteInstance(IdealModel(), centers, 1.0, [0.3, 0.6], [0.5], z=1.0)
        with pytest.raises(ValueError):
            DiscreteInstance(
                IdealModel(), centers, 1.0, [0.3, 0.6], [0.7, 0.4], z=1.0
            )
        with pytest.raises(ValueError):
            DiscreteInstance(
                IdealModel(), centers, 1.0, [0.3, 0.6], [1.0, 0.0], z=1.0
            )


class TestExactDistribution:
    def test_normalised_and_supported_on_valid(self):
        for inst in (pair_instance(), hardcore_instance(), hardcore_instance(n_max=1)):
            p = inst.exact_distribution()
            assert p.shape == (inst.n_states,)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            for code in range(inst.n_states):
                if inst.valid[code]:
                    assert p[code] > 0.0
                else:
                    assert p[code] == 0.0

    def test_weights_match_manual_recompute(self):
        env = (mp((-0.5,), 0.7),)
        inst = pair_instance(env=env)
        zv = inst.z * inst.cell_volume

        def gated(d, r1, r2):
            return soft_bump(d) if d <= r1 + r2 else 0.0

        raw = np.zeros(inst.n_states)
        for code in range(inst.n_states):
            digs = inst.digits(code)
            atoms = [
                (inst.centers[i][0], inst.mark_values[d - 1], inst.mark_probs[d - 1])
                for i, d in enumerate(digs)
                if d > 0
            ]
            h = 0.0
            for k, (x1, r1, _) in enumerate(atoms):
                for x2, r2, _ in atoms[k + 1 :]:
                    h += gated(abs(x1 - x2), r1, r2)
                for q in env:
                    h += gated(abs(x1 - q.location[0]), r1, q.mark_norm)
            w = math.exp(-h)
            for _, _, prob in atoms:
                w *= zv * prob
            raw[code] = w
        np.testing.assert_allclose(
            inst.exact_distribution(), raw / raw.sum(), rtol=1e-12
        )

    def test_hardcore_exclusions(self):
        inst = hardcore_instance()
        big, small = 2, 1  # digit values: mark 0.5 and mark 0.3
        # two large grains in adjacent cells: 0.5 + 0.5 = 1.0 > 0.9 overlaps
        assert inst.state_energy(inst.encode((big, big, 0, 0))) == math.inf
        assert not inst.valid[inst.encode((big, big, 0, 0))]
        # large next to small: 0.5 + 0.3 = 0.8 < 0.9 is fine
        assert inst.state_energy(inst.encode((big, small, 0, 0))) == 0.0
        # large grains one cell apart never touch
        assert inst.valid[inst.encode((big, 0, big, 0))]

    def test_env_cross_exclusion(self):
        env = (mp((-0.4,), 0.3),)  # 0.4 from cell 0; 0.3 + 0.3 = 0.6 > 0.4
        inst = hardcore_instance(env=env)
        assert inst.state_energy(inst.encode((1, 0, 0, 0))) == math.inf
        p = inst.exact_distribution()
        assert p[inst.encode((1, 0, 0, 0))] == 0.0
        assert p[inst.encode((0, 1, 0, 0))] > 0.0


class TestAcceptanceTables:
    def test_tables_match_hastings_formulas(self):
        inst = pair_instance(env=(mp((2.2,), 0.6),))
        C, M = inst.n_cells, inst.n_marks
        zv = inst.z * inst.cell_volume * C
        for code in range(inst.n_states):
            if not inst.valid[code]:
                continue
            digs = inst.digits(code)
            n = inst.counts[code]
            h = inst.state_energy(code)
            for cell in range(C):
                if digs[cell] != 0:
                    continue
                for a in range(1, M + 1):
                    new = inst.tables["birth"][code][cell * M + a - 1][0]
                    assert new >= 0
                    dh = inst.state_energy(new) - h
                    want = min(1.0, zv / (n + 1) * math.exp(-dh))
                    assert inst.tables["birth"][code][cell * M + a - 1][1] == pytest.approx(
                        want, rel=1e-12
                    )
            for k, cell in enumerate(inst.occupied[code]):
                a = digs[cell]
                new = inst.tables["death"][code][k][0]
                assert inst.digits(new)[cell] == 0
                dh = inst.state_energy(new) - h
                want = min(1.0, n / zv * math.exp(-dh))
                assert inst.tables["death"][code][k][1] == pytest.approx(want, rel=1e-12)
                for tgt in range(C):
                    new2 = inst.tables["move"][code][k * C + tgt][0]
                    if digs[tgt] != 0:
                        assert new2 == -1
                        continue
                    dh2 = inst.state_energy(new2) - h
                    assert inst.tables["move"][code][k * C + tgt][1] == pytest.approx(
                        min(1.0, math.exp(-dh2)), rel=1e-12
                    )
                for b in range(1, M + 1):
                    new3 = inst.tables["remark"][code][k * M + b - 1][0]
                    dh3 = inst.state_energy(new3) - h
                    assert inst.tables["remark"][code][k * M + b - 1][1] == pytest.approx(
                        min(1.0, math.exp(-dh3)), rel=1e-12
                    )

    def test_birth_into_excluded_state_is_blocked(self):
        inst = hardcore_instance()
        code = inst.encode((2, 0, 0, 0))  # large grain in cell 0
        # a second large grain next door would overlap, so no transition entry
        assert inst.tables["birth"][code][1 * inst.n_marks + 1][0] == -1
        # the small grain fits
        assert inst.tables["birth"][code][1 * inst.n_marks + 0][0] >= 0


def transition_matrix(inst, mix):
    """Assemble the one-step kernel exactly as run_chain plays it."""
    S, C, M = inst.n_states, inst.n_cells, inst.n_marks
    P = np.zeros((S, S))
    for code in range(S):
        if not inst.valid[code]:
            continue
        digs = inst.digits(code)
        n = inst.counts[code]
        # birth: uniform cell, table mark
        for cell in range(C):
            for a in range(1, M + 1):
                pr = mix[0] / C * inst.mark_probs[a - 1]
                new = inst.tables["birth"][code][cell * M + a - 1][0] if digs[cell] == 0 else -1
                if new >= 0:
                    acc = inst.tables["birth"][code][cell * M + a - 1][1]
                    P[code, new] += pr * acc
                    P[code, code] += pr * (1 - acc)
                else:
                    P[code, code] += pr
        # death, move, remark: uniform atom
        if n == 0:
            P[code, code] += mix[1] + mix[2] + mix[3]
        else:
            for k in range(n):
                acc = inst.tables["death"][code][k][1]
                P[code, inst.tables["death"][code][k][0]] += mix[1] / n * acc
                P[code, code] += mix[1] / n * (1 - acc)
                for tgt in range(C):
                    pr = mix[2] / (n * C)
                    new = inst.tables["move"][code][k * C + tgt][0]
                    if new >= 0:
                        acc = inst.tables["move"][code][k * C + tgt][1]
                        P[code, new] += pr * acc
                        P[code, code] += pr * (1 - acc)
                    else:
                        P[code, code] += pr
                for b in range(1, M + 1):
                    pr = mix[3] / n * inst.mark_probs[b - 1]
                    new = inst.tables["remark"][code][k * M + b - 1][0]
                    if new >= 0:
                        acc = inst.tables["remark"][code][k * M + b - 1][1]
                        P[code, new] += pr * acc
                        P[code, code] += pr * (1 - acc)
                    else:
                        P[code, code] += pr
    return P


class TestKernel:
    @pytest.mark.parametrize("make", [pair_instance, hardcore_instance])
    def test_detailed_balance_and_stationarity(self, make):
        inst = make()
        mix = (0.35, 0.35, 0.2, 0.1)
        P = transition_matrix(inst, mix)
        pi = inst.exact_distribution()
        live = np.array(inst.valid)
        np.testing.assert_allclose(P[live].sum(axis=1), 1.0, atol=1e-12)
        flux = pi[:, None] * P
        np.testing.assert_allclose(flux, flux.T, atol=1e-15)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-14)

    def test_chain_visits_match_exact_law(self):
        inst = pair_instance()
        visits = inst.run_chain(400_000, stream(701, 0))
        assert visits.sum() == 400_000
        assert inst.tv_to_exact(visits) < 0.02

    def test_chain_start_state_forgotten(self):
        inst = hardcore_instance()
        start = inst.encode((1, 0, 0, 2))
        visits = inst.run_chain(300_000, stream(702, 0), start=start)
        assert inst.tv_to_exact(visits) < 0.02
        # excluded states are never visited
        bad = [c for c in range(inst.n_states) if not inst.valid[c]]
        assert visits[bad].sum() == 0

    def test_chain_validation(self):
        inst = hardcore_instance()
        with pytest.raises(ValueError):
            inst.run_chain(10, stream(703, 0), mix=(0.4, 0.3, 0.2, 0.1))
        with pytest.raises(PreconditionError):
            inst.run_chain(10, stream(703, 0), start=inst.encode((2, 2, 0, 0)))


class TestMixValidation:
    """The lattice chain takes its move mix through ``ProposalMix``, so a mix
    that does not sum to 1 or has a negative entry is refused."""

    @pytest.mark.parametrize(
        "mix", [(0.3, 0.3, 0.5, 0.5), (0.5, 0.5, -0.2, 0.2), (0.2, 0.2, 0.1, 0.1)]
    )
    def test_bad_mix_is_refused(self, mix):
        with pytest.raises(ValueError):
            hardcore_instance().run_chain(10, stream(707, 0), mix=mix)


class TestVisitPins:
    """The visit vector of a seeded chain, pinned by its sha256: any change to
    the draw schedule, the proposal decoding or the acceptance tables shows."""

    @pytest.mark.parametrize(
        "make, seed, digest",
        [
            (hardcore_instance, 705,
             "647cacf747824fc3461abad9b464f2d4a639928bbcc36d023404b8b0c3a1fed5"),
            (pair_instance, 706,
             "fcbf67111ed79de74c89b14fba14a8fcce86272181b98b364cf153fadaff962c"),
        ],
    )
    def test_visits_are_pinned(self, make, seed, digest):
        visits = make().run_chain(200_000, stream(seed, 0))
        assert hashlib.sha256(visits.tobytes()).hexdigest() == digest


def plant_wrong_birth_factor(monkeypatch):
    """Patch the shared ratio to use z|W| / n instead of z|W| / (n + 1) for
    births into a non-empty state, where both chains look it up."""
    true_ratio = sampler.hastings_ratio

    def wrong(kind, z_volume, n, dh):
        if kind == "birth" and n > 0:
            return true_ratio(kind, z_volume, n - 1, dh)
        return true_ratio(kind, z_volume, n, dh)

    monkeypatch.setattr(sampler, "hastings_ratio", wrong)


class TestPlantedRatioBug:
    """Both chains take their acceptance from one ``hastings_ratio``, so a
    planted ratio bug must show up in each of them."""

    def test_lattice_detailed_balance_fails(self, monkeypatch):
        plant_wrong_birth_factor(monkeypatch)
        inst = pair_instance()
        P = transition_matrix(inst, (0.35, 0.35, 0.2, 0.1))
        flux = inst.exact_distribution()[:, None] * P
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(flux, flux.T, atol=1e-15)

    def test_continuum_chain_decisions_change(self, monkeypatch):
        def accepts():
            return run_chain(
                PairPotentialModel(soft_bump),
                Box.centered_cube(1.5, 2),
                0.8,
                UniformLaw(0.6),
                2000,
                stream(704, 0),
            ).stats.accepts

        honest = accepts()
        plant_wrong_birth_factor(monkeypatch)
        assert accepts() != honest


class TestCompatibility:
    def test_hardcore_gap_is_roundoff(self):
        gap = kernel_compatibility_check(hardcore_instance(), lam_cells=[1, 2])
        assert gap <= 1e-10

    def test_pair_gap_is_roundoff(self):
        env = (mp((2.4,), 0.8),)
        gap = kernel_compatibility_check(pair_instance(env=env), lam_cells=[0])
        assert gap <= 1e-10

    def test_cap_rejected(self):
        with pytest.raises(PreconditionError):
            kernel_compatibility_check(hardcore_instance(n_max=2), lam_cells=[0, 1])

    def test_window_must_be_strict_nonempty_subset(self):
        inst = pair_instance()
        with pytest.raises(ValueError):
            kernel_compatibility_check(inst, lam_cells=[])
        with pytest.raises(ValueError):
            kernel_compatibility_check(inst, lam_cells=[0, 1, 2])
        with pytest.raises(ValueError):
            kernel_compatibility_check(inst, lam_cells=[0, 7])

    def test_cap_actually_breaks_compatibility(self):
        # Sanity for the guard: with the cap silently ignored, the composed
        # kernel really would disagree, so the refusal is not vacuous.
        capped = hardcore_instance(n_max=1)
        uncapped = hardcore_instance()
        p_capped = capped.exact_distribution()
        p_uncapped = uncapped.exact_distribution()
        assert tv_distance(p_capped, p_uncapped) > 0.05


class TestTvDistance:
    def test_basics(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
        assert tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.4, 0.4, 0.2])
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
