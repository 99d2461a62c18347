"""Release-gate checks for the toolkit, one test per shipped guarantee.

Each test prints a single summary line (visible under ``pytest -s``); the
``pytest -v`` report gives the one pass/fail line per criterion. Budgets are
asserted where the guarantee includes a wall-clock bound. Seeds are fixed so
every check is reproducible in isolation.
"""

import json
import math
import time

import numpy as np
from scipy import stats

from gibbsgrain import (
    Box,
    Configuration,
    DiffusionModel,
    Disc,
    HardSphereModel,
    IdealModel,
    LangevinSpec,
    MarkedPoint,
    PairPotentialModel,
    PathMark,
    PointMassLaw,
    QuermassModel,
    UniformLaw,
    dlr_residual,
    euler_characteristic,
    interaction_range,
    is_tempered,
    langevin_invariant_check,
    lj_pair,
    mc_geometry_oracle,
    minimal_t,
    random_disc_system,
    range_separation_check,
    rejection_sample,
    run_chain,
    sample_cutoff_kernel,
    specific_entropy_curve,
    stability_audit,
    stream,
    super_exp_moment_estimate,
    union_area_perimeter,
)
from gibbsgrain.audits import local_stability_audit
from gibbsgrain.cli import main
from gibbsgrain.discrete import DiscreteInstance, kernel_compatibility_check
from gibbsgrain.functionals import build_library

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


def folded_table(cats_a, cats_b, min_expected=10.0):
    """2 x K contingency table over integer categories, tail-folded so every
    column carries at least ``min_expected`` pooled counts."""
    cats_a = np.asarray(cats_a, dtype=int)
    cats_b = np.asarray(cats_b, dtype=int)
    lo = int(min(cats_a.min(), cats_b.min()))
    hi = int(max(cats_a.max(), cats_b.max()))
    ca = np.bincount(cats_a - lo, minlength=hi - lo + 1).astype(float)
    cb = np.bincount(cats_b - lo, minlength=hi - lo + 1).astype(float)
    merged = [np.array([ca[0], cb[0]])]
    for i in range(1, len(ca)):
        if merged[-1].sum() < 2.0 * min_expected:
            merged[-1] = merged[-1] + np.array([ca[i], cb[i]])
        else:
            merged.append(np.array([ca[i], cb[i]]))
    if len(merged) >= 2 and merged[-1].sum() < 2.0 * min_expected:
        merged[-2] = merged[-2] + merged[-1]
        merged.pop()
    return np.stack(merged, axis=1)


def energy_categories(energies, cut_points):
    """Category 0 is 'no interaction'; positives are binned by cut_points."""
    e = np.asarray(energies, dtype=float)
    cats = np.zeros(len(e), dtype=int)
    pos = e > 1e-12
    cats[pos] = 1 + np.searchsorted(cut_points, e[pos], side="right")
    return cats


def atoms_key(c: Configuration):
    """Canonical tuple of (location, mark payload) for bit-exact comparison."""
    out = []
    for p in c.points:
        m = p.mark
        payload = tuple(map(tuple, m.samples)) if isinstance(m, PathMark) else m
        out.append((p.location, payload, p.mark_norm))
    return tuple(sorted(out, key=repr))


def configs_identical(a, b):
    return len(a) == len(b) and all(
        atoms_key(x) == atoms_key(y) for x, y in zip(a, b)
    )


def test_criterion_01_finite_chain_matches_exact_distribution():
    """Four cells, two marks, at most three atoms: after 1e7 steps the visit
    distribution is within total variation 0.02 of the enumerated one, in
    under two minutes."""
    inst = DiscreteInstance(
        HardSphereModel(),
        cell_centers=[(0.0,), (0.9,), (1.8,), (2.7,)],
        cell_volume=0.9,
        mark_values=[0.3, 0.5],
        mark_probs=[0.5, 0.5],
        z=1.1,
        n_max=3,
    )
    t0 = time.monotonic()
    visits = inst.run_chain(10_000_000, stream(9101, 0))
    tv = inst.tv_to_exact(visits)
    elapsed = time.monotonic() - t0
    assert tv <= 0.02
    assert elapsed <= 120.0
    print(
        f"[acceptance] criterion 01 finite-chain exactness: PASS "
        f"(tv={tv:.5f} <= 0.02, {elapsed:.1f}s <= 120s)"
    )


def test_criterion_02_rejection_and_chain_sample_same_law():
    """Exact rejection sampler vs Metropolis chain on the same soft-pair
    model: two-sample count and binned-energy tests both keep alpha=0.01,
    with 1e4 samples a side, in under five minutes."""
    model = PairPotentialModel(soft_bump)
    w = Box.centered_cube(1.0, 2)
    z, law, n = 1.0, UniformLaw(0.6), 10_000
    t0 = time.monotonic()
    rej = rejection_sample(model, w, z, law, n, stream(9201, 0))
    chain = run_chain(
        model,
        w,
        z,
        law,
        steps=50_000 + 100 * n,
        rng=stream(9201, 1),
        burn_in=50_000,
        thin=100,
    )
    assert len(rej.samples) == n and len(chain.samples) == n
    counts_a = [len(c) for c in rej.samples]
    counts_b = [len(c) for c in chain.samples]
    table_n = folded_table(counts_a, counts_b)
    p_counts = stats.chi2_contingency(table_n)[1]

    e_a = np.array([model.energy(c) for c in rej.samples])
    e_b = np.array([model.energy(c) for c in chain.samples])
    pooled = np.concatenate([e_a[e_a > 1e-12], e_b[e_b > 1e-12]])
    cuts = np.quantile(pooled, np.linspace(0.0, 1.0, 7)[1:-1])
    table_e = folded_table(
        energy_categories(e_a, cuts), energy_categories(e_b, cuts)
    )
    p_energy = stats.chi2_contingency(table_e)[1]
    elapsed = time.monotonic() - t0
    assert p_counts > 0.01
    assert p_energy > 0.01
    assert elapsed <= 300.0
    print(
        f"[acceptance] criterion 02 sampler agreement: PASS "
        f"(p_counts={p_counts:.3f}, p_energy={p_energy:.3f}, {elapsed:.1f}s <= 300s)"
    )


def test_criterion_03_grain_geometry_against_oracles():
    """Fifty random systems of up to thirty discs: exact union area within
    four Monte Carlo sigmas of a 1e6-point oracle and nerve Euler number equal
    to the raster flood-fill one, plus closed forms for two unit discs at
    distance one."""
    worst_pull = 0.0
    for i in range(50):
        n = int(stream(9301, i).integers(1, 31))
        system = random_disc_system(stream(9302, i), n, extent=6.0)
        oracle = mc_geometry_oracle(system, 1_000_000, stream(9303, i))
        area = union_area_perimeter(system)[0]
        pull = abs(area - oracle.area) / oracle.area_stderr
        worst_pull = max(worst_pull, pull)
        assert pull <= 4.0
        assert euler_characteristic(system) == oracle.chi

    two = [Disc(0.0, 0.0, 1.0), Disc(1.0, 0.0, 1.0)]
    lens = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    assert abs(union_area_perimeter(two)[0] - (2.0 * math.pi - lens)) <= 1e-6
    assert abs(union_area_perimeter(two)[0] - 5.054815608570829) <= 1e-6
    assert abs(union_area_perimeter(two)[1] - 8.0 * math.pi / 3.0) <= 1e-6
    print(
        f"[acceptance] criterion 03 geometry oracles: PASS "
        f"(50 systems, worst |area pull|={worst_pull:.2f} sigma <= 4, "
        f"chi exact == raster on all, two-disc closed forms to 1e-6)"
    )


def test_criterion_04_dlr_residuals_and_kernel_compatibility():
    """One-step regeneration on an interior window leaves every bounded local
    functional unchanged within three sigmas, and the enumerable kernels
    compose through a sub-window to within 1e-10."""
    model = HardSphereModel()
    big = Box.centered_cube(4.0, 2)
    lam = Box.centered_cube(2.0, 2)
    z, law = 0.25, PointMassLaw(0.3)
    outer = rejection_sample(model, big, z, law, 200, stream(9401, 0)).samples
    reports = dlr_residual(
        model,
        lam,
        z,
        law,
        list(outer),
        build_library(2, 1.0),
        n_inner=150,
        rng=stream(9401, 1),
    )
    assert len(reports) == 10
    worst = max(
        (r.residual / r.stderr if r.stderr > 0 else 0.0) for r in reports
    )
    for rep in reports:
        assert rep.passed, rep.functional

    hard_inst = DiscreteInstance(
        HardSphereModel(),
        cell_centers=[(0.0,), (0.9,), (1.8,), (2.7,)],
        cell_volume=0.9,
        mark_values=[0.3, 0.55],
        mark_probs=[0.5, 0.5],
        z=1.1,
    )
    gap_hard = kernel_compatibility_check(hard_inst, [0, 1])
    pair_inst = DiscreteInstance(
        PairPotentialModel(soft_bump),
        cell_centers=[(0.0,), (1.0,), (2.0,)],
        cell_volume=1.0,
        mark_values=[0.4, 0.9],
        mark_probs=[0.6, 0.4],
        z=0.7,
    )
    gap_pair = kernel_compatibility_check(pair_inst, [1, 2])
    assert gap_hard <= 1e-10
    assert gap_pair <= 1e-10
    print(
        f"[acceptance] criterion 04 regeneration consistency: PASS "
        f"(10/10 functionals, worst residual {worst:.2f} sigma <= 3; "
        f"compat gaps {gap_hard:.1e}, {gap_pair:.1e} <= 1e-10)"
    )


def test_criterion_05_entropy_curves_stay_under_ceiling():
    """Per-volume relative entropy on growing windows n=1,2,3 stays below the
    audited ceiling c*a1 + z for both the grain-union model and the path
    model, with no upward step beyond combined error bars, within 30 min."""
    t0 = time.monotonic()
    quermass = QuermassModel(0.4, -0.2, 0.3)
    audit_q = stability_audit(
        quermass,
        lambda r: random_scalar_config(r, n_max=8, mark_hi=0.6),
        300,
        stream(9501, 0),
        exponent=2.0,
    )
    curve_q = specific_entropy_curve(
        quermass,
        d=2,
        n_list=(1, 2, 3),
        z=0.4,
        mark_law=UniformLaw(0.6),
        delta=0.5,
        seed=9502,
        n_energy_samples=300,
        n_partition_samples=1500,
        chain_steps=30_000,
        stat_exponent=2.0,
        audit_c=max(audit_q.c_hat, 0.0),
    )
    assert curve_q.under_ceiling
    assert curve_q.trend_ok

    diffusion = DiffusionModel()
    audit_d = stability_audit(
        diffusion,
        lambda r: random_path_config(r, n_max=5),
        300,
        stream(9503, 0),
        exponent=2.5,
    )
    curve_d = specific_entropy_curve(
        diffusion,
        d=2,
        n_list=(1, 2, 3),
        z=0.3,
        mark_law=LangevinSpec.named("quartic", 64),
        delta=0.25,
        seed=9504,
        n_energy_samples=250,
        n_partition_samples=1000,
        chain_steps=24_000,
        stat_exponent=2.5,
        audit_c=max(audit_d.c_hat, 0.0),
    )
    assert curve_d.under_ceiling
    assert curve_d.trend_ok
    elapsed = time.monotonic() - t0
    assert elapsed <= 1800.0
    vals_q = ", ".join(f"{p.per_volume:.3f}" for p in curve_q.points)
    vals_d = ", ".join(f"{p.per_volume:.3f}" for p in curve_d.points)
    print(
        f"[acceptance] criterion 05 entropy ceiling: PASS "
        f"(grain-union per-volume [{vals_q}] under "
        f"{curve_q.points[0].ceiling:.3f}; path model [{vals_d}] under "
        f"{curve_d.points[0].ceiling:.3f}; {elapsed:.0f}s <= 1800s)"
    )


def test_criterion_06_all_samples_are_tempered():
    """Ten thousand configurations across five models: every one passes the
    temperedness scan at its finite minimal level and the range separation
    check at that level."""
    delta = 0.5
    w = Box.centered_cube(2.0, 2)
    batches = []
    batches.append(
        rejection_sample(
            IdealModel(), w, 0.5, UniformLaw(0.8), 2000, stream(9601, 0)
        ).samples
    )
    batches.append(
        rejection_sample(
            HardSphereModel(), w, 0.4, UniformLaw(0.5), 2000, stream(9601, 1)
        ).samples
    )
    batches.append(
        rejection_sample(
            PairPotentialModel(soft_bump), w, 0.5, UniformLaw(0.6), 2000,
            stream(9601, 2),
        ).samples
    )
    batches.append(
        run_chain(
            QuermassModel(0.4, -0.2, 0.3), w, 0.4, UniformLaw(0.6),
            steps=25_000, rng=stream(9601, 3), burn_in=5_000, thin=10,
        ).samples
    )
    batches.append(
        run_chain(
            DiffusionModel(), w, 0.3, LangevinSpec.named("quartic", 32),
            steps=25_000, rng=stream(9601, 4), burn_in=5_000, thin=10,
        ).samples
    )
    total = 0
    max_t = 0
    for batch in batches:
        assert len(batch) == 2000
        for c in batch:
            mt = minimal_t(c, delta)
            assert isinstance(mt, int) and mt >= 1 and math.isfinite(mt)
            ok, _ = is_tempered(c, mt, delta)
            assert ok
            sep, witness = range_separation_check(c, mt, delta)
            assert sep, witness
            max_t = max(max_t, mt)
            total += 1
    assert total == 10_000
    print(
        f"[acceptance] criterion 06 temperedness: PASS "
        f"(10000/10000 across 5 models, max minimal_t={max_t})"
    )


def test_criterion_07_cutoff_kernel_couples_past_thresholds():
    """The capped-and-truncated kernel reproduces the full conditional kernel
    bit for bit once the mark cap clears the mark law's support and the
    truncation window clears the interaction reach; below either threshold the
    coupled runs differ."""
    model = HardSphereModel()
    lam = Box.centered_cube(1.0, 2)
    z, law = 0.8, UniformLaw(0.8)
    xi = config(
        [
            mp((1.8, 0.4), 0.5),
            mp((-1.6, 1.2), 0.7),
            mp((0.3, -2.1), 0.6),
            mp((1.9, -0.9), 0.3),
            mp((8.5, 0.2), 0.5),
            mp((-9.0, -7.5), 0.8),
            mp((0.0, 11.0), 0.2),
        ]
    )
    # Reach of the environment: an atom with mark r is felt inside lam only
    # within distance r + sup(law) = r + 0.8 of the window, so every relevant
    # atom sits within max-norm 1 + 0.8 + 0.8 = 2.6 of the origin. The library
    # range bound is coarser; the big truncation window exceeds it too.
    t_env = minimal_t(xi, 0.5)
    reach_bound = interaction_range(xi, lam, t_env, 0.5)
    big_half = max(12.0, math.ceil(reach_bound + 1.0))
    schedule = dict(steps=30_000, burn_in=2_000, thin=20)

    def full_run(key):
        return run_chain(
            model, lam, z, law, rng=stream(9701, key),
            env=xi, **schedule,
        ).samples

    def cutoff_run(key, m0, half_width):
        return sample_cutoff_kernel(
            model, lam, Box.centered_cube(half_width, 2), m0, xi, z, law,
            rng=stream(9701, key), **schedule,
        ).samples

    # mark-cap sweep at a truncation window that keeps every relevant atom
    full_a = full_run(1)
    assert configs_identical(full_a, cutoff_run(1, 1.0, big_half))
    assert configs_identical(full_a, cutoff_run(1, 0.85, big_half))
    low_cap = cutoff_run(1, 0.3, big_half)
    assert not configs_identical(full_a, low_cap)

    # truncation sweep at a cap above the mark support
    full_b = full_run(2)
    assert configs_identical(full_b, cutoff_run(2, 0.85, big_half))
    assert configs_identical(full_b, cutoff_run(2, 0.85, 5.0))
    narrow = cutoff_run(2, 0.85, 2.0)
    assert not configs_identical(full_b, narrow)

    # matched runs agree in expectation exactly, not just in law
    mean_full = float(np.mean([len(c) for c in full_b]))
    mean_cut = float(np.mean([len(c) for c in cutoff_run(2, 0.85, 5.0)]))
    assert mean_full == mean_cut
    mean_narrow = float(np.mean([len(c) for c in narrow]))
    print(
        f"[acceptance] criterion 07 cutoff coupling: PASS "
        f"(bit-exact at cap >= 0.85 and half-width >= 5 "
        f"(range bound {reach_bound:.1f} covered by {big_half:.0f}); "
        f"divergence below both thresholds, e.g. mean count "
        f"{mean_full:.3f} vs {mean_narrow:.3f})"
    )


def test_criterion_08_stability_audits_stay_bounded():
    """Global and conditional stability constants stay finite and prefix-
    monotone when trials grow tenfold, for all four interacting models, and
    the pair floor of the path model's potential is -4 at 1.5 * 2^(1/6)."""
    lam = Box.centered_cube(2.0, 2)
    scalar = lambda r: random_scalar_config(r, n_max=10, extent=3.0, mark_hi=1.2)
    paths = lambda r: random_path_config(r, n_max=5)

    def ring_env(r):
        n = int(r.integers(0, 3))
        pts = []
        for _ in range(n):
            x = float(r.uniform(2.5, 5.0)) * (1 if r.random() < 0.5 else -1)
            y = float(r.uniform(-5.0, 5.0))
            pts.append(mp((x, y), float(r.uniform(0.1, 0.5))))
        return config(pts, dim=2)

    def path_env(r):
        n = int(r.integers(0, 3))
        pts = []
        for _ in range(n):
            x = float(r.uniform(2.5, 5.0)) * (1 if r.random() < 0.5 else -1)
            y = float(r.uniform(-5.0, 5.0))
            pts.append(MarkedPoint.make((x, y), random_path(r, scale=0.3)))
        return config(pts, dim=2)

    cases = [
        ("hardcore", HardSphereModel(), scalar, ring_env, 2.5, False),
        ("nonnegpair", PairPotentialModel(soft_bump), scalar, ring_env, 2.5, False),
        # two-sided for the grain-union model, whose energy is bounded both
        # ways; one-sided (the lower stability constant) for the path model,
        # whose pair core is unbounded above by design
        ("quermass", QuermassModel(0.4, -0.2, 0.3), scalar, ring_env, 2.0, True),
        ("diffusion", DiffusionModel(), paths, path_env, 2.5, False),
    ]
    lines = []
    for i, (name, model, sampler, env, exponent, two_sided) in enumerate(cases):
        small = stability_audit(
            model, sampler, 300, stream(9801, i), exponent=exponent,
            two_sided=two_sided,
        )
        large = stability_audit(
            model, sampler, 3000, stream(9801, i), exponent=exponent,
            two_sided=two_sided,
        )
        assert small.bounded and large.bounded
        assert math.isfinite(small.c_hat) and math.isfinite(large.c_hat)
        assert large.c_hat >= small.c_hat  # same stream prefix
        if model.nonnegative:
            assert large.c_hat <= 0.0
        if name == "quermass":
            assert large.c_hat <= 0.6 * math.pi + 1.8 + 1e-9

        loc_small = local_stability_audit(
            model, lam, t=9, n_trials=100, rng=stream(9802, i),
            interior_sampler=sampler, env_sampler=env, delta=0.5,
            exponent=exponent,
        )
        loc_large = local_stability_audit(
            model, lam, t=9, n_trials=1000, rng=stream(9802, i),
            interior_sampler=sampler, env_sampler=env, delta=0.5,
            exponent=exponent,
        )
        assert math.isfinite(loc_small.c_hat) and math.isfinite(loc_large.c_hat)
        assert loc_large.c_hat >= loc_small.c_hat
        assert loc_small.n_env_rejected == 0 and loc_large.n_env_rejected == 0
        lines.append(f"{name} c={large.c_hat:.3f} c_loc={loc_large.c_hat:.3f}")

    u_star = 1.5 * 2.0 ** (1.0 / 6.0)
    assert abs(lj_pair(u_star) + 4.0) <= 1e-9
    assert lj_pair(1.5) == 0.0
    grid = np.linspace(1.3, 4.0, 20_001)
    assert min(lj_pair(float(u)) for u in grid) >= -4.0 - 1e-9
    print(
        "[acceptance] criterion 08 stability audits: PASS ("
        + "; ".join(lines)
        + f"; pair floor {lj_pair(u_star):.9f} at {u_star:.4f})"
    )


def test_criterion_09_path_law_matches_invariant_measure():
    """Endpoint law of the quartic-potential path sampler passes a KS check
    at 1e5 samples against the invariant radial density, and the sup-norm
    moment audit stays finite with a stable confidence interval when the
    sample size grows tenfold."""
    check = langevin_invariant_check(
        LangevinSpec.named("quartic", 256),
        burn_in=4096,
        n_samples=100_000,
        rng=stream(9901, 0),
    )
    assert not check.diverged
    assert check.ks_stat <= 0.02
    assert check.passed

    law = LangevinSpec.named("quartic", 64)
    small = super_exp_moment_estimate(law, d=2, delta=0.4, n_samples=2000,
                                      rng=stream(9901, 1))
    large = super_exp_moment_estimate(law, d=2, delta=0.4, n_samples=20_000,
                                      rng=stream(9901, 2))
    for audit in (small, large):
        assert audit.n_overflow == 0
        assert audit.finite
        assert math.isfinite(audit.estimate) and audit.estimate >= 1.0
    assert abs(small.estimate - large.estimate) <= 3.0 * math.hypot(
        small.stderr, large.stderr
    )
    assert large.stderr < small.stderr
    print(
        f"[acceptance] criterion 09 path-law invariance: PASS "
        f"(ks={check.ks_stat:.4f} <= 0.02 at n=100000; moment "
        f"{small.estimate:.3f}+-{small.stderr:.3f} -> "
        f"{large.estimate:.3f}+-{large.stderr:.3f}, no overflow)"
    )


def test_criterion_10_runs_are_reproducible_to_the_byte(tmp_path):
    """Two harness runs from the same seed write byte-identical sample files
    and manifests."""
    payload = {
        "seed": 424242,
        "model": {"id": "hardcore"},
        "window": {"kind": "box", "n": 1, "d": 2},
        "z": 0.7,
        "mark_law": {"kind": "uniform", "b": 0.4},
        "steps": 6000,
        "burn_in": 1000,
        "thin": 50,
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    for name in ("first", "second"):
        rc = main(
            ["sample", "--config", str(cfg), "--out", str(tmp_path), "--name", name]
        )
        assert rc == 0
    f1 = (tmp_path / "first" / "samples_chain0.jsonl").read_bytes()
    f2 = (tmp_path / "second" / "samples_chain0.jsonl").read_bytes()
    m1 = (tmp_path / "first" / "manifest.json").read_bytes()
    m2 = (tmp_path / "second" / "manifest.json").read_bytes()
    assert f1 == f2
    assert m1 == m2
    assert len(f1) > 0
    print(
        f"[acceptance] criterion 10 determinism: PASS "
        f"(sample files byte-identical, {len(f1)} bytes; manifests identical)"
    )
