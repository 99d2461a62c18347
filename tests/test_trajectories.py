"""Fixed-seed trajectories pinned to recorded fingerprints.

Each case runs a short chain from a fixed stream and compares what it did
against values recorded from an earlier version of the code: a digest of the
thinned samples, the proposal and acceptance counts by kind, and the exact
bits of the final cached energy. A refactor of the chain, the energy models
or the lattice tables must keep all of them: the same draws, the same
accept/reject decisions and the same floating-point sums. A mismatch means
a chain now visits different states for the same seed.
"""

import hashlib
import math

import pytest

from gibbsgrain import (
    Ball,
    Box,
    DiffusionModel,
    HardSphereModel,
    IdealModel,
    LangevinSpec,
    PairPotentialModel,
    PathMark,
    QuermassModel,
    UniformLaw,
    run_chain,
    stream,
)
from gibbsgrain.discrete import DiscreteInstance

from conftest import config, mp


def soft_bump(u):
    return 1.2 * u * math.exp(-u)


# Atoms just outside [-1.5, 1.5)^2, close enough to interact with the interior.
ENV = config(
    [
        mp((1.8, 0.1), 0.6),
        mp((-1.7, 1.2), 0.5),
        mp((0.3, -1.9), 0.7),
        mp((2.6, 2.4), 0.4),
    ]
)

# ENV moved out by 4.5 along its outward axis, so it sits just outside
# [-6, 6)^2 as ENV does outside [-1.5, 1.5)^2 (ENV itself would lie inside
# the wider window and be dropped).
ENV_W6 = config(
    [
        mp((6.3, 0.1), 0.6),
        mp((-6.2, 1.2), 0.5),
        mp((0.3, -6.4), 0.7),
        mp((7.1, 6.9), 0.4),
    ]
)

CASES = {
    "ideal": dict(
        model=IdealModel(), half=1.5, z=0.8, law=UniformLaw(0.5), steps=20_000, env=ENV
    ),
    "hardcore": dict(
        model=HardSphereModel(), half=1.5, z=1.5, law=UniformLaw(0.5), steps=20_000, env=ENV
    ),
    "nonnegpair": dict(
        model=PairPotentialModel(soft_bump),
        half=1.5, z=1.2, law=UniformLaw(0.6), steps=20_000, env=ENV,
    ),
    "quermass": dict(
        model=QuermassModel(0.4, -0.2, 0.3), half=1.0, z=0.6, law=UniformLaw(0.6),
        steps=3000, env=None,
    ),
    "diffusion": dict(
        model=DiffusionModel(), half=2.0, z=0.4, law=LangevinSpec.named("quartic", 32),
        steps=2000, env=None,
    ),
    # Wide enough (~140 atoms) that the chain's neighbour cells tile the
    # window; the name sorts last so the other cases keep their streams.
    "wide-nonnegpair": dict(
        model=PairPotentialModel(soft_bump),
        half=6.0, z=1.2, law=UniformLaw(0.6), steps=20_000, env=ENV_W6,
    ),
    # A disc window: births by bounding-box rejection, moves refused when
    # they leave the disc. ENV lies outside it; the name sorts last.
    "window-ball-nonnegpair": dict(
        model=PairPotentialModel(soft_bump), window=Ball((0.0, 0.0), 1.7),
        z=1.2, law=UniformLaw(0.6), steps=20_000, env=ENV,
    ),
}

PINNED = {
    "diffusion": {
        "samples": "836a1f96e7b8e4ca292a82985e9297ffa787ee3b6e728163ab4bdd5d07616592",
        "proposals": {"birth": 755, "death": 673, "move": 381, "remark": 191},
        "accepts": {"birth": 10, "death": 3, "move": 74, "remark": 96},
        "final_energy": "-0x1.9a172437c857ap+5",
    },
    "hardcore": {
        "samples": "5a2d4196d5a5ea430fd1f6c12f281e63da177ec53e2cdbad40ae54f8b2e09bd8",
        "proposals": {"birth": 7014, "death": 6875, "move": 4160, "remark": 1951},
        "accepts": {"birth": 3298, "death": 3292, "move": 2700, "remark": 1549},
        "final_energy": "0x0.0p+0",
    },
    "ideal": {
        "samples": "c584056260a8070096a5ab12d0f0719f76f4e434481b278ecd5970e096cbf587",
        "proposals": {"birth": 7030, "death": 7006, "move": 3967, "remark": 1997},
        "accepts": {"birth": 5984, "death": 5977, "move": 3327, "remark": 1995},
        "final_energy": "0x0.0p+0",
    },
    "nonnegpair": {
        "samples": "7612c1e161f2fb0fb24d44803b99bbf76573e800456d02097f3a590a5696a05a",
        "proposals": {"birth": 6912, "death": 6992, "move": 4057, "remark": 2039},
        "accepts": {"birth": 5571, "death": 5567, "move": 3162, "remark": 1863},
        "final_energy": "0x1.bdebc97f0afa2p-1",
    },
    "quermass": {
        "samples": "132283123d75b27815c4aaf63a6e6df545caef10199c21061830344e4ab32080",
        "proposals": {"birth": 1075, "death": 1050, "move": 588, "remark": 287},
        "accepts": {"birth": 781, "death": 776, "move": 416, "remark": 241},
        # Increments priced on each new grain's link round differently from
        # the differences F(N with p) - F(N) (0x1.5b94e8db246d6p-3), which
        # rounded differently from global energies (0x1.5b94e8db24650p-3).
        "final_energy": "0x1.5b94e8db245e0p-3",
    },
    "wide-nonnegpair": {
        "samples": "d847fa5c46433aa2735b36aa260d081f6b40089550a4175cf8eb464d0bd75a9c",
        "proposals": {"birth": 7074, "death": 6907, "move": 3980, "remark": 2039},
        "accepts": {"birth": 6094, "death": 5951, "move": 3492, "remark": 1834},
        "final_energy": "0x1.404a7a4217708p+4",
    },
    "window-ball-nonnegpair": {
        "samples": "fd3e79a9462630270b21eaea3b42be1ab33cacc8143f935fe2bf5d35dcaf1462",
        "proposals": {"birth": 7100, "death": 6913, "move": 3970, "remark": 2017},
        "accepts": {"birth": 5592, "death": 5582, "move": 3122, "remark": 1825},
        "final_energy": "0x1.3000a2bc8e7e5p+1",
    },
}

PINNED_VISITS = [
    77325, 18065, 11923, 26144, 3874, 2685, 7358, 1055, 739,
    17840, 3999, 2841, 3808, 481, 351, 1157, 223, 96,
    12062, 2760, 1139, 2582, 334, 166, 763, 151, 79,
]


def samples_digest(samples) -> str:
    """sha256 over every atom of every sample, path marks by their raw bytes."""
    h = hashlib.sha256()
    for c in samples:
        for p in c.points:
            h.update(repr((p.location, p.mark_norm)).encode())
            m = p.mark
            h.update(m.samples.tobytes() if isinstance(m, PathMark) else repr(m).encode())
        h.update(b"|")
    return h.hexdigest()


def fingerprint(name):
    case = CASES[name]
    window = case.get("window") or Box.centered_cube(case["half"], 2)
    res = run_chain(
        case["model"],
        window,
        case["z"],
        case["law"],
        case["steps"],
        stream(4242, sorted(CASES).index(name)),
        env=case["env"],
        thin=10,
        drift_check_every=case["steps"] // 4,
    )
    return {
        "samples": samples_digest(res.samples),
        "proposals": res.stats.proposals,
        "accepts": res.stats.accepts,
        "final_energy": res.stats.final_energy.hex(),
    }


def lattice_visits():
    inst = DiscreteInstance(
        PairPotentialModel(soft_bump),
        cell_centers=[(0.0,), (0.8,), (1.6,)],
        cell_volume=0.8,
        mark_values=[0.5, 0.9],
        mark_probs=[0.6, 0.4],
        z=0.7,
        env=(mp((2.2,), 0.6), mp((-0.5,), 0.7)),
    )
    return [int(v) for v in inst.run_chain(200_000, stream(4243, 0))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_trajectory_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


def test_lattice_chain_visits_are_pinned():
    assert lattice_visits() == PINNED_VISITS
