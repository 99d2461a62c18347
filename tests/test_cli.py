"""End-to-end tests of the command-line harness through main(argv)."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import gibbsgrain
import gibbsgrain.cli as cli
from gibbsgrain import Ball, MarkedPoint, PathMark, sampler
from gibbsgrain.cli import build_law, build_window, main
from gibbsgrain.errors import ConfigError
from gibbsgrain.io import read_configs_jsonl, read_report_csv, write_configs_jsonl

from conftest import config, legacy_path_lines, mp


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def path_boundary():
    """Two path-marked atoms just outside [-1, 1)^2, tempered at t = 1."""
    pts = []
    for loc, scale in (((1.4, 0.2), 0.05), ((-0.3, -1.5), -0.08)):
        samples = np.zeros((9, 2))
        samples[1:, 0] = scale * np.arange(1, 9)
        samples[1:, 1] = -0.5 * scale * np.arange(1, 9) ** 0.5
        pts.append(MarkedPoint.make(loc, PathMark(samples)))
    return config(pts, dim=2)


class TestSampleCommand:
    def test_zero_activity_writes_empty_samples(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "run.json",
            {
                "seed": 11,
                "model": {"id": "hardcore"},
                "window": {"kind": "box", "n": 1, "d": 2},
                "z": 0.0,
                "mark_law": {"kind": "point", "value": 0.25},
                "steps": 2000,
                "burn_in": 500,
                "thin": 50,
            },
        )
        rc = main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "zrun"])
        assert rc == 0
        samples = list(read_configs_jsonl(tmp_path / "zrun" / "samples_chain0.jsonl"))
        assert len(samples) == 30
        assert all(len(c) == 0 for c in samples)

    def test_nonnegpair_on_a_ball_window(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "run.json",
            {
                "seed": 12,
                "model": {"id": "nonnegpair", "phi": "soft_bump"},
                "window": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.5},
                "z": 0.8,
                "mark_law": {"kind": "uniform", "b": 0.6},
                "steps": 600,
                "burn_in": 100,
                "thin": 50,
            },
        )
        rc = main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "ball"])
        assert rc == 0
        samples = list(read_configs_jsonl(tmp_path / "ball" / "samples_chain0.jsonl"))
        assert len(samples) == 10
        assert any(len(c) for c in samples)
        ball = Ball([0.0, 0.0], 1.5)
        assert all(p.location in ball for c in samples for p in c)
        record = json.loads((tmp_path / "ball" / "record.json").read_text())
        assert record["status"] == "ok"
        assert sum(record["chain_stats"][0]["accepts"].values()) > 0

    def test_unknown_model_exits_2_without_outputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "bad.json", {"seed": 1, "model": {"id": "plasma"}}
        )
        rc = main(["sample", "--config", cfg, "--out", str(tmp_path / "root")])
        assert rc == 2
        assert not (tmp_path / "root").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.json", {"seed": 1, "stepz": 100})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        assert main(["sample", "--out", str(tmp_path / "r")]) == 2

    def test_same_seed_is_byte_identical(self, tmp_path):
        base = {
            "seed": 31,
            "model": {"id": "hardcore"},
            "window": {"kind": "box", "n": 1, "d": 2},
            "z": 0.6,
            "mark_law": {"kind": "point", "value": 0.25},
            "steps": 4000,
            "burn_in": 1000,
            "thin": 100,
        }
        cfg = write_cfg(tmp_path, "run.json", base)
        for name in ("r1", "r2"):
            rc = main(
                ["sample", "--config", cfg, "--out", str(tmp_path), "--name", name]
            )
            assert rc == 0
        f1 = (tmp_path / "r1" / "samples_chain0.jsonl").read_bytes()
        f2 = (tmp_path / "r2" / "samples_chain0.jsonl").read_bytes()
        assert f1 == f2
        m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
        assert m1 == m2

    def test_record_references_manifest(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "run.json",
            {"seed": 5, "z": 0.3, "steps": 1500, "burn_in": 500, "thin": 100},
        )
        rc = main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "rr"])
        assert rc == 0
        manifest = json.loads((tmp_path / "rr" / "manifest.json").read_text())
        record = json.loads((tmp_path / "rr" / "record.json").read_text())
        assert record["manifest"] == manifest["hash"]
        assert record["status"] == "ok"
        assert record["outputs"] == ["samples_chain0.jsonl"]
        meta = json.loads(
            (tmp_path / "rr" / "samples_chain0.jsonl").read_text().splitlines()[0]
        ).get("meta")
        assert meta["manifest"] == manifest["hash"]

    def test_out_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIBBSGRAIN_OUT", str(tmp_path / "envroot"))
        cfg = write_cfg(
            tmp_path,
            "run.json",
            {"seed": 7, "z": 0.0, "steps": 1200, "burn_in": 200, "thin": 100},
        )
        assert main(["sample", "--config", cfg, "--name", "viaenv"]) == 0
        assert (tmp_path / "envroot" / "viaenv" / "samples_chain0.jsonl").exists()

    def test_multiple_chains_use_distinct_streams(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "run.json",
            {
                "seed": 13,
                "z": 0.8,
                "mark_law": {"kind": "uniform", "b": 0.4},
                "steps": 3000,
                "burn_in": 1000,
                "thin": 100,
                "chains": 2,
            },
        )
        rc = main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "mc"])
        assert rc == 0
        c0 = (tmp_path / "mc" / "samples_chain0.jsonl").read_text()
        c1 = (tmp_path / "mc" / "samples_chain1.jsonl").read_text()
        assert c0 != c1
        record = json.loads((tmp_path / "mc" / "record.json").read_text())
        stats = record["chain_stats"]
        assert len(stats) == 2
        for st in stats:
            assert st["steps"] == 3000
            assert sum(st["proposals"].values()) == 3000
            assert all(st["accepts"][k] <= n for k, n in st["proposals"].items())
            assert st["drift_checks"] == 0 and st["max_drift"] == 0.0
            assert math.isfinite(st["final_energy"])
        assert stats[0] != stats[1]
        # timings, kept out of chain_stats so those stay deterministic
        assert record["steps_per_s"] > 0 and "steps_per_s" not in stats[0]
        assert record["write_s"] > 0 and "write_s" not in stats[0]

    def test_diffusion_samples_decode_to_pinned_bytes(self, tmp_path):
        """The path marks of a fixed-seed diffusion-model run, as read back
        from its sample file: locations and the raw float64 bytes of every
        path, pinned from the version that stored paths as JSON lists. Any
        change of the on-disk encoding must decode to these same bits."""
        cfg = write_cfg(
            tmp_path,
            "run.json",
            {
                "seed": 2027,
                "model": {"id": "diffusion"},
                "window": {"kind": "box", "n": 2, "d": 2},
                "z": 0.3,
                "mark_law": {"kind": "langevin", "potential": "quartic", "step_count": 16},
                "steps": 60,
                "burn_in": 10,
                "thin": 5,
                "drift_check_every": 15,
            },
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "d"]) == 0
        h = hashlib.sha256()
        n_configs = n_atoms = 0
        for c in read_configs_jsonl(tmp_path / "d" / "samples_chain0.jsonl"):
            n_configs += 1
            for p in c.points:
                n_atoms += 1
                h.update(repr(p.location).encode())
                h.update(p.mark.samples.tobytes())
            h.update(b"|")
        assert (n_configs, n_atoms) == (10, 42)
        assert h.hexdigest() == (
            "a7e2a5edb5e09e4491b6b9a5496e8d02a1db3278150940735c1a42f159e18c51"
        )

    def test_legacy_boundary_file_conditions_like_binary(self, tmp_path):
        legacy, binary = tmp_path / "legacy.jsonl", tmp_path / "binary.jsonl"
        legacy.write_text(legacy_path_lines([path_boundary()]))
        write_configs_jsonl(binary, [path_boundary()])
        runs = {}
        for name, xi in (("lg", legacy), ("bn", binary)):
            cfg = write_cfg(tmp_path, name + ".json", {
                "seed": 17, "model": {"id": "diffusion"},
                "window": {"kind": "box", "n": 1, "d": 2}, "z": 0.5,
                "mark_law": {"kind": "langevin", "potential": "quartic", "step_count": 8},
                "steps": 300, "burn_in": 100, "thin": 20,
                "boundary": {"file": str(xi), "t": 1, "delta": 1.0}})
            assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", name]) == 0
            runs[name] = list(read_configs_jsonl(tmp_path / name / "samples_chain0.jsonl"))
        assert len(runs["lg"]) == len(runs["bn"]) == 10
        assert any(len(c) for c in runs["lg"])
        for a, b in zip(runs["lg"], runs["bn"]):
            assert [p.location for p in a.points] == [p.location for p in b.points]
            assert [p.mark.samples.tobytes() for p in a.points] == [
                p.mark.samples.tobytes() for p in b.points]


    def test_tangent_quermass_environment_exits_3(self, tmp_path):
        # the two boundary grains touch at (1.2, 0.5), outside [-1, 1)^2
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((1.2, 0.0), 0.5), mp((1.2, 1.0), 0.5)])])
        cfg = write_cfg(tmp_path, "q.json", {
            "seed": 0,
            "model": {"id": "quermass", "a_area": 0.4, "a_perimeter": -0.2, "a_euler": 0.3},
            "window": {"kind": "box", "n": 1, "d": 2}, "z": 1.0,
            "mark_law": {"kind": "uniform", "b": 0.6},
            "steps": 800, "burn_in": 0, "thin": 100, "drift_check_every": 200,
            "boundary": {"file": str(xi), "t": 1, "delta": 1.0}})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "q"]) == 3
        record = json.loads((tmp_path / "q" / "record.json").read_text())
        assert record["status"] == "failed"
        assert record["exit_code"] == 3
        assert record["error"].startswith("PreconditionError: environment grains")


class TestGeometryCommand:
    def test_small_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "geo.json",
            {
                "seed": 21,
                "n_systems": 2,
                "n_discs": 5,
                "grid": 512,
                "mc_points": 20_000,
            },
        )
        rc = main(["geometry", "--config", cfg, "--out", str(tmp_path), "--name", "geo"])
        assert rc == 0
        rows = read_report_csv(tmp_path / "geo" / "geometry.csv")
        assert len(rows) == 10
        by_q = {r.quantity: r for r in rows}
        for i in range(2):
            exact = by_q[f"area_exact[{i}]"]
            mc = by_q[f"area_mc[{i}]"]
            assert abs(exact.estimate - mc.estimate) <= 4.0 * mc.stderr
            assert by_q[f"chi_nerve[{i}]"].estimate == by_q[f"chi_raster[{i}]"].estimate


class TestTemperCommand:
    def test_report_rows(self, tmp_path):
        tame = config([mp((0.3, 0.1), 0.4), mp((-1.0, 0.5), 0.2)])
        wild = config([mp((9.5, 0.0), 6.0)])
        inp = tmp_path / "configs.jsonl"
        write_configs_jsonl(inp, [tame, wild])
        rc = main(
            [
                "temper", "--input", str(inp), "--seed", "3", "--t", "2",
                "--delta", "1.0", "--out", str(tmp_path), "--name", "tmp",
            ]
        )
        assert rc == 0
        rows = read_report_csv(tmp_path / "tmp" / "temper.csv")
        by_q = {r.quantity: r.estimate for r in rows}
        assert by_q["tempered[0]"] == 1.0
        assert by_q["tempered[1]"] == 0.0
        assert by_q["minimal_t[1]"] > 2.0
        assert by_q["range_separation[0]"] == 1.0
        assert by_q["range_separation[1]"] == 1.0
        record = json.loads((tmp_path / "tmp" / "record.json").read_text())
        assert record["n_configs"] == 2
        assert record["read_s"] > 0
        assert record["scan_s"] >= 0

    def test_legacy_path_file_is_accepted(self, tmp_path):
        inp = tmp_path / "legacy.jsonl"
        inp.write_text(legacy_path_lines([path_boundary(), config([], dim=2)]))
        rc = main(["temper", "--input", str(inp), "--seed", "3",
                   "--out", str(tmp_path), "--name", "lg"])
        assert rc == 0
        record = json.loads((tmp_path / "lg" / "record.json").read_text())
        assert record["n_configs"] == 2

    def test_malformed_path_payload_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "bad.jsonl"
        write_configs_jsonl(inp, [path_boundary()] * 2)
        lines = inp.read_text().splitlines()
        inp.write_text(lines[0] + "\n" + lines[1].replace('"f8le": "', '"f8le": "*') + "\n")
        rc = main(["temper", "--input", str(inp), "--seed", "3",
                   "--out", str(tmp_path), "--name", "bad"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.jsonl line 2" in err and "not base64" in err
        assert "Traceback" not in err
        record = json.loads((tmp_path / "bad" / "record.json").read_text())
        assert record["exit_code"] == 2
        assert "bad.jsonl line 2" in record["error"]

    @pytest.mark.parametrize("coordinate", ["NaN", "Infinity"])
    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys, coordinate):
        inp = tmp_path / "bad.jsonl"
        inp.write_text(f'{{"dim": 2, "points": [{{"x": [{coordinate}, 0.0], '
                       '"mark": {"kind": "scalar", "value": 0.5}}]}\n')
        rc = main(["temper", "--input", str(inp), "--seed", "3",
                   "--out", str(tmp_path), "--name", "bad"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.jsonl line 1" in err and "is not finite" in err
        record = json.loads((tmp_path / "bad" / "record.json").read_text())
        assert record["exit_code"] == 2
        boundary = {"file": str(inp), "t": 1, "delta": 1.0}
        cfg = write_cfg(tmp_path, "bc.json", {"seed": 1, "boundary": boundary})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert "bad.jsonl line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        ['{"dim": 2.9, "points": [{"x": [1.5, 0.0], "mark": {"kind": "scalar", "value": 0.25}}]}',
         '{"dim": 2, "points": [{"x": [1.5, true], "mark": {"kind": "scalar", "value": 0.25}}]}',
         '{"dim": 2, "points": [{"x": [1.5, 0.0], "mark": {"kind": "scalar", "value": "0.25"}}]}'],
        ids=["fractional-dim", "bool-coordinate", "string-mark"],
    )
    def test_record_numbers_follow_the_config_rule(self, tmp_path, capsys, record):
        inp = tmp_path / "bad.jsonl"
        inp.write_text(record + "\n")
        rc = main(["temper", "--input", str(inp), "--seed", "3",
                   "--out", str(tmp_path), "--name", "bad"])
        assert rc == 2
        assert "bad.jsonl line 1" in capsys.readouterr().err
        assert json.loads((tmp_path / "bad" / "record.json").read_text())["exit_code"] == 2
        boundary = {"file": str(inp), "t": 1, "delta": 1.0}
        cfg = write_cfg(tmp_path, "bc.json", {"seed": 1, "boundary": boundary})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert "bad.jsonl line 1" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(
            ["temper", "--input", str(tmp_path / "nope.jsonl"), "--seed", "1",
             "--out", str(tmp_path)]
        )
        assert rc == 2


class TestAuditCommand:
    def test_global_and_local_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "audit.json",
            {
                "seed": 41,
                "model": {"id": "hardcore"},
                "mark_law": {"kind": "uniform", "b": 0.5},
                "window": {"kind": "box", "n": 1, "d": 2},
                "z": 0.5,
                "n_trials": 150,
                "local": {"t": 9, "env_n": 2, "env_z": 0.2},
            },
        )
        rc = main(["audit", "--config", cfg, "--out", str(tmp_path), "--name", "au"])
        assert rc == 0
        rows = read_report_csv(tmp_path / "au" / "audit.csv")
        by_q = {r.quantity: r for r in rows}
        assert by_q["c_hat_global"].estimate <= 0.0
        assert by_q["c_hat_local"].estimate <= 0.0
        assert by_q["n_env_rejected"].estimate == 0.0
        assert by_q["c_hat_global"].model_id == "hardcore"


class TestEntropyCommand:
    def test_ideal_curve_is_flat_and_every_draw_counts(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "ent.json",
            {
                "seed": 51,
                "model": {"id": "ideal"},
                "mark_law": {"kind": "uniform", "b": 0.5},
                "z": 0.6,
                "n_energy_samples": 200,
                "n_partition_samples": 1200,
            },
        )
        rc = main(
            ["entropy", "--config", cfg, "--n-list", "1,2",
             "--out", str(tmp_path), "--name", "ent"]
        )
        assert rc == 0
        rows = read_report_csv(tmp_path / "ent" / "entropy.csv")
        per_vol = [r for r in rows if r.quantity == "i_per_volume"]
        assert [r.n for r in per_vol] == [1, 2]
        assert all(r.estimate == 0.0 for r in per_vol)
        record = json.loads((tmp_path / "ent" / "record.json").read_text())
        assert record["under_ceiling"] is True
        assert record["trend_ok"] is True
        # ideal weights are all 1: every partition draw counts
        assert record["partition"] == [
            {"n": n, "ess": 1200.0, "max_weight_share": 1.0 / 1200} for n in (1, 2)
        ]


class TestDlrCommand:
    def test_hardcore_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "dlr.json",
            {
                "seed": 61,
                "model": {"id": "hardcore"},
                "mark_law": {"kind": "point", "value": 0.3},
                "lam_n": 4,
                "lam": 2.0,
                "z": 0.2,
                "n_outer": 60,
                "n_inner": 100,
            },
        )
        rc = main(["dlr", "--config", cfg, "--out", str(tmp_path), "--name", "dlr"])
        assert rc == 0
        rows = read_report_csv(tmp_path / "dlr" / "dlr.csv")
        assert len(rows) == 10
        record = json.loads((tmp_path / "dlr" / "record.json").read_text())
        assert record["total"] == 10
        assert record["passed"] >= 9  # exact law; allow one 3-sigma graze


class TestCompatCommand:
    def test_both_flavors_are_roundoff(self, tmp_path):
        rc = main(
            ["compat", "--seed", "71", "--flavor", "both",
             "--out", str(tmp_path), "--name", "cp"]
        )
        assert rc == 0
        rows = read_report_csv(tmp_path / "cp" / "compat.csv")
        assert len(rows) == 2
        assert {r.model_id for r in rows} == {"hardcore", "nonnegpair"}
        assert all(r.estimate <= 1e-10 for r in rows)


class TestDiffusionCommand:
    def test_demo_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "dif.json",
            {
                "seed": 81,
                "z": 0.3,
                "steps": 1200,
                "burn_in": 600,
                "thin": 30,
                "step_count": 64,
                "potential": "quartic",
            },
        )
        rc = main(["diffusion", "--config", cfg, "--out", str(tmp_path), "--name", "df"])
        assert rc == 0
        samples = list(read_configs_jsonl(tmp_path / "df" / "samples_chain0.jsonl"))
        assert len(samples) == 20
        rows = read_report_csv(tmp_path / "df" / "diffusion.csv")
        by_q = {r.quantity: r for r in rows}
        assert by_q["mean_count"].estimate >= 0.0
        assert math.isfinite(by_q["final_energy"].estimate)
        record = json.loads((tmp_path / "df" / "record.json").read_text())
        assert record["steps_per_s"] > 0
        assert record["write_s"] > 0

    def test_outputs_are_pinned(self, tmp_path):
        """A fixed-seed run writes these exact sample and report files. The
        manifest digest in the sample file's meta line covers the numpy
        version, so it is blanked before hashing and checked on its own."""
        cfg = write_cfg(
            tmp_path,
            "dif.json",
            {"seed": 8, "z": 0.5, "steps": 400, "burn_in": 100, "thin": 20, "step_count": 8},
        )
        assert main(["diffusion", "--config", cfg, "--out", str(tmp_path), "--name", "p"]) == 0
        run = tmp_path / "p"
        digest = json.loads((run / "manifest.json").read_text())["hash"]
        samples = (run / "samples_chain0.jsonl").read_bytes()
        # one meta line per configuration, each carrying the digest
        assert samples.count(digest.encode()) == 15
        samples = samples.replace(digest.encode(), b"")
        assert hashlib.sha256(samples).hexdigest() == (
            "9e1cb59cd038d5a0f2294210f0bc34e73682e29fa825df3f18c44821af1439bb"
        )
        report = (run / "diffusion.csv").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "cfe4df229341a365a289acb6445bd87db51d8b2380622f6a69b591551a22bbf9"
        )


class TestRunWrapper:
    """Config errors stop before the run directory; later failures leave a
    record.json that says what went wrong."""

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["audit"], {"local": {"t": 2, "radius": 1.0}}),
            (["temper"], {}),
            (["compat", "--flavor", "bogus"], {}),
            (["audit"], {"local": 5}),
            (["audit"], {"local": {"t": [2]}}),
            (["audit"], {"local": {"t": 1.5}}),
            (["geometry"], {"n_systems": 1, "n_discs": 3, "mc_points": 100}),
            (["diffusion", "--z", "-1"], {"steps": 100}),
            (["sample"], {"drift_check_every": 0, "steps": 100, "burn_in": 10}),
            (["sample"], {"drift_check_every": -1, "steps": 100, "burn_in": 10}),
            (["sample"], {"model": {"phi": "soft_bump"}, "steps": 100, "burn_in": 10}),
            (["sample"], {"model": {"id": "nonnegpair", "phi": "bogus"}, "steps": 100,
                          "burn_in": 10}),
            (["sample"], {"window": {"kind": "torus"}, "steps": 100, "burn_in": 10}),
            (["sample"], {"chains": 0, "steps": 100, "burn_in": 10}),
            (["sample", "--seed", "1"], None),
            (["sample", "--seed", "1"], '{"seed": 1,'),
            (["sample", "--seed", "1"], "[1, 2]"),
            (["sample"], {"boundary": {"file": "absent.jsonl", "t": 1, "delta": 1.0},
                          "steps": 100, "burn_in": 10}),
            (["sample"], {"boundary": {"file": "empty.jsonl", "t": 1, "delta": 1.0},
                          "steps": 100, "burn_in": 10}),
            (["entropy"], {"z": -1}),
            (["audit"], {"z": -1}),
            (["dlr"], {"z": -1}),
            (["audit"], {"local": {"env_z": -1}}),
            (["dlr"], {"delta": 0}),
            (["dlr"], {"delta": -0.5}),
            (["audit"], {"delta": 0, "local": {}}),
            (["audit"], {"delta": -0.5}),
            (["entropy"], {"delta": 0}),
            (["entropy"], {"d": 0}),
            (["entropy"], {"n_list": [0, 1]}),
            (["audit"], {"local": {"t": 0}}),
            (["geometry"], {"n_systems": 1, "n_discs": 3, "grid": 0}),
            (["audit"], {"n_trials": 0}),
            (["entropy"], {"n_energy_samples": 0}),
            (["entropy"], {"n_partition_samples": 0}),
            (["entropy"], {"chain_steps": 0}),
            (["dlr"], {"n_outer": 0}),
            (["dlr"], {"n_inner": 0}),
            (["entropy"], {"n_partition_samples": 999}),
            (["entropy"], {"n_energy_samples": 1}),
            (["dlr"], {"n_inner": 99}),
            (["dlr"], {"n_outer": 1}),
            (["geometry"], {"n_systems": 0}),
            (["geometry"], {"n_discs": 0}),
            (["entropy"], {"model": {"id": "quermass", "a_area": 0.4}, "n_list": [1],
                           "n_partition_samples": 1000, "chain_steps": 2}),
            (["geometry"], {"n_systems": 1, "n_discs": 3, "extent": 0}),
            (["geometry"], {"n_systems": 1, "n_discs": 3, "margin": -1,
                            "mc_points": 10_000, "grid": 64}),
            (["audit"], {"n_trials": 10, "exponent": "nan"}),
            (["entropy"], {"n_list": [1], "n_energy_samples": 2, "n_partition_samples": 1000,
                           "stat_exponent": "nan"}),
            (["dlr"], {"lam": 5, "lam_n": 4, "n_outer": 2}),
            (["sample"], {"z": None, "steps": 100, "burn_in": 10}),
            (["sample"], {"z": [1], "steps": 100, "burn_in": 10}),
            (["sample"], {"z": True, "steps": 100, "burn_in": 10}),
            (["sample"], {"z": "0.5", "steps": 100, "burn_in": 10}),
            (["audit"], {"delta": None}),
            (["dlr"], {"lam": None}),
            (["temper"], {"input": 5}),
            (["sample"], {"boundary": {"file": 5, "t": 1, "delta": 1}, "steps": 100,
                          "burn_in": 10}),
            (["sample"], {"model": {"id": "nonnegpair", "phi": ["x"]}, "steps": 100,
                          "burn_in": 10}),
            (["sample"], {"model": {"id": "quermass", "a_area": None}, "steps": 100,
                          "burn_in": 10}),
            (["sample"], {"window": {"kind": "ball", "center": [0, 0], "radius": None},
                          "steps": 100, "burn_in": 10}),
            (["sample"], {"mark_law": "uniform", "steps": 100, "burn_in": 10}),
            (["sample"], {"name": 5, "steps": 100, "burn_in": 10}),
            (["entropy"], {"z": 1e309, "n_list": [1]}),
            (["geometry"], {"n_systems": 1, "n_discs": 3, "extent": "8", "grid": 64,
                            "mc_points": 10_000}),
            (["sample"], {"window": {"kind": "box", "bounds": [[None, 1], [0, 1]]},
                          "steps": 100, "burn_in": 10}),
            (["sample"], {"window": {"kind": "box", "bounds": [[0, 1e309], [0, 1]]},
                          "steps": 100, "burn_in": 10}),
            (["sample"], {"mark_law": {"kind": "point", "value": 1e309}, "steps": 100,
                          "burn_in": 10}),
            (["sample"], {"mark_law": {"kind": "uniform", "b": 1e309}, "steps": 100,
                          "burn_in": 10}),
            (["sample"], {"mark_law": {"kind": "table", "values": [0.1, 1e309],
                                       "probs": [0.5, 0.5]}, "steps": 100, "burn_in": 10}),
            (["sample"], {"model": {"id": "diffusion"},
                          "mark_law": {"kind": "langevin", "potential": "quartic",
                                       "step_count": 2.5}, "steps": 100, "burn_in": 10}),
            (["sample"], {"model": {"id": "diffusion"},
                          "mark_law": {"kind": "langevin", "potential": "quartic",
                                       "steps": 8}, "steps": 100, "burn_in": 10}),
            (["sample"], {"name": False, "steps": 100, "burn_in": 10}),
            (["sample"], {"name": "", "steps": 100, "burn_in": 10}),
        ],
        ids=["audit-local-key", "temper-no-input",
             "bogus-flavor", "audit-local-not-object",
             "audit-local-bad-value", "audit-local-fractional-t", "geometry-few-mc-points",
             "diffusion-negative-z", "drift-check-every-0", "drift-check-every-negative",
             "model-no-id", "bogus-phi", "bogus-window-kind", "chains-0",
             "config-file-missing", "config-file-not-json", "config-file-not-object",
             "boundary-file-missing", "boundary-file-empty",
             "entropy-negative-z", "audit-negative-z", "dlr-negative-z",
             "audit-local-negative-env-z", "dlr-delta-0", "dlr-delta-negative",
             "audit-local-delta-0", "audit-delta-negative", "entropy-delta-0", "entropy-d-0",
             "entropy-n-list-0", "audit-local-t-0", "geometry-grid-0", "audit-n-trials-0",
             "entropy-n-energy-samples-0", "entropy-n-partition-samples-0",
             "entropy-chain-steps-0", "dlr-n-outer-0", "dlr-n-inner-0",
             "entropy-n-partition-samples-999", "entropy-n-energy-samples-1",
             "dlr-n-inner-99", "dlr-n-outer-1",
             "geometry-n-systems-0", "geometry-n-discs-0", "entropy-chain-steps-2",
             "geometry-extent-0", "geometry-margin-negative", "audit-exponent-nan",
             "entropy-stat-exponent-nan", "dlr-lam-beyond-lam-n", "sample-z-null",
             "sample-z-list", "sample-z-bool", "sample-z-string", "audit-delta-null",
             "dlr-lam-null", "temper-input-not-string", "boundary-file-not-string",
             "phi-not-string", "quermass-a-area-null", "ball-radius-null",
             "mark-law-not-object", "name-not-string", "entropy-z-inf",
             "geometry-extent-string", "box-bounds-null", "box-bounds-inf", "point-mark-inf",
             "uniform-b-inf", "table-value-inf", "langevin-fractional-step-count",
             "langevin-unknown-key", "name-false", "name-empty"],
    )
    def test_config_errors_exit_2_without_run_dir(self, tmp_path, monkeypatch, argv, payload):
        # a dict is written as a config with its seed; a string is the raw
        # text of the config file, and None leaves the file absent
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.jsonl").write_text("")
        if isinstance(payload, dict):
            cfg = write_cfg(tmp_path, "cfg.json", dict(payload, seed=1))
        else:
            cfg = str(tmp_path / "cfg.json")
            if payload is not None:
                Path(cfg).write_text(payload)
        rc = main(argv + ["--config", cfg, "--out", str(tmp_path / "root")])
        assert rc == 2
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize(
        "command, payload",
        [("audit", {"two_sided": False}), ("diffusion", {"window_n": 1})],
    )
    def test_fixed_values_are_not_config_keys(self, tmp_path, command, payload):
        cfg = write_cfg(tmp_path, "cfg.json", dict(payload, seed=1))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "root")]) == 2
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize(
        "command, payload, code, error",
        [
            # two boundary grains 5e-9 short of tangency, within the band of
            # an uncapped U(5) mark law: refused when the chain starts
            ("sample", {"model": {"id": "quermass", "a_area": 0.4, "a_perimeter": -0.2,
                                  "a_euler": 0.3},
                        "window": {"kind": "box", "n": 1, "d": 2}, "z": 1.0,
                        "mark_law": {"kind": "uniform", "b": 5.0},
                        "steps": 2000, "burn_in": 500, "thin": 100, "drift_check_every": 500,
                        "boundary": {"file": "gapped.jsonl", "t": 1, "delta": 1.0}},
             3, "PreconditionError"),
        ],
    )
    def test_failed_run_leaves_record(self, tmp_path, monkeypatch, command, payload, code,
                                      error):
        monkeypatch.chdir(tmp_path)
        write_configs_jsonl(tmp_path / "gapped.jsonl",
                            [config([mp((1.2, 0.0), 0.5), mp((1.2, 1.000000005), 0.5)])])
        cfg = write_cfg(tmp_path, "cfg.json", dict(payload, seed=4))
        rc = main([command, "--config", cfg, "--out", str(tmp_path), "--name", "f"])
        assert rc == code
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        record = json.loads((tmp_path / "f" / "record.json").read_text())
        assert record["status"] == "failed"
        assert record["exit_code"] == code
        assert record["error"].startswith(error + ": ")
        assert record["manifest"] == manifest["hash"]

    def test_value_error_in_a_run_body_exits_1(self, tmp_path, monkeypatch):
        # A ValueError from numerical code is a fault of the code, not of the
        # config: main lets it through, so the console script exits 1 with
        # its traceback, and the record says so.
        def domain_error(*args):
            raise ValueError("math domain error")

        monkeypatch.setattr(sampler, "hastings_ratio", domain_error)
        cfg = write_cfg(tmp_path, "cfg.json", dict(self._CHAIN_BASE["sample"], seed=4))
        with pytest.raises(ValueError, match="math domain error"):
            main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "f"])
        record = json.loads((tmp_path / "f" / "record.json").read_text())
        assert record["status"] == "failed" and record["exit_code"] == 1
        assert record["error"] == "ValueError: math domain error"
        src = str(Path(gibbsgrain.__file__).resolve().parent.parent)
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from gibbsgrain import sampler\n"
            "def domain_error(*args): raise ValueError('math domain error')\n"
            "sampler.hastings_ratio = domain_error\n"
            "from gibbsgrain.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, src, "sample", "--config", cfg,
             "--out", str(tmp_path), "--name", "g"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        assert "ValueError: math domain error" in out.stderr
        assert json.loads((tmp_path / "g" / "record.json").read_text())["exit_code"] == 1

    def test_out_that_is_not_a_string_exits_2_without_run_dir(self, tmp_path, monkeypatch,
                                                              capsys):
        # without --out, the config's out key names the output root
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GIBBSGRAIN_OUT", raising=False)
        cfg = write_cfg(tmp_path, "cfg.json", {"seed": 1, "out": 5, "steps": 100, "burn_in": 10})
        assert main(["sample", "--config", cfg]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert "out must be a string, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [False, ""], ids=["false", "empty"])
    def test_falsy_out_exits_2_without_run_dir(self, tmp_path, monkeypatch, out):
        # a falsy out is read as given, not as an absent key
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GIBBSGRAIN_OUT", raising=False)
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"seed": 1, "out": out, "steps": 100, "burn_in": 10})
        assert main(["sample", "--config", cfg]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_unreadable_config_inputs_exit_2(self, tmp_path, capsys):
        root = tmp_path / "root"
        # read before the run directory: a config file that is not text, and
        # a value that is not a number
        (tmp_path / "bytes.json").write_bytes(b'{"seed": 1, "z": "\xff"}')
        bad_z = write_cfg(tmp_path, "z.json", dict(self._CHAIN_BASE["sample"], seed=1, z="x"))
        for cfg in (str(tmp_path / "bytes.json"), bad_z):
            assert main(["sample", "--config", cfg, "--out", str(root)]) == 2
            assert not root.exists()
        # read by the run body: a sample file that is not text, and one that
        # holds no configuration
        (tmp_path / "bytes.jsonl").write_bytes(b"\xff\xfe\x00\n")
        (tmp_path / "empty.jsonl").write_text("")
        for name, message in (("bytes", "is not text"), ("empty", "holds no configurations")):
            capsys.readouterr()
            argv = ["temper", "--input", str(tmp_path / f"{name}.jsonl"), "--seed", "1"]
            assert main(argv + ["--out", str(root), "--name", name]) == 2
            assert message in capsys.readouterr().err
            assert json.loads((root / name / "record.json").read_text())["exit_code"] == 2

    # Small runs, so that a case prepare lets through still ends soon; it then
    # fails by its exit code or its run directory.
    _COUNT_BASE = {"entropy": {"model": {"id": "ideal"}, "n_list": [1], "n_energy_samples": 10,
                               "n_partition_samples": 1000, "chain_steps": 100},
                   "audit": {"model": {"id": "ideal"}, "n_trials": 10},
                   "dlr": {"model": {"id": "ideal"}, "lam_n": 2, "lam": 1.0, "n_outer": 3,
                           "n_inner": 5},
                   "geometry": {"n_systems": 1, "n_discs": 3, "grid": 64, "mc_points": 10_000}}

    @pytest.mark.parametrize(
        "command, key, value",
        [("entropy", "n_energy_samples", 10.5), ("entropy", "n_energy_samples", True),
         ("entropy", "n_partition_samples", 1000.5), ("entropy", "n_partition_samples", True),
         ("entropy", "chain_steps", 100.5), ("entropy", "chain_steps", True),
         ("entropy", "d", 2.5), ("entropy", "d", True),
         ("audit", "n_trials", 10.5), ("audit", "n_trials", True),
         ("dlr", "d", 2.5), ("dlr", "lam_n", 3.5), ("dlr", "lam_n", True),
         ("dlr", "n_outer", 3.5), ("dlr", "n_outer", True), ("dlr", "n_inner", 100.9),
         ("geometry", "n_systems", 1.5), ("geometry", "n_discs", 3.7),
         ("geometry", "n_discs", True), ("geometry", "grid", 64.5),
         ("geometry", "mc_points", 10_000.5)],
    )
    def test_non_integer_counts_exit_2_without_run_dir(self, tmp_path, command, key, value,
                                                       capsys):
        payload = dict(self._COUNT_BASE[command], seed=1, **{key: value})
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "root")]) == 2
        assert not (tmp_path / "root").exists()
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, key",
        [("audit", {"window": {"kind": "box", "n": 1.5}}, "window.n"),
         ("audit", {"window": {"kind": "box", "n": 1, "d": 2.5}}, "window.d"),
         ("audit", {"window": {"kind": "box", "n": True}}, "window.n"),
         ("sample", {"window": {"kind": "box", "n": 1.5}}, "window.n"),
         ("audit", {"local": {"t": 2, "env_n": 3.5}}, "env_n"),
         ("audit", {"local": {"t": 2, "env_n": True}}, "env_n")],
        ids=["audit-window-n", "audit-window-d", "audit-window-n-bool", "sample-window-n",
             "audit-env-n", "audit-env-n-bool"],
    )
    def test_non_integer_window_sizes_exit_2_without_run_dir(self, tmp_path, command, payload,
                                                             key, capsys):
        base = self._CHAIN_BASE["sample"] if command == "sample" else self._COUNT_BASE[command]
        cfg = write_cfg(tmp_path, "cfg.json", dict(base, seed=1, **payload))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "root")]) == 2
        assert not (tmp_path / "root").exists()
        assert f"{key} must be an integer" in capsys.readouterr().err

    _UNIFORM = {"kind": "uniform", "b": 0.5}
    _QUERMASS = {"id": "quermass", "a_area": 0.4}

    @pytest.mark.parametrize(
        "command, payload, message",
        [("sample", {"model": {"id": "diffusion"}, "mark_law": _UNIFORM}, "'langevin'"),
         ("sample", {"model": {"id": "diffusion"}}, "'langevin'"),
         ("audit", {"model": {"id": "diffusion"}, "mark_law": _UNIFORM}, "'langevin'"),
         ("entropy", {"model": {"id": "diffusion"}, "mark_law": _UNIFORM}, "'langevin'"),
         ("dlr", {"model": {"id": "diffusion"}, "mark_law": _UNIFORM}, "'langevin'"),
         ("sample", {"model": _QUERMASS, "window": {"kind": "box", "n": 1, "d": 3}}, "d = 2"),
         ("sample", {"model": _QUERMASS, "window": {"kind": "box", "bounds": [[0, 1]]}},
          "d = 2"),
         ("audit", {"model": _QUERMASS, "window": {"kind": "box", "n": 1, "d": 3}}, "d = 2"),
         ("entropy", {"model": _QUERMASS, "d": 3}, "d = 2"),
         ("dlr", {"model": _QUERMASS, "d": 1}, "d = 2")],
        ids=["sample-diffusion-uniform", "sample-diffusion-default-law",
             "audit-diffusion-uniform", "entropy-diffusion-uniform", "dlr-diffusion-uniform",
             "sample-quermass-d3", "sample-quermass-d1-bounds", "audit-quermass-d3",
             "entropy-quermass-d3", "dlr-quermass-d1"],
    )
    def test_model_law_and_dimension_must_fit(self, tmp_path, command, payload, message,
                                              capsys):
        base = self._CHAIN_BASE["sample"] if command == "sample" else {}
        cfg = write_cfg(tmp_path, "cfg.json", dict(base, seed=1, **payload))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "root")]) == 2
        assert not (tmp_path / "root").exists()
        assert message in capsys.readouterr().err

    # Short chains, so that a case prepare lets through still ends soon; it
    # then fails by its exit code, its run directory or its message.
    _CHAIN_BASE = {"sample": {"z": 0.2, "steps": 40, "burn_in": 10, "thin": 5},
                   "diffusion": {"steps": 40, "burn_in": 10, "thin": 5, "step_count": 8}}

    @pytest.mark.parametrize(
        "command, key, value",
        [(c, k, v) for c, keys in (
            ("sample", ("steps", "burn_in", "thin", "chains", "drift_check_every")),
            ("diffusion", ("steps", "burn_in", "thin", "step_count")))
         for k in keys for v in (2.5, True)],
    )
    def test_non_integer_chain_keys_exit_2_without_run_dir(self, tmp_path, command, key,
                                                           value, capsys):
        payload = dict(self._CHAIN_BASE[command], seed=1, **{key: value})
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "root")]) == 2
        assert not (tmp_path / "root").exists()
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "diffusion"])
    @pytest.mark.parametrize(
        "change, message",
        [({"thin": 0}, "thin must be >= 1"), ({"thin": -2}, "thin must be >= 1"),
         ({"burn_in": 40}, "burn_in < steps"), ({"burn_in": 41}, "burn_in < steps"),
         ({"burn_in": -1}, "0 <= burn_in"), ({"steps": 0, "burn_in": 0}, "burn_in < steps")],
        ids=["thin-0", "thin-negative", "burn-in-equals-steps", "burn-in-above-steps",
             "burn-in-negative", "steps-0"],
    )
    def test_chain_ranges_exit_2_without_run_dir(self, tmp_path, command, change, message,
                                                 capsys):
        cfg = write_cfg(tmp_path, "cfg.json", dict(self._CHAIN_BASE[command], seed=1, **change))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "root")]) == 2
        assert not (tmp_path / "root").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "diffusion"])
    def test_integral_float_chain_keys_are_accepted(self, tmp_path, command):
        base = dict(self._CHAIN_BASE[command], seed=1)
        if command == "sample":
            base.update(chains=1, drift_check_every=20)
        floats = {k: v if k == "seed" else float(v) for k, v in base.items()}
        samples = []
        for name, payload in (("int", base), ("float", floats)):
            cfg = write_cfg(tmp_path, f"{name}.json", payload)
            assert main([command, "--config", cfg, "--out", str(tmp_path), "--name", name]) == 0
            digest = json.loads((tmp_path / name / "manifest.json").read_text())["hash"]
            data = (tmp_path / name / "samples_chain0.jsonl").read_bytes()
            samples.append(data.replace(digest.encode(), b""))
        assert samples[0] == samples[1]
        assert samples[0].count(b"\n") == 6

    @pytest.mark.parametrize(
        "seed, flags, message",
        [(3.7, [], "seed must be an integer"), (True, [], "seed must be an integer"),
         (-1, [], "seed must be non-negative"),
         (None, ["--seed", "-1"], "seed must be non-negative")],
        ids=["fractional", "bool", "negative", "negative-flag"],
    )
    def test_bad_seed_exits_2_without_run_dir(self, tmp_path, seed, flags, message, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", dict(self._CHAIN_BASE["sample"], seed=seed))
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "root")] + flags) == 2
        assert not (tmp_path / "root").exists()
        assert message in capsys.readouterr().err

    def test_integral_float_seed_runs_as_its_integer(self, tmp_path):
        for name, seed in (("int", 3), ("float", 3.0)):
            cfg = write_cfg(tmp_path, f"{name}.json", dict(self._CHAIN_BASE["sample"], seed=seed))
            assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", name]) == 0
        manifest = (tmp_path / "int" / "manifest.json").read_bytes()
        assert (tmp_path / "float" / "manifest.json").read_bytes() == manifest
        seed = json.loads(manifest)["seed"]
        assert seed == 3 and isinstance(seed, int)
        samples = [(tmp_path / name / "samples_chain0.jsonl").read_bytes()
                   for name in ("int", "float")]
        assert samples[0] == samples[1]

    @pytest.mark.parametrize(
        "n_list, message",
        [([1.5, 2], "n_list must be an integer"), ("1.5,2", "n_list must be an integer"),
         (5, "n_list must be a non-empty list"), ([], "n_list must be a non-empty list")],
        ids=["fractional", "fractional-flag", "not-a-list", "empty"],
    )
    def test_bad_n_list_exits_2_without_run_dir(self, tmp_path, n_list, message, capsys):
        payload = dict(self._COUNT_BASE["entropy"], seed=1)
        flags = ["--n-list", n_list] if isinstance(n_list, str) else []
        if not flags:
            payload["n_list"] = n_list
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        assert main(["entropy", "--config", cfg, "--out", str(tmp_path / "root")] + flags) == 2
        assert not (tmp_path / "root").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--t", "0"], ["--t", "-3"], ["--delta", "0"], ["--delta", "-0.5"]],
        ids=["t-0", "t-negative", "delta-0", "delta-negative"],
    )
    def test_bad_temper_values_exit_2_without_run_dir(self, tmp_path, flags, capsys):
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((0.0, 0.0), 0.5)])])
        rc = main(["temper", "--input", str(xi), "--seed", "1",
                   "--out", str(tmp_path / "root")] + flags)
        assert rc == 2
        assert not (tmp_path / "root").exists()
        assert "t >= 1 and delta > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("t", [1.5, True], ids=["fractional", "bool"])
    def test_non_integer_temper_t_exits_2_without_run_dir(self, tmp_path, t, capsys):
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((0.0, 0.0), 0.5)])])
        cfg = write_cfg(tmp_path, "cfg.json", {"seed": 1, "input": str(xi), "t": t})
        rc = main(["temper", "--config", cfg, "--out", str(tmp_path / "root")])
        assert rc == 2
        assert not (tmp_path / "root").exists()
        assert "t must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("t", [2.7, True], ids=["fractional", "bool"])
    def test_non_integer_boundary_t_exits_2_without_run_dir(self, tmp_path, t, capsys):
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((3.0, 0.0), 0.5)])])
        boundary = {"file": str(xi), "t": t, "delta": 1.0}
        cfg = write_cfg(tmp_path, "bc.json",
                        {"seed": 1, "boundary": boundary, "steps": 100, "burn_in": 10})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert "t must be an integer" in capsys.readouterr().err

    def test_integral_float_t_is_accepted(self, tmp_path):
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((3.0, 0.0), 0.5)]), config([mp((0.2, 0.0), 1.5)])])
        for name, t in (("int", 2), ("float", 2.0)):
            cfg = write_cfg(tmp_path, f"{name}.json", {"seed": 1, "input": str(xi), "t": t})
            assert main(["temper", "--config", cfg, "--out", str(tmp_path), "--name", name]) == 0
        assert ((tmp_path / "int" / "temper.csv").read_bytes()
                == (tmp_path / "float" / "temper.csv").read_bytes())
        boundary = {"file": str(xi), "t": 2.0, "delta": 1.0}
        cfg = write_cfg(tmp_path, "bc.json",
                        {"seed": 1, "boundary": boundary, "steps": 100, "burn_in": 10})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--name", "bc"]) == 0

    def test_input_that_is_not_a_sample_file_exits_2(self, tmp_path):
        run_cfg = write_cfg(tmp_path, "run.json", {"seed": 1, "z": 0.5})
        rc = main(["temper", "--input", run_cfg, "--seed", "1",
                   "--out", str(tmp_path), "--name", "t"])
        assert rc == 2
        record = json.loads((tmp_path / "t" / "record.json").read_text())
        assert record["exit_code"] == 2
        assert "run.json line 1" in record["error"]
        boundary = {"file": run_cfg, "t": 1, "delta": 1.0}
        cfg = write_cfg(tmp_path, "bc.json", {"seed": 1, "boundary": boundary})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("missing", ["t", "delta"])
    def test_boundary_without_t_or_delta_exits_2(self, tmp_path, missing, capsys):
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((3.0, 0.0), 0.5)])])
        boundary = {k: v for k, v in {"file": str(xi), "t": 1, "delta": 1.0}.items()
                    if k != missing}
        cfg = write_cfg(tmp_path, "bc.json", {"seed": 1, "boundary": boundary})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert "boundary must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "xi, model, error",
        [
            (config([mp((1.5,), 0.3)], dim=1), "ideal", "dimension 1, window has 2"),
            (path_boundary(), "diffusion", "not a path of 16 steps (got 8)"),
            (config([mp((1.4, 0.2), 0.3)]), "diffusion",
             "not a path of 16 steps (got a scalar mark)"),
        ],
        ids=["one-d-points", "path-steps", "scalar-marks-for-paths"],
    )
    def test_boundary_that_does_not_fit_exits_2(self, tmp_path, xi, model, error, capsys):
        path = tmp_path / "xi.jsonl"
        write_configs_jsonl(path, [xi])
        law = ({"kind": "langevin", "potential": "quartic", "step_count": 16}
               if model == "diffusion" else {"kind": "uniform", "b": 0.5})
        cfg = write_cfg(tmp_path, "bc.json", {
            "seed": 1, "model": {"id": model}, "mark_law": law, "steps": 100, "burn_in": 10,
            "boundary": {"file": str(path), "t": 1, "delta": 1.0}})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert error in capsys.readouterr().err

    def test_untempered_boundary_exits_3_without_run_dir(self, tmp_path, capsys):
        path = tmp_path / "xi.jsonl"
        write_configs_jsonl(path, [config([mp((1.5, 0.0), 3.0)])])
        cfg = write_cfg(tmp_path, "bc.json", {
            "seed": 1, "steps": 100, "burn_in": 10,
            "boundary": {"file": str(path), "t": 1, "delta": 1.0}})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert not (tmp_path / "r").exists()
        assert "not 1-tempered (minimal t = 7)" in capsys.readouterr().err

    def test_law_block_errors_are_config_errors(self):
        # UniformLaw() without b raises TypeError, which _run does not map
        with pytest.raises(ConfigError, match="bad mark_law block"):
            build_law({"kind": "uniform"})

    @pytest.mark.parametrize("spec", [{"n": 1, "d": 2}, 5])
    def test_window_block_needs_a_kind(self, spec):
        with pytest.raises(ConfigError, match="window block needs a 'kind' key"):
            build_window(spec)


class TestConfigTables:
    """Each command's table is the one declaration of its keys: a flag and its
    config key are read alike, and --help offers exactly the table's flags.
    Both tests iterate the tables, so a key added later is covered too."""

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_a_flag_and_its_config_key_write_one_manifest(self, tmp_path, monkeypatch,
                                                          command):
        help_text, prepare, table = cli._COMMANDS[command]

        def prepare_only(**values):
            # prepare still checks the values; the run body is skipped
            prepare(**values)
            return lambda out, digest: {}

        monkeypatch.setitem(cli._COMMANDS, command, (help_text, prepare_only, table))
        xi = tmp_path / "xi.jsonl"
        write_configs_jsonl(xi, [config([mp((0.0, 0.0), 0.5)])])
        base = {"seed": 1, "input": str(xi)} if command == "temper" else {"seed": 1}
        flagged = {key: k for key, k in table.items() if k.flag is not None}
        assert flagged
        for key, k in flagged.items():
            # the flag's text: the default, or the input file temper needs
            default = str(xi) if key == "input" else k.default
            text = ",".join(map(str, default)) if isinstance(default, list) else str(default)
            manifests = []
            for name, flags, payload in (
                ("flag", ["--" + key.replace("_", "-"), text], base),
                ("config", [], dict(base, **{key: k.flag(text)})),
            ):
                cfg = write_cfg(tmp_path, f"{name}.json", payload)
                argv = [command, "--config", cfg, "--out", str(tmp_path / key), "--name", name]
                assert main(argv + flags) == 0, (command, key)
                manifests.append((tmp_path / key / name / "manifest.json").read_bytes())
            assert manifests[0] == manifests[1], (command, key)
            assert json.loads(manifests[0])["config"][key] == k.flag(text)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_offers_exactly_the_table_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        table = cli._COMMANDS[command][2]
        flags = {"--" + key.replace("_", "-") for key, k in table.items() if k.flag is not None}
        assert offered == flags | {"--help", "--config", "--seed", "--out", "--name"}


# Builds the model, window and mark law of each config in a fresh interpreter
# and prints the sorted names of the scipy modules it loaded.
_COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gibbsgrain.cli as cli
from gibbsgrain import stream
for cfg in json.loads(sys.argv[2]):
    cli.build_model(cfg["model"])
    cli.build_window(cfg["window"])
    cli.build_law(cfg["mark_law"]).sample(stream(0, 0))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def cold_start_scipy_modules(configs):
    src = str(Path(gibbsgrain.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _COLD_START, src, json.dumps(configs)],
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


class TestColdStart:
    """A run loads scipy only for the features that use it."""

    def test_common_runs_load_no_scipy(self):
        box = {"kind": "box", "n": 2, "d": 2}
        configs = [
            {"model": {"id": "hardcore"}, "window": box,
             "mark_law": {"kind": "uniform", "b": 0.5}},
            {"model": {"id": "nonnegpair", "phi": "soft_bump"}, "window": box,
             "mark_law": {"kind": "point", "value": 0.3}},
            {"model": {"id": "quermass", "a_area": 0.4, "a_perimeter": -0.2, "a_euler": 0.3},
             "window": box, "mark_law": {"kind": "table", "values": [0.2, 0.4], "probs": [0.5, 0.5]}},
            {"model": {"id": "diffusion"}, "window": box,
             "mark_law": {"kind": "langevin", "potential": "quartic", "step_count": 16}},
        ]
        assert cold_start_scipy_modules(configs) == []

    def test_subbotin_law_loads_scipy_special(self):
        configs = [{"model": {"id": "quermass", "a_area": 0.4}, "window": {"kind": "box", "n": 2},
                    "mark_law": {"kind": "subbotin", "exponent": 2.0, "cutoff": 1.0}}]
        assert "scipy.special" in cold_start_scipy_modules(configs)
