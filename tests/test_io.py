"""Round-trip and stability tests for the serialization layer."""

import json
import math

import numpy as np
import pytest

from gibbsgrain import Configuration, ConfigError, MarkedPoint, PathMark, stream
from gibbsgrain.io import (
    ReportRow,
    canonical_json,
    config_to_record,
    manifest_hash,
    read_configs_jsonl,
    read_report_csv,
    record_to_config,
    write_configs_jsonl,
    write_manifest,
    write_plot_csv,
    write_record,
    write_report_csv,
)

from conftest import config, mp, random_scalar_config


def random_path_config(rng, n=3, k=6):
    pts = []
    for _ in range(n):
        steps = rng.normal(size=(k, 2)) * 0.4
        mark = PathMark(np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]))
        pts.append(MarkedPoint.make(tuple(rng.uniform(-2, 2, size=2)), mark))
    return config(pts, dim=2)


class TestJsonlRoundTrip:
    def test_scalar_marks_bit_exact(self, tmp_path):
        rng = stream(1001, 0)
        batch = [random_scalar_config(rng, n_max=10) for _ in range(20)]
        path = tmp_path / "samples.jsonl"
        assert write_configs_jsonl(path, batch) == 20
        back = list(read_configs_jsonl(path))
        assert len(back) == 20
        for a, b in zip(batch, back):
            assert a.dimension == b.dimension
            assert len(a) == len(b)
            for p, q in zip(a.points, b.points):
                assert p.location == q.location  # bit-exact through repr
                assert p.mark == q.mark
                assert p.mark_norm == q.mark_norm

    def test_path_marks_bit_exact(self, tmp_path):
        rng = stream(1002, 0)
        batch = [random_path_config(rng) for _ in range(8)]
        path = tmp_path / "paths.jsonl"
        write_configs_jsonl(path, batch)
        back = list(read_configs_jsonl(path))
        for a, b in zip(batch, back):
            for p, q in zip(a.points, b.points):
                assert isinstance(q.mark, PathMark)
                assert np.array_equal(p.mark.samples, q.mark.samples)
                assert p.mark.sup_norm == q.mark.sup_norm

    def test_empty_configuration_round_trips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_configs_jsonl(path, [Configuration.empty(3)])
        (back,) = read_configs_jsonl(path)
        assert back.dimension == 3
        assert len(back) == 0

    def test_meta_preserved(self, tmp_path):
        meta = {"model": "hardcore", "seed": 7}
        path = tmp_path / "meta.jsonl"
        write_configs_jsonl(path, [config([mp((0.5, 0.5), 0.2)])], meta=meta)
        raw = json.loads(path.read_text().strip())
        assert raw["meta"] == meta
        # meta rides along without affecting reconstruction
        (back,) = read_configs_jsonl(path)
        assert len(back) == 1

    def test_same_batch_writes_identical_bytes(self, tmp_path):
        batch = [random_scalar_config(stream(1003, 0), n_max=6) for _ in range(5)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_configs_jsonl(p1, batch)
        write_configs_jsonl(p2, batch)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_mark_kind_rejected(self):
        rec = config_to_record(config([mp((0.0, 0.0), 0.5)]))
        rec["points"][0]["mark"]["kind"] = "tensor"
        with pytest.raises(ConfigError):
            record_to_config(rec)

    @pytest.mark.parametrize("line", ['{"seed": 1, "z": 0.5}', "[1, 2]", "{not json"])
    def test_non_configuration_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "mixed.jsonl"
        write_configs_jsonl(path, [config([mp((0.0, 0.0), 0.5)])])
        with open(path, "a") as fh:
            fh.write("\n" + line + "\n")
        with pytest.raises(ValueError, match=r"mixed\.jsonl line 3 "):
            list(read_configs_jsonl(path))


class TestReportCsv:
    rows = [
        ReportRow("partition", 0.9517525319, 0.0021, 20000, "hardcore", 42),
        ReportRow("entropy", 4.93e-2, 1.1e-3, 400, "hardcore", 42),
        ReportRow("j_stat", 5.0, 0.0, 100, "ideal", 7),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, self.rows)
        back = read_report_csv(path)
        assert back == self.rows

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quantity,estimate,stderr,n,model_id\na,1.0,0.1,5,x\n")
        with pytest.raises(ConfigError) as err:
            read_report_csv(path)
        assert "seed" in str(err.value)

    def test_extreme_floats_survive(self, tmp_path):
        rows = [ReportRow("tiny", 5e-324, 1e308, 1, "m", 0)]
        path = tmp_path / "edge.csv"
        write_report_csv(path, rows)
        assert read_report_csv(path) == rows


class TestPlotCsv:
    def test_header_and_values(self, tmp_path):
        path = tmp_path / "plot.csv"
        write_plot_csv(path, [(1.0, 2.5, 0.1), (2.0, 2.25, 0.08)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,err"
        assert lines[1] == "1.0,2.5,0.1"
        assert len(lines) == 3


class TestManifest:
    def test_canonical_json_is_sorted_and_compact(self):
        s = canonical_json({"b": 1, "a": [1, 2], "c": {"z": 0, "y": 1}})
        assert s == '{"a":[1,2],"b":1,"c":{"y":1,"z":0}}'

    def test_hash_ignores_key_order(self):
        m1 = {"config": {"z": 0.5, "model": "ideal"}, "seed": 3}
        m2 = {"seed": 3, "config": {"model": "ideal", "z": 0.5}}
        assert manifest_hash(m1) == manifest_hash(m2)
        m3 = dict(m1, seed=4)
        assert manifest_hash(m1) != manifest_hash(m3)

    def test_write_manifest_embeds_own_hash(self, tmp_path):
        digest = write_manifest(tmp_path, {"model": "ideal", "z": 1.0}, "0.1.0", 11)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["hash"] == digest
        assert data["seed"] == 11
        # the hash covers the manifest without the hash field itself
        body = {k: v for k, v in data.items() if k != "hash"}
        assert manifest_hash(body) == digest

    def test_record_is_separate_file(self, tmp_path):
        write_manifest(tmp_path, {"model": "ideal"}, "0.1.0", 1)
        write_record(tmp_path, {"status": "ok", "outputs": ["samples.jsonl"]})
        rec = json.loads((tmp_path / "record.json").read_text())
        assert rec["status"] == "ok"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "status" not in manifest

    def test_manifest_hash_stable_across_reruns(self, tmp_path):
        cfg = {"model": "hardcore", "z": 0.7, "window": [2.0, 2.0]}
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        h1 = write_manifest(d1, cfg, "0.1.0", 99)
        h2 = write_manifest(d2, cfg, "0.1.0", 99)
        assert h1 == h2
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
