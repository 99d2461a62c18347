"""Round-trip and stability tests for the serialization layer."""

import base64
import hashlib
import json

import numpy as np
import pytest

from gibbsgrain import (
    Box,
    Configuration,
    ConfigError,
    DiffusionModel,
    HardSphereModel,
    LangevinSpec,
    MarkedPoint,
    PathMark,
    UniformLaw,
    run_chain,
    stream,
)
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
    write_record,
    write_report_csv,
)
from gibbsgrain.tempered import is_tempered, range_separation_check

from conftest import config, legacy_path_lines, mp, random_scalar_config


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

    def test_scalar_sample_file_bytes_pinned(self, tmp_path):
        """A fixed-seed hardcore chain written as the CLI writes it (with a
        fixed stand-in for the manifest hash, which covers the numpy
        version): the file's raw bytes are pinned, so scalar-mark sample
        files stay byte-identical across changes to the path encoding."""
        res = run_chain(HardSphereModel(), Box.centered_cube(1, 2), 0.7, UniformLaw(0.4),
                        3000, stream(424243, 0), burn_in=500, thin=50)
        path = tmp_path / "hc.jsonl"
        write_configs_jsonl(path, res.samples, meta={
            "seed": 424243, "model_id": "hardcore", "chain": 0, "manifest": "pinned"})
        raw = path.read_bytes()
        assert (len(res.samples), len(raw)) == (50, 15877)
        assert hashlib.sha256(raw).hexdigest() == (
            "4337a6e454c8f0b8cb7a4a80c2cfa384b10f071b9e8586cbf270562acbbde860"
        )

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


def hardcore_samples():
    return run_chain(HardSphereModel(), Box.centered_cube(2, 2), 0.7, UniformLaw(0.4),
                     3000, stream(424243, 0), burn_in=500, thin=10).samples


def path_samples():
    return run_chain(DiffusionModel(), Box.centered_cube(1, 2), 0.6,
                     LangevinSpec.named("quartic", 12), 400, stream(424244, 0),
                     burn_in=100, thin=10).samples


def shared_atoms(batch) -> int:
    """How many atoms a configuration carries over from the one before it."""
    return sum(len({id(p) for p in a.points} & {id(p) for p in b.points})
               for a, b in zip(batch, batch[1:]))


def assert_lines_are_dumps(tmp_path, configs, expected, meta=None):
    """The writer's file holds, line by line, the one-record dumps of
    ``expected``."""
    path = tmp_path / "lines.jsonl"
    assert write_configs_jsonl(path, configs, meta=meta) == len(expected)
    dumps = [json.dumps(config_to_record(c, meta), sort_keys=True) + "\n" for c in expected]
    assert path.read_text().splitlines(keepends=True) == dumps


class TestLinesFromAtomTexts:
    """Each line is assembled from per-atom texts, an atom carried over from
    the line before reusing its text; the bytes are those of the one-record
    dumps."""

    @pytest.mark.parametrize("meta", [None, {"seed": 7, "model_id": "hardcore", "x": [-0.0]}])
    def test_chain_samples_that_share_atoms(self, tmp_path, meta):
        batch = hardcore_samples()
        assert shared_atoms(batch) > len(batch)
        assert_lines_are_dumps(tmp_path, batch, batch, meta)

    def test_path_marks(self, tmp_path):
        batch = path_samples()
        assert shared_atoms(batch) > 0
        assert any(isinstance(p.mark, PathMark) for c in batch for p in c.points)
        assert_lines_are_dumps(tmp_path, batch, batch, {"chain": 0})

    def test_empty_configurations(self, tmp_path):
        c = config([mp((0.5, 0.5), 0.2), mp((-1.0, 0.25), 0.3)])
        batch = [Configuration.empty(2), c, Configuration.empty(2), c, c]
        assert_lines_are_dumps(tmp_path, batch, batch)

    def test_equal_atoms_of_different_signed_zeros(self, tmp_path):
        # (-0.0, 0.5) == (0.0, 0.5), and the two hash alike, but they print
        # differently: a new atom object gets its own text
        batch = [config([mp((-0.0, 0.5), 0.3)]), config([mp((0.0, 0.5), 0.3)])]
        assert_lines_are_dumps(tmp_path, batch, batch)
        assert (tmp_path / "lines.jsonl").read_text().count("-0.0") == 1

    def test_generator_whose_configurations_are_dropped_once_written(self, tmp_path):
        # the atoms of a line are freed once it is written (the writer keeps
        # them pinned for one line), so a new atom may take the address an
        # atom two lines back had
        def views():
            for i in range(200):
                yield LazyAtoms([((0.0, 0.5 * i), 0.01 * i), ((1.0, 0.5), 0.25)])

        assert_lines_are_dumps(tmp_path, views(), list(views()))


def moved_path_samples():
    """Diffusion chain samples thinned to every step, so that a move, which
    puts the same path mark on a new atom object, shows on the next line."""
    return run_chain(DiffusionModel(), Box.centered_cube(1, 2), 0.6,
                     LangevinSpec.named("quartic", 12), 300, stream(424245, 0),
                     burn_in=50, thin=1).samples


class TestPathEncodedOncePerRun:
    def test_moved_atoms_reuse_their_path_text(self, tmp_path, monkeypatch):
        import gibbsgrain.io as io_module

        batch = moved_path_samples()
        encoded = []
        payload = io_module._mark_payload
        monkeypatch.setattr(io_module, "_mark_payload",
                            lambda mark: encoded.append(mark) or payload(mark))
        write_configs_jsonl(tmp_path / "counted.jsonl", batch)
        monkeypatch.undo()
        assert_lines_are_dumps(tmp_path, batch, batch)
        assert (tmp_path / "counted.jsonl").read_bytes() == (tmp_path / "lines.jsonl").read_bytes()
        # a path is encoded when it joins a line that did not hold it
        joins = sum(len({id(p.mark) for p in b.points} - {id(p.mark) for p in a.points})
                    for a, b in zip([Configuration.empty(2)] + list(batch), batch))
        assert sum(isinstance(m, PathMark) for m in encoded) == joins
        # moves do carry marks to new atoms here, which an atom-keyed map alone
        # would encode again
        moved = sum(len({id(p.mark) for p in a.points} & {id(p.mark) for p in b.points})
                    for a, b in zip(batch, batch[1:])) - shared_atoms(batch)
        assert moved > 5


class LazyAtoms:
    """A configuration that builds new atoms each time its ``points`` are
    read, as a view over stored arrays might."""

    dimension = 2

    def __init__(self, atoms):
        self.atoms = atoms

    @property
    def points(self):
        return tuple(MarkedPoint.make(x, r) for x, r in self.atoms)


def assert_same_paths(a, b):
    assert len(a) == len(b)
    for p, q in zip(a.points, b.points):
        assert p.location == q.location
        assert p.mark.samples.tobytes() == q.mark.samples.tobytes()
        assert p.mark.sup_norm == q.mark.sup_norm


def _path_record():
    """A one-atom record with a 6-step path mark, in the binary form."""
    return config_to_record(random_path_config(stream(1004, 0), n=1, k=6))


def _f8le(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _without(key):
    def edit(mark):
        del mark[key]
    return edit


def _set(**fields):
    def edit(mark):
        mark.update(fields)
    return edit


def _legacy(samples):
    def edit(mark):
        del mark["shape"], mark["f8le"]
        mark["samples"] = samples
    return edit


_PATH_7x2 = np.vstack([np.zeros((1, 2)), np.full((6, 2), 0.25)])


class TestPathEncoding:
    def test_writer_stores_little_endian_float64_bytes(self):
        rec = _path_record()
        payload = rec["points"][0]["mark"]
        assert set(payload) == {"kind", "shape", "f8le"}
        assert payload["shape"] == [7, 2]
        samples = record_to_config(rec).points[0].mark.samples
        decoded = np.frombuffer(base64.b64decode(payload["f8le"]), dtype="<f8")
        assert decoded.reshape(7, 2).tobytes() == samples.astype("<f8").tobytes()

    def test_legacy_list_record_reads_bit_exactly(self, tmp_path):
        batch = [random_path_config(stream(1005, i), n=3, k=40) for i in range(4)]
        path = tmp_path / "legacy.jsonl"
        path.write_text(legacy_path_lines(batch))
        back = list(read_configs_jsonl(path))
        assert len(back) == len(batch)
        for a, b in zip(batch, back):
            assert_same_paths(a, b)

    def test_mixed_forms_read_in_order(self, tmp_path):
        batch = [random_path_config(stream(1006, i), n=2, k=9) for i in range(4)]
        binary = tmp_path / "binary.jsonl"
        write_configs_jsonl(binary, batch[1:3])
        path = tmp_path / "mixed.jsonl"
        path.write_text(legacy_path_lines(batch[:1]) + binary.read_text()
                        + legacy_path_lines(batch[3:]))
        back = list(read_configs_jsonl(path))
        assert len(back) == 4
        for a, b in zip(batch, back):
            assert_same_paths(a, b)

    def test_consecutive_lines_share_a_repeated_path(self, tmp_path):
        p0, p1 = random_path_config(stream(1007, 0), n=2, k=5).points
        moved = MarkedPoint.make((0.25, -0.75), p0.mark)  # a new atom, the same path
        batch = [config([p0, p1]), config([moved, p1]), config([p1])]
        path = tmp_path / "repeat.jsonl"
        write_configs_jsonl(path, batch)
        back = list(read_configs_jsonl(path))
        for a, b in zip(batch, back):
            assert_same_paths(a, b)
        assert back[1].points[0].mark is back[0].points[0].mark
        assert back[1].points[1].mark is back[0].points[1].mark
        assert back[2].points[0].mark is back[1].points[1].mark

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (_set(shape=[6, 2]), "holds 112 bytes"),
            (_set(shape=[7.0, 2.0]), "shape must be"),
            (_set(shape=[14, 1]), "shape must be"),
            (_set(samples=_PATH_7x2.tolist()), "exactly one of"),
        ],
        ids=["shape-6-by-2", "shape-floats", "shape-k-by-1", "both-forms"],
    )
    def test_repeated_f8le_is_checked_again(self, tmp_path, edit, reason):
        rec = _path_record()
        rec["points"][0]["mark"]["f8le"] = _f8le(_PATH_7x2)
        bad = json.loads(json.dumps(rec))
        edit(bad["points"][0]["mark"])
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ConfigError, match=r"bad\.jsonl line 2 ") as err:
            list(read_configs_jsonl(path))
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (_set(f8le="not*base64!"), "not base64"),
            (_set(f8le="AAAAAAAAAAA\u00e9"), "not base64"),
            (_set(f8le=12), "not base64"),
            (_set(f8le=_f8le(_PATH_7x2)[:-12]), "holds 105 bytes"),
            (_set(f8le=_f8le(np.vstack([_PATH_7x2, [[0.5, 0.5]]]))), "holds 128 bytes"),
            (_set(shape=[14, 1]), "shape must be"),
            (_set(shape=[2, 7]), "shape must be"),
            (_set(shape=[-7, -2]), "shape must be"),
            (_set(shape=[7.0, 2.0]), "shape must be"),
            (_set(shape=[True, 2]), "shape must be"),
            (_set(shape=[7, 2, 1]), "shape must be"),
            (_set(shape="7x2"), "shape must be"),
            (_without("shape"), "shape must be"),
            (_set(shape=[1, 2], f8le=_f8le([[0.0, 0.0]])), "shape must be"),
            (_set(f8le=_f8le(np.where(np.arange(14).reshape(7, 2) == 9, np.nan, _PATH_7x2))),
             "must be finite"),
            (_set(f8le=_f8le(np.where(np.arange(14).reshape(7, 2) == 3, np.inf, _PATH_7x2))),
             "must be finite"),
            (_set(f8le=_f8le(_PATH_7x2 + 0.5)), "start at the origin"),
            (_set(samples=_PATH_7x2.tolist()), "exactly one of"),
            (_without("f8le"), "exactly one of"),
            (_legacy([[0.0, 0.0], [1.0]]), "inhomogeneous"),
            (_legacy([[0.0, 0.0], [1.0, "x"]]), "could not convert"),
            (_legacy([[0.0, 0.0]]), "K >= 1"),
            (_legacy([[0.0, 0.0], [float("nan"), 1.0]]), "must be finite"),
        ],
        ids=["bad-base64", "non-ascii", "f8le-not-string", "too-few-bytes",
             "too-many-bytes", "shape-k-by-1", "shape-2-by-k", "shape-negative",
             "shape-floats", "shape-bool", "shape-3d", "shape-string", "no-shape",
             "zero-steps", "nan", "inf", "off-origin", "both-forms", "neither-form",
             "legacy-ragged", "legacy-string", "legacy-zero-steps", "legacy-nan"],
    )
    def test_malformed_path_payload_is_config_error(self, tmp_path, edit, reason):
        rec = _path_record()
        rec["points"][0]["mark"]["f8le"] = _f8le(_PATH_7x2)
        record_to_config(rec)  # the unedited record is valid
        edit(rec["points"][0]["mark"])
        path = tmp_path / "bad.jsonl"
        write_configs_jsonl(path, [config([mp((0.0, 0.0), 0.5)])])
        with open(path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        with pytest.raises(ConfigError, match=r"bad\.jsonl line 2 ") as err:
            list(read_configs_jsonl(path))
        assert reason in str(err.value)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"inf"', '"nan"'])
    def test_non_finite_scalar_mark_is_config_error(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        write_configs_jsonl(path, [config([mp((0.0, 0.0), 0.5)])])
        with open(path, "a") as fh:
            fh.write('{"dim": 2, "points": [{"x": [1.0, 0.0], '
                     f'"mark": {{"kind": "scalar", "value": {value}}}}}]}}\n')
        # a string is refused as such, before its value is read
        reason = "is not a number" if value.startswith('"') else "non-finite norm"
        with pytest.raises(ConfigError, match=rf"bad\.jsonl line 2 .*{reason}"):
            list(read_configs_jsonl(path))

    def test_mark_that_is_not_an_object_is_config_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 2, "points": [{"x": [0.0, 0.0], "mark": 0.5}]}\n')
        with pytest.raises(ConfigError, match=r"bad\.jsonl line 1 "):
            list(read_configs_jsonl(path))


def _append_line(path, line):
    """A valid one-atom file with ``line`` as its second line."""
    write_configs_jsonl(path, [config([mp((0.0, 0.0), 0.5)])])
    with open(path, "a") as fh:
        fh.write(line + "\n")


def _scalar_atoms(dim, *xs):
    points = ", ".join(f'{{"x": {x}, "mark": {{"kind": "scalar", "value": 0.5}}}}' for x in xs)
    return f'{{"dim": {dim}, "points": [{points}]}}'


class TestArrayBackedReads:
    """The reader builds each configuration from its location rows, marks
    and mark norms; the atoms wait until ``points`` is read."""

    @pytest.mark.parametrize("samples", [hardcore_samples, path_samples],
                             ids=["scalar", "path"])
    def test_scans_build_no_atom(self, tmp_path, samples):
        path = tmp_path / "s.jsonl"
        write_configs_jsonl(path, samples())
        back = list(read_configs_jsonl(path))
        assert any(len(c) for c in back)
        for c in back:
            assert c._points is None
            ok, report = is_tempered(c, 1, 0.5)
            range_separation_check(c, report.minimal_t, 0.5)
            assert c._points is None

    @pytest.mark.parametrize("samples", [hardcore_samples, path_samples],
                             ids=["scalar", "path"])
    def test_read_arrays_match_atom_built_ones(self, tmp_path, samples):
        batch = samples()
        path = tmp_path / "s.jsonl"
        write_configs_jsonl(path, batch)
        back = list(read_configs_jsonl(path))
        assert len(back) == len(batch)
        for a, b in zip(batch, back):
            atoms = Configuration([MarkedPoint.make(p.location, p.mark) for p in a.points],
                                  dimension=a.dimension)
            assert b.dimension == atoms.dimension
            assert b.locations().tobytes() == atoms.locations().tobytes()
            assert b.mark_norms().tobytes() == atoms.mark_norms().tobytes()
            for p, q in zip(atoms.points, b.points):
                assert [c.hex() for c in q.location] == [c.hex() for c in p.location]
                assert q.mark_norm.hex() == p.mark_norm.hex()
                if isinstance(p.mark, PathMark):
                    assert q.mark.samples.tobytes() == p.mark.samples.tobytes()
                else:
                    assert type(q.mark) is float and q.mark.hex() == p.mark.hex()

    @pytest.mark.parametrize(
        "line, reason",
        [
            (_scalar_atoms(2, "[0.0, 1.0]", "[1.0]"), "mixed dimensions in configuration: [1, 2]"),
            (_scalar_atoms(2, "[0.0, 1.0, 2.0]"), "declared dimension 2 != point dimension 3"),
            (_scalar_atoms(2, "[0.0]", "[1.0]"), "declared dimension 2 != point dimension 1"),
            (_scalar_atoms(2, "[0.5, 1.0]", "[2.0, 1.0]", "[0.5, 1.0]"),
             "duplicate location (0.5, 1.0): configurations are simple"),
            (_scalar_atoms(2, "[0.0, 1.0]", "[-0.0, 1.0]"),
             "duplicate location (-0.0, 1.0): configurations are simple"),
        ],
        ids=["ragged", "wider", "narrower", "duplicate", "signed-zero-duplicate"],
    )
    def test_location_rows_keep_their_refusals(self, tmp_path, line, reason):
        path = tmp_path / "bad.jsonl"
        _append_line(path, line)
        with pytest.raises(ConfigError, match=r"bad\.jsonl line 2 ") as err:
            list(read_configs_jsonl(path))
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "x, reason",
        [
            ("[NaN, 0.0]", "[nan, 0.0] is not finite"),
            ("[1.0, Infinity]", "[1.0, inf] is not finite"),
            ("[-Infinity, 1.0]", "[-inf, 1.0] is not finite"),
            ("[null, 0.0]", "[None, 0.0] is not finite"),
            ("[1e308, 1e308]", None),
            ("[1" + "0" * 400 + ", 0.0]", "too large to convert to float"),
        ],
        ids=["nan", "inf", "minus-inf", "null", "huge-but-finite", "huge-int"],
    )
    def test_non_finite_coordinate_is_config_error(self, tmp_path, x, reason):
        path = tmp_path / "bad.jsonl"
        # the second atom's coordinates sum to inf: only a non-finite one is refused
        _append_line(path, _scalar_atoms(2, "[1e308, 1.0]", x))
        if reason is None:
            (_, c) = read_configs_jsonl(path)
            assert c.locations().tolist() == [[1e308, 1.0], [1e308, 1e308]]
            return
        with pytest.raises(ConfigError, match=r"bad\.jsonl line 2 ") as err:
            list(read_configs_jsonl(path))
        assert reason in str(err.value)


    @pytest.mark.parametrize(
        "line, reason",
        [
            (_scalar_atoms(2.9, "[1.0, 0.0]"), "dim must be an integer, got 2.9"),
            (_scalar_atoms('"2"', "[1.0, 0.0]"), "dim must be an integer, got '2'"),
            (_scalar_atoms("true", "[1.0]"), "dim must be an integer, got True"),
            (_scalar_atoms(0, "[1.0]"), "dim must be >= 1, got 0"),
            (_scalar_atoms(2, "[1.0, 0.0]", '["1.5", 0.0]'), "['1.5', 0.0] is not a list of"),
            (_scalar_atoms(2, "[1.0, 0.0]", "[1.5, true]"), "[1.5, True] is not a list of"),
            ('{"dim": 2, "points": [{"x": [1.5, 0.0], '
             '"mark": {"kind": "scalar", "value": "0.25"}}]}', "'0.25' is not a number"),
            ('{"dim": 2, "points": [{"x": [1.5, 0.0], '
             '"mark": {"kind": "scalar", "value": true}}]}', "True is not a number"),
        ],
        ids=["fractional-dim", "string-dim", "bool-dim", "zero-dim", "string-coordinate",
             "bool-coordinate", "string-mark", "bool-mark"],
    )
    def test_numbers_follow_the_config_rule(self, tmp_path, line, reason):
        # the config readers' rule: a bool or a string is not a number, and a
        # dimension is a whole number >= 1
        path = tmp_path / "bad.jsonl"
        _append_line(path, line)
        with pytest.raises(ConfigError, match=r"bad\.jsonl line 2 ") as err:
            list(read_configs_jsonl(path))
        assert reason in str(err.value)

    def test_integral_numbers_are_read_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"dim": 2.0, "points": [{"x": [1, 0], '
                        '"mark": {"kind": "scalar", "value": 1}}]}\n')
        (c,) = read_configs_jsonl(path)
        assert c.dimension == 2 and c.locations().tolist() == [[1.0, 0.0]]
        assert c.mark_norms().tolist() == [1.0] and type(c.points[0].mark) is float


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
