"""Serialization: JSONL sample files, CSV reports, and run manifests.

Sample files hold one JSON record per configuration. Locations, scalar marks
and report values go through Python's repr (the json module's default),
the shortest round-tripping decimal form. A path mark is stored as its
shape and the base64 of its little-endian float64 bytes, which is exact and
about half the size of the decimal lists older files hold (still read).
So writing and re-reading a configuration is bit-exact, and a fixed seed
reproduces byte-identical files.

A chain's samples are thinned snapshots of one slowly changing state, so
most atoms of a record were in the record before it. The writer assembles
each line from per-atom JSON texts: with sorted keys a nested object
serialises on its own, so the line has the bytes of the one-record dump.
It keeps the previous line's texts keyed by ``id(atom)`` beside the atom
itself, which pins the atom so that its id cannot pass to a new one; an
atom carried over reuses its text. A move makes a new atom with the old
atom's mark object, so a new atom whose path mark an atom of the line
before held reuses that path's text, and a path is encoded once while it
stays in the chain. The key is the identity, not the value, because equal
atoms can print differently (0.0 == -0.0). The reader keeps
the previous line's path marks keyed by their f8le text: a repeated path
whose shape checks out is the earlier PathMark, not decoded again, so read
atoms may share one (immutable) PathMark. Each map holds one line, so
memory stays bounded by one configuration. The reader builds no atom: each
configuration is made from its location array, its marks and its mark
norms (``Configuration.from_arrays``), which is all the temperedness scan
reads, and its atoms are built the first time something reads ``points``.
Manifests are canonical JSON (sorted keys, fixed separators) hashed with
sha256; volatile data like wall-clock time lives in a separate record file
so the manifest hash is stable.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, _whole
from .marks import PathMark
from .points import Configuration, MarkedPoint

__all__ = [
    "config_to_record",
    "record_to_config",
    "write_configs_jsonl",
    "read_configs_jsonl",
    "ReportRow",
    "write_report_csv",
    "read_report_csv",
    "canonical_json",
    "manifest_hash",
    "write_manifest",
    "write_record",
]


def _mark_payload(mark) -> dict:
    if isinstance(mark, PathMark):
        raw = np.ascontiguousarray(mark.samples, dtype="<f8").tobytes()
        return {"kind": "path", "shape": list(mark.samples.shape),
                "f8le": base64.b64encode(raw).decode("ascii")}
    return {"kind": "scalar", "value": float(mark)}


def _path_mark(payload: dict, seen: dict, kept: dict) -> PathMark:
    """A path from either stored form: "samples" (decimal lists, as older
    files hold them) or "shape" plus "f8le" (base64 bytes). A valid shape
    whose f8le text ``seen`` maps to a PathMark of that shape reuses it;
    each f8le PathMark read lands in ``kept`` under its text."""
    if ("samples" in payload) == ("f8le" in payload):
        raise ConfigError("a path mark needs exactly one of 'samples' and 'f8le'")
    if "samples" in payload:
        return PathMark(np.array(payload["samples"], dtype=float))
    shape = payload.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int for n in shape) and shape[0] >= 2 and shape[1] == 2):
        raise ConfigError(f"path shape must be [k+1, 2] with k >= 1, not {shape!r}")
    f8le = payload["f8le"]
    text = f8le if type(f8le) is str else None  # a list f8le is unhashable: no lookup
    mark = seen.get(text)
    if mark is None or list(mark.samples.shape) != shape:
        try:
            raw = base64.b64decode(f8le, validate=True)
        except (ValueError, TypeError) as e:  # binascii.Error is a ValueError
            raise ConfigError(f"path f8le is not base64 ({e})") from e
        if len(raw) != 8 * shape[0] * shape[1]:
            raise ConfigError(f"path f8le holds {len(raw)} bytes, shape {shape} needs "
                              f"{8 * shape[0] * shape[1]}")
        mark = PathMark(np.frombuffer(raw, dtype="<f8").reshape(shape))
    if text is not None:
        kept[text] = mark
    return mark


def _point_record(p: MarkedPoint) -> dict:
    return {"x": [float(c) for c in p.location], "mark": _mark_payload(p.mark)}


def config_to_record(config: Configuration, meta: dict | None = None) -> dict:
    rec = {"dim": config.dimension, "points": [_point_record(p) for p in config.points]}
    if meta:
        rec["meta"] = meta
    return rec


def record_to_config(record: dict) -> Configuration:
    return _config_from_record(record, {}, {})


_NOT_NUMBERS = frozenset((bool, str))


def _config_from_record(record: dict, seen: dict, kept: dict) -> Configuration:
    """The configuration of one record, built from its location rows, marks
    and mark norms (a scalar's absolute value, a path's sup norm) without
    building an atom. Numbers follow the config rule: ``dim`` is read by
    ``errors._whole`` (at least 1), and a coordinate or a scalar mark that is
    a bool or a string is refused, as are location rows of mixed widths, or
    of a width other than ``dim``, and non-finite coordinates; duplicate
    locations and non-finite norms are refused by ``from_arrays``."""
    dimension = _whole(record["dim"], "dim", 1)
    xs, marks, norms = [], [], []
    for entry in record["points"]:
        payload = entry["mark"]
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == "scalar":
            mark = payload["value"]
            if type(mark) is not float:  # floats, nearly every mark, skip both checks
                if type(mark) in _NOT_NUMBERS:
                    raise ValueError(f"scalar mark {mark!r} is not a number")
                mark = float(mark)
            norm = abs(mark)
        elif kind == "path":
            mark = _path_mark(payload, seen, kept)
            norm = mark.sup_norm
        else:
            raise ConfigError(f"unknown mark payload kind {kind!r}")
        xs.append(entry["x"])
        marks.append(mark)
        norms.append(norm)
    if not xs:
        return Configuration.empty(dimension)
    widths = set(map(len, xs))
    if len(widths) != 1:
        raise ValueError(f"mixed dimensions in configuration: {sorted(widths)}")
    flat = list(chain.from_iterable(xs))  # its type scan + conversion cost the rows' conversion
    if not _NOT_NUMBERS.isdisjoint(map(type, flat)):
        row = next(x for x in xs if not _NOT_NUMBERS.isdisjoint(map(type, x)))
        raise ValueError(f"location {row!r} is not a list of numbers")
    locations = np.array(flat, dtype=float)
    if locations.ndim != 1 or not len(locations):
        raise ValueError(f"location {xs[0]!r} is not a list of numbers")
    locations = locations.reshape(len(xs), -1)
    if locations.shape[1] != dimension:
        raise ValueError(f"declared dimension {dimension} != point dimension "
                         f"{locations.shape[1]}")
    finite = np.isfinite(locations)  # a null coordinate reads as NaN
    if not finite.all():
        raise ValueError(f"location {xs[int(np.argmin(finite.all(axis=1)))]!r} is not finite")
    return Configuration.from_arrays(locations, marks, np.array(norms, dtype=float))


def _record_lines(configs: Iterable[Configuration], meta: dict | None) -> Iterator[str]:
    """``json.dumps(config_to_record(c, meta), sort_keys=True)`` for each
    configuration, assembled from per-atom texts: an atom object that the
    previous configuration held reuses its text, and a new atom with a path
    mark object that it held (a moved atom keeps its mark) reuses the path's
    text. The map is keyed by ``id`` and holds the atom beside its texts, so
    that the id names that atom, and its mark, for as long as the entry
    lives."""
    meta_text = f', "meta": {json.dumps(meta, sort_keys=True)}' if meta else ""
    texts: dict = {}
    for config in configs:
        line, atoms, paths = {}, [], None
        for p in config.points:
            entry = texts.get(id(p))
            if entry is None and isinstance(p.mark, PathMark):
                if paths is None:
                    paths = {id(q.mark): mark for q, _, mark in texts.values() if mark}
                mark = paths.get(id(p.mark)) or json.dumps(_mark_payload(p.mark), sort_keys=True)
                x = json.dumps([float(c) for c in p.location])
                # the keys of _point_record, sorted
                entry = (p, f'{{"mark": {mark}, "x": {x}}}', mark)
            elif entry is None:
                entry = (p, json.dumps(_point_record(p), sort_keys=True), None)
            line[id(p)] = entry
            atoms.append(entry[1])
        points = ", ".join(atoms)
        texts = line
        yield f'{{"dim": {json.dumps(config.dimension)}{meta_text}, "points": [{points}]}}'


def write_configs_jsonl(
    path, configs: Iterable[Configuration], meta: dict | None = None
) -> int:
    """One JSON object per configuration; returns the number written."""
    n = 0
    with open(path, "w") as fh:
        for line in _record_lines(configs, meta):
            fh.write(line)
            fh.write("\n")
            n += 1
    return n


def read_configs_jsonl(path) -> Iterator[Configuration]:
    """Configurations in file order; a line that is not one, or a file that
    is not text, raises ConfigError. A path mark whose f8le text the
    previous line held is that line's PathMark object."""
    with open(path) as fh:
        lineno = 0
        seen: dict = {}
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                kept: dict = {}
                try:
                    config = _config_from_record(json.loads(line), seen, kept)
                except (ValueError, KeyError, TypeError, OverflowError) as e:
                    raise ConfigError(
                        f"{path} line {lineno} is not a configuration record ({e!r})"
                    ) from e
                seen = kept
                yield config
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path} is not text after line {lineno} ({e!r})") from e


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    estimate: float
    stderr: float
    n: int
    model_id: str
    seed: int


_REPORT_FIELDS = ("quantity", "estimate", "stderr", "n", "model_id", "seed")


def write_report_csv(path, rows: Sequence[ReportRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_FIELDS)
        for r in rows:
            writer.writerow(
                [
                    r.quantity,
                    repr(float(r.estimate)),
                    repr(float(r.stderr)),
                    int(r.n),
                    r.model_id,
                    int(r.seed),
                ]
            )


def read_report_csv(path) -> list[ReportRow]:
    """Rows of a report CSV; a file that is not one raises ConfigError."""
    with open(path, newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            missing = [c for c in _REPORT_FIELDS if c not in (reader.fieldnames or ())]
            if missing:
                raise ConfigError(f"report {path} lacks columns {missing}")
            return [
                ReportRow(
                    row["quantity"],
                    float(row["estimate"]),
                    float(row["stderr"]),
                    int(row["n"]),
                    row["model_id"],
                    int(row["seed"]),
                )
                for row in reader
            ]
        except ConfigError:
            raise
        except (ValueError, TypeError) as e:
            raise ConfigError(f"report {path} line {reader.line_num} is not a report row "
                              f"({e!r})") from e


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(canonical_json(manifest).encode()).hexdigest()


def write_manifest(out_dir, config: dict, tool_version: str, seed: int) -> str:
    """Write manifest.json before any sampling output; returns its hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config,
        "tool_version": tool_version,
        "numpy_version": np.__version__,
        "seed": seed,
    }
    digest = manifest_hash(manifest)
    manifest["hash"] = digest
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return digest


def write_record(out_dir, record: dict) -> None:
    """Completion record (wall clock, status, outputs); volatile by design."""
    with open(Path(out_dir) / "record.json", "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
