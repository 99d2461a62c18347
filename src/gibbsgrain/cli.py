"""Command-line harness: declarative run configs, manifests, reports.

One config file (or flags overriding it) describes a run. Each command
declares its keys in one table: a key's reader with its bound, its default,
and its flag type or None for a key set only in the config file.
``load_config`` reads every value through the table and ``_parser`` makes
the flags from it; a command's ``prepare`` keeps only the rules that span
keys, then builds the run. The manifest (the merged config as given, and its
hash) is written before any sampling so every output is traceable to its
hash, and record.json is written after the run whether it succeeded or
failed. Exit codes: 0 ok, 2 config error, 3 precondition violation, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .audits import local_stability_audit, stability_audit
from .discrete import DiscreteInstance, kernel_compatibility_check
from .energy import (DiffusionModel, HardSphereModel, IdealModel, PairPotentialModel,
                     QuermassModel)
from .errors import ConfigError, NumericalFailure, PreconditionError, _real, _whole
from .estimators import (MIN_CHAIN_STEPS, MIN_ENERGIES, MIN_INNER_SAMPLES, MIN_OUTER_SAMPLES,
                         MIN_PARTITION_SAMPLES, batch_means_stderr, dlr_residual,
                         specific_entropy_curve)
from .functionals import build_library
from .geometry import (euler_characteristic, mc_geometry_oracle, random_disc_system,
                       union_area_perimeter)
from .io import (ReportRow, read_configs_jsonl, write_configs_jsonl, write_manifest,
                 write_record, write_report_csv)
from .marks import LangevinSpec, PathMark, law_from_descriptor
from .points import Ball, Box, Configuration, Window, mark_sup, window_contains
from .rng import stream
from .sampler import rejection_sample, run_chain, sample_poisson
from .tempered import is_tempered, range_separation_check

__all__ = ["main"]


def _phi_soft_bump(u: float) -> float:
    return 1.2 * u * math.exp(-u)


_PHI_REGISTRY = {"soft_bump": _phi_soft_bump, "zero": lambda u: 0.0}


# model id -> the keys its block may hold besides "id"
_MODEL_KEYS = {"ideal": (), "hardcore": (), "nonnegpair": ("phi",),
               "quermass": ("a_area", "a_perimeter", "a_euler"), "diffusion": ()}


def build_model(spec: dict, key: str = "model"):
    body = dict(_block(spec, key))
    mid = _text(body.pop("id", None), "model.id")
    if mid not in _MODEL_KEYS:
        raise ConfigError(f"unknown model id {mid!r}")
    _reject_unknown(body, set(_MODEL_KEYS[mid]), f"model.{mid}")
    if mid == "nonnegpair":
        phi_name = _text(body.get("phi", "soft_bump"), "model.phi")
        if phi_name not in _PHI_REGISTRY:
            raise ConfigError(f"unknown phi {phi_name!r}; have {sorted(_PHI_REGISTRY)}")
        return PairPotentialModel(_PHI_REGISTRY[phi_name])
    if mid == "quermass":
        return QuermassModel(*(_real(body.get(k, 0.0), "model." + k) for k in _MODEL_KEYS[mid]))
    return {"ideal": IdealModel, "hardcore": HardSphereModel, "diffusion": DiffusionModel}[mid]()


def build_window(spec: dict, key: str = "window") -> Window:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{key} block needs a 'kind' key")
    try:
        if spec["kind"] == "box":
            _reject_unknown(spec, {"kind", "n", "d", "bounds"}, "window.box")
            if "bounds" in spec:
                return Box(spec["bounds"])
            return Box.centered_cube(_whole(spec["n"], "window.n"),
                                     _whole(spec.get("d", 2), "window.d"))
        if spec["kind"] == "ball":
            _reject_unknown(spec, {"kind", "center", "radius"}, "window.ball")
            return Ball(spec["center"], _real(spec["radius"], "window.radius", 0, strict=True))
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad {key} block: {e}") from e
    raise ConfigError(f"unknown window kind {spec['kind']!r}")


def build_law(spec: dict, key: str = "mark_law"):
    try:
        return law_from_descriptor(_block(spec, key))
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad {key} block: {e}") from e


def _fit(model, law, d: int) -> None:
    """Refuse a model with a mark law or a dimension it is not defined for."""
    if isinstance(model, DiffusionModel) and not isinstance(law, LangevinSpec):
        raise ConfigError("the diffusion model needs a 'langevin' mark law")
    if isinstance(model, QuermassModel) and d != 2:
        raise ConfigError(f"the quermass model needs d = 2, got d = {d}")


def _reject_unknown(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if not value:
        raise ConfigError(f"{key} must not be empty")
    return value


def _block(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Config tables: each command's keys, read by Key.read before prepare runs
# ---------------------------------------------------------------------------


class Key(NamedTuple):
    """A config key: ``read(value, key)`` reads its value and holds it to its
    bound, ``default`` stands in when it is absent (None: ``prepare`` fills it
    from other keys), and ``flag`` types its flag (None: config file only)."""

    read: Callable
    default: object = None
    flag: type | None = None


def _read(table: dict, block: dict) -> dict:
    """Each key of ``table``, read from ``block`` by its reader."""
    return {key: k.read(block.get(key, k.default), key)
            if key in block or k.default is not None else None
            for key, k in table.items()}


_count = partial(_whole, low=1)
_positive = partial(_real, low=0, strict=True)
_nonnegative = partial(_real, low=0)


def _optional(read):
    """``read``, with null read as an absent value."""
    return lambda value, key: None if value is None else read(value, key)


def _n_list(value, key: str) -> list[int]:
    """A list of volumes n >= 1, or a comma-separated string of them (the flag)."""
    if isinstance(value, str):
        value = [float(x) for x in value.split(",")]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"n_list must be a non-empty list of integers, got {value!r}")
    return [_count(n, key) for n in value]


def _file(value, key: str) -> Path:
    """The path of an existing file (``input``, ``boundary.file``)."""
    path = Path(_text(value, key))
    if not path.exists():
        raise ConfigError(f"{key.split('.')[0]} file {path} not found")
    return path


def _flavor(value, key: str) -> str:
    if value not in ("hardcore", "pair", "both"):
        raise ConfigError("flavor must be hardcore, pair, or both")
    return value


def _boundary_file(spec, key: str) -> tuple | None:
    """None for 'free', else the boundary file's first configuration with its
    t and delta (``_boundary`` fits it to the run)."""
    if spec == "free":
        return None
    if not isinstance(spec, dict) or set(spec) != {"file", "t", "delta"}:
        raise ConfigError("boundary must be 'free' or {file, t, delta}")
    t, delta = _count(spec["t"], "t"), _positive(spec["delta"], "delta")
    path = _file(spec["file"], "boundary.file")
    xi = next(iter(read_configs_jsonl(path)), None)
    if xi is None:
        raise ConfigError(f"boundary file {path} holds no configuration")
    return xi, t, delta


_AUDIT_LOCAL = {"t": Key(_count, 2), "env_n": Key(_count, 3), "env_z": Key(_nonnegative)}


def _audit_local(value, key: str) -> dict:
    """The values of the block that asks for a conditional pass."""
    _reject_unknown(_block(value, "audit.local"), set(_AUDIT_LOCAL), "audit.local")
    return _read(_AUDIT_LOCAL, value)


_SAMPLE = {
    "model": Key(build_model, {"id": "ideal"}),
    "window": Key(build_window, {"kind": "box", "n": 1, "d": 2}),
    "z": Key(_nonnegative, 0.5, float),
    "mark_law": Key(build_law, {"kind": "uniform", "b": 0.5}),
    "steps": Key(_whole, 200_000, int),
    "burn_in": Key(_whole, 100_000, int),
    "thin": Key(_count, 100, int),
    "chains": Key(_count, 1, int),
    "boundary": Key(_boundary_file, "free"),
    "drift_check_every": Key(_count, 10_000),
}
_GEOMETRY = {
    "n_systems": Key(_count, 5, int),
    "n_discs": Key(_count, 12, int),
    "extent": Key(_positive, 8.0),
    "margin": Key(_nonnegative, 0.03),
    "grid": Key(_count, 2048, int),
    # fewer points leave the oracle's stderr too wide to check against
    "mc_points": Key(partial(_whole, low=10_000), 200_000),
}
_TEMPER = {"input": Key(_file, None, str), "t": Key(_whole, 1, int),
           "delta": Key(_real, 1.0, float)}
_AUDIT = {
    "model": Key(build_model, {"id": "hardcore"}),
    "mark_law": Key(build_law, {"kind": "uniform", "b": 0.8}),
    "window": Key(build_window, {"kind": "box", "n": 2, "d": 2}),
    "z": Key(_nonnegative, 0.4),
    "n_trials": Key(_count, 1000, int),
    "exponent": Key(_optional(_positive)),  # d + delta
    "delta": Key(_positive, 1.0),
    "local": Key(_optional(_audit_local)),
}
_ENTROPY = {
    "model": Key(build_model, {"id": "hardcore"}),
    "mark_law": Key(build_law, {"kind": "uniform", "b": 0.5}),
    "d": Key(_count, 2),
    "n_list": Key(_n_list, [1, 2], str),
    "z": Key(_nonnegative, 0.3, float),
    "delta": Key(_positive, 1.0),
    "n_energy_samples": Key(partial(_whole, low=MIN_ENERGIES), 300),
    "n_partition_samples": Key(partial(_whole, low=MIN_PARTITION_SAMPLES), 2000),
    "chain_steps": Key(partial(_whole, low=MIN_CHAIN_STEPS), 30_000),
    "stat_exponent": Key(_optional(_positive)),
}
_DLR = {
    "model": Key(build_model, {"id": "hardcore"}),
    "mark_law": Key(build_law, {"kind": "point", "value": 0.3}),
    "d": Key(_count, 2),
    "lam_n": Key(_count, 4),
    "lam": Key(_positive, 2.0),
    "z": Key(_nonnegative, 0.2),
    "delta": Key(_positive, 1.0),
    "n_outer": Key(partial(_whole, low=MIN_OUTER_SAMPLES), 200, int),
    "n_inner": Key(partial(_whole, low=MIN_INNER_SAMPLES), 100, int),
}
_COMPAT = {"flavor": Key(_flavor, "both", str)}
# a sample preset: its chain keys are read by sample's readers
_DIFFUSION = {
    "steps": _SAMPLE["steps"]._replace(default=4000),
    "z": _SAMPLE["z"]._replace(default=0.3),
    "burn_in": _SAMPLE["burn_in"]._replace(default=None, flag=None),  # steps // 2
    "thin": _SAMPLE["thin"]._replace(default=20, flag=None),
    "step_count": Key(_whole, 256),
    "potential": Key(_text, "quartic"),
}

_COMMON_KEYS = {"seed", "name", "out"}


def load_config(args, command: str) -> tuple[dict, dict]:
    """The merged config (the file's keys, overridden by flags), which the
    manifest holds as given, and its values read through the command's
    table, with the seed."""
    cfg: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} not found")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    table = _COMMANDS[command][2]
    allowed = _COMMON_KEYS | set(table)
    _reject_unknown(cfg, allowed, f"{command} config")
    for key in allowed:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg.get("seed") is None:
        raise ConfigError("seed is mandatory (config key 'seed' or --seed)")
    cfg["seed"] = _whole(cfg["seed"], "seed")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg, dict(_read(table, cfg), seed=cfg["seed"])


def _out_dir(cfg: dict, command: str) -> Path:
    """The run directory: a present key is read as given, never as absent."""
    root = _text(cfg["out"], "out") if "out" in cfg else (
        os.environ.get("GIBBSGRAIN_OUT") or "runs")
    name = _text(cfg["name"], "name") if "name" in cfg else f"{command}-{cfg['seed']}"
    return Path(root) / name


def _manifest(out: Path, cfg: dict) -> str:
    """Hash only the science-bearing keys: where outputs land must not change
    what a seeded run produces, or byte-level reproducibility would depend on
    the directory name."""
    hashed = {k: v for k, v in cfg.items() if k not in ("out", "name")}
    return write_manifest(out, hashed, __version__, cfg["seed"])


def _report(out: Path, name: str, rows) -> dict:
    write_report_csv(out / name, rows)
    return {"outputs": [name]}


# ---------------------------------------------------------------------------
# Subcommands: prepare(values) checks the rules that span keys and builds the
# run, then returns body(out, manifest_hash) -> extra record fields.
# ---------------------------------------------------------------------------


def _boundary(boundary, model, law, d: int) -> Configuration | None:
    """The boundary configuration, fitted to the window dimension d and, for
    the path model, to the law's path grid, and t-tempered."""
    if boundary is None:
        return None
    xi, t, delta = boundary
    if xi.dimension != d:
        raise ConfigError(f"boundary configuration has dimension {xi.dimension}, window has {d}")
    if isinstance(model, DiffusionModel):
        for q in xi.points:
            k = q.mark.step_count if isinstance(q.mark, PathMark) else None
            if k != law.step_count:
                raise ConfigError(f"boundary mark at {q.location} is not a path of "
                                  f"{law.step_count} steps (got {k or 'a scalar mark'})")
    ok, report = is_tempered(xi, t, delta)
    if not ok:
        raise PreconditionError(f"boundary configuration is not {t}-tempered "
                                f"(minimal t = {report.minimal_t})")
    return xi


def _prepare_sample(seed, model, window, z, mark_law, steps, burn_in, thin, chains, boundary,
                    drift_check_every, report=None):
    """``report(out, result)``, if given, writes a summary of the last
    chain's result and returns the file name."""
    _fit(model, mark_law, window.dimension)
    if not 0 <= burn_in < steps:
        raise ConfigError(f"need 0 <= burn_in < steps, got burn_in {burn_in} and steps {steps}")
    env = _boundary(boundary, model, mark_law, window.dimension)

    def body(out: Path, digest: str) -> dict:
        outputs, counts, stats = [], [], []
        chain_s = write_s = 0.0
        for chain in range(chains):
            t0 = time.perf_counter()
            result = run_chain(model, window, z, mark_law, steps, stream(seed, chain), env=env,
                               burn_in=burn_in, thin=thin, drift_check_every=drift_check_every)
            t1 = time.perf_counter()
            chain_s += t1 - t0
            fname = f"samples_chain{chain}.jsonl"
            meta = {"seed": seed, "model_id": model.model_id, "chain": chain, "manifest": digest}
            write_configs_jsonl(out / fname, result.samples, meta=meta)
            write_s += time.perf_counter() - t1
            outputs.append(fname)
            counts.append(len(result.samples))
            stats.append(asdict(result.stats))
        print(f"wrote {sum(counts)} configurations to {out}")
        if report is not None:
            outputs.append(report(out, result))
        return {"outputs": outputs, "n_samples": counts, "chain_stats": stats,
                "steps_per_s": steps * chains / chain_s, "write_s": write_s}

    return body


def _prepare_geometry(seed, n_systems, n_discs, extent, margin, grid, mc_points):
    def body(out: Path, digest: str) -> dict:
        rows = []
        for i in range(n_systems):
            discs = random_disc_system(stream(seed, i), n_discs, extent=extent, margin=margin)
            area, perim = union_area_perimeter(discs)
            chi = euler_characteristic(discs)
            oracle = mc_geometry_oracle(discs, mc_points, stream(seed, 1000 + i), grid=grid)
            rows += [ReportRow(f"{q}[{i}]", v, se, len(discs), "geometry", seed) for q, v, se in (
                ("area_exact", area, 0.0), ("area_mc", oracle.area, oracle.area_stderr),
                ("perimeter_exact", perim, 0.0), ("chi_nerve", float(chi), 0.0),
                ("chi_raster", float(oracle.chi), 0.0))]
            if not oracle.chi_consensus:
                print(f"warning: raster consensus not reached on system {i}", file=sys.stderr)
        print(f"checked {n_systems} disc systems -> {out/'geometry.csv'}")
        return _report(out, "geometry.csv", rows)

    return body


def _prepare_temper(seed, input, t, delta):
    if input is None:
        raise ConfigError("temper needs an 'input' JSONL path")
    if t < 1 or delta <= 0:
        raise ConfigError("temper needs t >= 1 and delta > 0")

    def body(out: Path, digest: str) -> dict:
        # configurations are checked as they are read, so read_s sums the
        # gaps between the loop bodies and scan_s the checks inside them
        rows, read_s, scan_s = [], 0.0, 0.0
        t0 = time.perf_counter()
        for i, config in enumerate(read_configs_jsonl(input)):
            t1 = time.perf_counter()
            read_s += t1 - t0
            ok, report = is_tempered(config, t, delta)
            sep_ok, _witness = range_separation_check(config, report.minimal_t, delta)
            scan_s += time.perf_counter() - t1
            rows += [ReportRow(f"{q}[{i}]", float(v), 0.0, len(config), "temper", seed)
                     for q, v in (("tempered", ok), ("minimal_t", report.minimal_t),
                                  ("range_separation", sep_ok))]
            t0 = time.perf_counter()
        read_s += time.perf_counter() - t0
        if not rows:
            raise ConfigError(f"input file {input} holds no configurations")
        n_configs = len(rows) // 3
        print(f"tempered report for {n_configs} configurations -> {out/'temper.csv'}")
        return dict(_report(out, "temper.csv", rows), read_s=read_s, scan_s=scan_s,
                    n_configs=n_configs)

    return body


def _prepare_audit(seed, model, mark_law, window, z, n_trials, exponent, delta, local):
    _fit(model, mark_law, window.dimension)
    if exponent is None:
        exponent = window.dimension + delta
    if local is not None:
        env_z = z if local["env_z"] is None else local["env_z"]
        env_win = build_window({"kind": "box", "n": local["env_n"], "d": window.dimension})

    def body(out: Path, digest: str) -> dict:
        def sampler(rng):
            return sample_poisson(window, z, mark_law, rng)

        report = stability_audit(model, sampler, n_trials, stream(seed, 0), exponent)
        rows = [
            ReportRow("c_hat_global", report.c_hat, 0.0, report.n_used, model.model_id, seed),
            ReportRow("n_infinite_global", float(report.n_infinite), 0.0,
                      report.n_trials, model.model_id, seed),
        ]
        if local is not None:
            lrep = local_stability_audit(
                model, window, local["t"], n_trials, stream(seed, 1),
                interior_sampler=sampler,
                env_sampler=lambda r: sample_poisson(env_win, env_z, mark_law, r),
                delta=delta, exponent=exponent,
            )
            rows.append(ReportRow("c_hat_local", lrep.c_hat, 0.0, lrep.n_used,
                                  model.model_id, seed))
            rows.append(ReportRow("n_env_rejected", float(lrep.n_env_rejected), 0.0,
                                  lrep.n_trials, model.model_id, seed))
        for r in rows:
            print(f"{r.quantity} = {r.estimate}")
        return _report(out, "audit.csv", rows)

    return body


def _prepare_entropy(seed, model, mark_law, d, n_list, z, delta, **options):
    _fit(model, mark_law, d)

    def body(out: Path, digest: str) -> dict:
        curve = specific_entropy_curve(model, d, n_list, z, mark_law, delta, seed, **options)
        rows = []
        for p in curve.points:
            rows += [
                ReportRow("i_per_volume", p.per_volume, p.per_volume_stderr, p.n,
                          model.model_id, seed),
                ReportRow("ceiling", p.ceiling, 0.0, p.n, model.model_id, seed),
                ReportRow("a1_hat", p.a1_hat, 0.0, p.n, model.model_id, seed),
            ]
        print(f"entropy curve ({len(curve.points)} volumes) under ceiling: "
              f"{curve.under_ceiling}, trend ok: {curve.trend_ok} -> {out}")
        return dict(_report(out, "entropy.csv", rows),
                    under_ceiling=curve.under_ceiling, trend_ok=curve.trend_ok,
                    partition=[{"n": p.n, "ess": p.partition_ess,
                                "max_weight_share": p.max_weight_share}
                               for p in curve.points])

    return body


def _prepare_dlr(seed, model, mark_law, d, lam_n, lam, z, delta, n_outer, n_inner):
    _fit(model, mark_law, d)
    big, inner = Box.centered_cube(lam_n, d), Box([[-lam, lam]] * d)
    if not window_contains(big, inner):
        raise ConfigError(f"dlr needs lam <= lam_n, got lam {lam:g} and lam_n {lam_n}")

    def body(out: Path, digest: str) -> dict:
        outer = rejection_sample(model, big, z, mark_law, n_outer, stream(seed, 0)).samples
        lib = build_library(d, delta)
        reports = dlr_residual(model, inner, z, mark_law, outer, lib, n_inner, stream(seed, 1))
        rows = [
            ReportRow(f"dlr_residual[{r.functional}]", r.residual, r.stderr,
                      r.n_outer, model.model_id, seed)
            for r in reports
        ]
        n_pass = sum(r.passed for r in reports)
        print(f"dlr residuals: {n_pass}/{len(reports)} within 3 stderr -> {out/'dlr.csv'}")
        return dict(_report(out, "dlr.csv", rows), passed=n_pass, total=len(reports))

    return body


def _prepare_compat(seed, flavor):
    def body(out: Path, digest: str) -> dict:
        rows = []
        if flavor in ("hardcore", "both"):
            inst = DiscreteInstance(HardSphereModel(), [(0.0,), (0.9,), (1.8,), (2.7,)], 0.9,
                                    mark_values=(0.3, 0.55), mark_probs=(0.5, 0.5), z=1.1)
            gap = kernel_compatibility_check(inst, lam_cells=[0, 1])
            rows.append(ReportRow("compat_max_gap", gap, 0.0, inst.n_states, "hardcore", seed))
        if flavor in ("pair", "both"):
            inst = DiscreteInstance(PairPotentialModel(_phi_soft_bump), [(0.0,), (1.0,), (2.0,)],
                                    1.0, mark_values=(0.4, 0.9), mark_probs=(0.6, 0.4), z=0.7)
            gap = kernel_compatibility_check(inst, lam_cells=[1, 2])
            rows.append(ReportRow("compat_max_gap", gap, 0.0, inst.n_states, "nonnegpair", seed))
        for r in rows:
            print(f"{r.model_id}: max deviation {r.estimate:.3e}")
        return _report(out, "compat.csv", rows)

    return body


def _prepare_diffusion(seed, steps, z, burn_in, thin, step_count, potential):
    """``sample`` preset: one chain of the diffusion model with Langevin path
    marks on [-1, 1)^2, plus a summary report. The preset is a ``sample``
    config, read by ``sample``'s table."""
    preset = _read(_SAMPLE, {
        "model": {"id": "diffusion"},
        "window": {"kind": "box", "n": 1, "d": 2},
        "z": z,
        "mark_law": {"kind": "langevin", "potential": potential, "step_count": step_count},
        "steps": steps,
        "burn_in": steps // 2 if burn_in is None else burn_in,
        "thin": thin,
    })

    def report(out: Path, result) -> str:
        counts = [len(c) for c in result.samples]
        sups = [mark_sup(c) for c in result.samples if len(c)]
        mid = DiffusionModel.model_id
        rows = [
            ReportRow("mean_count", float(np.mean(counts)), batch_means_stderr(counts),
                      len(counts), mid, seed),
            ReportRow("mean_mark_sup", float(np.mean(sups)) if sups else 0.0, 0.0, len(sups), mid,
                      seed),
            ReportRow("final_energy", result.stats.final_energy, 0.0, len(result.final), mid, seed),
        ]
        write_report_csv(out / "diffusion.csv", rows)
        print(f"diffusion run: mean count {rows[0].estimate:.3f} -> {out}")
        return "diffusion.csv"

    return _prepare_sample(seed, report=report, **preset)


# ---------------------------------------------------------------------------
# Command table, run wrapper and entry point
# ---------------------------------------------------------------------------

# command -> (help, prepare, config table). Every command also takes
# --config, --seed, --out and --name.
_COMMANDS = {
    "sample": ("run Metropolis chains, write JSONL samples", _prepare_sample, _SAMPLE),
    "geometry": ("exact vs oracle disc-union geometry", _prepare_geometry, _GEOMETRY),
    "temper": ("temperedness report for stored samples", _prepare_temper, _TEMPER),
    "audit": ("stability constants from random trials", _prepare_audit, _AUDIT),
    "entropy": ("specific entropy curve across volumes", _prepare_entropy, _ENTROPY),
    "dlr": ("kernel consistency residuals", _prepare_dlr, _DLR),
    "compat": ("exact kernel compatibility on micro instances", _prepare_compat, _COMPAT),
    "diffusion": ("sample preset for the path-marked model", _prepare_diffusion, _DIFFUSION),
}

# Only a ConfigError exits 2. Every config value is read through its
# command's table, with its bounds, before the run directory exists; a
# ValueError that a library constructor raises on a config value then becomes
# a ConfigError in _run. A ValueError from a run body is a fault of the code,
# not of the config: it is unmapped and exits 1.
_EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (PreconditionError, 3, "precondition violated"),
    (NumericalFailure, 4, "numerical failure"),
)


def _exit_code(e: Exception) -> tuple[int, str]:
    """Exit code and label for an exception; 1 (as for a traceback) if unmapped."""
    for exc, code, label in _EXIT_CODES:
        if isinstance(e, exc):
            return code, label
    return 1, "error"


def _run(command: str, args) -> None:
    """Load the config, prepare, and run the body in its run directory.

    Nothing is written until prepare has accepted the config. From the
    manifest on, record.json is always written: status "ok" with the body's
    fields, or status "failed" with the exit code and error, re-raised.
    """
    try:
        cfg, values = load_config(args, command)
        body = _COMMANDS[command][1](**values)
    except ConfigError:
        raise
    except ValueError as e:
        # everything up to here reads the config
        raise ConfigError(str(e)) from e
    out = _out_dir(cfg, command)
    digest = _manifest(out, cfg)
    record = {"manifest": digest}
    t0 = time.time()
    try:
        record.update(body(out, digest), status="ok")
    except Exception as e:
        record.update(status="failed", exit_code=_exit_code(e)[0],
                      error=f"{type(e).__name__}: {e}")
        raise
    finally:
        record["wall_clock_s"] = time.time() - t0
        write_record(out, record)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gibbsgrain",
        description="Simulation and verification toolkit for marked Gibbs models",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, _prepare, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON run config; flags override its keys")
        p.add_argument("--seed", type=int, help="run seed (mandatory here or in config)")
        p.add_argument("--out", help="output root (default $GIBBSGRAIN_OUT or ./runs)")
        p.add_argument("--name", help="run directory name")
        for key, k in table.items():
            if k.flag is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=k.flag)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _run(args.command, args)
    except tuple(exc for exc, _code, _label in _EXIT_CODES) as e:
        code, label = _exit_code(e)
        print(f"{label}: {e}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
