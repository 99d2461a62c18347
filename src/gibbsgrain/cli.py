"""Command-line harness: declarative run configs, manifests, reports.

One config file (or flags overriding it) describes a run; the manifest is
written before any sampling so every output is traceable to its hash, and
record.json is written after the run whether it succeeded or failed. Exit
codes: 0 ok, 2 config error, 3 precondition violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .audits import local_stability_audit, stability_audit
from .discrete import DiscreteInstance, kernel_compatibility_check
from .energy import (
    DiffusionModel,
    HardSphereModel,
    IdealModel,
    PairPotentialModel,
    QuermassModel,
)
from .errors import ConfigError, NumericalFailure, PreconditionError
from .estimators import (
    MIN_CHAIN_STEPS,
    MIN_ENERGIES,
    MIN_INNER_SAMPLES,
    MIN_OUTER_SAMPLES,
    MIN_PARTITION_SAMPLES,
    dlr_residual,
    specific_entropy_curve,
)
from .functionals import build_library
from .geometry import (
    euler_characteristic,
    mc_geometry_oracle,
    random_disc_system,
    union_area_perimeter,
)
from .io import (
    ReportRow,
    read_configs_jsonl,
    write_configs_jsonl,
    write_manifest,
    write_record,
    write_report_csv,
)
from .marks import LangevinSpec, PathMark, law_from_descriptor
from .points import Box, Configuration, Window, mark_sup, window_contains
from .rng import stream
from .sampler import rejection_sample, run_chain, sample_poisson
from .tempered import is_tempered, range_separation_check

__all__ = ["main"]


def _phi_soft_bump(u: float) -> float:
    return 1.2 * u * math.exp(-u)


_PHI_REGISTRY = {"soft_bump": _phi_soft_bump, "zero": lambda u: 0.0}


def build_model(spec: dict):
    body = dict(_block(spec, "model"))
    mid = _text(body.pop("id", None), "model.id")
    if mid == "ideal":
        _reject_unknown(body, set(), "model.ideal")
        return IdealModel()
    if mid == "hardcore":
        _reject_unknown(body, set(), "model.hardcore")
        return HardSphereModel()
    if mid == "nonnegpair":
        _reject_unknown(body, {"phi"}, "model.nonnegpair")
        phi_name = _text(body.get("phi", "soft_bump"), "model.phi")
        if phi_name not in _PHI_REGISTRY:
            raise ConfigError(f"unknown phi {phi_name!r}; have {sorted(_PHI_REGISTRY)}")
        return PairPotentialModel(_PHI_REGISTRY[phi_name])
    if mid == "quermass":
        keys = ("a_area", "a_perimeter", "a_euler")
        _reject_unknown(body, set(keys), "model.quermass")
        return QuermassModel(*(_real(body.get(k, 0.0), "model." + k) for k in keys))
    if mid == "diffusion":
        _reject_unknown(body, set(), "model.diffusion")
        return DiffusionModel()
    raise ConfigError(f"unknown model id {mid!r}")


def build_window(spec: dict) -> Window:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("window block needs a 'kind' key")
    try:
        if spec["kind"] == "box":
            _reject_unknown(spec, {"kind", "n", "d", "bounds"}, "window.box")
            if "bounds" in spec:
                return Box(spec["bounds"])
            return Box.centered_cube(
                _whole(spec["n"], "window.n"), _whole(spec.get("d", 2), "window.d")
            )
        if spec["kind"] == "ball":
            _reject_unknown(spec, {"kind", "center", "radius"}, "window.ball")
            from .points import Ball

            return Ball(spec["center"], _real(spec["radius"], "window.radius", 0, strict=True))
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad window block: {e}") from e
    raise ConfigError(f"unknown window kind {spec['kind']!r}")


def build_law(spec: dict):
    try:
        return law_from_descriptor(_block(spec, "mark_law"))
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad mark_law block: {e}") from e


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


def _whole(value, key: str, low: int | None = None) -> int:
    """A whole number from a config (a temperedness level t, a chain length):
    2.0 counts as 2, while a bool, a string or a non-integral number is
    refused rather than truncated, and so is one below ``low``."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    _real(value, key, low)
    return int(value)


def _real(value, key: str, low: float | None = None, strict: bool = False) -> float:
    """A finite number from a config (an activity z, a delta): a bool, a
    string, null, a list, inf and NaN are refused, and so is a number below
    ``low``, or at it when ``strict``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {low}, got {value!r}")
    return float(value)


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


_COMMON_KEYS = {"seed", "name", "out"}


def load_config(args, command: str) -> dict:
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
    allowed = _COMMON_KEYS | set(_COMMANDS[command][2])
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
    return cfg


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


def _input_path(cfg: dict, missing: str) -> Path:
    if "input" not in cfg:
        raise ConfigError(missing)
    path = Path(_text(cfg["input"], "input"))
    if not path.exists():
        raise ConfigError(f"input file {path} not found")
    return path


def _report(out: Path, name: str, rows) -> dict:
    write_report_csv(out / name, rows)
    return {"outputs": [name]}


# ---------------------------------------------------------------------------
# Subcommands: prepare(cfg) validates and builds everything the config alone
# determines, then returns body(out, manifest_hash) -> extra record fields.
# ---------------------------------------------------------------------------


def _boundary(spec, model, law, d: int) -> Configuration | None:
    """The boundary block's configuration, fitted to the window dimension d
    and, for the path model, to the law's path grid, and t-tempered."""
    if spec == "free":
        return None
    if not isinstance(spec, dict) or not {"file", "t", "delta"} <= set(spec):
        raise ConfigError("boundary must be 'free' or {file, t, delta}")
    _reject_unknown(spec, {"file", "t", "delta"}, "boundary")
    t, delta = _whole(spec["t"], "t", 1), _real(spec["delta"], "delta", 0, strict=True)
    path = Path(_text(spec["file"], "boundary.file"))
    if not path.exists():
        raise ConfigError(f"boundary file {path} not found")
    xi = next(iter(read_configs_jsonl(path)), None)
    if xi is None:
        raise ConfigError(f"boundary file {path} holds no configuration")
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
        raise PreconditionError(
            f"boundary configuration is not {t}-tempered (minimal t = {report.minimal_t})"
        )
    return xi


def _prepare_sample(cfg: dict, report=None):
    """``report(out, result)``, if given, writes a summary of the last
    chain's result and returns the file name."""
    seed = cfg["seed"]
    model = build_model(cfg.get("model", {"id": "ideal"}))
    window = build_window(cfg.get("window", {"kind": "box", "n": 1, "d": 2}))
    z = _real(cfg.get("z", 0.5), "z", 0)
    law = build_law(cfg.get("mark_law", {"kind": "uniform", "b": 0.5}))
    _fit(model, law, window.dimension)
    steps = _whole(cfg.get("steps", 200_000), "steps")
    burn_in = _whole(cfg.get("burn_in", 100_000), "burn_in")
    if not 0 <= burn_in < steps:
        raise ConfigError(f"need 0 <= burn_in < steps, got burn_in {burn_in} and steps {steps}")
    thin = _whole(cfg.get("thin", 100), "thin", 1)
    chains = _whole(cfg.get("chains", 1), "chains", 1)
    drift_check_every = _whole(cfg.get("drift_check_every", 10_000), "drift_check_every", 1)
    env = _boundary(cfg.get("boundary", "free"), model, law, window.dimension)

    def body(out: Path, digest: str) -> dict:
        outputs, counts, stats = [], [], []
        chain_s = write_s = 0.0
        for chain in range(chains):
            t0 = time.perf_counter()
            result = run_chain(
                model, window, z, law, steps, stream(seed, chain),
                env=env, burn_in=burn_in, thin=thin, drift_check_every=drift_check_every,
            )
            t1 = time.perf_counter()
            chain_s += t1 - t0
            fname = f"samples_chain{chain}.jsonl"
            write_configs_jsonl(
                out / fname,
                result.samples,
                meta={"seed": seed, "model_id": model.model_id, "chain": chain,
                      "manifest": digest},
            )
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


def _prepare_geometry(cfg: dict):
    seed = cfg["seed"]
    n_systems = _whole(cfg.get("n_systems", 5), "n_systems", 1)
    n_discs = _whole(cfg.get("n_discs", 12), "n_discs", 1)
    extent = _real(cfg.get("extent", 8.0), "extent", 0, strict=True)
    margin = _real(cfg.get("margin", 0.03), "margin", 0)
    grid = _whole(cfg.get("grid", 2048), "grid", 1)
    # fewer points leave the oracle's stderr too wide to check against
    mc_points = _whole(cfg.get("mc_points", 200_000), "mc_points", 10_000)

    def body(out: Path, digest: str) -> dict:
        rows = []
        for i in range(n_systems):
            discs = random_disc_system(stream(seed, i), n_discs, extent=extent, margin=margin)
            area, perim = union_area_perimeter(discs)
            chi = euler_characteristic(discs)
            oracle = mc_geometry_oracle(discs, mc_points, stream(seed, 1000 + i), grid=grid)
            n = len(discs)
            rows += [
                ReportRow(f"area_exact[{i}]", area, 0.0, n, "geometry", seed),
                ReportRow(f"area_mc[{i}]", oracle.area, oracle.area_stderr, n, "geometry", seed),
                ReportRow(f"perimeter_exact[{i}]", perim, 0.0, n, "geometry", seed),
                ReportRow(f"chi_nerve[{i}]", float(chi), 0.0, n, "geometry", seed),
                ReportRow(f"chi_raster[{i}]", float(oracle.chi), 0.0, n, "geometry", seed),
            ]
            if not oracle.chi_consensus:
                print(f"warning: raster consensus not reached on system {i}", file=sys.stderr)
        print(f"checked {n_systems} disc systems -> {out/'geometry.csv'}")
        return _report(out, "geometry.csv", rows)

    return body


def _prepare_temper(cfg: dict):
    seed = cfg["seed"]
    path = _input_path(cfg, "temper needs an 'input' JSONL path")
    t = _whole(cfg.get("t", 1), "t")
    delta = _real(cfg.get("delta", 1.0), "delta")
    if t < 1 or delta <= 0:
        raise ConfigError("temper needs t >= 1 and delta > 0")

    def body(out: Path, digest: str) -> dict:
        # configurations are checked as they are read, so read_s sums the
        # gaps between the loop bodies and scan_s the checks inside them
        rows, read_s, scan_s = [], 0.0, 0.0
        t0 = time.perf_counter()
        for i, config in enumerate(read_configs_jsonl(path)):
            t1 = time.perf_counter()
            read_s += t1 - t0
            ok, report = is_tempered(config, t, delta)
            sep_ok, _witness = range_separation_check(config, report.minimal_t, delta)
            scan_s += time.perf_counter() - t1
            rows += [
                ReportRow(f"tempered[{i}]", float(ok), 0.0, len(config), "temper", seed),
                ReportRow(f"minimal_t[{i}]", float(report.minimal_t), 0.0, len(config), "temper", seed),
                ReportRow(f"range_separation[{i}]", float(sep_ok), 0.0, len(config), "temper", seed),
            ]
            t0 = time.perf_counter()
        read_s += time.perf_counter() - t0
        if not rows:
            raise ConfigError(f"input file {path} holds no configurations")
        n_configs = len(rows) // 3
        print(f"tempered report for {n_configs} configurations -> {out/'temper.csv'}")
        return dict(_report(out, "temper.csv", rows), read_s=read_s, scan_s=scan_s,
                    n_configs=n_configs)

    return body


def _prepare_audit(cfg: dict):
    seed = cfg["seed"]
    model = build_model(cfg.get("model", {"id": "hardcore"}))
    law = build_law(cfg.get("mark_law", {"kind": "uniform", "b": 0.8}))
    window = build_window(cfg.get("window", {"kind": "box", "n": 2, "d": 2}))
    _fit(model, law, window.dimension)
    z = _real(cfg.get("z", 0.4), "z", 0)
    delta = _real(cfg.get("delta", 1.0), "delta", 0, strict=True)
    n_trials = _whole(cfg.get("n_trials", 1000), "n_trials", 1)
    exponent = cfg.get("exponent")
    exponent = (_real(exponent, "exponent", 0, strict=True) if exponent is not None
                else window.dimension + delta)
    local = cfg.get("local")
    if local is not None:
        _reject_unknown(_block(local, "audit.local"), {"t", "env_z", "env_n"}, "audit.local")
        t = _whole(local.get("t", 2), "t", 1)
        env_n = _whole(local.get("env_n", 3), "env_n", 1)
        env_z = _real(local.get("env_z", z), "env_z", 0)
        env_win = build_window({"kind": "box", "n": env_n, "d": window.dimension})

    def body(out: Path, digest: str) -> dict:
        def sampler(rng):
            return sample_poisson(window, z, law, rng)

        report = stability_audit(model, sampler, n_trials, stream(seed, 0), exponent)
        rows = [
            ReportRow("c_hat_global", report.c_hat, 0.0, report.n_used, model.model_id, seed),
            ReportRow("n_infinite_global", float(report.n_infinite), 0.0,
                      report.n_trials, model.model_id, seed),
        ]
        if local is not None:
            lrep = local_stability_audit(
                model, window, t, n_trials, stream(seed, 1),
                interior_sampler=sampler,
                env_sampler=lambda r: sample_poisson(env_win, env_z, law, r),
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


def _prepare_entropy(cfg: dict):
    seed = cfg["seed"]
    model = build_model(cfg.get("model", {"id": "hardcore"}))
    law = build_law(cfg.get("mark_law", {"kind": "uniform", "b": 0.5}))
    d = _whole(cfg.get("d", 2), "d", 1)
    _fit(model, law, d)
    n_list = cfg.get("n_list", [1, 2])
    if isinstance(n_list, str):
        n_list = [float(x) for x in n_list.split(",")]
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError(f"n_list must be a non-empty list of integers, got {n_list!r}")
    n_list = [_whole(n, "n_list", 1) for n in n_list]
    z = _real(cfg.get("z", 0.3), "z", 0)
    delta = _real(cfg.get("delta", 1.0), "delta", 0, strict=True)
    options = dict(
        n_energy_samples=_whole(cfg.get("n_energy_samples", 300), "n_energy_samples",
                                MIN_ENERGIES),
        n_partition_samples=_whole(cfg.get("n_partition_samples", 2000), "n_partition_samples",
                                   MIN_PARTITION_SAMPLES),
        chain_steps=_whole(cfg.get("chain_steps", 30_000), "chain_steps", MIN_CHAIN_STEPS),
        stat_exponent=(
            _real(cfg["stat_exponent"], "stat_exponent", 0, strict=True)
            if cfg.get("stat_exponent") is not None else None
        ),
    )

    def body(out: Path, digest: str) -> dict:
        curve = specific_entropy_curve(model, d, n_list, z, law, delta, seed, **options)
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


def _prepare_dlr(cfg: dict):
    seed = cfg["seed"]
    model = build_model(cfg.get("model", {"id": "hardcore"}))
    law = build_law(cfg.get("mark_law", {"kind": "point", "value": 0.3}))
    d = _whole(cfg.get("d", 2), "d", 1)
    _fit(model, law, d)
    lam_n = _whole(cfg.get("lam_n", 4), "lam_n", 1)
    big = Box.centered_cube(lam_n, d)
    lam_half = _real(cfg.get("lam", 2.0), "lam", 0, strict=True)
    lam = Box([[-lam_half, lam_half]] * d)
    if not window_contains(big, lam):
        raise ConfigError(f"dlr needs lam <= lam_n, got lam {lam_half:g} and lam_n {lam_n}")
    z = _real(cfg.get("z", 0.2), "z", 0)
    delta = _real(cfg.get("delta", 1.0), "delta", 0, strict=True)
    n_outer = _whole(cfg.get("n_outer", 200), "n_outer", MIN_OUTER_SAMPLES)
    n_inner = _whole(cfg.get("n_inner", 100), "n_inner", MIN_INNER_SAMPLES)

    def body(out: Path, digest: str) -> dict:
        outer = rejection_sample(model, big, z, law, n_outer, stream(seed, 0)).samples
        lib = build_library(d, delta)
        reports = dlr_residual(model, lam, z, law, outer, lib, n_inner, stream(seed, 1))
        rows = [
            ReportRow(f"dlr_residual[{r.functional}]", r.residual, r.stderr,
                      r.n_outer, model.model_id, seed)
            for r in reports
        ]
        n_pass = sum(r.passed for r in reports)
        print(f"dlr residuals: {n_pass}/{len(reports)} within 3 stderr -> {out/'dlr.csv'}")
        return dict(_report(out, "dlr.csv", rows), passed=n_pass, total=len(reports))

    return body


def _prepare_compat(cfg: dict):
    seed = cfg["seed"]
    flavor = cfg.get("flavor", "both")
    if flavor not in ("hardcore", "pair", "both"):
        raise ConfigError("flavor must be hardcore, pair, or both")

    def body(out: Path, digest: str) -> dict:
        rows = []
        if flavor in ("hardcore", "both"):
            inst = DiscreteInstance(
                HardSphereModel(),
                cell_centers=[(0.0,), (0.9,), (1.8,), (2.7,)],
                cell_volume=0.9,
                mark_values=(0.3, 0.55),
                mark_probs=(0.5, 0.5),
                z=1.1,
            )
            gap = kernel_compatibility_check(inst, lam_cells=[0, 1])
            rows.append(ReportRow("compat_max_gap", gap, 0.0, inst.n_states, "hardcore", seed))
        if flavor in ("pair", "both"):
            inst = DiscreteInstance(
                PairPotentialModel(_phi_soft_bump),
                cell_centers=[(0.0,), (1.0,), (2.0,)],
                cell_volume=1.0,
                mark_values=(0.4, 0.9),
                mark_probs=(0.6, 0.4),
                z=0.7,
            )
            gap = kernel_compatibility_check(inst, lam_cells=[1, 2])
            rows.append(ReportRow("compat_max_gap", gap, 0.0, inst.n_states, "nonnegpair", seed))
        for r in rows:
            print(f"{r.model_id}: max deviation {r.estimate:.3e}")
        return _report(out, "compat.csv", rows)

    return body


def _prepare_diffusion(cfg: dict):
    """``sample`` preset: one chain of the diffusion model with Langevin path
    marks on [-1, 1)^2, plus a summary report."""
    seed = cfg["seed"]
    steps = _whole(cfg.get("steps", 4000), "steps")
    preset = {
        "seed": seed,
        "model": {"id": "diffusion"},
        "window": {"kind": "box", "n": 1, "d": 2},
        "z": cfg.get("z", 0.3),
        "mark_law": {"kind": "langevin", "potential": cfg.get("potential", "quartic"),
                     "step_count": _whole(cfg.get("step_count", 256), "step_count")},
        "steps": steps,
        "burn_in": cfg.get("burn_in", steps // 2),
        "thin": cfg.get("thin", 20),
    }

    def report(out: Path, result) -> str:
        counts = [len(c) for c in result.samples]
        sups = [mark_sup(c) for c in result.samples if len(c)]
        mid = DiffusionModel.model_id
        rows = [
            ReportRow("mean_count", float(np.mean(counts)),
                      float(np.std(counts) / math.sqrt(len(counts))),
                      len(counts), mid, seed),
            ReportRow("mean_mark_sup", float(np.mean(sups)) if sups else 0.0, 0.0,
                      len(sups), mid, seed),
            ReportRow("final_energy", result.stats.final_energy, 0.0,
                      len(result.final), mid, seed),
        ]
        write_report_csv(out / "diffusion.csv", rows)
        print(f"diffusion run: mean count {rows[0].estimate:.3f} -> {out}")
        return "diffusion.csv"

    return _prepare_sample(preset, report)


# ---------------------------------------------------------------------------
# Command table, run wrapper and entry point
# ---------------------------------------------------------------------------

# command -> (help, prepare, keys); each key maps to its flag type, or to
# None when it is set only in the config file. Every command also takes
# --config, --seed, --out and --name.
_COMMANDS = {
    "sample": ("run Metropolis chains, write JSONL samples", _prepare_sample, {
        "model": None, "window": None, "z": float, "mark_law": None, "steps": int,
        "burn_in": int, "thin": int, "chains": int, "boundary": None,
        "drift_check_every": None}),
    "geometry": ("exact vs oracle disc-union geometry", _prepare_geometry, {
        "n_systems": int, "n_discs": int, "extent": None, "margin": None, "grid": int,
        "mc_points": None}),
    "temper": ("temperedness report for stored samples", _prepare_temper, {
        "input": str, "t": int, "delta": float}),
    "audit": ("stability constants from random trials", _prepare_audit, {
        "model": None, "mark_law": None, "window": None, "z": None, "n_trials": int,
        "exponent": None, "delta": None, "local": None}),
    "entropy": ("specific entropy curve across volumes", _prepare_entropy, {
        "model": None, "mark_law": None, "d": None, "n_list": str, "z": float,
        "delta": None, "n_energy_samples": None, "n_partition_samples": None,
        "chain_steps": None, "stat_exponent": None}),
    "dlr": ("kernel consistency residuals", _prepare_dlr, {
        "model": None, "mark_law": None, "d": None, "lam_n": None, "lam": None,
        "z": None, "delta": None, "n_outer": int, "n_inner": int}),
    "compat": ("exact kernel compatibility on micro instances", _prepare_compat, {
        "flavor": str}),
    "diffusion": ("sample preset for the path-marked model", _prepare_diffusion, {
        "steps": int, "z": float, "burn_in": None, "thin": None, "step_count": None,
        "potential": None}),
}

# Only a ConfigError exits 2. Every config value is read through the reader
# for its kind (_whole, _real, _text, _block), with its bounds, before the run
# directory exists; a ValueError that a library constructor raises on a config
# value then becomes a ConfigError in _run. A ValueError from a run body is a
# fault of the code, not of the config: it is unmapped and exits 1.
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
        cfg = load_config(args, command)
        body = _COMMANDS[command][1](cfg)
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
    for command, (help_text, _prepare, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON run config; flags override its keys")
        p.add_argument("--seed", type=int, help="run seed (mandatory here or in config)")
        p.add_argument("--out", help="output root (default $GIBBSGRAIN_OUT or ./runs)")
        p.add_argument("--name", help="run directory name")
        for key, kind in keys.items():
            if kind is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)
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
