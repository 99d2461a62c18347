"""gibbsgrain benchmark: CLI passes on one workload, timed and checked.

    python3 bench/run.py --workload hardcore-w8 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``. A pass calls ``gibbsgrain.cli.main`` in this process for
the workload's main command (``sample`` or ``entropy``) and then for the
command that verifies it (``temper`` or ``audit``), and checks the outputs.
Passes run in whole cycles over a fixed set of sub-seeds derived from
``--seed``, for about ``--seconds``; every sub-seed recurs, and a recurring
pass must write byte-identical output.

``--trace 0`` reports the end-to-end metrics. Each command's time is
converted to reference seconds with the calibration kernel timed around it
(see calibration.py), each sub-seed keeps its best repeat, and the metric is
the median across sub-seeds. ``setup_s`` is the raw median over fresh
interpreter starts before the first pass. ``--trace 1`` alternates untraced
and traced passes of each sub-seed and reports per-layer numbers from the
traced ones (see ``layer_metrics``), the tracing overhead, and a span dump
under ``bench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS pools before numpy is imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibration import REFERENCE_S, kernel_seconds, to_reference
from tracer import Probe, Stat, Tracer
from workloads import WORKLOADS, Workload, check_outputs, fingerprint_path, sha256_file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
WORK = BENCH / "_work"

SETUP_REPS = 5
# A run completes at least this many cycles (an untraced run needs two, so
# that every sub-seed repeats), and starts no cycle that would end after
# --seconds or HARD_LIMIT_S.
MIN_CYCLES = {0: 2, 1: 1}
HARD_LIMIT_S = 120.0

END_TO_END = {
    "steps_per_s": "1/s",
    "run_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sampler.step_us.p50": "us",
    "sampler.step_us.p99": "us",
    "sampler.self_s": "s",
    "sampler.accept.birth": "ratio",
    "sampler.accept.death": "ratio",
    "sampler.accept.move": "ratio",
    "sampler.accept.remark": "ratio",
    "sampler.rejection.proposed": "count",
    "sampler.rejection.accept_rate": "ratio",
    "energy.conditional_energy.calls": "count",
    "energy.conditional_energy.s": "s",
    "energy.pair_term.calls": "count",
    "energy.pair_term.s": "s",
    "energy.energy.calls": "count",
    "energy.energy.s": "s",
    "geometry.disc_system.calls": "count",
    "geometry.disc_system.s": "s",
    "geometry.disc_system.discs_mean": "count",
    "geometry.disc_system.perturbed": "count",
    "geometry.union_area.s": "s",
    "geometry.union_perimeter.s": "s",
    "geometry.euler_characteristic.s": "s",
    "points.configuration.calls": "count",
    "points.configuration.s": "s",
    "marks.sample.calls": "count",
    "marks.sample.s": "s",
    "marks.sample_us.p50": "us",
    "io.write.bytes": "bytes",
    "io.write.s": "s",
    "io.read.configs": "count",
    "io.read.s": "s",
    "tempered.configs": "count",
    "tempered.s": "s",
    "estimators.partition.draws": "count",
    "estimators.partition.s": "s",
    "estimators.entropy.s": "s",
    "audits.stability.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _add(st, key, value):
    st.extra[key] = st.extra.get(key, 0) + value


def _on_chain(st, args, result):
    if result is not None:
        for kind, n in result.stats.proposals.items():
            _add(st, "proposed." + kind, n)
            _add(st, "accepted." + kind, result.stats.accepts[kind])


def _on_rejection(st, args, result):
    if result is not None:
        _add(st, "proposed", result.n_proposed)
        _add(st, "accepted", result.n_accepted)


def _on_partition(st, args, result):
    if result is not None:
        _add(st, "draws", result.n_samples)


def _on_disc_system(st, args, result):
    system = args[0]
    _add(st, "discs", system.n)
    _add(st, "perturbed", int(system.perturbed))


def _on_write(st, args, result):
    _add(st, "bytes", os.path.getsize(args[0]))


def _on_read(st, args, result):
    if result is not None:
        _add(st, "configs", 1)


# Entry points whose counts give steps_per_s; cheap enough for untraced passes.
ENTRY_PROBES = [
    Probe("gibbsgrain.sampler:run_chain", "sampler.run_chain", span=True, on_result=_on_chain),
    Probe("gibbsgrain.sampler:rejection_sample", "sampler.rejection_sample", span=True,
          on_result=_on_rejection),
    Probe("gibbsgrain.estimators:partition_estimate", "estimators.partition", span=True,
          on_result=_on_partition),
]

LAYER_PROBES = ENTRY_PROBES + [
    Probe("gibbsgrain.sampler:bdm_step", "sampler.bdm_step", durations=True),
    Probe("gibbsgrain.sampler:sample_poisson", "sampler.sample_poisson"),
    Probe("gibbsgrain.energy:*.conditional_energy", "energy.conditional_energy"),
    Probe("gibbsgrain.energy:*.energy", "energy.energy"),
    Probe("gibbsgrain.energy:*.pair_term", "energy.pair_term"),
    Probe("gibbsgrain.geometry:DiscSystem.__init__", "geometry.disc_system",
          on_result=_on_disc_system),
    Probe("gibbsgrain.geometry:union_area", "geometry.union_area"),
    Probe("gibbsgrain.geometry:union_perimeter", "geometry.union_perimeter"),
    Probe("gibbsgrain.geometry:euler_characteristic", "geometry.euler_characteristic"),
    # trial configurations: only those a chain step builds itself
    Probe("gibbsgrain.points:Configuration.__init__", "points.configuration",
          parent="sampler.bdm_step"),
    Probe("gibbsgrain.marks:*.sample", "marks.sample", durations=True),
    Probe("gibbsgrain.io:write_configs_jsonl", "io.write", span=True, on_result=_on_write),
    Probe("gibbsgrain.io:read_configs_jsonl", "io.read", generator=True, on_result=_on_read),
    Probe("gibbsgrain.tempered:is_tempered", "tempered.is_tempered"),
    Probe("gibbsgrain.tempered:range_separation_check", "tempered.range_separation"),
    Probe("gibbsgrain.estimators:specific_entropy_curve", "estimators.entropy", span=True),
    Probe("gibbsgrain.estimators:relative_entropy_estimate", "estimators.relative_entropy",
          span=True),
    Probe("gibbsgrain.audits:stability_audit", "audits.stability", span=True),
]

SAMPLER_SPANS = ("sampler.run_chain", "sampler.bdm_step", "sampler.rejection_sample",
                 "sampler.sample_poisson")


def _percentile_us(durations: list, q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pass.

    Every ``.s`` value is self time: seconds inside the layer's calls minus
    the seconds of traced calls they made. ``cli.self_s`` is the commands'
    own time; the self times of one pass add up to the wall time of its
    commands. Times are raw and include the tracer's cost, most of it in the
    callers of hot calls (see ``trace.overhead_s``).
    """
    def extra(name, key):
        st = tr.stats.get(name)
        return st.extra.get(key, 0) if st else 0

    def durations(name):
        st = tr.stats.get(name)
        return st.durations if st else []

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "sampler.step_us.p50": _percentile_us(durations("sampler.bdm_step"), 0.50),
        "sampler.step_us.p99": _percentile_us(durations("sampler.bdm_step"), 0.99),
        "sampler.self_s": tr.self_seconds(SAMPLER_SPANS),
        "sampler.rejection.proposed": extra("sampler.rejection_sample", "proposed"),
        "sampler.rejection.accept_rate": ratio(extra("sampler.rejection_sample", "accepted"),
                                               extra("sampler.rejection_sample", "proposed")),
        "geometry.disc_system.discs_mean": ratio(extra("geometry.disc_system", "discs"),
                                                 tr.calls("geometry.disc_system")),
        "geometry.disc_system.perturbed": extra("geometry.disc_system", "perturbed"),
        "marks.sample_us.p50": _percentile_us(durations("marks.sample"), 0.50),
        "io.write.bytes": extra("io.write", "bytes"),
        "io.read.configs": extra("io.read", "configs"),
        "tempered.configs": tr.calls("tempered.is_tempered"),
        "tempered.s": tr.self_seconds(("tempered.is_tempered", "tempered.range_separation")),
        "estimators.partition.draws": extra("estimators.partition", "draws"),
        "estimators.entropy.s": tr.self_seconds(("estimators.entropy",
                                                 "estimators.relative_entropy")),
        "cli.self_s": tr.self_seconds([n for n in tr.stats if n.startswith("cli.")]),
    }
    for kind in ("birth", "death", "move", "remark"):
        m["sampler.accept." + kind] = ratio(extra("sampler.run_chain", "accepted." + kind),
                                            extra("sampler.run_chain", "proposed." + kind))
    for name in ("energy.conditional_energy", "energy.pair_term", "energy.energy",
                 "geometry.disc_system", "points.configuration", "marks.sample"):
        m[name + ".calls"] = tr.calls(name)
    for name in ("energy.conditional_energy", "energy.pair_term", "energy.energy",
                 "geometry.disc_system", "geometry.union_area", "geometry.union_perimeter",
                 "geometry.euler_characteristic", "points.configuration", "marks.sample",
                 "io.write", "io.read", "estimators.partition", "audits.stability"):
        m[name + ".s"] = tr.self_seconds((name,))
    return m


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    index: int
    subseed: int
    traced: bool
    run_s: float | None = None
    verify_s: float | None = None
    work: int = 0  # chain steps, or rejection proposals plus partition draws
    work_s: float = 0.0
    sha256: str | None = None
    problems: list = field(default_factory=list)
    layers: dict | None = None
    # calibration kernel seconds before the main command, between the
    # commands and after the verify command
    cal_s: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _run_cli(cli, tracer: Tracer, argv: list) -> tuple[int | None, float, str | None]:
    """Run one CLI command in process; returns (exit code, seconds, error)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = tracer.call("cli." + argv[0], cli.main, argv)
        error = None
    except SystemExit as e:  # argparse rejects the arguments
        rc, error = e.code, f"{argv[0]} exited via SystemExit({e.code!r})"
    except Exception:  # a crash counts against the pass, not the benchmark
        rc, error = None, f"{argv[0]} raised:\n{traceback.format_exc(limit=4)}"
    return rc, time.perf_counter() - t0, error


def _work_done(workload: Workload, cfg: dict, tracer: Tracer) -> tuple[int, float]:
    """Proposals the main command made and the seconds its sampler entry points took."""
    def stat(name):
        return tracer.stats.get(name) or Stat()

    if workload.command == "sample":
        return workload.steps(cfg), stat("sampler.run_chain").total_s
    rejection, partition = stat("sampler.rejection_sample"), stat("estimators.partition")
    return (rejection.extra.get("proposed", 0) + partition.extra.get("draws", 0),
            rejection.total_s + partition.total_s)


def run_pass(cli, workload: Workload, index: int, subseed: int, traced: bool,
             pass_dir: Path, tracer: Tracer, tamper=None) -> PassResult:
    """One pass: main command, optional tampering (self-test), verify command, checks."""
    res = PassResult(index, subseed, traced)
    pass_dir.mkdir(parents=True)
    tracer.begin_pass(index)
    tracer.install(LAYER_PROBES if traced else ENTRY_PROBES)
    try:
        cfg_path = pass_dir / "main.json"
        cfg = workload.config(subseed)
        cfg_path.write_text(json.dumps(cfg))
        res.cal_s.append(kernel_seconds())
        rc, run_s, error = _run_cli(cli, tracer, [workload.command, "--config", str(cfg_path),
                                                  "--out", str(pass_dir), "--name", "main"])
        res.cal_s.append(kernel_seconds())
        if rc != 0:
            res.problems.append(error or f"{workload.command} exited with code {rc}")
            return res
        res.run_s = run_s
        res.work, res.work_s = _work_done(workload, cfg, tracer)
        if tamper is not None:
            tamper(pass_dir)
        verify_path = pass_dir / "verify.json"
        verify_path.write_text(json.dumps(workload.verify(subseed, pass_dir)))
        rc, verify_s, error = _run_cli(
            cli, tracer, [workload.verify_command, "--config", str(verify_path),
                          "--out", str(pass_dir), "--name", "verify"])
        res.cal_s.append(kernel_seconds())
        if rc != 0:
            res.problems.append(error or f"{workload.verify_command} exited with code {rc}")
            return res
        res.verify_s = verify_s
    finally:
        tracer.end_pass()
        tracer.uninstall()
        if traced:
            res.layers = layer_metrics(tracer)
    try:
        res.problems += check_outputs(workload, pass_dir)
        res.sha256 = sha256_file(fingerprint_path(workload, pass_dir))
    except (OSError, ValueError, KeyError) as e:
        res.problems.append(f"outputs unreadable: {e!r}")
    return res


def pass_plan(workload: Workload, seed: int, trace: int) -> list[tuple[int, bool]]:
    """(sub-seed, traced) of each pass in one cycle.

    Every cycle visits the same sub-seeds, so a run's inputs depend on
    ``--seed`` alone and never on how fast the machine is. A traced cycle
    runs each sub-seed untraced and then traced, which also repeats it.
    """
    subseeds = [seed * 16 + k for k in range(workload.subseeds)]
    return [(s, traced) for s in subseeds for traced in ((False, True) if trace else (False,))]


def run_passes(cli, workload: Workload, seed: int, seconds: float, trace: int,
               work_dir: Path, tracer: Tracer, tamper=None) -> list[PassResult]:
    """Whole cycles of passes until the next cycle would overrun ``seconds``."""
    passes: list[PassResult] = []
    first_sha: dict[int, str] = {}
    t_start = time.perf_counter()
    cycle = 0
    plan = pass_plan(workload, seed, trace)
    while True:
        t_cycle = time.perf_counter()
        for subseed, traced in plan:
            index = len(passes)
            pass_dir = work_dir / f"pass{index}"
            res = run_pass(cli, workload, index, subseed, traced, pass_dir, tracer, tamper)
            shutil.rmtree(pass_dir, ignore_errors=True)
            if res.sha256 is not None:
                ref = first_sha.setdefault(subseed, res.sha256)
                if res.sha256 != ref:
                    res.problems.append(
                        f"output differs from the first pass of sub-seed {subseed}")
            passes.append(res)
        cycle += 1
        now = time.perf_counter()
        if cycle >= MIN_CYCLES[trace] and (
                now - t_start + (now - t_cycle) > min(seconds, HARD_LIMIT_S)):
            return passes


# ---------------------------------------------------------------------------
# Set-up time and environment
# ---------------------------------------------------------------------------

_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gibbsgrain.cli as cli
cfg = json.loads(sys.argv[2])
for key, build in (("model", cli.build_model), ("window", cli.build_window),
                   ("mark_law", cli.build_law)):
    if key in cfg:
        build(cfg[key])
"""


def measure_setup(cfg: dict) -> list[float]:
    """Seconds for a fresh interpreter to import the CLI and build the config.

    One unmeasured start first writes the byte-code caches, which users do
    not pay on every run. These times stay raw: the kernel timed in this
    process does not track how other tenants slow a child process (scaling
    widened the spread of setup_s over ten runs from 0.15 to 0.43).
    """
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(cfg)]
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        if rep:
            times.append(time.perf_counter() - t0)
    return times


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def summarize(values: list) -> dict:
    """Median, quartiles and count; quartiles as statistics.quantiles gives them."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def best_per_subseed(passes: list[PassResult], value, best=min) -> list[float]:
    """Best value of each sub-seed over its repeats.

    Other tenants of a shared machine only ever slow a pass down, and their
    load comes and goes within seconds, so the fastest repeat of an input is
    its steadiest time; the run then reports the median across inputs.
    """
    by_subseed: dict[int, list[float]] = {}
    for p in passes:
        v = value(p)
        if v is not None:
            by_subseed.setdefault(p.subseed, []).append(v)
    return [best(vs) for vs in by_subseed.values()]


def end_to_end(passes: list[PassResult], setup: list[float], scaled: bool) -> dict:
    """End-to-end statistics; pass times in reference seconds when ``scaled``."""
    def seconds(p: PassResult, value: float | None, command: int) -> float | None:
        if value is None or not scaled:
            return value
        return to_reference(value, p.cal_s[command], p.cal_s[command + 1])

    def rate(p: PassResult) -> float | None:
        work_s = seconds(p, p.work_s, 0)
        return p.work / work_s if work_s else None

    return {
        "steps_per_s": summarize(best_per_subseed(passes, rate, best=max)),
        "run_s": summarize(best_per_subseed(passes, lambda p: seconds(p, p.run_s, 0))),
        "verify_s": summarize(best_per_subseed(passes, lambda p: seconds(p, p.verify_s, 1))),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
    }


def per_layer(passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.layers is not None]
    out = {name: summarize([p.layers[name] for p in traced])
           for name in PER_LAYER if name != "trace.overhead_s"}
    plain = {}
    for p in passes:
        if not p.traced and p.run_s is not None:
            plain.setdefault(p.subseed, []).append(p.run_s)
    out["trace.overhead_s"] = summarize(
        [p.run_s - statistics.median(plain[p.subseed]) for p in traced
         if p.run_s is not None and p.subseed in plain])
    return out


def load_package():
    """Import gibbsgrain from this checkout's src/, or stop without a result."""
    if not (SRC / "gibbsgrain" / "cli.py").is_file():
        raise SystemExit(f"bench: no gibbsgrain sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gibbsgrain.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: imported gibbsgrain from {cli.__file__}, not {SRC}")
    return cli


def run(workload: Workload, seed: int, seconds: float, trace: int, tamper=None) -> dict:
    """Run one workload and return the report (the self-test calls this too)."""
    cli = load_package()
    env = environment()
    setup = [] if trace else measure_setup(workload.config(seed * 16))
    work_dir = WORK / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = Tracer()
    try:
        passes = run_passes(cli, workload, seed, seconds, trace, work_dir, tracer, tamper)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    raw = per_layer(passes) if trace else end_to_end(passes, setup, scaled=False)
    stats = raw if trace else end_to_end(passes, setup, scaled=True)
    kernel = [c for p in passes for c in p.cal_s]
    units = PER_LAYER if trace else END_TO_END
    failed = sum(not p.ok for p in passes)
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "missing_probes": tracer.missing,
        "calibration": {"reference_s": REFERENCE_S, "kernel_s": summarize(kernel)},
        "passes": [
            {"index": p.index, "subseed": p.subseed, "traced": p.traced, "run_s": p.run_s,
             "verify_s": p.verify_s, "work": p.work, "work_s": p.work_s,
             "sha256": p.sha256, "problems": p.problems, "cal_s": p.cal_s}
            for p in passes
        ],
        "stats": {name: dict(stats[name], unit=units[name]) for name in units},
        "raw_stats": {name: dict(raw[name], unit=units[name]) for name in units},
        "result": {
            "correct": failed == 0,
            "attempted": len(passes),
            "failed": failed,
            "metrics": {name: {"value": float(stats[name]["median"]), "unit": units[name]}
                        for name in units},
        },
    }
    if trace:
        stem = OUT / f"{workload.name}-seed{seed}"
        report["spans_file"] = str(Path(f"{stem}-spans.jsonl").relative_to(ROOT))
        report["spans"] = tracer.dump_spans(f"{stem}-spans.jsonl")
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print("env " + json.dumps(report["environment"], sort_keys=True))
    if report["missing_probes"]:
        print("probes with no target in this source: " + ", ".join(report["missing_probes"]))
    for p in report["passes"]:
        status = "ok" if not p["problems"] else "FAILED: " + "; ".join(p["problems"])
        sha = p["sha256"] or "-"
        print(f"pass {p['index']:3d} sub-seed {p['subseed']} {'traced' if p['traced'] else 'plain '}"
              f" run_s {p['run_s'] or 0:.4f} verify_s {p['verify_s'] or 0:.4f}"
              f" sha256 {sha} {status}")
    c = report["calibration"]
    if report["trace"]:
        print("metrics: median and quartiles over traced passes, raw seconds")
    else:
        k = c["kernel_s"]
        print("metrics: median and quartiles over sub-seeds, each at the best of its"
              " repeats, pass times in reference seconds; setup_s: raw, over fresh starts"
              f" (calibration kernel: reference {c['reference_s']} s, here median"
              f" {k['median']:.5f} s, q1 {k['q1']:.5f} s, q3 {k['q3']:.5f} s over {k['n']})")
    for name, s in report["stats"].items():
        raw = report["raw_stats"][name]
        print(f"metric {name:34s} {s['unit']:6s} median {s['median']:.6g}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
              + ("" if report["trace"] else f"  (raw median {raw['median']:.6g})"))
    res = report["result"]
    print(f"fail_rate {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    if report["trace"]:
        print(f"tracing overhead (traced minus untraced run_s, median) "
              f"{report['stats']['trace.overhead_s']['median']:.4f} s;"
              f" {report['spans']} spans in {report['spans_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    report = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, sort_keys=True))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
