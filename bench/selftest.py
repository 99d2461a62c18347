"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics that
run.py emits, with the same units; that every tiny workload passes in both
modes; that planted bad passes (a reordered or corrupted sample file, a
failing entropy record, a failing range-separation row) are counted as
failed; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
from workloads import WORKLOADS, check_outputs

SEED = 9999

# Same models and checks as the real workloads, at sizes that run in well
# under a second per pass.
TINY = {
    "quermass-w2": {"window": {"kind": "box", "n": 1, "d": 2}, "steps": 40, "burn_in": 10,
                    "thin": 5, "drift_check_every": 10},
    "hardcore-w8": {"window": {"kind": "box", "n": 2, "d": 2}, "steps": 400, "burn_in": 100,
                    "thin": 50, "drift_check_every": 100},
    "diffusion-w2": {"window": {"kind": "box", "n": 1, "d": 2}, "steps": 40, "burn_in": 10,
                     "thin": 10, "drift_check_every": 10,
                     "mark_law": {"kind": "langevin", "potential": "quartic", "step_count": 16}},
    "entropy-nonnegpair": {"n_list": [1, 2], "n_energy_samples": 30,
                           "n_partition_samples": 1000},
}


def check(cond, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def tiny(name: str):
    w = WORKLOADS[name]
    base_config, base_verify = w.config, w.verify

    def verify(seed, pass_dir):
        cfg = base_verify(seed, pass_dir)
        return dict(cfg, n_trials=50) if w.verify_command == "audit" else cfg

    return dataclasses.replace(
        w, config=lambda seed: dict(base_config(seed), **TINY[name]), verify=verify,
        subseeds=2)


def check_manifest() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for w in spec["workloads"]:
        check(w["why"] == WORKLOADS[w["name"]].why, f"why of {w['name']} differs")
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        check({m["name"]: m["unit"] for m in spec[key]} == table,
              f"BENCHMARK.json {key} differs from run.py")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must carry the largest bound")


def check_report(report: dict, trace: int) -> None:
    result = report["result"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    table = bench.PER_LAYER if trace else bench.END_TO_END
    check(set(result["metrics"]) == set(table), f"trace {trace}: metric names")
    for name, metric in result["metrics"].items():
        check(metric["unit"] == table[name], f"{name}: unit {metric['unit']!r}")
        check(isinstance(metric["value"], float), f"{name}: value not a float")
    problems = [p["problems"] for p in report["passes"] if p["problems"]]
    check(result["correct"] and result["failed"] == 0,
          f"{report['workload']} trace {trace}: {problems}")
    subseeds = [p["subseed"] for p in report["passes"]]
    check(all(subseeds.count(s) >= 2 for s in subseeds), "a sub-seed ran only once")
    if not trace:
        for name in bench.END_TO_END:
            check(result["metrics"][name]["value"] > 0, f"{name} reads 0")


def plant(workload, tamper, expect: str) -> None:
    report = bench.run(workload, SEED, 0, 0, tamper=tamper)
    result = report["result"]
    bad = [p for p in report["passes"] if p["problems"]]
    check(result["failed"] == len(bad) >= 1 and not result["correct"],
          f"planted fault ({expect}) not counted: {result}")
    check(any(expect in problem for p in bad for problem in p["problems"]),
          f"planted fault ({expect}) reported as {[p['problems'] for p in bad]}")
    print(f"planted {expect!r}: fail_rate {result['failed']}/{result['attempted']}")


def on_pass(index: int, action):
    """A tamper hook acting only on pass ``index``."""
    def tamper(pass_dir: Path):
        if pass_dir.name == f"pass{index}":
            action(pass_dir)
    return tamper


def reverse_lines(pass_dir: Path) -> None:
    path = pass_dir / "main" / "samples_chain0.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(reversed(lines)))


def truncate(pass_dir: Path) -> None:
    path = pass_dir / "main" / "samples_chain0.jsonl"
    path.write_text(path.read_text()[:-40])


def fail_ceiling(pass_dir: Path) -> None:
    path = pass_dir / "main" / "record.json"
    record = json.loads(path.read_text())
    path.write_text(json.dumps(dict(record, under_ceiling=False)))


def check_range_separation_row() -> None:
    """A temper report with one failing range-separation row fails the pass."""
    pass_dir = bench.WORK / "selftest-range"
    shutil.rmtree(pass_dir, ignore_errors=True)
    (pass_dir / "main").mkdir(parents=True)
    (pass_dir / "verify").mkdir()
    (pass_dir / "main" / "samples_chain0.jsonl").write_text('{"dim": 2, "points": []}\n')
    with open(pass_dir / "verify" / "temper.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "estimate", "stderr", "n", "model_id", "seed"])
        writer.writerow(["range_separation[0]", "0.0", "0.0", "0", "temper", SEED])
    problems = check_outputs(WORKLOADS["hardcore-w8"], pass_dir)
    shutil.rmtree(pass_dir)
    check(any("range separation" in p for p in problems), f"got {problems}")
    print("planted range-separation failure: reported")


def check_bare_directory() -> None:
    """Without src/ the benchmark exits non-zero and prints no result."""
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hardcore-w8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check('"correct"' not in proc.stdout, "bare directory: printed a result")
    print(f"bare directory: exit {proc.returncode}")


def main() -> int:
    bench.SETUP_REPS = 1
    check_manifest()
    for name in WORKLOADS:
        for trace in (0, 1):
            report = bench.run(tiny(name), SEED, 0, trace)
            check_report(report, trace)
            print(f"{name} trace {trace}: {report['result']['attempted']} passes ok")
    # pass 2 revisits the first sub-seed of a two-sub-seed cycle
    plant(tiny("hardcore-w8"), on_pass(2, reverse_lines), "differs from the first pass")
    plant(tiny("diffusion-w2"), on_pass(1, truncate), "temper exited")
    plant(tiny("entropy-nonnegpair"), on_pass(0, fail_ceiling), "under_ceiling")
    check_range_separation_row()
    check_bare_directory()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
