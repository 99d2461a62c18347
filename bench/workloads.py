"""The benchmark's workloads: generated run configs and per-pass checks.

Each workload turns a sub-seed into the JSON config the program receives and
knows how to check one pass of it. A pass is the main command (``sample``
or ``entropy``) followed by the command that verifies its output
(``temper`` on the chain samples, ``audit`` for the entropy model).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Delta of the temperedness and range-separation checks, as in acceptance
# criterion 6.
TEMPER_DELTA = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "sample" or "entropy"
    verify_command: str  # "temper" or "audit"
    config: Callable[[int], dict]
    verify: Callable[[int, Path], dict]
    subseeds: int  # distinct sub-seeds of a run (see run.pass_plan)

    def steps(self, cfg: dict) -> int:
        """Chain proposals of one ``sample`` pass (0 for ``entropy``)."""
        return int(cfg["steps"]) * int(cfg.get("chains", 1)) if self.command == "sample" else 0


def _chain_config(model: dict, half_width: int, z: float, law: dict,
                  steps: int, burn_in: int, thin: int) -> Callable[[int], dict]:
    def make(seed: int) -> dict:
        return {
            "seed": seed,
            "model": model,
            "window": {"kind": "box", "n": half_width, "d": 2},
            "z": z,
            "mark_law": law,
            "steps": steps,
            "burn_in": burn_in,
            "thin": thin,
            "chains": 1,
            "boundary": "free",
            # four recomputations per pass against the 1e-9 drift gate
            "drift_check_every": steps // 4,
        }

    return make


def _temper_config(seed: int, pass_dir: Path) -> dict:
    return {"seed": seed, "input": str(pass_dir / "main" / "samples_chain0.jsonl"),
            "t": 1, "delta": TEMPER_DELTA}


_NONNEGPAIR = {"id": "nonnegpair", "phi": "soft_bump"}
_LAW_06 = {"kind": "uniform", "b": 0.6}


def _entropy_config(seed: int) -> dict:
    return {"seed": seed, "model": _NONNEGPAIR, "mark_law": _LAW_06, "d": 2,
            "n_list": [1, 2, 4], "z": 0.5, "delta": 0.5,
            "n_energy_samples": 100, "n_partition_samples": 1000}


def _audit_config(seed: int, pass_dir: Path) -> dict:
    return {"seed": seed, "model": _NONNEGPAIR, "mark_law": _LAW_06,
            "window": {"kind": "box", "n": 4, "d": 2}, "z": 0.5, "delta": 0.5,
            "n_trials": 900}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quermass-w2",
            "QuermassModel(0.4,-0.2,0.3) on [-2,2)^2, z=0.4, U(0.6), 3000 steps from empty, "
            "then temper: non-pairwise geometry increments do ~90% of the work",
            "sample", "temper",
            _chain_config({"id": "quermass", "a_area": 0.4, "a_perimeter": -0.2,
                           "a_euler": 0.3}, 2, 0.4, _LAW_06, 3_000, 500, 5),
            _temper_config,
            subseeds=8,
        ),
        Workload(
            "hardcore-w8",
            "HardSphereModel on [-8,8)^2, z=0.4, U(0.5), 10k steps, then temper: the "
            "O(n) pairwise increment loop at ~78 atoms, no geometry",
            "sample", "temper",
            _chain_config({"id": "hardcore"}, 8, 0.4, {"kind": "uniform", "b": 0.5},
                          10_000, 2_500, 50),
            _temper_config,
            subseeds=6,
        ),
        Workload(
            "diffusion-w2",
            "DiffusionModel on [-2,2)^2, z=0.3, quartic Langevin paths of 256 steps, 250 "
            "steps, then temper: path sampling and ~3.5 MB of JSONL I/O",
            "sample", "temper",
            _chain_config({"id": "diffusion"}, 2, 0.3,
                          {"kind": "langevin", "potential": "quartic", "step_count": 256},
                          250, 50, 4),
            _temper_config,
            subseeds=8,
        ),
        Workload(
            "entropy-nonnegpair",
            "entropy for nonnegpair/soft_bump, U(0.6), z=0.5, delta=0.5, n=1,2,4, 100/1000 "
            "samples, then audit: exact rejection plus partition and entropy estimators",
            "entropy", "audit",
            _entropy_config,
            _audit_config,
            subseeds=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# Checks of one pass
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _report_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fingerprint_path(workload: Workload, pass_dir: Path) -> Path:
    """The output whose bytes must repeat for a repeated sub-seed."""
    if workload.command == "sample":
        return pass_dir / "main" / "samples_chain0.jsonl"
    return pass_dir / "main" / "entropy.csv"


def check_outputs(workload: Workload, pass_dir: Path) -> list[str]:
    """Problems with a pass's outputs (empty when the pass is correct)."""
    problems = []
    if workload.command == "sample":
        with open(fingerprint_path(workload, pass_dir)) as fh:
            n_written = sum(1 for line in fh if line.strip())
        rows = [r for r in _report_rows(pass_dir / "verify" / "temper.csv")
                if r["quantity"].startswith("range_separation[")]
        if len(rows) != n_written:
            problems.append(f"temper checked {len(rows)} of {n_written} samples")
        bad = [r["quantity"] for r in rows if float(r["estimate"]) != 1.0]
        if bad:
            problems.append(f"range separation fails at minimal t: {bad[:3]}")
    else:
        record = json.loads((pass_dir / "main" / "record.json").read_text())
        for key in ("under_ceiling", "trend_ok"):
            if record.get(key) is not True:
                problems.append(f"entropy record has {key} = {record.get(key)!r}")
        rows = {r["quantity"]: float(r["estimate"])
                for r in _report_rows(pass_dir / "verify" / "audit.csv")}
        c_hat = rows.get("c_hat_global", math.nan)
        # a certified non-negative energy gives -H / statistic <= 0
        if not c_hat <= 0.0:
            problems.append(f"audit c_hat_global = {c_hat!r} for a non-negative model")
    return problems
