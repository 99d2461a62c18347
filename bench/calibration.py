"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same pass can take 1.6 times as long
from one second to the next: their load slows this process down without
stealing its CPU time, in phases that switch within seconds and whose mix
drifts over minutes. Keeping the best repeat of each input does not remove
that drift between runs. So the benchmark times a fixed kernel, owned by the
benchmark and independent of gibbsgrain, right before and right after every
timed command, and converts the command's seconds to reference seconds:
``seconds * REFERENCE_S / min(kernel before, kernel after)``. A reference
second is a second of the reference machine in a quiet phase; the raw times
are reported next to the scaled ones.

On a shared 2-vCPU x86-64 host (Intel Xeon, Python 3.11), the ten-seed
interquartile spread of ``run_s`` (share of the median) for quermass-w2,
hardcore-w8, diffusion-w2 and entropy-nonnegpair was 0.22, 0.06, 0.11 and
0.16 raw, and 0.08, 0.05, 0.11 and 0.08 scaled; in a busier hour the raw
spread of the quermass and hardcore chains reached 0.45 and 0.25.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Best kernel time on the host named above, in seconds.
REFERENCE_S = 0.0080


def _kernel() -> float:
    """Interpreter-bound work like the chain's (tuples, float math, small
    numpy calls), at a fixed size."""
    acc = 0.0
    pts = []
    for i in range(15_000):
        x = (i * 0.618) % 1.0
        pts.append((x, 1.0 - x))
        acc += math.hypot(x, 0.5)
    arr = np.array(pts)
    for _ in range(50):
        acc += float(np.linalg.norm(arr[:64] - arr[1:65], axis=1).sum())
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def to_reference(seconds: float, before: float, after: float) -> float:
    """Seconds measured between kernel timings ``before`` and ``after``,
    converted to reference seconds (the faster kernel time stands for the
    machine's speed across the interval)."""
    return seconds * REFERENCE_S / min(before, after)
