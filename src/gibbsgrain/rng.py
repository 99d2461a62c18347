"""Counter-based random streams.

Every stochastic routine in the package takes an explicit ``numpy.random.Generator``.
Streams are keyed, not seeded sequentially, so that chain k of a run is the same
bit stream no matter how many sibling chains exist or in which order they run.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the Philox generator for (seed, stream_id).

    The pair is the full 128-bit Philox key, so distinct ids are independent
    streams and the mapping is reproducible across runs and platforms.
    """
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be non-negative integers")
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
