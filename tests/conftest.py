"""Shared builders for the test suite.

Tests construct their own RNG streams inline (via gibbsgrain.stream) so each
test is reproducible in isolation regardless of execution order.
"""

import json

from hypothesis import settings

from gibbsgrain import Configuration, MarkedPoint

# Property tests replay the same examples on every run, so tier-1 stays
# deterministic; no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def mp(loc, norm=0.0, mark=None):
    """Marked point with a scalar mark equal to its norm unless given."""
    if mark is None:
        mark = norm
    return MarkedPoint(tuple(float(c) for c in loc), mark, float(norm))


def config(points, dim=None):
    return Configuration(points, dimension=dim)


def random_scalar_config(rng, n_max=12, d=2, extent=3.0, mark_hi=1.5):
    """Poisson-free helper: uniform count, uniform locations, uniform radii."""
    n = int(rng.integers(0, n_max + 1))
    pts = []
    for _ in range(n):
        loc = tuple(float(c) for c in rng.uniform(-extent, extent, size=d))
        r = float(rng.uniform(0.0, mark_hi))
        pts.append(MarkedPoint(loc, r, r))
    return Configuration(pts, dimension=d)


def legacy_path_lines(configs) -> str:
    """Records as the JSON-list writer emitted them: each path mark as its
    "samples" lists of repr-encoded floats."""
    lines = []
    for c in configs:
        rec = {"dim": c.dimension, "points": [
            {"x": list(p.location),
             "mark": {"kind": "path", "samples": p.mark.samples.tolist()}}
            for p in c.points]}
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)
