"""Exact geometry of planar unions of open discs.

Area and perimeter come from a boundary-arc decomposition: each circle keeps
the angular intervals not covered by any other disc, perimeter is the summed
exposed arc length, and area is Green's theorem applied to the exposed arcs
(every exposed arc bounds the union counter-clockwise with respect to its own
circle, holes included, so one orientation rule covers everything).

The Euler characteristic is the alternating simplex count of the intersection
nerve. Discs are convex, so by Helly's theorem a set of discs has a common
point exactly when all its triples do; the enumeration therefore grows cliques
of the overlap graph and only ever tests triples.

The functionals take a plain list of discs, and exactness is claimed away
from degeneracies. One predicate, ``meeting_discs(p, discs, tol)``, decides
them everywhere: it returns the discs whose open disc meets p's, or None
when p lies within tol of a tangency, an internal tangency (coincident discs
included) or a triple point with them. Disc j of a family is degenerate
when it is degenerate with the discs before it (``_find_degenerate``); of a
degenerate triple, that is the latest of the three. There is one rule for
a degenerate family: it is refused. The quermass energies are +inf on it
(``_degenerate``), and the quermass chain refuses degenerate proposals and
environments (see ``_DEGENERACY_TOL``). ``random_disc_system`` draws
families clear of the predicate by a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "Disc",
    "union_area_perimeter",
    "euler_characteristic",
    "GeometryOracle",
    "mc_geometry_oracle",
    "meeting_discs",
    "random_disc_system",
]

_TWO_PI = 2.0 * math.pi
# Relative width of a degeneracy. A disc family is degenerate when
# ``_find_degenerate`` flags a disc at tol = _DEGENERACY_TOL * max(1, |x| +
# |y| + r over the family) (``_degenerate``). The quermass energies drop
# zero-radius grains and are +inf on a degenerate family.
#
# The quermass chain (sampler, energy.QuermassModel.local_delta) does not
# recompute the whole family. It rejects a birth, move or remark whose new
# grain p is degenerate with its neighbours by ``meeting_discs`` at tol =
# band = _DEGENERACY_TOL * max(1, E, W + bound). E is the largest |x| + |y| +
# r in the environment, W the largest |x| + |y| over the window's bounding
# box and bound the largest radius indexed so far or p's, so the band covers
# the scale of every family the drift check's energy examines.
# ``sampler.init_chain`` refuses an environment with such a relation
# (``_find_degenerate``'s prefix rule), so every grain of a disc list was
# certified when it joined. It checks the grains a grain of the largest
# mark can meet, at band(largest mark), the widest band the chain reaches;
# ``run_chain`` takes that mark from the mark law's ``max_norm`` when no cap
# is set. Without either it checks every grain at the initial band, and a
# relation in the gap up to a later, wider band makes the drift check's
# recompute +inf, which fails the chain with a NumericalFailure.
# Deaths are never refused. For a fixed band, the states with no such
# relation among interior grains or between interior and environment grains
# form a set closed under deletion; a proposal that would leave it is refused
# and its reverse never arises, so the chain keeps detailed balance for the
# target restricted to that set. The set left out has a probability of the
# order of the band per pair of neighbouring grains. The band widens only
# with bound, i.e. only while the chain still meets larger marks.
_DEGENERACY_TOL = 1e-9
_FACE_BUDGET = 5_000_000


@dataclass(frozen=True)
class Disc:
    x: float
    y: float
    r: float


def _degenerate(discs: list[Disc]) -> bool:
    """Whether a family of discs of positive radius has a tangency, an
    internal tangency or a triple point: ``_find_degenerate`` at tol =
    _DEGENERACY_TOL * max(1, |x| + |y| + r over the family)."""
    scale = max([1.0] + [abs(d.x) + abs(d.y) + d.r for d in discs])
    return bool(_find_degenerate(discs, _DEGENERACY_TOL * scale))


def _find_degenerate(discs: list[Disc], tol: float) -> set[int]:
    """Indices j of the discs that ``meeting_discs`` at ``tol`` finds
    degenerate with ``discs[:j]``: of a tangent or coincident pair the later
    disc, of a triple point the latest of the three."""
    return {j for j, d in enumerate(discs) if meeting_discs(d, discs[:j], tol) is None}


def meeting_discs(p: Disc, discs: list[Disc], tol: float) -> list[int] | None:
    """Indices of the discs whose open disc meets p's, or None when p is
    degenerate with them.

    p is degenerate when its centre distance to a disc is within ``tol`` of
    their radius sum (tangency) or difference (internal tangency, coincident
    discs included), or when p and two discs that meet it and each other
    have a triple point: a vertex of two of the three circles within ``tol``
    of the third. With ``tol`` 0 nothing is degenerate and the triple scan is
    skipped. Zero-radius discs are empty: they meet nothing.
    """
    hits = []
    for j, q in enumerate(discs):
        if q.r == 0.0:
            continue
        d = math.hypot(q.x - p.x, q.y - p.y)
        if abs(d - (p.r + q.r)) < tol or abs(d - abs(p.r - q.r)) < tol:
            return None
        if d < p.r + q.r:
            hits.append(j)
    if tol:
        for a, i in enumerate(hits):
            q = discs[i]
            for k in hits[a + 1 :]:
                s = discs[k]
                if math.hypot(s.x - q.x, s.y - q.y) >= q.r + s.r:
                    continue
                for u, v, w in ((p, q, s), (p, s, q), (q, s, p)):
                    for vx, vy in _circle_vertices(u, v):
                        if abs(math.hypot(vx - w.x, vy - w.y) - w.r) < tol:
                            return None
    return hits


def _circle_vertices(a: Disc, b: Disc) -> list[tuple[float, float]]:
    """Intersection points of the two boundary circles (empty if none)."""
    dx, dy = b.x - a.x, b.y - a.y
    d = math.hypot(dx, dy)
    if d == 0.0 or d >= a.r + b.r or d <= abs(a.r - b.r):
        return []
    t = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d)
    h_sq = a.r * a.r - t * t
    if h_sq <= 0.0:
        return []
    h = math.sqrt(h_sq)
    ux, uy = dx / d, dy / d
    mx, my = a.x + t * ux, a.y + t * uy
    return [(mx - h * uy, my + h * ux), (mx + h * uy, my - h * ux)]


# ---------------------------------------------------------------------------
# Exposed-arc decomposition
# ---------------------------------------------------------------------------


def _exposed_arcs(i: int, discs: list[Disc]) -> list[tuple[float, float]]:
    """Arcs of circle i on the union boundary, as (theta1, theta2) with
    theta2 > theta1; an uncovered circle returns [(0, 2 pi)]."""
    a = discs[i]
    covered: list[tuple[float, float]] = []
    for j, b in enumerate(discs):
        if j == i:
            continue
        d = math.hypot(b.x - a.x, b.y - a.y)
        if d >= a.r + b.r:
            continue
        if d <= b.r - a.r:
            return []  # circle i entirely inside disc j
        if d <= a.r - b.r:
            continue  # disc j inside disc i, misses the boundary circle
        phi = math.atan2(b.y - a.y, b.x - a.x)
        cos_alpha = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d * a.r)
        alpha = math.acos(min(1.0, max(-1.0, cos_alpha)))
        lo, hi = phi - alpha, phi + alpha
        lo %= _TWO_PI
        hi = lo + 2.0 * alpha
        if hi > _TWO_PI:
            covered.append((lo, _TWO_PI))
            covered.append((0.0, hi - _TWO_PI))
        else:
            covered.append((lo, hi))
    if not covered:
        return [(0.0, _TWO_PI)]
    covered.sort()
    merged = [list(covered[0])]
    for lo, hi in covered[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    exposed = []
    cursor = 0.0
    for lo, hi in merged:
        if lo > cursor:
            exposed.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < _TWO_PI:
        exposed.append((cursor, _TWO_PI))
    return exposed


def union_area_perimeter(discs: list[Disc]) -> tuple[float, float]:
    """Area and boundary length of the open union of ``discs``, from one walk
    over each circle's exposed arcs: area by Green's theorem, perimeter as
    the summed arc length."""
    area = perimeter = 0.0
    for i, d in enumerate(discs):
        for lo, hi in _exposed_arcs(i, discs):
            perimeter += d.r * (hi - lo)
            area += 0.5 * (
                d.r * d.r * (hi - lo)
                + d.x * d.r * (math.sin(hi) - math.sin(lo))
                - d.y * d.r * (math.cos(hi) - math.cos(lo))
            )
    return area, perimeter


# ---------------------------------------------------------------------------
# Euler characteristic via the intersection nerve
# ---------------------------------------------------------------------------


def _triple_solid(a: Disc, b: Disc, c: Disc) -> bool:
    """Whether the three open discs share a point (non-degenerate inputs)."""
    for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
        for p in _circle_vertices(u, v):
            if math.hypot(p[0] - w.x, p[1] - w.y) < w.r:
                return True
    for u, v, w in ((a, b, c), (b, a, c), (c, a, b)):
        if (
            math.hypot(u.x - v.x, u.y - v.y) < v.r
            and math.hypot(u.x - w.x, u.y - w.y) < w.r
        ):
            return True
    return False


def euler_characteristic(discs: list[Disc]) -> int:
    """Alternating simplex count of the nerve of the disc family.

    Cliques of the pairwise overlap graph are grown in index order; a clique
    extension only needs its new triples checked (Helly in the plane reduces
    higher intersections to triples). Raises NumericalFailure if the clique
    complex exceeds the face budget.
    """
    n = len(discs)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in combinations(range(n), 2):
        a, b = discs[i], discs[j]
        if math.hypot(b.x - a.x, b.y - a.y) < a.r + b.r:
            neighbors[i].add(j)
            neighbors[j].add(i)
    solid_cache: dict[tuple[int, int, int], bool] = {}

    def solid(i: int, j: int, k: int) -> bool:
        key = (i, j, k)
        hit = solid_cache.get(key)
        if hit is None:
            hit = _triple_solid(discs[i], discs[j], discs[k])
            solid_cache[key] = hit
        return hit

    chi = 0
    faces = 0
    stack = [([i], sorted(j for j in neighbors[i] if j > i)) for i in range(n)]
    while stack:
        clique, cands = stack.pop()
        faces += 1
        if faces > _FACE_BUDGET:
            raise NumericalFailure("nerve too large: overlap cliques exceed the face budget")
        chi += 1 if len(clique) % 2 == 1 else -1
        for idx, j in enumerate(cands):
            if all(solid(u, v, j) for u, v in combinations(clique, 2)):
                stack.append((clique + [j], [k for k in cands[idx + 1 :] if k in neighbors[j]]))
    return chi


# ---------------------------------------------------------------------------
# Monte Carlo / raster oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometryOracle:
    area: float
    area_stderr: float
    chi: int
    chi_consensus: bool
    n_points: int
    grid: int


def _bounding_box(discs: list[Disc]) -> tuple[float, float, float, float]:
    return (
        min(d.x - d.r for d in discs),
        max(d.x + d.r for d in discs),
        min(d.y - d.r for d in discs),
        max(d.y + d.r for d in discs),
    )


def _covers(discs: list[Disc], pts: np.ndarray) -> np.ndarray:
    """Boolean mask: point lies in the open union."""
    out = np.zeros(len(pts), dtype=bool)
    for d in discs:
        sub = ~out
        if not sub.any():
            break
        p = pts[sub]
        out[sub] = (p[:, 0] - d.x) ** 2 + (p[:, 1] - d.y) ** 2 < d.r * d.r
    return out


def _raster_chi(discs: list[Disc], grid: int) -> int:
    """Flood-fill Euler characteristic on a pixel grid.

    Components minus holes, both 8-connected. At a circle-circle vertex
    exactly one of the four local sectors belongs to the complement, so
    diagonal background steps cannot merge distinct complement regions;
    4-connected background, by contrast, strands sub-pixel wedge fragments
    at shallow crossing cusps and reports them as holes.
    """
    # imported here so that only the raster oracle loads scipy
    from scipy import ndimage

    x0, x1, y0, y1 = _bounding_box(discs)
    span = max(x1 - x0, y1 - y0)
    pad = 2.0 * span / grid
    gx0, gx1, gy0, gy1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    nx = grid
    ny = max(8, int(round(grid * (gy1 - gy0) / (gx1 - gx0))))
    xs = np.linspace(gx0, gx1, nx)
    ys = np.linspace(gy0, gy1, ny)
    mask = np.zeros((ny, nx), dtype=bool)
    for d in discs:
        ix = np.where(np.abs(xs - d.x) <= d.r)[0]
        iy = np.where(np.abs(ys - d.y) <= d.r)[0]
        if len(ix) == 0 or len(iy) == 0:
            continue
        sub = (xs[ix][None, :] - d.x) ** 2 + (ys[iy][:, None] - d.y) ** 2 < d.r * d.r
        mask[np.ix_(iy, ix)] |= sub
    eight = np.ones((3, 3), dtype=int)
    _, n_comp = ndimage.label(mask, structure=eight)
    bg_labels, n_bg = ndimage.label(~mask, structure=eight)
    # background components that reach the border are not holes
    edges = np.concatenate([bg_labels[0, :], bg_labels[-1, :], bg_labels[:, 0], bg_labels[:, -1]])
    holes = n_bg - np.count_nonzero(np.unique(edges))
    return int(n_comp - holes)


def raster_euler(discs: list[Disc], grid: int = 2048) -> tuple[int, bool]:
    """Euler characteristic by consensus of successively finer rasters.

    A single fixed grid can misread a cusp whose complement wedge dips below
    one pixel exactly where the pixel centers land; such accidents do not
    repeat at a 1.5x finer grid. The first two consecutive resolutions that
    agree decide the value, within four refinements. Returns (chi,
    consensus_reached).
    """
    if not discs:
        return 0, True
    prev = _raster_chi(discs, grid)
    g = grid
    for _ in range(4):
        g = min(int(g * 1.5), 9000)
        cur = _raster_chi(discs, g)
        if cur == prev:
            return cur, True
        prev = cur
        if g == 9000:
            break
    return prev, False


def mc_geometry_oracle(
    discs: list[Disc],
    n_points: int,
    rng: np.random.Generator,
    grid: int = 2048,
) -> GeometryOracle:
    """Hit-or-miss area estimate plus consensus raster Euler characteristic.

    Entirely independent of the arc decomposition and the nerve: area is
    estimated by uniform sampling over the bounding box, the characteristic
    by flood fill (see ``raster_euler``).
    """
    if n_points < 10_000:
        raise ValueError("oracle needs n_points >= 10000 for a usable stderr")
    if not discs:
        return GeometryOracle(0.0, 0.0, 0, True, n_points, 0)
    x0, x1, y0, y1 = _bounding_box(discs)
    box_area = (x1 - x0) * (y1 - y0)
    hits = 0
    for done in range(0, n_points, 200_000):
        m = min(200_000, n_points - done)
        pts = np.empty((m, 2))
        pts[:, 0] = x0 + (x1 - x0) * rng.random(m)
        pts[:, 1] = y0 + (y1 - y0) * rng.random(m)
        hits += int(_covers(discs, pts).sum())
    p_hat = hits / n_points
    area = box_area * p_hat
    stderr = box_area * math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_points)
    chi, consensus = raster_euler(discs, grid=grid)
    return GeometryOracle(area, stderr, chi, consensus, n_points, grid)


def random_disc_system(
    rng: np.random.Generator,
    n_discs: int,
    extent: float = 10.0,
    margin: float = 0.03,
) -> list[Disc]:
    """Random disc family kept clear of degeneracies by a margin.

    Discs are placed one at a time, centres uniform on [0, extent)^2 and
    radii uniform on [0.3, 1.2), in at most 3000 draws each; a candidate is
    rejected when its centre lies within ``margin`` of another centre or when
    ``meeting_discs`` finds it degenerate with the discs placed so far at
    tol = ``margin``. The margins guarantee every geometric feature (lens,
    gap, hole wedge) is thicker than ``margin``, so exact and raster answers
    cannot disagree through sub-pixel features once the pixel size is below
    the margin.
    """
    r_lo, r_hi = 0.3, 1.2
    discs: list[Disc] = []
    for _ in range(n_discs):
        for _try in range(3000):
            c = rng.random(2) * extent
            cand = Disc(float(c[0]), float(c[1]), float(r_lo + (r_hi - r_lo) * rng.random()))
            apart = all(math.hypot(d.x - cand.x, d.y - cand.y) >= margin for d in discs)
            if apart and meeting_discs(cand, discs, margin) is not None:
                discs.append(cand)
                break
        else:
            raise NumericalFailure(f"could not place disc {len(discs)} in 3000 draws")
    return discs
