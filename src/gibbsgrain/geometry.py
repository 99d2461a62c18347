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

``link_increment(p, meet)`` gives what adding a disc p changes in all three
functionals from the discs that meet it, without evaluating either union:
p's arcs exposed against ``meet`` are added and the arcs of ``meet`` that
are exposed and lie inside p's disc are taken away, and the Euler
characteristic changes by 1 - chi(link), the link being the cliques of
``meet`` that share a point with p. The link and the whole nerve share one
clique enumerator (``_nerve_chi``, with p as its apex), and the arcs of
both come from one cover-and-merge walk (``_exposed_arcs``, which can keep
only the arcs inside a disc). A disc that meets nothing adds its own area,
perimeter and 1 in closed form.

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
    "link_increment",
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
# ``sampler.ChainState`` refuses an environment with such a relation
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


def _add_arc(covered: list[tuple[float, float]], lo: float, width: float) -> None:
    """Append the arc from ``lo`` of angular ``width`` to ``covered``, split in
    two where it wraps past 2 pi."""
    lo %= _TWO_PI
    hi = lo + width
    if hi > _TWO_PI:
        covered.append((lo, _TWO_PI))
        covered.append((0.0, hi - _TWO_PI))
    else:
        covered.append((lo, hi))


def _exposed_arcs(
    i: int, discs: list[Disc], inside: Disc | None = None
) -> list[tuple[float, float]]:
    """Arcs of circle i on the union boundary, as (theta1, theta2) with
    theta2 > theta1; an uncovered circle returns [(0, 2 pi)]. With
    ``inside``, only the parts of those arcs that lie in that open disc."""
    a = discs[i]
    covered: list[tuple[float, float]] = []
    if inside is not None:
        d = math.hypot(inside.x - a.x, inside.y - a.y)
        if d >= a.r + inside.r or d <= a.r - inside.r:
            return []  # circle i misses the disc, or runs around it
        if d > inside.r - a.r:
            # the part of circle i outside the disc counts as covered
            phi = math.atan2(inside.y - a.y, inside.x - a.x)
            cos_alpha = (d * d + a.r * a.r - inside.r * inside.r) / (2.0 * d * a.r)
            alpha = math.acos(min(1.0, max(-1.0, cos_alpha)))
            _add_arc(covered, phi + alpha, _TWO_PI - 2.0 * alpha)
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
        _add_arc(covered, phi - alpha, 2.0 * alpha)
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


def _arc_area(d: Disc, lo: float, hi: float, x: float, y: float) -> float:
    """Green's theorem term of the arc (lo, hi) of circle d, whose centre sits
    at (x, y) relative to the origin of the sum."""
    return 0.5 * (
        d.r * d.r * (hi - lo)
        + x * d.r * (math.sin(hi) - math.sin(lo))
        - y * d.r * (math.cos(hi) - math.cos(lo))
    )


def union_area_perimeter(discs: list[Disc]) -> tuple[float, float]:
    """Area and boundary length of the open union of ``discs``, from one walk
    over each circle's exposed arcs: area by Green's theorem, perimeter as
    the summed arc length."""
    area = perimeter = 0.0
    for i, d in enumerate(discs):
        for lo, hi in _exposed_arcs(i, discs):
            perimeter += d.r * (hi - lo)
            area += _arc_area(d, lo, hi, d.x, d.y)
    return area, perimeter


def link_increment(p: Disc, meet: list[Disc]) -> tuple[float, float, int]:
    """Area, perimeter and Euler characteristic of the union of ``meet`` with
    p, minus those of the union of ``meet``, for ``meet`` the discs whose
    open disc meets p's (``meeting_discs``), free of degeneracies with p and
    with each other.

    The union's boundary loses the exposed arcs of ``meet`` that lie inside
    D_p and gains p's arcs exposed against ``meet``, so both sums walk only
    arcs inside D_p; Green's theorem takes p's centre as its origin. The
    Euler characteristic changes by 1 - chi(D_p with the union of ``meet``),
    and the nerve of that intersection is p's link: the cliques of ``meet``
    that share a point with p. A lone grain adds (pi r^2, 2 pi r, 1).
    """
    if not meet:
        return math.pi * p.r * p.r, _TWO_PI * p.r, 1
    area = perimeter = 0.0
    for lo, hi in _exposed_arcs(len(meet), meet + [p]):
        perimeter += p.r * (hi - lo)
        area += 0.5 * p.r * p.r * (hi - lo)
    for i, q in enumerate(meet):
        for lo, hi in _exposed_arcs(i, meet, inside=p):
            perimeter -= q.r * (hi - lo)
            area -= _arc_area(q, lo, hi, q.x - p.x, q.y - p.y)
    return area, perimeter, 1 - _nerve_chi(meet, apex=p)


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
    return _nerve_chi(discs)


def _nerve_chi(discs: list[Disc], apex: Disc | None = None) -> int:
    """``euler_characteristic`` of ``discs``, or with an ``apex`` disc that
    every disc meets, of the link of the apex: the cliques whose discs share
    a point with it. By Helly, a clique shares a point with the apex when
    all its triples do and the apex does with each of its pairs, so the
    apex only thins the overlap graph to the pairs that meet inside it."""
    n = len(discs)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in combinations(range(n), 2):
        a, b = discs[i], discs[j]
        if math.hypot(b.x - a.x, b.y - a.y) < a.r + b.r and (
            apex is None or _triple_solid(apex, a, b)
        ):
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
