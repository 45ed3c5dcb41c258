"""Spatial primitives and antipodality predicates.

Finite point sets, polyline strings, labeled regions, worldsheets, and
antipodally symmetric sphere grids, together with the predicates that decide
when two of these objects are antipodal:

* a disjoint parallel supporting-hyperplane witness for a point pair,
* the Petty criterion for a whole point set (every pair supports a slab),
* vertex-set symmetric difference for strings,
* disjoint member strings for worldsheets.

Point identity (point_close, same_point_set) is decided here for the whole
package, and every string distance is one call of a single kernel: the
clamped closed-form distance between closed segments, over all pairs at once.
The module also builds circle-arc strings and the worldsheets pairing them,
and holds the 4-adjacency neighbor count of a grid cell, the descriptor
that separates corner cells (2) from edge (3) and interior (4) cells.

Everything here is exact desk-scale geometry on numpy arrays. Point identity
uses POINT_TOL (1e-9); unit-vector and antipode checks use UNIT_TOL (1e-12).
Returned point lists are in canonical lexicographic order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

POINT_TOL = 1e-9
UNIT_TOL = 1e-12

# Magnitudes from 2**_HUGE up are scaled below it by a power of two before they
# are squared: the segment kernel forms fourth powers, which fit a double there.
_HUGE = 240

__all__ = [
    "POINT_TOL",
    "UNIT_TOL",
    "StringPath",
    "Region",
    "Worldsheet",
    "SphereGrid",
    "as_point",
    "as_points",
    "value_table",
    "lexsorted",
    "point_close",
    "same_point_set",
    "corner_region_descriptor",
    "antipodal_point_witness",
    "petty_antipodal_set",
    "strings_antipodal",
    "worldsheets_antipodal",
    "worldsheet_cover_check",
    "arc_strings",
    "arc_sheets",
    "sphere_sample",
    "polyline_min_distance",
]


def as_point(p) -> np.ndarray:
    """Coerce to a finite 1-d float64 coordinate vector."""
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("point must be a nonempty 1-d coordinate vector")
    if not np.isfinite(a).all():
        raise ValueError("point coordinates must be finite")
    return a


def as_points(pts) -> np.ndarray:
    """Coerce to a finite (m, n) float64 array, one point per row."""
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("expected a nonempty (m, n) array of points")
    if not np.isfinite(a).all():
        raise ValueError("point coordinates must be finite")
    return a


def value_table(values, shape: tuple, name: str) -> np.ndarray:
    """A map's values as a finite float64 (count, width) array, else ValueError naming the map."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} returned ragged or non-numeric values, expected {shape}") from None
    if a.shape != shape:
        raise ValueError(f"{name} returned shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} returned non-finite values, expected finite {shape}")
    return a


def _integer(value, name: str) -> int:
    """value as an int; bools, floats and other non-integers are refused."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return operator.index(value)


def _count(value, name: str) -> int:
    """value as a nonnegative int: refused as by _integer, and when negative."""
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def _binary_exponent(magnitude) -> np.ndarray:
    """The least k >= 0 with magnitude < 2**(_HUGE + k); np.ldexp(x, -k) is exact short of underflow."""
    return np.maximum(np.frexp(magnitude)[1] - _HUGE, 0)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row over its norm; a huge row is first scaled by its own power of two, so no norm overflows."""
    rows = np.ldexp(rows, -_binary_exponent(np.abs(rows).max(axis=1, keepdims=True)))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def lexsorted(pts: np.ndarray) -> np.ndarray:
    """Rows of pts sorted lexicographically by coordinates."""
    a = np.asarray(pts, dtype=float)
    if a.shape[0] <= 1:
        return a.copy()
    order = np.lexsort(a.T[::-1])
    return a[order]


def point_close(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Boolean (len(P), len(Q)) table: P[i] and Q[j] are the same point within POINT_TOL."""
    return np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2) <= POINT_TOL


def same_point_set(P: np.ndarray, Q: np.ndarray) -> bool:
    """True iff every point of P is within POINT_TOL of some point of Q, and vice versa."""
    close = point_close(P, Q)
    return bool(close.any(axis=1).all() and close.any(axis=0).all())


def _grid_sides(width, height) -> tuple:
    """(width, height) of a cell grid as positive ints, else ValueError."""
    w, h = _integer(width, "grid width"), _integer(height, "grid height")
    if w < 1 or h < 1:
        raise ValueError(f"grid sides must be positive, got {w}x{h}")
    return w, h


def corner_region_descriptor(width: int, height: int, cell) -> float:
    """4-adjacency neighbor count of a cell on a width x height grid.

    Corners score 2, edge cells 3, interior cells 4 (on grids with both
    sides at least 2). Out-of-range cells are an error.
    """
    w, h = _grid_sides(width, height)
    i, j = int(round(cell[0])), int(round(cell[1]))
    if not (0 <= i < w and 0 <= j < h):
        raise ValueError(f"cell ({i}, {j}) outside {w}x{h} grid")
    return float((i > 0) + (i < w - 1) + (j > 0) + (j < h - 1))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StringPath:
    """Polyline string: ordered vertices, optionally closed by an implicit edge.

    Consecutive vertices must be distinct beyond POINT_TOL; for a closed
    string that includes the wrap edge (do not repeat the first vertex).
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        v = as_points(self.vertices)
        if v.shape[0] < 2:
            raise ValueError("a string needs at least 2 vertices")
        ring = np.concatenate([v, v[:1]]) if self.closed else v
        with np.errstate(over="ignore"):
            gaps = np.linalg.norm(np.diff(ring, axis=0), axis=1)
        if not np.isfinite(gaps).all():
            raise ValueError("string vertices are too far apart: a gap between neighbours overflows")
        if np.any(gaps[: v.shape[0] - 1] <= POINT_TOL):
            raise ValueError("consecutive string vertices must be distinct")
        if self.closed and gaps[-1] <= POINT_TOL:
            raise ValueError("closed string must not repeat its first vertex")
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def segments(self) -> np.ndarray:
        """(s, 2, n) array of segment endpoints, wrap edge included if closed."""
        v = self.vertices
        segs = np.stack([v[:-1], v[1:]], axis=1)
        if self.closed:
            segs = np.concatenate([segs, np.stack([v[-1:], v[:1]], axis=1)])
        return segs


@dataclass(frozen=True)
class Region:
    """Finite labeled region: points plus a boolean interior mask.

    The point set is nonempty; the interior subset may be empty. Interior
    labels are supplied by the caller, they are not derived from geometry.
    """

    points: np.ndarray
    interior: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        mask = np.asarray(self.interior, dtype=bool)
        if mask.shape != (pts.shape[0],):
            raise ValueError("interior mask must have one flag per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "interior", mask)

    @classmethod
    def from_points(cls, points, interior=True) -> "Region":
        pts = as_points(points)
        if isinstance(interior, (bool, np.bool_)):
            mask = np.full(pts.shape[0], bool(interior))
        else:
            mask = np.asarray(interior, dtype=bool)
        return cls(pts, mask)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Worldsheet:
    """Region swept by a family of strings, with a cover tolerance.

    The intended reading is that every sheet point lies within
    cover_tolerance of some member string; that property is checked by
    worldsheet_cover_check, not enforced here, so uncovered sheets are
    representable (and reported as such).
    """

    sheet: Region
    strings: tuple
    cover_tolerance: float

    def __post_init__(self):
        strs = tuple(self.strings)
        if not strs:
            raise ValueError("a worldsheet needs at least one string")
        dims = {s.dimension for s in strs}
        if len(dims) != 1 or dims != {self.sheet.dimension}:
            raise ValueError("sheet and strings must share one dimension")
        if not (float(self.cover_tolerance) > 0.0):
            raise ValueError("cover_tolerance must be positive")
        object.__setattr__(self, "strings", strs)
        object.__setattr__(self, "cover_tolerance", float(self.cover_tolerance))


@dataclass(frozen=True)
class SphereGrid:
    """Antipodally symmetric sample set on the n-sphere in R^(n+1).

    antipode_index is a fixed-point-free involution pairing each sample with
    its exact negation.
    """

    dimension: int
    samples: np.ndarray
    antipode_index: np.ndarray

    def __post_init__(self):
        pts = as_points(self.samples)
        idx = np.asarray(self.antipode_index, dtype=int)
        m = pts.shape[0]
        if pts.shape[1] != self.dimension + 1:
            raise ValueError("samples must live in R^(dimension+1)")
        if idx.shape != (m,):
            raise ValueError("antipode_index must have one entry per sample")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValueError("samples must be unit vectors within 1e-12")
        if np.any(idx[idx] != np.arange(m)) or np.any(idx == np.arange(m)):
            raise ValueError("antipode_index must be a fixed-point-free involution")
        if np.max(np.abs(pts + pts[idx])) > UNIT_TOL:
            raise ValueError("paired samples must negate within 1e-12")
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "antipode_index", idx)

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    def antipodal_pairs(self) -> np.ndarray:
        """(m/2, 2) index pairs (i, j) with i < j and samples[j] = -samples[i]."""
        idx = self.antipode_index
        keep = np.arange(self.size) < idx
        return np.stack([np.arange(self.size)[keep], idx[keep]], axis=1)


# ---------------------------------------------------------------------------
# antipodality predicates
# ---------------------------------------------------------------------------


def antipodal_point_witness(p, q):
    """Hyperplanes normal . x = offset_p, offset_q through p and q, or None if p = q.

    normal is the unit vector (q - p)/|q - p|, so offset_p < offset_q and the
    planes never meet: a strict antipodality witness. p = q means
    |q - p| <= POINT_TOL; a |q - p| that overflows is refused.
    """
    a, b = as_point(p), as_point(q)
    _measurable(a.size, b.size)
    with np.errstate(over="ignore"):
        diff = b - a
        dist = np.linalg.norm(diff)
    if not np.isfinite(dist):
        raise ValueError("witness endpoints are too far apart: |q - p| overflows")
    if dist <= POINT_TOL:
        return None
    v = diff / dist
    # |v| is 1 only up to rounding; dividing by it once more is part of the pinned output
    scale = float(np.linalg.norm(v))
    return v / scale, float(v @ a) / scale, float(v @ b) / scale


def _petty_directions(pts: np.ndarray) -> np.ndarray:
    """Candidate slab directions for the Petty test.

    One orientation of each pairwise difference, and the coordinate axes.
    Negating a direction negates every projection exactly, which swaps its
    low and high tables, and the pair test reads both orientations of each
    pair, so the mirrored half of the family would decide nothing more. In
    2D the set is completed into a full direction arrangement: the
    differences, their perpendiculars and the axes are the critical
    directions where some projection order ties, kept as exact unit rows,
    and the angular midpoints between consecutive critical angles of both
    orientations (rounded to 12 decimals) sample every open cell.
    """
    m, n = pts.shape
    i, j = np.triu_indices(m, 1)
    d = pts[i] - pts[j]
    with np.errstate(over="ignore"):  # a norm that overflows is still above tol
        d = d[np.linalg.norm(d, axis=1) > POINT_TOL]
    if n == 2:
        perp = np.stack([-d[:, 1], d[:, 0]], axis=1)
        crit = np.concatenate([d, perp, np.eye(2)])
        both = np.concatenate([crit, -crit])
        ang = np.sort(np.unique(np.round(np.arctan2(both[:, 1], both[:, 0]), 12)))
        mids = ang + np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]])) / 2.0
        return np.concatenate([np.stack([np.cos(mids), np.sin(mids)], axis=1), _unit_rows(crit)])
    return _unit_rows(np.concatenate([d, np.eye(n)]))


def petty_antipodal_set(points) -> bool:
    """True iff every point pair is antipodal in the supporting-slab sense.

    A pair (p, q) qualifies when some direction v attains its minimum over
    the set at p and its maximum at q, with min < max, i.e. the set fits in
    the closed slab between two disjoint parallel supporting hyperplanes.
    In 2D the candidates form a complete direction arrangement, critical
    directions included exactly, so every slab has a candidate; for
    dimension >= 3 the finite candidate set (pairwise differences plus
    axes) is a sufficient witness family that may under-report exotic slabs
    (an exact test there is still open). In every dimension the ties are
    read with the absolute POINT_TOL, which stops resolving them once the
    rounding of the coordinates exceeds it: affine images of the unit square
    scaled to 1e7 or 1e8 can be called non-antipodal.

    Below, tol is POINT_TOL. On a candidate direction, p is low when its
    projection is within tol of the minimum, q is high when within tol of
    the maximum, and the pair needs a projected gap above tol. A direction
    is sure when its width (max - tol) - (min + tol) exceeds tol: rounded
    subtraction is monotone, so there every low-to-high gap exceeds tol and
    the pair test reduces to "p low and q high". Those pairs are certified
    at once by one product of the (points, directions) low and high tables.
    Only pairs left open are tested on the directions that are not sure
    (width at most about 3 * tol), with the gap test as written. The
    verdict is that of testing every pair on every candidate direction.
    """
    pts = as_points(points)
    m = pts.shape[0]
    if m < 2:
        raise ValueError("the Petty test needs at least 2 points")
    dirs = _petty_directions(pts)
    proj = pts @ dirs.T
    floor = proj.min(axis=0) + POINT_TOL
    ceil = proj.max(axis=0) - POINT_TOL
    sure = ceil - floor > POINT_TOL
    # 0/1 tables; a sum of nonnegative 0/1 terms never rounds to 0, so the
    # float32 product counts a witness direction exactly when there is one
    at_lo = np.less_equal(proj, floor, out=np.empty(proj.shape, np.float32))
    at_hi = np.greater_equal(proj, ceil, out=np.empty(proj.shape, np.float32))
    if sure.all():
        hits = at_lo @ at_hi.T
    else:
        hits = at_lo[:, sure] @ at_hi[:, sure].T
    # pair (i, j) is certified by i low and j high, or by j low and i high
    i, j = np.nonzero(np.triu((hits == 0) & (hits.T == 0), 1))
    for d in np.flatnonzero(~sure):
        if i.size == 0:
            break
        gap = proj[j, d] - proj[i, d]
        fwd = (at_lo[i, d] > 0) & (at_hi[j, d] > 0) & (gap > POINT_TOL)
        bwd = (at_hi[i, d] > 0) & (at_lo[j, d] > 0) & (-gap > POINT_TOL)
        still = ~(fwd | bwd)
        i, j = i[still], j[still]
    return i.size == 0


def strings_antipodal(a: StringPath, b: StringPath) -> bool:
    """True iff the vertex sets differ, i.e. their symmetric difference is nonempty.

    Vertices are identified within POINT_TOL. Strings sharing some but not all
    vertices are antipodal under this rule; only vertex-for-vertex identical
    strings are not.
    """
    if a.dimension != b.dimension:
        raise ValueError("strings must share a dimension")
    return not same_point_set(a.vertices, b.vertices)


def _measurable(n: int, k: int) -> None:
    if n != k:
        raise ValueError(f"cannot measure between dimensions {n} and {k}")


def _segment_distances(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(k, l) distances between the closed segments S[i] and T[j].

    S, T are (k, 2, n) and (l, 2, n) endpoints, or (k, 1, n) for points (ends
    that coincide). Clamped closed form (Lumelsky 1985): s from the normal
    equations, t for s, then s for t, each clamped to [0, 1]; s = 0 if parallel.
    The normal equations' determinant a*e - b*b and numerator b*f - c*e are
    sums over the 2x2 minors (Lagrange and Binet-Cauchy identities), which do
    not cancel for nearly parallel segments as the products of dot products do.
    A pair with an end at or above 2**_HUGE is first scaled below it by its
    own least power of two 2**-k, and its distance by 2**k after, so the
    degenerate and parallel tests read each pair at nearly its own scale; a
    distance that still overflows is refused.
    """
    _measurable(S.shape[-1], T.shape[-1])
    S, T = S[:, None], T[None]
    k = 0
    if max(np.abs(S).max(), np.abs(T).max()) >= 2.0**_HUGE:
        k = _binary_exponent(np.maximum(np.abs(S).max(axis=(2, 3)), np.abs(T).max(axis=(2, 3))))
        S, T = np.ldexp(S, -k[..., None, None]), np.ldexp(T, -k[..., None, None])
    p1, d1 = S[..., 0, :], S[..., -1, :] - S[..., 0, :]
    p2, d2 = T[..., 0, :], T[..., -1, :] - T[..., 0, :]
    r = p1 - p2
    a, b, c = (np.sum(d1 * v, axis=2) for v in (d1, d2, r))
    e, f = (np.sum(d2 * v, axis=2) for v in (d2, r))
    i, j = np.triu_indices(S.shape[-1], 1)
    d12 = d1[..., i] * d2[..., j] - d1[..., j] * d2[..., i]
    d2r = d2[..., i] * r[..., j] - d2[..., j] * r[..., i]
    # every product fits below 2**_HUGE; only scaling a distance back can overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = np.sum(d12 * d12, axis=2)
        s = np.where(denom > 1e-300, np.clip(np.sum(d12 * d2r, axis=2) / denom, 0.0, 1.0), 0.0)
        t = np.where(e > 1e-300, np.clip((b * s + f) / e, 0.0, 1.0), 0.0)
        s = np.where(a > 1e-300, np.clip((b * t - c) / a, 0.0, 1.0), 0.0)
        dist = np.ldexp(np.linalg.norm(r + s[..., None] * d1 - t[..., None] * d2, axis=2), k)
    if not np.isfinite(dist).all():
        raise ValueError("segments are too far apart: a distance between them overflows")
    return dist


def polyline_min_distance(a: StringPath, b: StringPath) -> float:
    """Minimum distance between two strings as geometric polylines."""
    return float(_segment_distances(a.segments(), b.segments()).min())


def worldsheets_antipodal(a: Worldsheet, b: Worldsheet) -> bool:
    """True iff some member string of a is disjoint from some member string of b.

    Disjointness is geometric: the two polylines never come within POINT_TOL
    of each other (crossing segments have distance zero even without shared
    vertices).
    """
    return any(polyline_min_distance(sa, sb) > POINT_TOL for sa in a.strings for sb in b.strings)


def worldsheet_cover_check(w: Worldsheet):
    """Verify every sheet point lies within cover_tolerance of some string.

    Returns (covered, uncovered) where uncovered is a lexicographically
    sorted (k, n) array of the sheet points that fail.
    """
    pts = w.sheet.points
    segs = np.concatenate([s.segments() for s in w.strings])
    bad = pts[_segment_distances(pts[:, None], segs).min(axis=1) > w.cover_tolerance]
    if not bad.size:
        return True, np.empty((0, w.sheet.dimension))
    return False, lexsorted(bad)


_ARC_SAMPLES = 4  # consecutive circle samples per arc string


def arc_strings(grid: SphereGrid) -> list:
    """Open strings through 4 consecutive grid samples each, in sample order."""
    if grid.size % _ARC_SAMPLES:
        raise ValueError(
            f"strings mode needs the sample count divisible by {_ARC_SAMPLES}, got {grid.size}"
        )
    return [StringPath(grid.samples[i : i + _ARC_SAMPLES]) for i in range(0, grid.size, _ARC_SAMPLES)]


def arc_sheets(arcs: Sequence[StringPath]) -> list:
    """Worldsheets of the arc pairs (0, 1), (2, 3), ... over their vertices, cover tolerance 1e-6."""
    if len(arcs) % 2:
        raise ValueError("sheets mode pairs arcs and needs an even arc count")
    return [
        Worldsheet(Region.from_points(np.concatenate([a.vertices, b.vertices])), (a, b), 1e-6)
        for a, b in zip(arcs[::2], arcs[1::2])
    ]


# ---------------------------------------------------------------------------
# sphere grids
# ---------------------------------------------------------------------------


def sphere_sample(n: int, density: int) -> SphereGrid:
    """Antipodally symmetric grid of 2*density samples on the n-sphere.

    n = 1: equally spaced circle points starting at angle 0, so the first
    sample is (1, 0) and sample i pairs with sample i + density.
    n = 2: a Fibonacci-style spiral of `density` points, symmetrized by
    appending exact negations.
    n = 3: deterministic seeded unit directions in R^4, symmetrized the same
    way (a fixed construction, identical for identical arguments).
    """
    n, d = _integer(n, "sphere dimension"), _integer(density, "density")
    if n not in (1, 2, 3):
        raise ValueError("sphere dimension must be 1, 2, or 3")
    if d < 1:
        raise ValueError("density must be at least 1")
    if n == 1:
        ang = np.arange(2 * d) * (np.pi / d)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        # pin exact negation pairing against rounding in cos/sin
        pts[d:] = -pts[:d]
        idx = (np.arange(2 * d) + d) % (2 * d)
        return SphereGrid(1, pts, idx)
    if n == 2:
        i = np.arange(d)
        z = 1.0 - (2.0 * i + 1.0) / d
        rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        ang = golden * i
        half = np.stack([rad * np.cos(ang), rad * np.sin(ang), z], axis=1)
    else:
        rng = np.random.default_rng(20230 + d)
        half = rng.standard_normal((d, 4))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    pts = np.concatenate([half, -half])
    idx = (np.arange(2 * d) + d) % (2 * d)
    return SphereGrid(n, pts, idx)
