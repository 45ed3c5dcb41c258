"""Spatial primitives and antipodality predicates.

Finite point sets, polyline strings, labeled regions, worldsheets, and
antipodally symmetric sphere grids, together with the predicates that decide
when two of these objects are antipodal:

* a disjoint parallel supporting-hyperplane witness for a point pair,
* the Petty criterion for a whole point set (every pair supports a slab),
* vertex-set symmetric difference for strings,
* disjoint member strings for worldsheets.

It also holds the 4-adjacency neighbor count of a grid cell, the descriptor
that separates corner cells (2) from edge (3) and interior (4) cells.

Everything here is exact desk-scale geometry on numpy arrays. Point identity
uses POINT_TOL (1e-9); unit-vector and antipode checks use UNIT_TOL (1e-12).
Returned point lists are in canonical lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

POINT_TOL = 1e-9
UNIT_TOL = 1e-12

__all__ = [
    "POINT_TOL",
    "UNIT_TOL",
    "Hyperplane",
    "StringPath",
    "Region",
    "Worldsheet",
    "SphereGrid",
    "as_point",
    "as_points",
    "lexsorted",
    "corner_region_descriptor",
    "antipodal_point_witness",
    "petty_antipodal_set",
    "strings_antipodal",
    "worldsheets_antipodal",
    "worldsheet_cover_check",
    "sphere_sample",
    "point_segment_distance",
    "point_polyline_distance",
    "polyline_min_distance",
]


def as_point(p) -> np.ndarray:
    """Coerce to a finite 1-d float64 coordinate vector."""
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("point must be a nonempty 1-d coordinate vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


def as_points(pts) -> np.ndarray:
    """Coerce to a finite (m, n) float64 array, one point per row."""
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("expected a nonempty (m, n) array of points")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


def lexsorted(pts: np.ndarray) -> np.ndarray:
    """Rows of pts sorted lexicographically by coordinates."""
    a = np.asarray(pts, dtype=float)
    if a.shape[0] <= 1:
        return a.copy()
    order = np.lexsort(a.T[::-1])
    return a[order]


def corner_region_descriptor(width: int, height: int, cell) -> float:
    """4-adjacency neighbor count of a cell on a width x height grid.

    Corners score 2, edge cells 3, interior cells 4 (on grids with both
    sides at least 2). Out-of-range cells are an error.
    """
    w, h = int(width), int(height)
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be positive")
    i, j = int(round(cell[0])), int(round(cell[1]))
    if not (0 <= i < w and 0 <= j < h):
        raise ValueError(f"cell ({i}, {j}) outside {w}x{h} grid")
    return float((i > 0) + (i < w - 1) + (j > 0) + (j < h - 1))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane {x : normal . x = offset}.

    The normal is rescaled to unit length on construction, with the offset
    scaled along so the point set is unchanged.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_point(self.normal)
        scale = float(np.linalg.norm(n))
        if scale <= UNIT_TOL:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", n / scale)
        object.__setattr__(self, "offset", float(self.offset) / scale)

    def signed_distance(self, p) -> float:
        return float(self.normal @ as_point(p) - self.offset)

    def contains(self, p, tol: float = POINT_TOL) -> bool:
        return abs(self.signed_distance(p)) <= tol


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
        gaps = np.linalg.norm(np.diff(v, axis=0), axis=1)
        if np.any(gaps <= POINT_TOL):
            raise ValueError("consecutive string vertices must be distinct")
        if self.closed and np.linalg.norm(v[-1] - v[0]) <= POINT_TOL:
            raise ValueError("closed string must not repeat its first vertex")
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

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

    def interior_points(self) -> np.ndarray:
        return self.points[self.interior]


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

    @property
    def ambient_dimension(self) -> int:
        return self.samples.shape[1]

    def antipodal_pairs(self) -> np.ndarray:
        """(m/2, 2) index pairs (i, j) with i < j and samples[j] = -samples[i]."""
        idx = self.antipode_index
        keep = np.arange(self.size) < idx
        return np.stack([np.arange(self.size)[keep], idx[keep]], axis=1)


# ---------------------------------------------------------------------------
# antipodality predicates
# ---------------------------------------------------------------------------


def antipodal_point_witness(p, q, tol: float = POINT_TOL):
    """Disjoint parallel hyperplanes through p and q, or None if p = q.

    The shared unit normal is (q - p)/|q - p|; each plane passes through its
    point, so the pair is a strict antipodality witness in the sense that the
    planes never meet.
    """
    a, b = as_point(p), as_point(q)
    if a.shape != b.shape:
        raise ValueError("witness endpoints must share a dimension")
    diff = b - a
    dist = np.linalg.norm(diff)
    if dist <= tol:
        return None
    v = diff / dist
    return Hyperplane(v, float(v @ a)), Hyperplane(v, float(v @ b))


def _petty_directions(pts: np.ndarray) -> np.ndarray:
    """Candidate slab directions for the Petty test.

    Pairwise differences and coordinate axes in every dimension. In 2D the
    set is completed into a full direction arrangement: perpendiculars of the
    differences are the critical angles where some projection order ties, and
    the angular midpoints between consecutive critical angles sample every
    open cell, so checking all candidates decides each pair exactly.
    """
    m, n = pts.shape
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, n)
    keep = np.linalg.norm(diffs, axis=1) > POINT_TOL
    cands = [diffs[keep], np.eye(n), -np.eye(n)]
    if n == 2:
        d = diffs[keep]
        perp = np.stack([-d[:, 1], d[:, 0]], axis=1)
        base = np.concatenate([d, -d, perp, -perp, np.eye(2), -np.eye(2)])
        ang = np.sort(np.unique(np.round(np.arctan2(base[:, 1], base[:, 0]), 12)))
        mids = (ang + np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]])) / 2.0)
        allang = np.concatenate([ang, mids])
        return np.stack([np.cos(allang), np.sin(allang)], axis=1)
    dirs = np.concatenate(cands)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def petty_antipodal_set(points, tol: float = POINT_TOL) -> bool:
    """True iff every point pair is antipodal in the supporting-slab sense.

    A pair (p, q) qualifies when some direction v attains its minimum over
    the set at p and its maximum at q, with min < max, i.e. the set fits in
    the closed slab between two disjoint parallel supporting hyperplanes.
    Exact in 2D via a complete direction arrangement; for dimension >= 3 the
    finite candidate set (pairwise differences plus axes) is a sufficient
    witness family that may under-report exotic slabs.
    """
    pts = as_points(points)
    m = pts.shape[0]
    if m < 2:
        raise ValueError("the Petty test needs at least 2 points")
    dirs = _petty_directions(pts)
    proj = pts @ dirs.T
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    for i in range(m):
        at_lo_i = proj[i] <= lo + tol
        at_hi_i = proj[i] >= hi - tol
        for j in range(i + 1, m):
            gap = proj[j] - proj[i]
            fwd = at_lo_i & (proj[j] >= hi - tol) & (gap > tol)
            bwd = at_hi_i & (proj[j] <= lo + tol) & (-gap > tol)
            if not (fwd.any() or bwd.any()):
                return False
    return True


def strings_antipodal(a: StringPath, b: StringPath, tol: float = POINT_TOL) -> bool:
    """True iff the vertex sets differ, i.e. their symmetric difference is nonempty.

    Vertices are identified within tol. Strings sharing some but not all
    vertices are antipodal under this rule; only vertex-for-vertex identical
    strings are not.
    """
    va, vb = a.vertices, b.vertices
    if va.shape[1] != vb.shape[1]:
        raise ValueError("strings must share a dimension")
    d = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    return bool(np.any(d.min(axis=1) > tol) or np.any(d.min(axis=0) > tol))


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to the closed segment [a, b]."""
    p, a, b = as_point(p), as_point(a), as_point(b)
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(a + t * ab - p))


def point_polyline_distance(p, path: StringPath) -> float:
    """Distance from p to the nearest point of the string (segments, not vertices)."""
    segs = path.segments()
    return min(point_segment_distance(p, s[0], s[1]) for s in segs)


def _segment_pair_distance(p1, q1, p2, q2) -> float:
    # closed-form closest approach of two segments, robust for the
    # degenerate parallel case via clamped coordinates
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    b = float(d1 @ d2)
    c = float(d1 @ r)
    denom = a * e - b * b
    s = 0.0 if denom <= 1e-300 else np.clip((b * f - c * e) / denom, 0.0, 1.0)
    t = 0.0 if e <= 1e-300 else np.clip((b * s + f) / e, 0.0, 1.0)
    s = 0.0 if a <= 1e-300 else np.clip((b * t - c) / a, 0.0, 1.0)
    return float(np.linalg.norm((p1 + s * d1) - (p2 + t * d2)))


def polyline_min_distance(a: StringPath, b: StringPath) -> float:
    """Minimum distance between two strings as geometric polylines."""
    best = np.inf
    for s1 in a.segments():
        for s2 in b.segments():
            d = _segment_pair_distance(s1[0], s1[1], s2[0], s2[1])
            if d < best:
                best = d
    return float(best)


def worldsheets_antipodal(a: Worldsheet, b: Worldsheet, tol: float = POINT_TOL) -> bool:
    """True iff some member string of a is disjoint from some member string of b.

    Disjointness is geometric: the two polylines never come within tol of
    each other (crossing segments have distance zero even without shared
    vertices).
    """
    for sa in a.strings:
        for sb in b.strings:
            if polyline_min_distance(sa, sb) > tol:
                return True
    return False


def worldsheet_cover_check(w: Worldsheet):
    """Verify every sheet point lies within cover_tolerance of some string.

    Returns (covered, uncovered) where uncovered is a lexicographically
    sorted (k, n) array of the sheet points that fail.
    """
    bad = []
    for p in w.sheet.points:
        d = min(point_polyline_distance(p, s) for s in w.strings)
        if d > w.cover_tolerance:
            bad.append(p)
    if not bad:
        return True, np.empty((0, w.sheet.dimension))
    return False, lexsorted(np.array(bad))


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
    if n not in (1, 2, 3):
        raise ValueError("sphere dimension must be 1, 2, or 3")
    if density < 1:
        raise ValueError("density must be at least 1")
    d = int(density)
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
