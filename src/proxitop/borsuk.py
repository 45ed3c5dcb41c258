"""Antipodal descriptor search, grid fixed-point search, shape pipeline.

Desk-scale verification engines for antipodality statements:

* but_search pairs antipodal objects (grid samples, strings, or worldsheets)
  whose descriptor values match within a tolerance. The result is that of
  exhaustive pair enumeration, but descriptors are matched first (a
  sort-and-sweep on one component) and the antipodality predicate runs
  only on the matched pairs.
* fixed_point_search locates a fixed point of a self-map of the unit ball
  by iterative grid refinement.
* wired_friend_pipeline compresses a string into a 4-feature silhouette and
  renormalizes it into the open unit ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    POINT_TOL,
    Region,
    SphereGrid,
    StringPath,
    Worldsheet,
    as_point,
    strings_antipodal,
    value_table,
    worldsheets_antipodal,
)
from .proximity import FeatureMap, pointwise

__all__ = [
    "ButPair",
    "ButResult",
    "BallCheck",
    "BallRangeError",
    "RefinementBudgetError",
    "WiredFriendResult",
    "feature_descriptor",
    "shape_descriptor",
    "but_search",
    "fixed_point_search",
    "string_shape_features",
    "wired_friend_pipeline",
]


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


# FeatureMap is the one descriptor type; the name RegionDescriptor stays only
# because the benchmark tracer (bench/tracing.py) looks it up on import
RegionDescriptor = FeatureMap


def _object_points(obj) -> np.ndarray:
    """The (p, n) points describing obj; a bare point is a one-point set."""
    if isinstance(obj, StringPath):
        return obj.vertices
    if isinstance(obj, Region):
        return obj.points
    if isinstance(obj, Worldsheet):
        return obj.sheet.points
    return as_point(obj)[None]


def feature_descriptor(
    features: FeatureMap, reduce: str = "mean", match_tolerance: float | None = None
) -> FeatureMap:
    """Lift a point feature map to a descriptor of whole objects.

    The descriptor is a FeatureMap whose batch is a list of strings,
    regions, worldsheets or bare points (a bare point is a one-point set).
    Objects with equal point count and dimension are described together by
    one features.rows call, and each object's rows are reduced: "mean"
    averages them (arity k), "minmax" concatenates the feature-wise minimum
    and maximum (arity 2k). Both reductions ignore point order.
    """
    if reduce not in ("mean", "minmax"):
        raise ValueError(f"unknown reduction: {reduce!r}")
    tol = features.match_tolerance if match_tolerance is None else float(match_tolerance)
    width = features.arity * (1 if reduce == "mean" else 2)

    def describe(objects):
        sets = [_object_points(o) for o in objects]
        groups: dict = {}
        for i, P in enumerate(sets):
            groups.setdefault(P.shape, []).append(i)
        out = np.empty((len(sets), width))
        for (p, _), idx in groups.items():
            # (objects, points, arity); reduce over each object's own points
            R = features.rows(np.concatenate([sets[i] for i in idx])).reshape(len(idx), p, -1)
            out[idx] = R.mean(axis=1) if reduce == "mean" else np.hstack([R.min(axis=1), R.max(axis=1)])
        return out

    return FeatureMap(width, describe, tol, f"{reduce}-{features.name}")


def shape_descriptor(match_tolerance: float = 0.0) -> FeatureMap:
    """The 4-feature string silhouette as a descriptor (strings only)."""
    return FeatureMap(4, pointwise(string_shape_features), match_tolerance, "shape")


# ---------------------------------------------------------------------------
# antipodal pair search
# ---------------------------------------------------------------------------


class ButPair(NamedTuple):
    a: int
    b: int
    value: tuple
    distance: float


@dataclass(frozen=True)
class ButResult:
    """Matched antipodal pairs found by an exhaustive search.

    ids index into the searched object list (grid samples for the point
    mode). value is the descriptor of the first member; distance is the
    component-wise (max-norm) gap between the two descriptors.
    """

    mode: str
    object_count: int
    pairs: tuple
    exhaustive: bool = True

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "object_count": self.object_count,
            "exhaustive": self.exhaustive,
            "pairs": [
                {
                    "a": p.a,
                    "b": p.b,
                    "value": [float(v) for v in p.value],
                    "distance": p.distance,
                }
                for p in self.pairs
            ],
        }


def _window_pairs(x: np.ndarray, limit: float) -> np.ndarray:
    """(p, 2) index pairs (a, b), a < b, in canonical order: every pair with
    |x[a] - x[b]| <= limit and possibly a few more.

    Sort-and-sweep: in sorted order each value's partners follow it in one
    window. The window's end is widened past the rounding of x + limit and of
    the later subtraction, so no pair whose computed gap is at most limit is
    missed; callers apply the exact test.
    """
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    top = xs + limit
    top = top + 4.0 * np.finfo(float).eps * (np.abs(top) + limit)
    counts = np.searchsorted(xs, top, side="right") - np.arange(n) - 1
    first = np.repeat(np.arange(n), counts)
    offset = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pairs = np.sort(np.stack([order[first], order[first + 1 + offset]], axis=1), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def but_search(
    descriptor: FeatureMap,
    *,
    grid: SphereGrid | None = None,
    strings: list | None = None,
    sheets: list | None = None,
    tol: float | None = None,
) -> ButResult:
    """Find antipodal object pairs with matching descriptors, exhaustively.

    Exactly one object source must be given. For a sphere grid the
    antipodal pairs are the grid's own sample pairings; for strings,
    antipodality is a nonempty vertex-set symmetric difference; for
    worldsheets, some disjoint pair of member strings. A pair is kept when
    it is antipodal and its descriptor distance (max-norm) is at most tol
    (default: the descriptor's own tolerance). The result equals that of
    enumerating every pair; for strings and worldsheets the descriptor
    match is found first and the antipodality predicate runs only on the
    matched pairs. Pairs are reported in canonical (a, b) index order with
    a < b. One descriptor.rows call describes every object; for a grid the
    batch is the (m, n) sample table.
    """
    sources = [s for s in ((grid, "points"), (strings, "strings"), (sheets, "sheets")) if s[0] is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of grid, strings, or sheets is required")
    source, mode = sources[0]
    limit = descriptor.match_tolerance if tol is None else float(tol)
    if not 0 <= limit < np.inf:
        raise ValueError("tolerance must be finite and nonnegative")

    if mode == "points":
        objects = source.samples
    else:
        objects = list(source)
        members = objects if mode == "strings" else [s for w in objects for s in w.strings]
        if len({s.dimension for s in members}) > 1:
            raise ValueError("strings must share a dimension")

    values = descriptor.rows(objects)
    if mode == "points":
        candidates = source.antipodal_pairs()
    else:
        candidates = _window_pairs(values[:, 0], limit)
    gaps = np.max(np.abs(values[candidates[:, 0]] - values[candidates[:, 1]]), axis=1)
    close = gaps <= limit
    matched, gaps = candidates[close], gaps[close]
    if mode != "points":
        pred = strings_antipodal if mode == "strings" else worldsheets_antipodal
        antipodal = np.array([pred(objects[a], objects[b]) for a, b in matched], dtype=bool)
        matched, gaps = matched[antipodal], gaps[antipodal]
    pairs = tuple(
        ButPair(int(a), int(b), tuple(float(v) for v in values[a]), float(d))
        for (a, b), d in zip(matched, gaps)
    )
    return ButResult(mode, len(objects), pairs)


# ---------------------------------------------------------------------------
# fixed points on the unit ball
# ---------------------------------------------------------------------------


class BallRangeError(ValueError):
    """The map left the unit ball at a sampled point."""


class RefinementBudgetError(RuntimeError):
    """Grid refinement ended before reaching the target residual."""


@dataclass(frozen=True)
class BallCheck:
    """Closed ball membership test."""

    radius: float
    center: np.ndarray

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", as_point(self.center))

    @classmethod
    def unit(cls, dimension: int) -> "BallCheck":
        return cls(1.0, np.zeros(dimension))

    def contains(self, p, tol: float = 0.0) -> bool:
        return bool(np.linalg.norm(as_point(p) - self.center) <= self.radius + tol)


def fixed_point_search(
    f: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    tol: float = 1e-9,
    max_refinements: int = 32,
    grid_points: int = 101,
) -> np.ndarray:
    """Approximate fixed point of a self-map of the closed unit ball.

    Samples ||f(x) - x|| on a 101-points-per-axis grid over the ball's
    bounding box, then repeatedly recenters on the argmin and shrinks the
    box tenfold. When the argmin pins to a box edge that is strictly inside
    the ball's bounding box, the minimizer has escaped the box and the box
    is re-expanded toward it instead of shrunk (||f(x) - x|| is convex for
    affine maps, so an edge argmin is exactly that signal). Returns the
    first grid point with residual at most tol.

    f must act row-wise: it maps an (m, n) array of points to the finite
    (m, n) array of their images, once per round over the whole grid. The
    answer's image alone must agree with its grid row within POINT_TOL, or
    ValueError is raised: a map that mixes rows would fake a fixed point.

    Raises BallRangeError when f leaves the ball at any sampled point, and
    RefinementBudgetError when max_refinements rounds end above tol.
    """
    n = int(dimension)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")

    center = np.zeros(n)
    halfwidth = 1.0
    best_res = np.inf
    for _ in range(int(max_refinements) + 1):
        lo = np.maximum(center - halfwidth, -1.0)
        hi = np.minimum(center + halfwidth, 1.0)
        axes = [np.linspace(lo[k], hi[k], grid_points) for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        inside = np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12
        pts = pts[inside]
        out = value_table(f(pts), pts.shape, "fixed-point map")
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            worst = pts[int(np.argmax(norms))]
            raise BallRangeError(
                f"map leaves the unit ball at {np.array2string(worst, precision=6)}"
            )
        res = np.linalg.norm(out - pts, axis=1)
        k = int(np.argmin(res))
        best, best_res = pts[k], float(res[k])
        if best_res <= tol:
            alone = value_table(f(best[None]), (1, n), "fixed-point map")[0]
            if np.linalg.norm(alone - out[k]) > POINT_TOL:
                raise ValueError("fixed-point map is not row-wise: a point's image depends on the grid")
            return best
        spacing = np.max((hi - lo) / (grid_points - 1))
        pinned = np.any((best - lo <= spacing) & (lo > -1.0 + 1e-12)) or np.any(
            (hi - best <= spacing) & (hi < 1.0 - 1e-12)
        )
        center = best
        halfwidth = min(1.0, halfwidth * 4.0) if pinned else halfwidth / 10.0
    raise RefinementBudgetError(
        f"residual {best_res:.3e} above tol {tol:.3e} after {max_refinements} refinements"
    )


# ---------------------------------------------------------------------------
# wired-friend shape pipeline
# ---------------------------------------------------------------------------


class WiredFriendResult(NamedTuple):
    shape: np.ndarray
    description: np.ndarray
    ball_ok: bool


def string_shape_features(s: StringPath) -> np.ndarray:
    """Rigid-motion invariant silhouette of a string.

    Components: total arc length, endpoint chord length (0 for closed
    strings), vertex-set diameter, and total absolute turning angle in
    radians over interior vertices (all vertices for closed strings). The
    unit segment scores (1, 1, 1, 0). Every component depends only on
    pairwise distances and angles, so congruent strings score alike.
    """
    v = s.vertices
    segs = s.segments()
    edges = segs[:, 1, :] - segs[:, 0, :]
    lens = np.linalg.norm(edges, axis=1)
    arc = float(np.sum(lens))
    if arc <= POINT_TOL:
        raise ValueError("degenerate string: vertices coincide")
    chord = 0.0 if s.closed else float(np.linalg.norm(v[-1] - v[0]))
    # max pairwise vertex distance; attained at hull vertices, so exact for
    # the polyline as a set, and rigid-motion invariant unlike a box diagonal
    diff = v[:, None, :] - v[None, :, :]
    diag = float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))
    turning = 0.0
    e = len(edges)
    joints = range(e) if s.closed else range(1, e)
    for i in joints:
        a = edges[i - 1] / lens[i - 1]
        b = edges[i] / lens[i]
        turning += float(np.arccos(np.clip(a @ b, -1.0, 1.0)))
    return np.array([arc, chord, diag, turning])


def wired_friend_pipeline(s: StringPath) -> WiredFriendResult:
    """Describe a string and place the description inside the unit ball.

    The shape silhouette is renormalized by g(v) = v / (1 + ||v||), which
    lands strictly inside the unit ball for every finite silhouette; ball_ok
    records that check on the actual value.
    """
    shape = string_shape_features(s)
    g = shape / (1.0 + np.linalg.norm(shape))
    ball = BallCheck.unit(4)
    ball_ok = ball.contains(g) and bool(np.linalg.norm(g) < 1.0)
    return WiredFriendResult(shape, g, ball_ok)
