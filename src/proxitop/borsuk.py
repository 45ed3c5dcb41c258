"""Antipodal descriptor search, grid fixed-point search, shape pipeline.

Desk-scale verification engines for antipodality statements:

* but_search pairs antipodal objects (grid samples, strings, or worldsheets)
  whose descriptor values match within a tolerance, by exhaustive pair
  enumeration.
* fixed_point_search locates a fixed point of a self-map of the unit ball
  by iterative grid refinement.
* wired_friend_pipeline compresses a string into a 4-feature silhouette and
  renormalizes it into the open unit ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import json

import numpy as np

from .geometry import (
    POINT_TOL,
    Region,
    SphereGrid,
    StringPath,
    Worldsheet,
    as_point,
    as_points,
    strings_antipodal,
    worldsheets_antipodal,
)
from .proximity import FeatureMap

__all__ = [
    "RegionDescriptor",
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


@dataclass(frozen=True)
class RegionDescriptor:
    """Descriptor f: object -> R^arity with a component-wise match tolerance.

    Objects may be bare points, strings, regions, or worldsheets depending
    on the reducer. Reducers must not depend on vertex order beyond the
    string structure itself (permutation invariance over unordered inputs).
    """

    arity: int
    reducer: Callable[[Any], np.ndarray]
    match_tolerance: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("descriptor arity must be at least 1")
        if self.match_tolerance < 0:
            raise ValueError("match tolerance must be nonnegative")

    def __call__(self, obj) -> np.ndarray:
        v = np.atleast_1d(np.asarray(self.reducer(obj), dtype=float))
        if v.shape != (self.arity,):
            raise ValueError(
                f"descriptor {self.name!r} returned shape {v.shape}, expected ({self.arity},)"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError(f"descriptor {self.name!r} returned non-finite values")
        return v


def _object_points(obj) -> np.ndarray:
    if isinstance(obj, StringPath):
        return obj.vertices
    if isinstance(obj, Region):
        return obj.points
    if isinstance(obj, Worldsheet):
        return obj.sheet.points
    return as_points(obj)


def feature_descriptor(
    features: FeatureMap, reduce: str = "mean", match_tolerance: float | None = None
) -> RegionDescriptor:
    """Lift a point feature map to whole objects.

    A bare point is described directly. A string, region, or worldsheet is
    described by reducing the feature values of its points: "mean" averages
    them (arity k), "minmax" concatenates the feature-wise minimum and
    maximum (arity 2k). Both reductions ignore point order.
    """
    tol = features.match_tolerance if match_tolerance is None else float(match_tolerance)
    if reduce == "mean":

        def red(obj):
            pts = np.atleast_2d(_object_points(obj))
            if pts.shape[0] == 1:
                return features(pts[0])
            return np.mean(features.rows(pts), axis=0)

        return RegionDescriptor(features.arity, red, tol, f"mean-{features.name}")
    if reduce == "minmax":

        def red(obj):
            pts = np.atleast_2d(_object_points(obj))
            rows = features.rows(pts)
            return np.concatenate([rows.min(axis=0), rows.max(axis=0)])

        return RegionDescriptor(2 * features.arity, red, tol, f"minmax-{features.name}")
    raise ValueError(f"unknown reduction: {reduce!r}")


def shape_descriptor(match_tolerance: float = 0.0) -> RegionDescriptor:
    """The 4-feature string silhouette as a descriptor (strings only)."""
    return RegionDescriptor(4, string_shape_features, match_tolerance, "shape")


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def but_search(
    descriptor: RegionDescriptor,
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
    worldsheets, some disjoint pair of member strings. Every candidate pair
    is enumerated and kept when the descriptor distance (max-norm) is at
    most tol (default: the descriptor's own tolerance). Pairs are reported
    in canonical (a, b) index order with a < b.
    """
    sources = [s for s in ((grid, "points"), (strings, "strings"), (sheets, "sheets")) if s[0] is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of grid, strings, or sheets is required")
    source, mode = sources[0]
    limit = descriptor.match_tolerance if tol is None else float(tol)
    if limit < 0:
        raise ValueError("tolerance must be nonnegative")

    if mode == "points":
        objects = [source.samples[i] for i in range(source.size)]
        candidates = [tuple(p) for p in source.antipodal_pairs()]
    else:
        objects = list(source)
        pred = strings_antipodal if mode == "strings" else worldsheets_antipodal
        candidates = [
            (i, j)
            for i in range(len(objects))
            for j in range(i + 1, len(objects))
            if pred(objects[i], objects[j])
        ]

    values = [descriptor(o) for o in objects]
    pairs = []
    for i, j in candidates:
        dist = float(np.max(np.abs(values[i] - values[j])))
        if dist <= limit:
            pairs.append(ButPair(int(i), int(j), tuple(float(v) for v in values[i]), dist))
    return ButResult(mode, len(objects), tuple(pairs))


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


def _batch_eval(f, pts: np.ndarray) -> np.ndarray:
    """Evaluate f on (m, n) points, using a batched call when f supports it."""
    try:
        out = np.asarray(f(pts), dtype=float)
        if out.shape == pts.shape and np.all(np.isfinite(out)):
            return out
    except Exception:
        pass
    return np.array([as_point(f(p)) for p in pts])


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

    Raises BallRangeError when f leaves the ball at any sampled point, and
    RefinementBudgetError when max_refinements rounds end above tol.
    """
    n = int(dimension)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
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
        out = _batch_eval(f, pts)
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
            return best
        spacing = np.max((hi - lo) / (grid_points - 1))
        pinned = False
        for ax in range(n):
            if best[ax] - lo[ax] <= spacing and lo[ax] > -1.0 + 1e-12:
                pinned = True
            if hi[ax] - best[ax] <= spacing and hi[ax] < 1.0 - 1e-12:
                pinned = True
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
