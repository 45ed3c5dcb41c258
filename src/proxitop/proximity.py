"""Descriptive and strong proximity relations with an axiom-checking harness.

A finite descriptive space is a universe of points plus a feature map Phi
sending each point to a k-vector. Descriptions are compared component-wise
within a match tolerance tau; tau = 0 is exact equality. On top of that sit
three relations between labeled regions:

* dnear      descriptive nearness, nonempty descriptive intersection
* sn         strong nearness, overlapping interiors (spatial, Phi-free)
* snd        descriptive strong nearness, descriptively overlapping interiors

Singleton arguments follow the singleton axioms: {x} is strongly near A iff
x lies in the interior of A, {x} and {y} are strongly near iff x = y, and the
descriptive versions replace point identity with description matching.
When a `universe` region is supplied, either argument whose point set equals
the whole universe is near everything nonempty; plain two-argument calls do
not apply that clause.

One kernel decides all three relations. It numbers a list of points, writes
subsets as int bit masks, and keeps two tables of bit rows: which points are
the same point (within POINT_TOL) and which descriptions match (within tau).
The public relations build it over the points of A followed by those of B;
check_axioms builds it once over a space's universe, whose points must be
distinct, and evaluates every draw on it.

check_axioms stress-tests the relations: it samples labeled subregions of a
space with a seeded generator and asserts every axiom of the requested
family, reporting violations with witnesses. Universal-premise axioms that
need exhaustive quantification (the descriptive transitivity and
point-equality axioms) are additionally verified over every subset pair or
triple when the universe has at most EXHAUSTIVE_LIMIT points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, wraps
from typing import Callable, Iterable

import numpy as np

from .geometry import (
    POINT_TOL,
    Region,
    as_points,
    corner_region_descriptor,
    lexsorted,
    point_close,
    same_point_set,
    value_table,
)

EXHAUSTIVE_LIMIT = 6

FAMILY_DESCRIPTIVE = "Lodato-descriptive"
FAMILY_STRONG = "strong"
FAMILY_DESCRIPTIVE_STRONG = "descriptive-strong"
FAMILIES = (FAMILY_DESCRIPTIVE, FAMILY_STRONG, FAMILY_DESCRIPTIVE_STRONG)

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "FAMILIES",
    "FAMILY_DESCRIPTIVE",
    "FAMILY_STRONG",
    "FAMILY_DESCRIPTIVE_STRONG",
    "FeatureMap",
    "pointwise",
    "DescriptiveSpace",
    "AxiomReport",
    "SpcReport",
    "feature_map_from_config",
    "describe_region",
    "descriptive_intersection",
    "dnear",
    "sn",
    "snd",
    "region_union",
    "map_region",
    "check_axioms",
    "spc_check",
    "sample_region_pairs",
    "random_space",
]


# ---------------------------------------------------------------------------
# feature maps and spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMap:
    """Feature map Phi: item -> R^arity with a component-wise match tolerance.

    The evaluator describes a whole batch at once: given k items it returns
    their (k, arity) table, which rows checks once (geometry.value_table).
    For a point map the batch is an (m, n) point table; for an object
    descriptor (borsuk) it is a list of strings, regions, sheets or bare
    points. Wrap a per-item callable with pointwise. An empty batch has an
    empty table and the evaluator is not called.
    """

    arity: int
    evaluator: Callable
    match_tolerance: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("feature arity must be at least 1")
        if not 0 <= self.match_tolerance < np.inf:
            raise ValueError("match tolerance must be finite and nonnegative")

    def __call__(self, x) -> np.ndarray:
        return self.rows([x])[0]

    def rows(self, items) -> np.ndarray:
        """Descriptions of the items, one row each: a (k, arity) array."""
        if len(items) == 0:
            return np.empty((0, self.arity))
        return value_table(self.evaluator(items), (len(items), self.arity), f"feature map {self.name!r}")


def pointwise(f: Callable) -> Callable:
    """Row-wise evaluator from a per-item callable: f applied to each item of a batch.

    A scalar value serves a width-1 row. This is the one place where a map
    is evaluated item by item.
    """

    @wraps(f)
    def rows(items):
        return [np.atleast_1d(f(x)) for x in items]

    return rows


def feature_map_from_config(config: dict, dim: int | None = None) -> FeatureMap:
    """Build a named feature map from a JSON-style config dict.

    Recognized names: "coords", "norm", "even-coords", "adjacency-count"
    (params width, height), "constant" (param value). "coords" and
    "even-coords" need the point dimension, either as a "dim" entry or via
    the dim argument. Optional "tolerance" sets the match tolerance.
    """
    cfg = dict(config)
    name = cfg.pop("name", None)
    tol = float(cfg.pop("tolerance", 0.0))
    if name in ("coords", "even-coords"):
        d = int(cfg.pop("dim", dim or 0))
        if d < 1:
            raise ValueError(f"{name} feature map needs a dimension")
        fm = FeatureMap(d, (lambda P: P) if name == "coords" else np.abs, tol, name)
    elif name == "norm":
        fm = FeatureMap(1, lambda P: np.linalg.norm(P, axis=1)[:, None], tol, "norm")
    elif name == "adjacency-count":
        w, h = int(cfg.pop("width")), int(cfg.pop("height"))
        if w < 1 or h < 1:
            raise ValueError("adjacency-count needs positive grid dimensions")
        fm = FeatureMap(1, pointwise(partial(corner_region_descriptor, w, h)), tol, "adjacency-count")
    elif name == "constant":
        value = np.atleast_1d(np.asarray(cfg.pop("value"), dtype=float))
        fm = FeatureMap(value.size, lambda P, v=value: np.tile(v, (len(P), 1)), tol, "constant")
    else:
        raise ValueError(f"unknown feature map name: {name!r}")
    cfg.pop("dim", None)
    if cfg:
        raise ValueError(f"unrecognized feature map parameters: {sorted(cfg)}")
    return fm


@dataclass(frozen=True)
class DescriptiveSpace:
    """Finite universe of distinct points with a feature map.

    Two universe points within POINT_TOL of each other are an error: the
    axiom harness gives every universe row its own bit, and a repeated
    point would let two different masks name one point set.
    """

    universe: np.ndarray
    features: FeatureMap

    def __post_init__(self):
        u = as_points(self.universe)
        dup = np.argwhere(np.triu(point_close(u, u), 1))
        if dup.size:
            i, j = dup[0]
            raise ValueError(
                f"universe rows {i} and {j} are the same point (within {POINT_TOL:g})"
            )
        object.__setattr__(self, "universe", u)

    @property
    def size(self) -> int:
        return self.universe.shape[0]

    @property
    def dimension(self) -> int:
        return self.universe.shape[1]

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        return self.features.rows(self.universe)

    @cached_property
    def match_matrix(self) -> np.ndarray:
        """Boolean (m, m) matrix of description matches within tolerance."""
        F = self.feature_matrix
        return _description_close(F, F, self.features.match_tolerance)

    def region(self, indices, interior=None) -> Region:
        """Region on universe points; ``interior`` lists the interior indices.

        ``interior=None`` marks every selected point interior. Interior
        indices must be a subset of ``indices``.
        """
        idx = np.asarray(indices, dtype=int)
        if interior is None:
            mask = np.full(idx.size, True)
        else:
            want = set(int(i) for i in np.asarray(interior, dtype=int).ravel())
            leftover = want - set(int(i) for i in idx)
            if leftover:
                raise ValueError(f"interior indices {sorted(leftover)} are not in the region")
            mask = np.array([int(i) in want for i in idx])
        return Region(self.universe[idx], mask)


# ---------------------------------------------------------------------------
# relation kernel
# ---------------------------------------------------------------------------


def _description_close(F: np.ndarray, G: np.ndarray, tol: float) -> np.ndarray:
    """Boolean (len(F), len(G)) table: descriptions match component-wise within tol."""
    return np.max(np.abs(F[:, None, :] - G[None, :, :]), axis=2) <= tol


def _merge(close: np.ndarray) -> tuple:
    """Greedy first-representative merge over a boolean "close" table.

    Rows are visited in order. A row joins the group of the first
    representative it is close to, or else becomes the representative of a
    new group. Returns (representative row indices, group of every row),
    groups numbered in the order their representatives appear.
    """
    reps: list[int] = []
    group = np.empty(close.shape[0], dtype=int)
    for i, row in enumerate(close):
        hit = np.flatnonzero(row[reps])
        if hit.size:
            group[i] = hit[0]
        else:
            group[i] = len(reps)
            reps.append(i)
    return np.array(reps, dtype=int), group


def _bits(flags) -> int:
    """The int whose bit i is set iff flags[i] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _meets(rows: list, A: int, B: int) -> bool:
    """Some x in A has a row that meets B (rows must be reflexive)."""
    if A & B:
        return True
    while A:
        low = A & -A
        if rows[low.bit_length() - 1] & B:
            return True
        A ^= low
    return False


class _MaskEngine:
    """The one relation kernel: dnear, sn and snd over subsets of a point list.

    Subsets are ints; bit x is point x. Labeled regions are (mask,
    interior_mask) pairs. same_rows[x] holds the points within POINT_TOL of
    x and match_rows[x] the points whose descriptions match that of x; both
    relations are reflexive and symmetric, which the relations below rely
    on. The empty set is far from everything, and the full mask (the whole
    space) is near every nonempty region.
    """

    def __init__(self, points, match: np.ndarray | None = None):
        # a DescriptiveSpace stands for its universe and match table; a bare
        # point list may repeat points, and without a match table only sn works
        if isinstance(points, DescriptiveSpace):
            points, match = points.universe, points.match_matrix
        self.points = points
        self.m = len(points)
        self.full = (1 << self.m) - 1
        self.match_rows = None if match is None else [_bits(r) for r in match]

    @cached_property
    def same_rows(self) -> list:
        # only sn reads point identity, so the rows are built on first use
        return [_bits(r) for r in point_close(self.points, self.points)]

    def dnear(self, A: int, B: int) -> bool:
        return _meets(self.match_rows, A, B)

    def sn(self, A: int, iA: int, B: int, iB: int) -> bool:
        return self._strong(self.same_rows, A, iA, B, iB)

    def snd(self, A: int, iA: int, B: int, iB: int) -> bool:
        return self._strong(self.match_rows, A, iA, B, iB)

    def _strong(self, rows: list, A: int, iA: int, B: int, iB: int) -> bool:
        # rows is point identity for sn and description matching for snd
        if A == 0 or B == 0:
            return False
        if A == self.full or B == self.full:
            return True
        if A & (A - 1) == 0:
            # {x} against the interior of B, or against B itself when B is
            # a singleton too
            return bool(rows[A.bit_length() - 1] & (B if B & (B - 1) == 0 else iB))
        if B & (B - 1) == 0:
            return bool(rows[B.bit_length() - 1] & iA)
        return _meets(rows, iA, iB)

    def match(self, x: int, y: int) -> bool:
        return bool(self.match_rows[x] & (1 << y))

    def region(self, mask: int, imask: int) -> Region | None:
        if mask == 0:
            return None
        idx = [i for i in range(self.m) if mask & (1 << i)]
        flags = [bool(imask & (1 << i)) for i in idx]
        return Region(self.points[idx], np.array(flags, dtype=bool))


def _pair(a: Region, b: Region, features: FeatureMap | None = None) -> tuple:
    """Kernel over the points of A followed by those of B.

    Returns (engine, A, iA, B, iB) with both regions as bit masks.
    """
    if a.dimension != b.dimension:
        raise ValueError("regions must share a dimension")
    pts = np.concatenate([a.points, b.points])
    match = None
    if features is not None:
        F = features.rows(pts)
        match = _description_close(F, F, features.match_tolerance)
    eng = _MaskEngine(pts, match)
    A = (1 << a.size) - 1
    interior = _bits(np.concatenate([a.interior, b.interior]))
    return eng, A, interior & A, eng.full ^ A, interior & ~A


def _whole_space(r: Region, universe: Region | None) -> bool:
    """The universe clause: r and the universe cover each other within POINT_TOL."""
    return universe is not None and same_point_set(r.points, universe.points)


# ---------------------------------------------------------------------------
# core relations
# ---------------------------------------------------------------------------


def describe_region(region: Region, features: FeatureMap) -> np.ndarray:
    """The description set Phi(A): feature vectors of the region's points.

    Duplicates within the match tolerance are removed (greedy, in canonical
    lexicographic order) so the result is a set, deterministically ordered.
    """
    rows = lexsorted(features.rows(region.points))
    keep, _ = _merge(_description_close(rows, rows, features.match_tolerance))
    return rows[keep]


def descriptive_intersection(a: Region, b: Region, features: FeatureMap) -> np.ndarray:
    """Points of A union B whose description matches both Phi(A) and Phi(B).

    Matching is against the raw images (every point's description, before
    dedup), component-wise within the match tolerance. The result is in
    canonical lexicographic order; tau = 0 gives the exact textbook set.
    """
    eng, A, _, B, _ = _pair(a, b, features)
    hits = [x for x in range(eng.m) if eng.match_rows[x] & A and eng.match_rows[x] & B]
    if not hits:
        return np.empty((0, a.dimension))
    pts = eng.points[hits]
    keep, _ = _merge(point_close(pts, pts))
    return lexsorted(pts[keep])


def dnear(a: Region, b: Region, features: FeatureMap) -> bool:
    """Descriptive nearness: the descriptive intersection is nonempty.

    Equivalently, some a in A and b in B have matching descriptions.
    """
    eng, A, _, B, _ = _pair(a, b, features)
    return eng.dnear(A, B)


def sn(a: Region, b: Region, universe: Region | None = None) -> bool:
    """Strong nearness.

    Non-singleton regions are strongly near iff their interiors share a
    point (within 1e-9). A singleton {x} is strongly near B iff x lies in
    the interior of B; two singletons iff they are the same point. With a
    `universe` argument, a side whose point set is the whole universe is
    strongly near every nonempty region; the whole space is open, so this
    outranks the singleton conventions.
    """
    if _whole_space(a, universe) or _whole_space(b, universe):
        return True
    eng, A, iA, B, iB = _pair(a, b)
    return eng.sn(A, iA, B, iB)


def snd(
    a: Region,
    b: Region,
    features: FeatureMap,
    universe: Region | None = None,
) -> bool:
    """Descriptive strong nearness.

    Non-singleton regions qualify iff the descriptive intersection of their
    interiors is nonempty. A singleton {x} qualifies against B iff the
    description of x matches some interior description of B; two singletons
    iff their descriptions match. The optional universe clause works as in
    sn.
    """
    if _whole_space(a, universe) or _whole_space(b, universe):
        return True
    eng, A, iA, B, iB = _pair(a, b, features)
    return eng.snd(A, iA, B, iB)


def _merged_region(points: np.ndarray, flags: np.ndarray, combine) -> Region:
    """Points merged within POINT_TOL, each group's interior flags folded by combine."""
    keep, group = _merge(point_close(points, points))
    interior = np.full(keep.size, combine.identity, dtype=bool)
    combine.at(interior, group, flags)
    pts = points[keep]
    order = np.lexsort(pts.T[::-1])
    return Region(pts[order], interior[order])


def region_union(a: Region, b: Region) -> Region:
    """Union of labeled regions; a merged point is interior if either copy is."""
    if a.dimension != b.dimension:
        raise ValueError("regions must share a dimension")
    pts = np.concatenate([a.points, b.points])
    flags = np.concatenate([a.interior, b.interior])
    return _merged_region(pts, flags, np.logical_or)


def map_region(f: Callable[[np.ndarray], np.ndarray], region: Region) -> Region:
    """Image of a labeled region under a row-wise point map.

    f maps the region's (m, n) point table to the (m, n) table of images in
    one call (wrap a per-point map with pointwise); the images are checked
    with geometry.value_table. Image points are merged within 1e-9; a
    merged image point is interior only if every preimage in the region is
    interior (conservative rule, so a map can genuinely destroy interior
    overlap).
    """
    name = getattr(f, "__name__", type(f).__name__)
    images = value_table(f(region.points), region.points.shape, f"region map {name!r}")
    return _merged_region(images, region.interior, np.logical_and)


# ---------------------------------------------------------------------------
# axiom harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Result of an axiom-family check: zero violations means all passed."""

    family: str
    trials: int
    violations: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "trials": self.trials,
            "passed": self.passed,
            "violations": [dict(v) for v in self.violations],
        }


def _witness(engine: _MaskEngine, **masks) -> dict:
    out = {}
    for k, v in masks.items():
        if isinstance(v, tuple):
            mask, imask = v
            out[k] = {
                "points": [i for i in range(engine.m) if mask & (1 << i)],
                "interior": [i for i in range(engine.m) if imask & (1 << i)],
            }
        else:
            out[k] = int(v)
    return out


def _relation_adapter(engine: _MaskEngine, relation, family: str):
    """Wrap an injected Region-level relation (None stands for the empty set)."""
    cache: dict = {}

    def reg(mask, imask):
        key = (mask, imask)
        if key not in cache:
            cache[key] = engine.region(mask, imask)
        return cache[key]

    if family == FAMILY_DESCRIPTIVE:
        return lambda A, B: bool(relation(reg(A, A), reg(B, B)))
    return lambda A, iA, B, iB: bool(relation(reg(A, iA), reg(B, iB)))


def _sample_labeled(rng, m: int):
    mask = 0
    imask = 0
    for i in range(m):
        if rng.random() < 0.55:
            mask |= 1 << i
            if rng.random() < 0.6:
                imask |= 1 << i
    return mask, imask


def check_axioms(
    space: DescriptiveSpace,
    family: str,
    trials: int = 1000,
    seed: int = 0,
    relation=None,
) -> AxiomReport:
    """Assert every axiom of a family against the implemented relations.

    Runs `trials` seeded random draws of labeled subregions (including empty
    and singleton cases) and asserts each axiom on them; for the
    Lodato-descriptive family on universes of at most EXHAUSTIVE_LIMIT
    points, the union, transitivity, and point-equality axioms are also
    verified exhaustively over all subset pairs and triples. Violations are
    reported in draw order with witnesses.

    `relation` optionally replaces the implemented relation of the family
    (for deliberately broken variants); it receives Region arguments, or
    None for the empty set, and is evaluated on a slower path.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown axiom family: {family!r}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    eng = _MaskEngine(space)
    m = eng.m
    rng = np.random.default_rng(seed)
    bad: list[dict] = []

    def flag(axiom, trial, **masks):
        w = _witness(eng, **masks)
        w.update(axiom=axiom, trial=trial)
        bad.append(w)

    if family == FAMILY_DESCRIPTIVE:
        near = eng.dnear if relation is None else _relation_adapter(eng, relation, family)
        for t in range(trials):
            A, _ = _sample_labeled(rng, m)
            B, _ = _sample_labeled(rng, m)
            C, _ = _sample_labeled(rng, m)
            x = int(rng.integers(m))
            y = int(rng.integers(m))
            if near(0, A) or near(A, 0):
                flag("dP0", t, a=(A, 0))
            if near(A, B) != near(B, A):
                flag("dP1", t, a=(A, A), b=(B, B))
            if eng.dnear(A, B) and not near(A, B):
                flag("dP2", t, a=(A, A), b=(B, B))
            if near(A, B | C) != (near(A, B) or near(A, C)):
                flag("dP3", t, a=(A, A), b=(B, B), c=(C, C))
            if near(A, B) and B and all(
                near(1 << b, C) for b in range(m) if B & (1 << b)
            ):
                if not near(A, C):
                    flag("dP4", t, a=(A, A), b=(B, B), c=(C, C))
            if near(1 << x, 1 << y) and not eng.match(x, y):
                flag("dP5", t, x=x, y=y)
        if m <= EXHAUSTIVE_LIMIT and trials > 0:
            _exhaustive_descriptive(eng, near, bad)
    elif family == FAMILY_STRONG:
        rel = eng.sn if relation is None else _relation_adapter(eng, relation, family)
        _strong_family_trials(eng, rel, rng, trials, flag, descriptive=False)
    else:
        rel = eng.snd if relation is None else _relation_adapter(eng, relation, family)
        _strong_family_trials(eng, rel, rng, trials, flag, descriptive=True)

    return AxiomReport(family, trials, tuple(bad))


def _exhaustive_descriptive(eng: _MaskEngine, near, bad: list):
    m, S = eng.m, 1 << eng.m
    dn = [[near(A, B) for B in range(S)] for A in range(S)]
    # dP3 over all triples
    for A in range(S):
        dnA = dn[A]
        for B in range(S):
            dAB = dnA[B]
            for C in range(S):
                if dnA[B | C] != (dAB or dnA[C]):
                    bad.append(
                        dict(axiom="dP3", trial=None, phase="exhaustive", a=A, b=B, c=C)
                    )
                    return
    # dP4: A dnear B and every {b} dnear C force A dnear C
    for C in range(1, S):
        ok = 0
        for b in range(m):
            if dn[1 << b][C]:
                ok |= 1 << b
        for B in range(1, S):
            if B & ~ok:
                continue
            for A in range(1, S):
                if dn[A][B] and not dn[A][C]:
                    bad.append(
                        dict(axiom="dP4", trial=None, phase="exhaustive", a=A, b=B, c=C)
                    )
                    return
    # dP5 over all point pairs
    for x in range(m):
        for y in range(m):
            if dn[1 << x][1 << y] and not eng.match(x, y):
                bad.append(
                    dict(axiom="dP5", trial=None, phase="exhaustive", x=x, y=y)
                )
                return


def _strong_family_trials(eng, rel, rng, trials, flag, descriptive: bool):
    """Shared trial loop for the strong and descriptive-strong families.

    Axiom ids are snN* or dsnP* depending on the flavor; the descriptive
    flavor swaps point identity for description matching in the singleton
    axioms and has no counterpart of the union axiom beyond the shared one.
    """
    m = eng.m
    full = eng.full
    names = (
        {"n0": "dsnP0", "n1": "dsnP1", "n2": "dsnP2", "n3": None,
         "n4": "dsnP4", "n5": "dsnP5", "n6": "dsnP6"}
        if descriptive
        else {"n0": "snN0", "n1": "snN1", "n2": "snN2", "n3": "snN3",
              "n4": "snN4", "n5": "snN5", "n6": "snN6"}
    )
    for t in range(trials):
        A, iA = _sample_labeled(rng, m)
        B, iB = _sample_labeled(rng, m)
        x = int(rng.integers(m))
        y = int(rng.integers(m))
        # n0: the empty set is far from everything; the whole space is near
        # every nonempty region
        if rel(0, 0, A, iA) or rel(A, iA, 0, 0):
            flag(names["n0"], t, a=(A, iA))
        if A and not rel(full, full, A, iA):
            flag(names["n0"], t, a=(A, iA))
        if rel(A, iA, B, iB) != rel(B, iB, A, iA):
            flag(names["n1"], t, a=(A, iA), b=(B, iB))
        if descriptive:
            if rel(A, iA, B, iB) and not eng.dnear(A, B):
                flag(names["n2"], t, a=(A, iA), b=(B, iB))
        else:
            if rel(A, iA, B, iB) and not (A & B):
                flag(names["n2"], t, a=(A, iA), b=(B, iB))
        if not descriptive:
            # n3: nearness to one member with nonempty interior extends to
            # the union of the family
            k = int(rng.integers(2, 4))
            fam = [_sample_labeled(rng, m) for _ in range(k)]
            UB = 0
            UiB = 0
            for Bm, iBm in fam:
                UB |= Bm
                UiB |= iBm
            hit = any(iBm and rel(A, iA, Bm, iBm) for Bm, iBm in fam)
            if hit and not rel(A, iA, UB, UiB):
                flag(names["n3"], t, a=(A, iA), union=(UB, UiB))
        if descriptive:
            if eng.dnear(iA, iB) and not rel(A, iA, B, iB):
                flag(names["n4"], t, a=(A, iA), b=(B, iB))
        else:
            if (iA & iB) and not rel(A, iA, B, iB):
                flag(names["n4"], t, a=(A, iA), b=(B, iB))
        if descriptive:
            if A and (eng.match_rows[x] & iA) and not rel(1 << x, 1 << x, A, iA):
                flag(names["n5"], t, x=x, a=(A, iA))
        else:
            if (iA & (1 << x)) and not rel(1 << x, 1 << x, A, iA):
                flag(names["n5"], t, x=x, a=(A, iA))
        got = rel(1 << x, 1 << x, 1 << y, 1 << y)
        want = eng.match(x, y) if descriptive else (x == y)
        if got != want:
            flag(names["n6"], t, x=x, y=y)


# ---------------------------------------------------------------------------
# strong proximal continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpcReport:
    """Continuity check result: counterexamples are near pairs whose images are not."""

    mode: str
    pairs_checked: int
    near_pairs: int
    counterexamples: tuple = ()

    @property
    def preserved(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "near_pairs": self.near_pairs,
            "counterexamples": [dict(c) for c in self.counterexamples],
        }


def _region_payload(r: Region) -> dict:
    return {
        "points": [list(map(float, p)) for p in r.points],
        "interior": [bool(f) for f in r.interior],
    }


def spc_check(
    space: DescriptiveSpace,
    f: Callable[[np.ndarray], np.ndarray],
    pairs: Iterable[tuple],
    mode: str = "strong",
) -> SpcReport:
    """Check that a row-wise point map preserves nearness on the given region pairs.

    f takes an (m, n) point table to its (m, n) image table, as in
    map_region, which checks the images. mode selects the relation:
    "strong" (sn), "descriptive" (dnear), or "descriptive-strong" (snd).
    For every pair (A, B) that is near, the image pair (f(A), f(B)) must be
    near as well; failures are reported as counterexamples with both the
    source and image regions.
    """
    modes = {
        "strong": lambda a, b: sn(a, b),
        "descriptive": lambda a, b: dnear(a, b, space.features),
        "descriptive-strong": lambda a, b: snd(a, b, space.features),
    }
    if mode not in modes:
        raise ValueError(f"unknown continuity mode: {mode!r}")
    near = modes[mode]
    checked = 0
    hits = 0
    cexs: list[dict] = []
    for a, b in pairs:
        checked += 1
        if not near(a, b):
            continue
        hits += 1
        fa, fb = map_region(f, a), map_region(f, b)
        if not near(fa, fb):
            cexs.append(
                {
                    "source_a": _region_payload(a),
                    "source_b": _region_payload(b),
                    "image_a": _region_payload(fa),
                    "image_b": _region_payload(fb),
                }
            )
    return SpcReport(mode, checked, hits, tuple(cexs))


def sample_region_pairs(
    space: DescriptiveSpace, count: int, seed: int = 0
) -> list[tuple]:
    """Seeded nonempty labeled region pairs from a space, for checks and demos."""
    rng = np.random.default_rng(seed)
    m = space.size
    out = []
    while len(out) < count:
        A, iA = _sample_labeled(rng, m)
        B, iB = _sample_labeled(rng, m)
        if A == 0 or B == 0:
            continue
        idx_a = [i for i in range(m) if A & (1 << i)]
        idx_b = [i for i in range(m) if B & (1 << i)]
        out.append(
            (
                space.region(idx_a, [i for i in idx_a if iA & (1 << i)]),
                space.region(idx_b, [i for i in idx_b if iB & (1 << i)]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# space generator
# ---------------------------------------------------------------------------


def random_space(seed: int, size: int | None = None, kind: str | None = None) -> DescriptiveSpace:
    """Seeded random finite space for harness runs and demos.

    Universe points are distinct 2D grid points. Feature values are either
    exact-tolerance maps (tau = 0) or lattice-valued features with spacing
    comfortably above 2*tau, so description matching is an equivalence
    relation and the proximity axioms are satisfiable. kind picks the
    feature flavor ("coords", "norm", "even-coords", "constant", "lattice");
    default is a seeded choice.
    """
    rng = np.random.default_rng(seed)
    m = int(size) if size is not None else int(rng.integers(4, 13))
    cells = rng.choice(36, size=m, replace=False)
    pts = np.stack([cells // 6, cells % 6], axis=1).astype(float) * 0.5
    kinds = ("coords", "norm", "even-coords", "constant", "lattice", "lattice")
    k = kind if kind is not None else kinds[int(rng.integers(len(kinds)))]
    if k == "lattice":
        arity = int(rng.integers(1, 4))
        values = rng.integers(0, 4, size=(m, arity)).astype(float)
        tol = float(rng.choice([0.0, 0.25]))
        keys = np.round(pts, 9)

        def look(P):
            # universe row i is described by values[i]; any other point is refused
            P = np.round(np.asarray(P, dtype=float), 9)
            hit = np.all(P[:, None, :] == keys, axis=2) if P.shape[1] == 2 else np.zeros((len(P), 1), bool)
            if not hit.any(axis=1).all():
                raise ValueError("point outside the space's universe")
            return values[np.argmax(hit, axis=1)]

        fm = FeatureMap(arity, look, tol, "lattice")
    elif k == "constant":
        fm = feature_map_from_config({"name": "constant", "value": [1.0, 2.0]})
    else:
        fm = feature_map_from_config({"name": k, "dim": 2})
    return DescriptiveSpace(pts, fm)
