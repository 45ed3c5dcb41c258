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

One kernel decides all three relations. It numbers a list of points,
writes a subset as a bool row with one column per point, and keeps two
tables: which points are the same point (within POINT_TOL) and which
descriptions match (within tau). A relation is a matrix product of rows
and a table, evaluated for a whole table of rows at once. sn and snd are
one method over these sameness tables: point identity for sn, description
matching for snd. The public relations build the kernel over the points of
A followed by those of B and ask it one row; check_axioms builds it once
over a space's universe, whose points must be distinct.

check_axioms stress-tests the relations: it samples labeled subregions of a
space with a seeded generator and asserts every axiom of the requested
family, reporting violations with witnesses. Trials run in windows: a
window's draws are decoded from the seed's PCG64 raw stream into bool
tables, one row per region, identical to Generator.random and
Generator.integers, so reports depend only on that stream; every axiom is
then a numpy reduction over the window's tables. Like the kernel, the
strong and descriptive-strong families share one set of checks over the
family's sameness table; on a universe the point-identity table is the
identity, so each strong axiom reads as its textbook form. Universal-premise
axioms that need exhaustive quantification (the descriptive transitivity and
point-equality axioms) are additionally verified over every subset pair or
triple when the universe has at most EXHAUSTIVE_LIMIT points.
"""

from __future__ import annotations

import numbers
import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, wraps
from typing import Callable, Iterable

import numpy as np

from .geometry import (
    POINT_TOL,
    Region,
    _count,
    _grid_sides,
    _integer,
    as_points,
    corner_region_descriptor,
    lexsorted,
    point_close,
    same_point_set,
    value_table,
)

EXHAUSTIVE_LIMIT = 6
WINDOW = 128  # axiom trials decoded and checked at a time
BLOCK = 4096  # fewest PCG64 raw outputs read at a time

# the double (raw >> 11) * 2**-53 of a raw output is below 0.55 iff raw < _IN
# (2**53 * 0.55 is an integer, as 0.55 lies in [0.5, 1)), below 0.6 iff raw < _INTERIOR
_IN = int(0.55 * 2**53) << 11
_INTERIOR = int(0.6 * 2**53) << 11

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
    the dim argument. Optional "tolerance" sets the match tolerance. dim,
    width and height must be integers, the tolerance a number, and value a
    finite number or a nonempty flat list of them (bools are refused); a
    missing or bad parameter is named.
    """
    cfg = dict(config)
    name = cfg.pop("name", None)

    def need(key):
        if key not in cfg:
            raise ValueError(f"{name} feature map needs parameter {key!r}")
        return cfg.pop(key)

    tol = cfg.pop("tolerance", 0.0)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ValueError(f"tolerance must be a number, not {tol!r}")
    tol = float(tol)
    d = _integer(cfg.pop("dim", dim or 0), "dim")
    if name in ("coords", "even-coords"):
        if d < 1:
            raise ValueError(f"{name} feature map needs a dimension")
        fm = FeatureMap(d, (lambda P: P) if name == "coords" else np.abs, tol, name)
    elif name == "norm":
        fm = FeatureMap(1, lambda P: np.linalg.norm(P, axis=1)[:, None], tol, "norm")
    elif name == "adjacency-count":
        w, h = _grid_sides(need("width"), need("height"))
        fm = FeatureMap(1, pointwise(partial(corner_region_descriptor, w, h)), tol, "adjacency-count")
    elif name == "constant":
        raw = need("value")
        items = raw if isinstance(raw, (list, tuple)) else [raw]
        if not items or not all(map(_finite_real, items)):
            raise ValueError(
                "constant feature map parameter 'value' must be a finite number"
                f" or a nonempty flat list of them, not {raw!r}"
            )
        value = np.array(items, dtype=float)
        fm = FeatureMap(value.size, lambda P, v=value: np.tile(v, (len(P), 1)), tol, "constant")
    else:
        raise ValueError(f"unknown feature map name: {name!r}")
    if cfg:
        raise ValueError(f"unrecognized feature map parameters: {sorted(cfg)}")
    return fm


@dataclass(frozen=True)
class DescriptiveSpace:
    """Finite universe of distinct points with a feature map.

    Two universe points within POINT_TOL of each other are an error: the
    axiom harness gives every universe row its own column, and a repeated
    point would let two different rows name one point set.
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
    return np.abs(F[:, None, :] - G[None, :, :]).max(axis=2) <= tol


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


def _overlap(table: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row by row: some x in X and y in Y have table[x, y] (rows broadcast).

    table is 0/1 float32; the products X @ table @ Y count at most m * m
    ones, exact in float32.
    """
    XT, Y = X.astype(np.float32) @ table, Y.astype(np.float32)
    if XT.ndim == 2 and Y.ndim == 3 and Y.shape[1] == 1:
        # a table of query rows against every row of a block: one product
        return Y[:, 0] @ XT.T > 0
    return np.einsum("...j,...j->...", XT, Y) > 0


class _MaskEngine:
    """The one relation kernel: dnear, sn and snd over labeled subsets of a point list.

    A subset is a bool row with one column per point, a labeled region a
    (row, interior row) pair. A relation takes tables of rows of any shapes
    that broadcast and answers row by row, False where `where` is False: a
    public call is a block of one, check_axioms a window of trials. same[x]
    holds the points within POINT_TOL of x and match[x] those whose
    descriptions match that of x; both are reflexive and symmetric, which
    the relations rely on. The empty set is far from everything, and the
    full row (the whole space) is near every nonempty region.
    """

    def __init__(self, points, match: np.ndarray | None = None):
        # a DescriptiveSpace stands for its universe and match table; a bare
        # point list may repeat points, and without a match table only sn works
        if isinstance(points, DescriptiveSpace):
            points, match = points.universe, points.match_matrix
        self.points = points
        self.m = len(points)
        self.match = None if match is None else match.astype(np.float32)

    @cached_property
    def same(self) -> np.ndarray:
        # only sn reads point identity, so the table is built on first use
        return point_close(self.points, self.points).astype(np.float32)

    @cached_property
    def eye(self) -> np.ndarray:  # row x is the singleton {x}
        return np.eye(self.m, dtype=bool)

    def dnear(self, A, B, where=True):
        return _overlap(self.match, A, B) & where

    def sn(self, A, iA, B, iB, where=True):
        return self._strong(self.same, A, iA, B, iB) & where

    def snd(self, A, iA, B, iB, where=True):
        return self._strong(self.match, A, iA, B, iB) & where

    def _strong(self, table, A, iA, B, iB):
        # table is point identity for sn and description matching for snd.
        # {x} is read against the interior of B, or against B itself when B
        # is a singleton too; two larger regions by their interiors (an
        # interior row lies inside its region's row)
        nA, nB = np.add.reduce(A, -1), np.add.reduce(B, -1)
        left = iA | (A & (nA == 1)[..., None])
        right = iB | (B & (nB == 1)[..., None])
        whole = np.maximum(nA, nB) == self.m
        return (np.minimum(nA, nB) > 0) & (whole | _overlap(table, left, right))

    def region(self, row: np.ndarray, inner: np.ndarray) -> Region | None:
        if not row.any():
            return None
        return Region(self.points[row], inner[row])


def _pair(a: Region, b: Region, features: FeatureMap | None = None) -> tuple:
    """Kernel over the points of A followed by those of B.

    Returns (engine, A, iA, B, iB) with both regions as bool rows.
    """
    _same_dimension(a, b)
    pts = np.concatenate([a.points, b.points])
    match = None
    if features is not None:
        F = features.rows(pts)
        match = _description_close(F, F, features.match_tolerance)
    eng = _MaskEngine(pts, match)
    A = np.arange(eng.m) < a.size
    interior = np.concatenate([a.interior, b.interior])
    return eng, A, interior & A, ~A, interior & ~A


def _same_dimension(*regions) -> None:
    """Refuse regions of different dimensions; None (no universe) is skipped."""
    if len({r.dimension for r in regions if r is not None}) > 1:
        raise ValueError("regions must share a dimension")


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
    hits = (eng.match @ A > 0) & (eng.match @ B > 0)
    if not hits.any():
        return np.empty((0, a.dimension))
    pts = eng.points[hits]
    keep, _ = _merge(point_close(pts, pts))
    return lexsorted(pts[keep])


def dnear(a: Region, b: Region, features: FeatureMap) -> bool:
    """Descriptive nearness: the descriptive intersection is nonempty.

    Equivalently, some a in A and b in B have matching descriptions.
    """
    eng, A, _, B, _ = _pair(a, b, features)
    return bool(eng.dnear(A, B))


def sn(a: Region, b: Region, universe: Region | None = None) -> bool:
    """Strong nearness.

    Non-singleton regions are strongly near iff their interiors share a
    point (within 1e-9). A singleton {x} is strongly near B iff x lies in
    the interior of B; two singletons iff they are the same point. With a
    `universe` argument, a side whose point set is the whole universe is
    strongly near every nonempty region; the whole space is open, so this
    outranks the singleton conventions.
    """
    _same_dimension(a, b, universe)
    if _whole_space(a, universe) or _whole_space(b, universe):
        return True
    eng, A, iA, B, iB = _pair(a, b)
    return bool(eng.sn(A, iA, B, iB))


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
    _same_dimension(a, b, universe)
    if _whole_space(a, universe) or _whole_space(b, universe):
        return True
    eng, A, iA, B, iB = _pair(a, b, features)
    return bool(eng.snd(A, iA, B, iB))


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
    keep, group = _merge(point_close(images, images))
    interior = np.ones(keep.size, dtype=bool)
    np.logical_and.at(interior, group, region.interior)
    pts = images[keep]
    order = np.lexsort(pts.T[::-1])
    return Region(pts[order], interior[order])


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


def _violations(checks: list, first: int) -> list:
    """Witnesses of a window's failed checks, by trial and then in check order.

    checks lists (axiom, one flag per trial, fields); a field is a (rows,
    interior rows) pair of tables or one int per trial. first numbers the
    window's first trial.
    """
    out = []
    for t, c in zip(*np.nonzero(np.stack([flags for _, flags, _ in checks], axis=1))):
        axiom, _, fields = checks[c]
        w = {
            k: {"points": np.flatnonzero(v[0][t]).tolist(), "interior": np.flatnonzero(v[1][t]).tolist()}
            if isinstance(v, tuple) else int(v[t])
            for k, v in fields.items()
        }
        w.update(axiom=axiom, trial=first + int(t))
        out.append(w)
    return out


def _relation_adapter(engine: _MaskEngine, relation, family: str):
    """Wrap an injected Region-level relation as a relation on bool rows.

    It is called once per row where `where` holds (False elsewhere), on one
    Region per labeled subset, None for the empty set. A Lodato-descriptive
    relation takes (A, B), the others (A, iA, B, iB).
    """
    cache: dict = {}

    def reg(row, inner):
        key = (row.tobytes(), inner.tobytes())
        if key not in cache:
            cache[key] = engine.region(row, inner)
        return cache[key]

    def rel(*tables, where=True):
        tables = np.broadcast_arrays(*tables)
        shape = tables[0].shape[:-1]
        A, iA, B, iB = (t.reshape(-1, engine.m) for t in tables)
        out = np.zeros(A.shape[0], dtype=bool)
        for i in np.flatnonzero(np.broadcast_to(where, shape)):
            out[i] = relation(reg(A[i], iA[i]), reg(B[i], iB[i]))
        return out.reshape(shape)

    if family == FAMILY_DESCRIPTIVE:
        return lambda A, B, where=True: rel(A, A, B, B, where=where)
    return rel


@lru_cache(maxsize=256)
def _decisions(n: int) -> re.Pattern:
    # a decision is one out-flag, or an in-flag and the output read after it
    return re.compile(rb"(?:\x00|\x01[\x00\x01]){%d}" % n)


class _Draws:
    """The draws of np.random.default_rng(seed), decoded a window at a time.

    Reads the seed's PCG64 raw outputs, BLOCK or more at a time (O'Neill,
    PCG, 2014), and gives bit for bit what Generator.random() and
    Generator.integers(lo, hi) give for the same call sequence. A labeled
    point is one decision, a Generator.random() < 0.55 (in), and an in point
    reads one more, < 0.6 (interior); both are exact integer comparisons of
    the raw outputs. chain passes n decisions with one regular-expression
    match over the outputs' in-flags; integers is numpy's Lemire rejection
    (ACM TOMACS 2019) over 32-bit draws, each raw output giving its low half
    and then its high half; decisions() reads a window's decisions back.
    """

    def __init__(self, seed):
        self._stream = np.random.default_rng(seed).bit_generator
        self.raw = np.empty(0, dtype=np.uint64)
        self.flags = bytearray()  # 1 where the output's double is below 0.55
        self.pos = 0
        self.taken: list = []  # positions integers read in this window
        self._high = None

    def _read(self):
        raw = self._stream.random_raw(max(BLOCK, self.raw.size))
        self.raw = np.concatenate([self.raw, raw])
        self.flags += (raw < _IN).tobytes()

    def chain(self, n: int):
        """Pass n decisions: n labeled points, in draw order."""
        pattern = _decisions(n)
        while (hit := pattern.match(self.flags, self.pos)) is None:
            self._read()
        self.pos = hit.end()

    def decisions(self) -> tuple:
        """(member, interior) flags of the window's decisions, in draw order; a new window begins."""
        raw = self.raw[: self.pos]
        member = raw < _IN
        # after an out-flag or an integer draw's output a decision starts, and
        # from there decisions alternate with interior reads along in-flags.
        # after[p] is p + 1 at such a start, so gap[p] becomes p less the
        # last start before it (the window opens at -1): decisions are odd
        gap = np.arange(1, raw.size + 1, dtype=np.int32)
        after = gap * ~member
        after[self.taken] = gap[self.taken]
        gap[1:] -= np.maximum.accumulate(after, out=after)[:-1]
        odd = (gap & 1).astype(bool)
        odd[self.taken] = False
        at = np.flatnonzero(odd)
        member = member[at]
        interior = np.zeros_like(member)
        interior[member] = raw[at[member] + 1] < _INTERIOR
        self.raw, self.pos, self.taken = self.raw[self.pos :], 0, []
        del self.flags[: raw.size]
        return member, interior

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"cannot draw from {n} integers: the range must be 1..2**32")
        if n == 1:
            return lo
        while True:
            if self._high is None:
                if self.pos == self.raw.size:
                    self._read()
                r = int(self.raw[self.pos])
                self.taken.append(self.pos)
                self.pos += 1
                u, self._high = r & 0xFFFFFFFF, r >> 32
            else:
                u, self._high = self._high, None
            prod = u * n
            if prod & 0xFFFFFFFF >= ((1 << 32) - n) % n:
                return lo + (prod >> 32)


def _finite_real(value) -> bool:
    """value is a real number, not a bool, with a finite float value."""
    # the exact comparison also refuses NaN, inf and ints beyond the float range
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


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
    verified exhaustively over all subset pairs and triples. Trials run
    WINDOW at a time: a window's draws are decoded into bool tables, one row
    per region, and each axiom is a numpy reduction over them. The strong
    and descriptive-strong families share one set of checks over the
    family's sameness table (point identity, description matching); only
    the strong family has the union axiom. Violations are reported by trial
    and then in axiom order, with witnesses. Draws are decoded from the
    PCG64 raw stream of np.random.default_rng(seed), identical to
    Generator.random and Generator.integers, so a report depends only on
    that stream. trials must be an int (not a bool).

    `relation` optionally replaces the implemented relation of the family
    (for deliberately broken variants); it receives Region arguments, or
    None for the empty set, and is called only where a check reads it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {', '.join(FAMILIES)}")
    trials = _count(trials, "trials")
    eng = _MaskEngine(space)
    rel = {FAMILY_DESCRIPTIVE: eng.dnear, FAMILY_STRONG: eng.sn, FAMILY_DESCRIPTIVE_STRONG: eng.snd}[family]
    rel = rel if relation is None else _relation_adapter(eng, relation, family)
    draws = _Draws(seed)
    checks = _descriptive_checks if family == FAMILY_DESCRIPTIVE else _strong_checks
    bad: list[dict] = []
    for first in range(0, trials, WINDOW):
        bad += _violations(checks(eng, rel, family, draws, min(WINDOW, trials - first)), first)
    if family == FAMILY_DESCRIPTIVE and eng.m <= EXHAUSTIVE_LIMIT and trials > 0:
        _exhaustive_descriptive(eng, rel, bad)
    return AxiomReport(family, trials, tuple(bad))


def _descriptive_checks(eng: _MaskEngine, near, family: str, draws: _Draws, n: int) -> list:
    """The Lodato-descriptive axioms over a window of n trials, each drawing regions A, B, C and points x, y."""
    m = eng.m
    xy = []
    for _ in range(n):
        draws.chain(3 * m)
        xy.append((draws.integers(0, m), draws.integers(0, m)))
    A, B, C = draws.decisions()[0].reshape(n, 3, m).transpose(1, 0, 2)
    x, y = np.array(xy, dtype=int).reshape(n, 2).T
    none = np.zeros_like(A)
    dP0 = near(none, A)
    dP0 |= near(A, none, where=~dP0)
    AB = near(A, B)
    # dP4: A dnear B and every {b} in B dnear C force A dnear C
    each = AB & B.any(axis=1)
    each &= ~(B & ~near(eng.eye, C[:, None], where=each[:, None] & B)).any(axis=1)
    AC = near(A, C, where=~AB | each)
    ab, abc = dict(a=(A, A), b=(B, B)), dict(a=(A, A), b=(B, B), c=(C, C))
    return [
        ("dP0", dP0, dict(a=(A, none))),
        ("dP1", AB != near(B, A), ab),
        ("dP2", eng.dnear(A, B) & ~AB, ab),
        ("dP3", near(A, B | C) != (AB | AC), abc),
        ("dP4", each & ~AC, abc),
        ("dP5", near(eng.eye[x], eng.eye[y]) & (eng.match[x, y] == 0), dict(x=x, y=y)),
    ]


def _strong_checks(eng: _MaskEngine, rel, family: str, draws: _Draws, n: int) -> list:
    """The strong or descriptive-strong axioms over a window of n trials.

    Each trial draws regions A, B and points x, y; the strong family then
    draws k in 2..3 and k regions for the union axiom n3, which has no
    descriptive counterpart. The sameness table is eng.same (point identity,
    ids snN*) or eng.match (description matching, ids dsnP*).
    """
    m = eng.m
    union = family == FAMILY_STRONG
    same, prefix = (eng.same, "snN") if union else (eng.match, "dsnP")
    drawn = []
    for _ in range(n):
        draws.chain(2 * m)
        x, y = draws.integers(0, m), draws.integers(0, m)
        k = draws.integers(2, 4) if union else 0
        draws.chain(k * m)
        drawn.append((x, y, k))
    member, interior = (t.reshape(-1, m) for t in draws.decisions())
    x, y, k = np.array(drawn, dtype=int).reshape(n, 3).T
    first = np.cumsum(2 + k) - (2 + k)
    A, iA, B, iB = member[first], interior[first], member[first + 1], interior[first + 1]
    none, full = np.zeros(m, dtype=bool), np.ones(m, dtype=bool)
    # n0: the empty set is far from everything; the whole space is near
    # every nonempty region
    empty = rel(none, none, A, iA)
    empty |= rel(A, iA, none, none, where=~empty)
    filled = A.any(axis=1)
    AB = rel(A, iA, B, iB)
    a, ab = dict(a=(A, iA)), dict(a=(A, iA), b=(B, iB))
    checks = [
        (prefix + "0", empty, a),
        (prefix + "0", filled & ~rel(full, full, A, iA, where=filled), a),
        (prefix + "1", AB != rel(B, iB, A, iA), ab),
        (prefix + "2", AB & ~_overlap(same, A, B), ab),
    ]
    if union:
        # n3: nearness to one member with nonempty interior extends to the
        # union of the family
        hit = np.zeros(n, dtype=bool)
        U, iU = np.zeros_like(A), np.zeros_like(A)
        for j in range(3):
            row = np.minimum(first + 2 + j, len(member) - 1)
            Bj, iBj = (np.where((k > j)[:, None], t[row], False) for t in (member, interior))
            U |= Bj
            iU |= iBj
            hit |= rel(A, iA, Bj, iBj, where=iBj.any(axis=1) & ~hit)
        checks.append((prefix + "3", hit & ~rel(A, iA, U, iU, where=hit), dict(a=(A, iA), union=(U, iU))))
    X, Y = eng.eye[x], eng.eye[y]
    inside = _overlap(same, X, iA)
    return checks + [
        (prefix + "4", _overlap(same, iA, iB) & ~AB, ab),
        (prefix + "5", inside & ~rel(X, X, A, iA, where=inside), dict(x=x, a=(A, iA))),
        (prefix + "6", rel(X, X, Y, Y) != (same[x, y] > 0), dict(x=x, y=y)),
    ]


def _exhaustive_descriptive(eng: _MaskEngine, near, bad: list):
    m, S = eng.m, 1 << eng.m
    sets = np.arange(S)
    # row s of P holds the points of subset s; dn[A, B] is near(A, B)
    P = (sets[:, None] >> np.arange(m) & 1).astype(bool)
    dn = near(P[:, None], P)
    # dP3 over all triples; the first hit in (A, B, C) order
    hits = dn[:, sets[:, None] | sets] != (dn[:, :, None] | dn[:, None, :])
    if hits.any():
        A, B, C = np.unravel_index(np.argmax(hits), hits.shape)
        bad.append(dict(axiom="dP3", trial=None, phase="exhaustive", a=int(A), b=int(B), c=int(C)))
        return
    # dP4: A dnear B and every {b} dnear C force A dnear C. ok[C] holds the b
    # with {b} dnear C; the first hit over nonempty sets in (C, B, A) order
    singles = 1 << np.arange(m)
    ok = singles @ dn[singles]
    sub = (sets & ~ok[:, None]) == 0
    hits = sub[1:, 1:, None] & dn.T[None, 1:, 1:] & ~dn.T[1:, None, 1:]
    if hits.any():
        C, B, A = np.unravel_index(np.argmax(hits), hits.shape)
        bad.append(dict(axiom="dP4", trial=None, phase="exhaustive", a=int(A) + 1, b=int(B) + 1, c=int(C) + 1))
        return
    # dP5 over all point pairs; the first hit in (x, y) order
    hits = dn[np.ix_(singles, singles)] & (eng.match == 0)
    if hits.any():
        x, y = np.unravel_index(np.argmax(hits), hits.shape)
        bad.append(dict(axiom="dP5", trial=None, phase="exhaustive", x=int(x), y=int(y)))


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
    """Seeded nonempty labeled region pairs from a space, for checks and demos.

    Regions are drawn as in check_axioms: decoded a window at a time from
    the PCG64 raw stream of np.random.default_rng(seed), identical to
    Generator.random, so the pairs depend only on that stream. count must be
    a nonnegative int (not a bool), like check_axioms' trials.
    """
    count = _count(count, "count")
    draws = _Draws(seed)
    eng = _MaskEngine(space.universe)
    out: list = []
    while len(out) < count:
        for _ in range(min(WINDOW, count - len(out))):
            draws.chain(2 * eng.m)
        member, interior = (t.reshape(-1, 2, eng.m) for t in draws.decisions())
        for (a, b), (ia, ib) in zip(member, interior):
            if a.any() and b.any():
                out.append((eng.region(a, ia), eng.region(b, ib)))
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
    default is a seeded choice. size, an int 1..36 (not a bool), defaults
    to a seeded 4..12.
    """
    if size is not None:
        size = _integer(size, "random_space size")
        if not 1 <= size <= 36:
            raise ValueError(f"random_space size must be 1..36 (a 6x6 grid), got {size}")
    rng = np.random.default_rng(seed)
    m = size if size is not None else int(rng.integers(4, 13))
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
