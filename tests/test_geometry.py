"""Spatial primitives: antipodal witnesses, Petty sets, strings, grids."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from proxitop import (
    Region,
    SphereGrid,
    StringPath,
    Worldsheet,
    antipodal_point_witness,
    arc_sheets,
    arc_strings,
    as_point,
    as_points,
    petty_antipodal_set,
    polyline_min_distance,
    sphere_sample,
    strings_antipodal,
    worldsheet_cover_check,
    worldsheets_antipodal,
)
from proxitop.geometry import POINT_TOL, _petty_directions, _segment_distances


def test_witness_for_distinct_points():
    p, q = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    w = antipodal_point_witness(p, q)
    assert w is not None
    normal, offset_p, offset_q = w
    assert np.allclose(normal, [0.6, 0.8])
    assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-15)
    # each plane {x : normal . x = offset} passes through its own point
    assert normal @ p == pytest.approx(offset_p, abs=1e-12)
    assert normal @ q == pytest.approx(offset_q, abs=1e-12)
    # and the planes are disjoint, p's below q's
    assert offset_q - offset_p > 0
    assert offset_q - offset_p == pytest.approx(5.0)


def test_witness_none_for_coincident_points():
    assert antipodal_point_witness([1.0, 2.0], [1.0, 2.0]) is None
    assert antipodal_point_witness([1.0, 2.0], [1.0, 2.0 + 1e-12]) is None


@pytest.mark.parametrize("p, q", [([-1e308], [1e308]), ([0.0, 0.0], [1e200, 1e200])])
def test_witness_refuses_endpoints_whose_distance_overflows(p, q):
    with pytest.raises(ValueError, match="overflows"):
        antipodal_point_witness(p, q)


# -- Petty antipodality -----------------------------------------------------


def _petty_oracle(points, tol=1e-9):
    """LP check: every pair sits on parallel supporting planes with a gap.

    For each ordered pair (p, q), look for a direction v with v.x >= v.p for
    all x (p minimal) and v.x <= v.q for all x (q maximal) and v.(q - p) = 1
    (normalization forcing a strict gap). Feasibility of the LP is exactly
    the supported-pair condition on point sets.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            p, q = pts[i], pts[j]
            # variables: v in R^n; constraints (x - p).v >= 0, (x - q).v <= 0
            rows = []
            for x in pts:
                rows.append(-(x - p))  # -(x-p).v <= 0
                rows.append(x - q)  # (x-q).v <= 0
            a_ub = np.array(rows)
            b_ub = np.zeros(a_ub.shape[0])
            a_eq = (q - p).reshape(1, n)
            b_eq = np.array([1.0])
            res = linprog(
                np.zeros(n),
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=[(None, None)] * n,
                method="highs",
            )
            if not res.success:
                return False
    return True


def test_petty_square_true():
    assert petty_antipodal_set([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def test_petty_two_points_true():
    assert petty_antipodal_set([[0.0, 0.0], [2.0, 1.0]])


def test_petty_collinear_triple_false():
    # middle point can never be extreme in any direction
    assert not petty_antipodal_set([[0, 0], [1, 0], [2, 0]])


def test_petty_obtuse_triangle_true():
    # needs oblique support directions that axis/difference vectors miss
    pts = [[0.0, 0.0], [2.0, 0.0], [3.0, 2.0]]
    assert petty_antipodal_set(pts)
    assert _petty_oracle(pts)


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "pts",
    [
        _SQUARE * 1e4,
        _SQUARE * 1e6,
        _SQUARE @ np.array([[3.0, 1.0], [-0.7, 2.0]]).T * 1e4 + [5e3, -2e3],
        _SQUARE @ np.array([[1.3, -2.1], [0.4, 0.9]]).T * 1e6 + [1e6, 3e5],
    ],
    ids=["square-1e4", "square-1e6", "parallelogram-1e4", "parallelogram-1e6"],
)
def test_petty_large_parallelograms_keep_their_critical_ties(pts):
    # a critical direction rebuilt from its angle rounded to 12 decimals
    # tilts by about 1e-13, which times a side of 1e4 already exceeds
    # POINT_TOL; the exact critical rows keep the ties of each side
    assert petty_antipodal_set(pts)
    assert _petty_oracle(pts)


@pytest.mark.parametrize(
    "pts",
    [[[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]], list(itertools.product([0.0, 1e300], repeat=3))],
    ids=["triangle", "cube"],
)
def test_petty_huge_coordinates_decide_without_overflow(pts):
    # warnings are errors in this suite: no norm may overflow on finite input
    assert petty_antipodal_set(pts)


def test_petty_agrees_with_lp_oracle():
    rng = np.random.default_rng(42)
    cells = [(i, j) for i in range(5) for j in range(5)]
    for trial in range(25):
        k = int(rng.integers(2, 7))
        idx = rng.choice(len(cells), size=k, replace=False)
        pts = np.array([cells[i] for i in idx], dtype=float)
        assert petty_antipodal_set(pts) == _petty_oracle(pts), pts.tolist()


def test_petty_duplicate_points_false():
    assert not petty_antipodal_set([[0, 0], [0, 0], [1, 1]])


def _petty_pair_loop(points, tol=POINT_TOL, dirs=None):
    """Reference Petty test: every pair, one at a time, on every candidate direction."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    proj = pts @ (_petty_directions(pts) if dirs is None else dirs).T
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


def _cube(n):
    return np.array(list(itertools.product([0.0, 1.0], repeat=n)))


def _negation_closed_family(pts):
    """Every pairwise difference in both orientations, and both signs of each axis."""
    n = pts.shape[1]
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, n)
    keep = np.linalg.norm(diffs, axis=1) > POINT_TOL
    dirs = np.concatenate([diffs[keep], np.eye(n), -np.eye(n)])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@st.composite
def _petty_sets(draw, min_dim=2):
    """Point sets in R^2..R^6: random, integer-rounded (tie-heavy), tol-scale, sheared cubes."""
    n = draw(st.integers(min_dim, 6))
    kind = draw(st.sampled_from(["random", "integer", "tiny", "sheared-cube"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 10))
    if kind == "random":
        return rng.standard_normal((m, n))
    if kind == "integer":
        return rng.integers(-1, 2, (m, n)).astype(float)
    if kind == "tiny":
        return rng.integers(-2, 3, (m, n)) * 1e-9
    shear = np.eye(n) + np.triu(rng.uniform(-1, 1, (n, n)), 1)
    pts = _cube(n) @ shear.T * rng.uniform(0.5, 3) + rng.uniform(-2, 2, n)
    if draw(st.booleans()):
        pts = pts[rng.permutation(len(pts))[: max(2, len(pts) // 2)]]
    return pts


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(pts=_petty_sets())
def test_petty_table_equals_the_pair_loop(pts):
    assert petty_antipodal_set(pts) == _petty_pair_loop(pts)


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(pts=_petty_sets(min_dim=3))
def test_petty_one_orientation_decides_as_the_negation_closed_family(pts):
    # the candidate family keeps one orientation of each difference and the
    # positive axes; the pair loop on the family closed under negation must
    # agree, so the table reads both orientations of every pair
    assert petty_antipodal_set(pts) == _petty_pair_loop(pts, dirs=_negation_closed_family(pts))


@pytest.mark.parametrize(
    "pts",
    [
        [[0.0, 0.0], [1.0, 0.0], [0.5, 2e-9]],
        [[0.0, 0.0], [1.5e-9, 0.0], [3e-9, 0.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 2.5e-9], [1.0, 1.0, 0.0]],
        # a low and a high point of a thin direction at most tol apart
        np.array([[-2, 0, -2, 1], [0, 2, 1, 1], [-2, 1, 1, 2], [1, -1, 0, 0], [1, 0, 1, 2], [-1, 2, 0, 2]]) * 1e-9,
    ],
)
def test_petty_directions_too_thin_to_be_sure_keep_the_gap_test(pts):
    # some candidate direction has width in (tol, 3 tol]: its low and high
    # points may be too close to certify, so the gap test decides there
    pts = np.array(pts)
    proj = pts @ _petty_directions(pts).T
    width = proj.max(axis=0) - proj.min(axis=0)
    assert np.any((width > POINT_TOL) & (width <= 3 * POINT_TOL))
    assert petty_antipodal_set(pts) == _petty_pair_loop(pts)


def test_petty_pair_left_to_a_thin_direction():
    # two points 2e-9 apart: no direction is sure, and the x axis certifies
    # the pair on its gap; 0.5e-9 apart, no gap exceeds tol
    assert petty_antipodal_set([[0.0, 0.0], [2e-9, 0.0]])
    assert not petty_antipodal_set([[0.0, 0.0], [0.5e-9, 0.0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_petty_cube_vertices_are_antipodal(n):
    assert petty_antipodal_set(_cube(n))
    assert not petty_antipodal_set(np.concatenate([_cube(n), [[0.5] * n]]))


# -- strings ----------------------------------------------------------------


def test_string_path_basic():
    s = StringPath([[0, 0], [1, 0], [1, 1]])
    assert s.vertices.shape == (3, 2)
    assert not s.closed
    segs = s.segments()
    assert segs.shape == (2, 2, 2)


def test_string_path_closed_adds_wrap_edge():
    s = StringPath([[0, 0], [1, 0], [0, 1]], closed=True)
    assert s.segments().shape == (3, 2, 2)


def test_string_path_rejects_repeated_vertex():
    with pytest.raises(ValueError):
        StringPath([[0, 0], [0, 0], [1, 1]])


def test_strings_antipodal_by_symmetric_difference():
    a = StringPath([[0, 0], [1, 0]])
    b = StringPath([[0, 0], [2, 0]])
    assert strings_antipodal(a, b)
    # identical vertex sets are not antipodal
    c = StringPath([[0, 0], [1, 0]])
    assert not strings_antipodal(a, c)
    # same set, opposite orientation
    d = StringPath([[1, 0], [0, 0]])
    assert not strings_antipodal(a, d)


def test_polyline_min_distance_parallel_segments():
    a = StringPath([[0, 0], [1, 0]])
    b = StringPath([[0, 1], [1, 1]])
    assert polyline_min_distance(a, b) == pytest.approx(1.0)


def test_polyline_min_distance_crossing_is_zero():
    a = StringPath([[-1, 0], [1, 0]])
    b = StringPath([[0, -1], [0, 1]])
    assert polyline_min_distance(a, b) == pytest.approx(0.0, abs=1e-12)


def test_nearly_parallel_crossing_segments_meet():
    # they cross at the origin at an angle of 1e-9; a determinant of the
    # normal equations formed as a*e - b*b is cancellation noise here
    a = StringPath([[-1000.0, 0.0], [1000.0, 0.0]])
    b = StringPath([[-1000.0, -1e-6], [1000.0, 1e-6]])
    assert polyline_min_distance(a, b) <= 1e-12
    ws_a = Worldsheet(Region.from_points(a.vertices), (a,), 1e-6)
    ws_b = Worldsheet(Region.from_points(b.vertices), (b,), 1e-6)
    assert not worldsheets_antipodal(ws_a, ws_b)


_FLAT = StringPath([[0.0, 0.0], [1.0, 0.0]])
_SPACE = StringPath([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
_MIXED = "cannot measure between dimensions 2 and 3"


@pytest.mark.parametrize(
    "a, b, want",
    [
        ([[0.0, 0.0], [1.0, 0.0]], [[1e200, 0.0], [1e200, 1.0]], 1e200),
        # the kernel squares 2x2 minors of the sides: fourth powers of 1e100
        ([[0.0, 0.0], [1e100, 0.0]], [[0.0, 1e100], [1e100, 2e100]], 1e100),
    ],
)
def test_polyline_min_distance_of_far_strings_is_finite(a, b, want):
    # warnings are errors in this suite: no product may overflow on the way
    assert polyline_min_distance(StringPath(a), StringPath(b)) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize(
    "a, b",
    [
        # a far vertex elsewhere in the string leaves the crossing pair unscaled
        ([[-1e-3, 0.0], [1e-3, 0.0]], [[-1e-3, -1e-3], [1e-3, 1e-3], [1e150, 0.0]]),
        # the pair is scaled only below 2**240, so its short side stays a segment
        ([[-1e150, 0.0], [1e150, 0.0]], [[0.0, -1e-8], [0.0, 1e-8]]),
    ],
    ids=["far-vertex", "long-side"],
)
def test_crossing_strings_with_far_vertices_touch(a, b):
    a, b = StringPath(a), StringPath(b)
    assert polyline_min_distance(a, b) == 0.0
    sheets = [Worldsheet(Region.from_points(s.vertices), (s,), 1e-6) for s in (a, b)]
    assert not worldsheets_antipodal(*sheets)


def test_polyline_min_distance_refuses_mixed_dimensions():
    with pytest.raises(ValueError, match=_MIXED):
        polyline_min_distance(_FLAT, _SPACE)


def test_antipodal_point_witness_refuses_mixed_dimensions():
    with pytest.raises(ValueError, match=_MIXED):
        antipodal_point_witness([0.0, 1.0], [0.0, 0.0, 1.0])
    # a 1-d endpoint would broadcast against the other one
    with pytest.raises(ValueError, match="cannot measure between dimensions 1 and 3"):
        antipodal_point_witness([1.0], [0.0, 0.0, 1.0])


def test_worldsheets_antipodal_refuses_mixed_dimensions():
    flat = Worldsheet(Region.from_points(_FLAT.vertices), (_FLAT,), 1e-6)
    space = Worldsheet(Region.from_points(_SPACE.vertices), (_SPACE,), 1e-6)
    with pytest.raises(ValueError, match=_MIXED):
        worldsheets_antipodal(flat, space)


def test_worldsheets_antipodal():
    a1 = StringPath([[0, 0], [1, 0]])
    a2 = StringPath([[0, 0.1], [1, 0.1]])
    b1 = StringPath([[0, 5], [1, 5]])
    ws_a = Worldsheet(Region.from_points([[0, 0], [1, 0], [0, 0.1], [1, 0.1]]), (a1, a2), 0.5)
    ws_b = Worldsheet(Region.from_points([[0, 5], [1, 5]]), (b1,), 0.5)
    assert worldsheets_antipodal(ws_a, ws_b)
    # a single-string sheet touches itself everywhere
    assert not worldsheets_antipodal(ws_b, ws_b)


def test_worldsheet_cover_check_flags_uncovered_points():
    pts = [[0, 0], [1, 0], [0, 3]]
    strings = (StringPath([[0, 0], [1, 0]]),)
    ws = Worldsheet(Region.from_points(pts), strings, cover_tolerance=0.5)
    ok, uncovered = worldsheet_cover_check(ws)
    assert not ok
    assert uncovered.shape == (1, 2)
    assert np.allclose(uncovered[0], [0, 3])
    ws2 = Worldsheet(Region.from_points([[0, 0], [1, 0]]), strings, cover_tolerance=0.5)
    ok2, uncovered2 = worldsheet_cover_check(ws2)
    assert ok2 and uncovered2.shape[0] == 0


# -- segment distances against an exact oracle --------------------------------


def _exact_distance(p1, q1, p2, q2) -> float:
    """Distance between the closed segments [p1, q1] and [p2, q2], in exact rationals.

    |p1 + s d1 - p2 - t d2|^2 is a convex quadratic on the unit square. Its
    least value is at the interior stationary point when that lies inside
    the square, or else on one of the four edges; with one parameter fixed
    the other is the clamped minimiser of a quadratic in one variable.
    """
    p1, q1, p2, q2 = ([Fraction(float(x)) for x in v] for v in (p1, q1, p2, q2))
    d1 = [q - p for p, q in zip(p1, q1)]
    d2 = [q - p for p, q in zip(p2, q2)]
    r = [x - y for x, y in zip(p1, p2)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def sq(s, t):
        gap = [x + s * u - t * v for x, u, v in zip(r, d1, d2)]
        return dot(gap, gap)

    def clamp(x):
        return min(max(x, Fraction(0)), Fraction(1))

    a, b, c, e, f = dot(d1, d1), dot(d1, d2), dot(d1, r), dot(d2, d2), dot(d2, r)
    cands = []
    den = a * e - b * b
    if den:
        s, t = (b * f - c * e) / den, (a * f - b * c) / den
        if 0 <= s <= 1 and 0 <= t <= 1:
            cands.append(sq(s, t))
    for s in (Fraction(0), Fraction(1)):
        cands.append(sq(s, clamp((b * s + f) / e) if e else Fraction(0)))
    for t in (Fraction(0), Fraction(1)):
        cands.append(sq(clamp((b * t - c) / a) if a else Fraction(0), t))
    return float(min(cands)) ** 0.5


def _exact_to_string(p, path) -> float:
    return min(_exact_distance(p, p, s[0], s[1]) for s in path.segments())


def _exact_between(a, b) -> float:
    return min(_exact_distance(s[0], s[1], t[0], t[1]) for s in a.segments() for t in b.segments())


def _lattice_points(n, **kw):
    return st.lists(
        st.lists(st.integers(-2, 2).map(lambda i: i * 0.5), min_size=n, max_size=n),
        **kw,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(-1, n))


@st.composite
def _segment_pair(draw):
    """Two segments in R^2..R^4 on a 0.5 lattice: free, point-like, parallel or collinear."""
    n = draw(st.integers(2, 4))
    p1, q1, p2, q2 = draw(_lattice_points(n, min_size=4, max_size=4))
    kind = draw(st.sampled_from(["free", "point", "parallel", "collinear"]))
    if kind == "point":
        q2 = p2
        if draw(st.booleans()):
            q1 = p1
    elif kind == "parallel":
        q2 = p2 + draw(st.sampled_from([-1.0, -0.5, 0.5, 2.0])) * (q1 - p1)
    elif kind == "collinear":
        u, w = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]), min_size=2, max_size=2))
        p2, q2 = p1 + u * (q1 - p1), p1 + w * (q1 - p1)
    if draw(st.booleans()):
        p1, q1, p2, q2 = p2, q2, p1, q1
    return p1, q1, p2, q2


def _string(draw, n):
    verts = draw(_lattice_points(n, min_size=2, max_size=4))
    closed = draw(st.booleans())
    ring = np.concatenate([verts, verts[:1]]) if closed else verts
    assume(np.all(np.any(np.diff(ring, axis=0) != 0, axis=1)))
    return StringPath(verts, closed=closed)


@settings(max_examples=300, deadline=None)
@given(pair=_segment_pair())
def test_segment_distances_match_exact_oracle(pair):
    p1, q1, p2, q2 = pair
    got = _segment_distances(p1[None, None], np.stack([p2, q2])[None])[0, 0]
    assert got == pytest.approx(_exact_distance(p1, p1, p2, q2), abs=1e-9)
    if np.any(p1 != q1) and np.any(p2 != q2):
        got = polyline_min_distance(StringPath([p1, q1]), StringPath([p2, q2]))
        assert got == pytest.approx(_exact_distance(p1, q1, p2, q2), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_polyline_distances_match_exact_oracle(data):
    n = data.draw(st.integers(2, 4))
    a, b = _string(data.draw, n), _string(data.draw, n)
    p = data.draw(_lattice_points(n, min_size=1, max_size=1))[0]
    assert polyline_min_distance(a, b) == pytest.approx(_exact_between(a, b), abs=1e-9)
    assert _segment_distances(p[None, None], a.segments()).min() == pytest.approx(_exact_to_string(p, a), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_worldsheet_predicates_match_oracle_loops(data):
    n = data.draw(st.integers(2, 4))
    cover = data.draw(st.sampled_from([0.3, 0.6, 1.1]))
    sheets = []
    for _ in range(2):
        strings = tuple(_string(data.draw, n) for _ in range(data.draw(st.integers(1, 2))))
        pts = data.draw(_lattice_points(n, min_size=1, max_size=5))
        sheets.append(Worldsheet(Region.from_points(pts), strings, cover))
    wa, wb = sheets
    gaps = [_exact_between(sa, sb) for sa in wa.strings for sb in wb.strings]
    reach = [min(_exact_to_string(p, s) for s in wa.strings) for p in wa.sheet.points]
    # a distance within rounding of a threshold has no exact verdict to
    # compare; on the 0.5 lattice a gap is 0 or far above POINT_TOL
    assume(all(abs(d - cover) > 1e-9 for d in reach))
    assert worldsheets_antipodal(wa, wb) == any(d > POINT_TOL for d in gaps)
    ok, uncovered = worldsheet_cover_check(wa)
    want = sorted(tuple(p) for p, d in zip(wa.sheet.points, reach) if d > cover)
    assert ok == (not want)
    assert [tuple(p) for p in uncovered] == want


# -- sphere grids -----------------------------------------------------------


def test_circle_grid_density_two_exact():
    g = sphere_sample(1, 2)
    assert g.size == 4
    want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(g.samples, want, atol=1e-15)
    assert g.antipode_index.tolist() == [2, 3, 0, 1]
    assert g.antipodal_pairs().tolist() == [[0, 2], [1, 3]]


@pytest.mark.parametrize("n,density", [(1, 5), (1, 32), (2, 16), (2, 33), (3, 10), (np.int64(2), np.uint8(3))])
def test_sphere_sample_properties(n, density):
    g = sphere_sample(n, density)
    assert g.size == 2 * density
    assert g.dimension == n and type(g.dimension) is int
    assert g.samples.shape[1] == n + 1
    norms = np.linalg.norm(g.samples, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    idx = g.antipode_index
    # fixed-point-free involution with exact negation
    assert np.all(idx[idx] == np.arange(g.size))
    assert np.all(idx != np.arange(g.size))
    assert np.array_equal(g.samples[idx], -g.samples)


@pytest.mark.parametrize("n, density", [(1, 2.5), (1, True), (2.0, 3), (True, 3), ("1", 3), (1, None)])
def test_sphere_sample_refuses_counts_that_are_not_integers(n, density):
    with pytest.raises(ValueError, match="must be an integer"):
        sphere_sample(n, density)


def test_sphere_grid_validates_involution():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SphereGrid(1, pts, np.array([1, 0, 2]))  # index 2 is a fixed point


def test_sphere_grid_validates_negation():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SphereGrid(1, pts, np.array([1, 0]))


# -- refusals ---------------------------------------------------------------


_SEGMENT = StringPath([[0.0, 0.0], [1.0, 0.0]])
_CIRCLE = sphere_sample(1, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: as_point([[1.0, 2.0]]), "nonempty 1-d coordinate vector"),
        (lambda: as_point([]), "nonempty 1-d coordinate vector"),
        (lambda: as_point([1.0, np.nan]), "coordinates must be finite"),
        (lambda: as_points(np.zeros((2, 2, 2))), r"nonempty \(m, n\) array"),
        (lambda: as_points(np.zeros((0, 2))), r"nonempty \(m, n\) array"),
        (lambda: as_points([[0.0, np.inf]]), "coordinates must be finite"),
        (lambda: StringPath([[0.0, 0.0]]), "at least 2 vertices"),
        (lambda: StringPath([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], closed=True), "must not repeat its first vertex"),
        (lambda: StringPath([[-1e308, 0.0], [1e308, 0.0]]), "too far apart"),
        (lambda: StringPath([[0.0, 0.0], [1e200, 1e200]]), "too far apart"),
        # the open string is accepted; only its wrap edge overflows
        (lambda: StringPath([[-1e154, 0.0], [0.0, 0.0], [1e154, 0.0]], closed=True), "too far apart"),
        (
            lambda: polyline_min_distance(StringPath([[-1e308, 0.0], [-1e308, 1.0]]), StringPath([[1e308, 0.0], [1e308, 1.0]])),
            "distance between them overflows",
        ),
        (lambda: Region([[0.0, 0.0], [1.0, 1.0]], [True]), "one flag per point"),
        (lambda: Worldsheet(Region.from_points([[0.0, 0.0]]), (), 0.5), "at least one string"),
        (lambda: Worldsheet(Region.from_points([[0.0, 0.0, 0.0]]), (_SEGMENT,), 0.5), "share one dimension"),
        (lambda: Worldsheet(Region.from_points([[0.0, 0.0]]), (_SEGMENT,), 0.0), "cover_tolerance must be positive"),
        (lambda: SphereGrid(2, _CIRCLE.samples, _CIRCLE.antipode_index), r"R\^\(dimension\+1\)"),
        (lambda: SphereGrid(1, _CIRCLE.samples, [2, 3, 0]), "one entry per sample"),
        (lambda: SphereGrid(1, 2 * _CIRCLE.samples, _CIRCLE.antipode_index), "unit vectors"),
        (lambda: petty_antipodal_set([[0.0, 1.0]]), "at least 2 points"),
        (lambda: strings_antipodal(_SEGMENT, StringPath([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])), "share a dimension"),
        (lambda: arc_strings(sphere_sample(1, 3)), "divisible by 4, got 6"),
        (lambda: arc_sheets(arc_strings(sphere_sample(1, 6))), "even arc count"),
        (lambda: sphere_sample(4, 3), "must be 1, 2, or 3"),
        (lambda: sphere_sample(0, 3), "must be 1, 2, or 3"),
        (lambda: sphere_sample(2, 0), "density must be at least 1"),
    ],
)
def test_geometry_refuses_invalid_input_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()

