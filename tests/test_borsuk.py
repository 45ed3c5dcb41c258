"""Antipodal descriptor search, corner lemma, fixed points, wired friend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitop import (
    BallCheck,
    BallRangeError,
    RefinementBudgetError,
    FeatureMap,
    Region,
    StringPath,
    Worldsheet,
    but_search,
    corner_region_descriptor,
    feature_descriptor,
    feature_map_from_config,
    fixed_point_search,
    pointwise,
    shape_descriptor,
    sphere_sample,
    string_shape_features,
    wired_friend_pipeline,
    worldsheets_antipodal,
)
from proxitop import borsuk

DOTTIE = 0.7390851332151607  # cos x = x, frozen from the bisection oracle below


def even_map(dim, tol=1e-9):
    return feature_map_from_config({"name": "even-coords", "dim": dim, "tolerance": tol})


# -- but_search, points mode ------------------------------------------------


def test_points_mode_odd_descriptor_finds_nothing():
    g = sphere_sample(1, 32)
    fm = feature_map_from_config({"name": "coords", "dim": 2})
    res = but_search(feature_descriptor(fm), grid=g, tol=1e-9)
    assert res.mode == "points"
    assert res.object_count == 64
    assert len(res.pairs) == 0


def test_points_mode_even_descriptor_matches_every_antipode():
    g = sphere_sample(1, 32)
    res = but_search(feature_descriptor(even_map(2)), grid=g, tol=1e-9)
    assert len(res.pairs) == 32
    for p in res.pairs:
        assert p.distance == pytest.approx(0.0, abs=1e-12)
        assert g.antipode_index[p.a] == p.b


def test_points_mode_agrees_with_double_loop_oracle():
    g = sphere_sample(2, 20)
    desc = feature_descriptor(even_map(3, tol=1e-6))
    res = but_search(desc, grid=g, tol=1e-6)
    want = []
    for i, j in g.antipodal_pairs():
        va = desc(g.samples[i])
        vb = desc(g.samples[j])
        if np.max(np.abs(va - vb)) <= 1e-6:
            want.append((int(i), int(j)))
    assert [(p.a, p.b) for p in res.pairs] == want
    assert want  # the construction must actually produce matches


def test_but_search_requires_exactly_one_source():
    g = sphere_sample(1, 4)
    desc = feature_descriptor(even_map(2))
    with pytest.raises(ValueError):
        but_search(desc, grid=g, strings=[])
    with pytest.raises(ValueError):
        but_search(desc)


# -- but_search, strings mode -----------------------------------------------


def arc_strings(density):
    g = sphere_sample(1, density)
    return g, [
        StringPath(g.samples[i : i + 4]) for i in range(0, g.size, 4)
    ]


def test_strings_mode_antipodal_arcs_match():
    g, arcs = arc_strings(32)
    assert len(arcs) == 16
    desc = feature_descriptor(even_map(2), "mean")
    res = but_search(desc, strings=arcs, tol=1e-9)
    assert res.mode == "strings"
    # arcs come in antipodal pairs shifted by half the list
    assert [(p.a, p.b) for p in res.pairs] == [(i, i + 8) for i in range(8)]
    for p in res.pairs:
        assert p.distance <= 1e-12


def test_strings_mode_matches_brute_force():
    g, arcs = arc_strings(24)
    desc = feature_descriptor(even_map(2, tol=1e-3), "minmax")
    res = but_search(desc, strings=arcs, tol=1e-3)
    want = []
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            d = float(np.max(np.abs(desc(arcs[i]) - desc(arcs[j]))))
            if d <= 1e-3:
                want.append((i, j))
    assert [(p.a, p.b) for p in res.pairs] == want


def test_shape_descriptor_on_congruent_strings():
    desc = shape_descriptor(match_tolerance=1e-9)
    a = StringPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    b = StringPath([[5.0, 5.0], [5.0, 4.0], [6.0, 4.0]])  # rotated copy
    c = StringPath([[0.0, 0.0], [2.0, 0.0]])
    res = but_search(desc, strings=[a, b, c], tol=1e-9)
    assert [(p.a, p.b) for p in res.pairs] == [(0, 1)]


def sheet_of(*members):
    return Worldsheet(Region.from_points(np.concatenate([m.vertices for m in members])), members, 1e-6)


def lookup_descriptor(objects, values, arity):
    """Descriptor that returns values[k] for objects[k] (by identity)."""
    table = {id(o): np.asarray(v, dtype=float) for o, v in zip(objects, values)}
    return FeatureMap(arity, pointwise(lambda o: table[id(o)]), 0.0, "lookup")


_LATTICE_VERTS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def _search_case(draw):
    """Strings or sheets with constant, lattice or inexact descriptor values.

    Lattice values make gaps of exactly tol; with inexact values tol is one
    pair's computed gap, which x + tol can round away from.
    """
    strings = []
    for _ in range(draw(st.integers(0, 9))):
        if strings and draw(st.booleans()):
            # a duplicate or a vertex-permuted copy of an earlier string
            v = draw(st.sampled_from(strings)).vertices
            v = v[draw(st.permutations(range(len(v))))]
        else:
            v = np.array(draw(st.lists(_LATTICE_VERTS, min_size=2, max_size=3, unique=True)), dtype=float)
        strings.append(StringPath(v))
    mode = draw(st.sampled_from(["strings", "sheets"]))
    if mode == "sheets" and strings:
        k = draw(st.integers(0, 6))
        objects = [
            sheet_of(*draw(st.lists(st.sampled_from(strings), min_size=1, max_size=2)))
            for _ in range(k)
        ]
    else:
        objects = strings
    arity = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0]))
    base = draw(st.sampled_from([0.0, -7.3, 1e6]))
    kind = draw(st.sampled_from(["lattice", "constant", "float"]))
    if kind == "constant":  # every pair matches
        values = [[base] * arity] * len(objects)
    elif kind == "lattice":
        values = [
            [base + step * k for k in draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))]
            for _ in objects
        ]
    else:
        inexact = st.integers(-10**6, 10**6).map(lambda k: k / 997.0)
        values = [draw(st.lists(inexact, min_size=arity, max_size=arity)) for _ in objects]
        if len(objects) >= 2:
            a, b = draw(st.lists(st.integers(0, len(objects) - 1), min_size=2, max_size=2, unique=True))
            return mode, objects, values, arity, abs(values[a][0] - values[b][0])
    tol = step * draw(st.sampled_from([0, 0, 1, 2]))
    return mode, objects, values, arity, tol


def _vertex_sets_differ(a, b):
    return set(map(tuple, a.vertices)) != set(map(tuple, b.vertices))


@settings(max_examples=300, deadline=None)
@given(case=_search_case())
def test_string_and_sheet_search_match_brute_force(case):
    mode, objects, values, arity, tol = case
    desc = lookup_descriptor(objects, values, arity)
    pred = _vertex_sets_differ if mode == "strings" else worldsheets_antipodal
    want = []
    for a in range(len(objects)):
        for b in range(a + 1, len(objects)):
            va, vb = desc(objects[a]), desc(objects[b])
            d = float(np.max(np.abs(va - vb)))
            if d <= tol and pred(objects[a], objects[b]):
                want.append((a, b, tuple(float(x) for x in va), d))
    res = but_search(desc, tol=tol, **{mode: objects})
    assert res.mode == mode and res.object_count == len(objects) and res.exhaustive
    assert [tuple(p) for p in res.pairs] == want


@pytest.mark.parametrize("mode", ["strings", "sheets"])
def test_predicate_runs_only_on_descriptor_matched_pairs(monkeypatch, mode):
    _, arcs = arc_strings(32)
    objects = arcs if mode == "strings" else [sheet_of(a, b) for a, b in zip(arcs[::2], arcs[1::2])]
    name = "strings_antipodal" if mode == "strings" else "worldsheets_antipodal"
    desc = feature_descriptor(even_map(2), "mean")
    expected = borsuk.but_search(desc, tol=1e-9, **{mode: objects})
    index = {id(o): k for k, o in enumerate(objects)}
    calls = []
    original = getattr(borsuk, name)

    def counting(a, b):
        calls.append((index[id(a)], index[id(b)]))
        return original(a, b)

    monkeypatch.setattr(borsuk, name, counting)
    res = borsuk.but_search(desc, tol=1e-9, **{mode: objects})
    matched = [
        (a, b)
        for a in range(len(objects))
        for b in range(a + 1, len(objects))
        if np.max(np.abs(desc(objects[a]) - desc(objects[b]))) <= 1e-9
    ]
    assert matched and len(matched) < len(objects) * (len(objects) - 1) // 2
    assert calls == matched
    assert res == expected


def test_mixed_dimension_strings_rejected():
    flat = StringPath([[0.0, 0.0], [1.0, 0.0]])
    space = StringPath([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    desc = feature_descriptor(even_map(2), "mean")  # fails on R^3 points if evaluated
    with pytest.raises(ValueError, match="strings must share a dimension"):
        but_search(desc, strings=[flat, flat, space])


def test_mixed_dimension_sheets_rejected():
    flat = sheet_of(StringPath([[0.0, 0.0], [1.0, 0.0]]))
    space = sheet_of(StringPath([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    desc = feature_descriptor(even_map(2), "mean")
    with pytest.raises(ValueError, match="strings must share a dimension"):
        but_search(desc, sheets=[flat, space])


def test_empty_and_single_string_searches_are_empty():
    desc = feature_descriptor(even_map(2), "mean")
    for strings in ([], [StringPath([[0.0, 0.0], [1.0, 0.0]])]):
        res = but_search(desc, strings=strings, tol=1.0)
        assert res.object_count == len(strings)
        assert res.pairs == () and res.exhaustive


# -- descriptors --------------------------------------------------------------


def _blend(P):
    """Row-wise map with inexact values, so sums depend on their order."""
    return np.stack([P.sum(axis=1) / 3.0, P[:, 0] * P[:, -1] + 0.1], axis=1)


_POINT_MAPS = {
    "coords": lambda d: feature_map_from_config({"name": "coords", "dim": d}),
    "norm": lambda d: feature_map_from_config({"name": "norm"}),
    "blend": lambda d: FeatureMap(2, _blend, name="blend"),
}


@st.composite
def _described_objects(draw):
    """1-8 objects of one dimension: strings (2-40 vertices), regions, sheets, bare points."""
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def string():
        return StringPath(rng.uniform(-5, 5, (draw(st.integers(2, 40)), dim)))

    objects = []
    for kind in draw(st.lists(st.sampled_from(["string", "region", "sheet", "point"]), min_size=1, max_size=8)):
        if kind == "string":
            objects.append(string())
        elif kind == "region":
            objects.append(Region.from_points(rng.uniform(-5, 5, (draw(st.integers(1, 40)), dim))))
        elif kind == "sheet":
            objects.append(sheet_of(*[string() for _ in range(draw(st.integers(1, 3)))]))
        else:
            objects.append(rng.uniform(-5, 5, dim))
    return dim, objects


def _points_of(obj):
    if isinstance(obj, StringPath):
        return obj.vertices
    if isinstance(obj, Region):
        return obj.points
    if isinstance(obj, Worldsheet):
        return obj.sheet.points
    return np.asarray(obj, dtype=float)[None]


@settings(max_examples=150, deadline=None)
@given(case=_described_objects(), name=st.sampled_from(sorted(_POINT_MAPS)), reduce=st.sampled_from(["mean", "minmax"]))
def test_feature_descriptor_rows_equal_per_object_reductions_bit_for_bit(case, name, reduce):
    dim, objects = case
    fm = _POINT_MAPS[name](dim)
    want = []
    for obj in objects:
        R = fm.rows(_points_of(obj))
        want.append(np.mean(R, axis=0) if reduce == "mean" else np.concatenate([R.min(axis=0), R.max(axis=0)]))
    got = feature_descriptor(fm, reduce).rows(objects)
    assert got.shape == (len(objects), fm.arity * (1 if reduce == "mean" else 2))
    assert got.tobytes() == np.array(want).tobytes()


def test_feature_descriptor_evaluates_once_per_point_count():
    seen = []

    def coords(P):
        seen.append(P.shape)
        return P

    desc = feature_descriptor(FeatureMap(2, coords, name="seen"), "mean")
    two = StringPath([[0.0, 0.0], [1.0, 0.0]])
    three = StringPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    got = desc.rows([two, [4.0, 2.0], three, two, np.array([1.0, 1.0])])
    assert sorted(seen) == [(2, 2), (3, 2), (4, 2)]
    assert got.tolist() == [[0.5, 0.0], [4.0, 2.0], [2 / 3, 1 / 3], [0.5, 0.0], [1.0, 1.0]]


def test_pointwise_stacks_the_per_item_values():
    items = [np.array([1.0, 2.0]), np.array([-3.0, 0.5]), np.array([0.0, 0.0])]
    f = lambda p: np.array([p[0] * p[1], p[0] - p[1], 7.0])
    assert np.array_equal(FeatureMap(3, pointwise(f)).rows(items), np.stack([f(p) for p in items]))
    assert FeatureMap(1, pointwise(lambda p: p[0])).rows(items).tolist() == [[1.0], [-3.0], [0.0]]


def test_but_search_describes_all_objects_in_one_call():
    batches = []

    def even(P):
        batches.append(len(P))
        return np.abs(P)

    g = sphere_sample(1, 32)
    res = but_search(FeatureMap(2, even, 1e-9, "even"), grid=g)
    assert batches == [g.size] and len(res.pairs) == 32
    assert res == but_search(feature_descriptor(even_map(2)), grid=g, tol=1e-9)


# -- corner lemma -----------------------------------------------------------


def test_corner_descriptor_small_grid():
    assert corner_region_descriptor(3, 3, (0, 0)) == 2.0
    assert corner_region_descriptor(3, 3, (1, 0)) == 3.0
    assert corner_region_descriptor(3, 3, (1, 1)) == 4.0


def test_corner_descriptor_exhaustive():
    for w in range(2, 7):
        for h in range(2, 7):
            for i in range(w):
                for j in range(h):
                    got = corner_region_descriptor(w, h, (i, j))
                    on_edge = (i in (0, w - 1)) + (j in (0, h - 1))
                    want = {0: 4.0, 1: 3.0, 2: 2.0}[on_edge]
                    assert got == want, (w, h, i, j)
            # antipodal corners carry equal descriptors
            assert corner_region_descriptor(w, h, (0, 0)) == corner_region_descriptor(
                w, h, (w - 1, h - 1)
            )
            assert corner_region_descriptor(w, h, (w - 1, 0)) == corner_region_descriptor(
                w, h, (0, h - 1)
            )


def test_corner_descriptor_rejects_out_of_range():
    with pytest.raises(ValueError):
        corner_region_descriptor(3, 3, (3, 0))


# -- fixed point search -----------------------------------------------------


def _bisect_cos():
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if np.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_dottie_frozen_value_matches_bisection():
    assert abs(_bisect_cos() - DOTTIE) < 1e-14


def test_halving_map_fixed_point_at_origin():
    x = fixed_point_search(lambda v: np.asarray(v) / 2.0, 1)
    assert abs(x[0]) <= 1e-9


def test_cos_map_reaches_dottie():
    x = fixed_point_search(lambda v: np.cos(np.asarray(v, dtype=float)), 1)
    assert abs(x[0] - DOTTIE) <= 1e-6


def test_rotation_map_fixed_point_at_origin():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    x = fixed_point_search(lambda v: np.asarray(v) @ rot.T, 2)
    assert np.linalg.norm(x) <= 1e-6


def test_affine_contractions_vs_linear_solve():
    rng = np.random.default_rng(0)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        M = rng.standard_normal((n, n))
        M *= 0.9 * rng.uniform(0.5, 1.0) / np.linalg.norm(M, 2)
        b = rng.standard_normal(n)
        b *= rng.uniform(0.0, 0.05) / np.linalg.norm(b)
        star = np.linalg.solve(np.eye(n) - M, b)
        x = fixed_point_search(lambda v: np.asarray(v) @ M.T + b, n, tol=1e-9)
        assert np.linalg.norm(x - star) <= 1e-6


def test_map_leaving_ball_raises():
    with pytest.raises(BallRangeError):
        fixed_point_search(lambda v: np.asarray(v) * 3.0, 1)


def test_fixed_point_budget_exhausts_on_fixed_point_free_map():
    # a ball-to-ball map with no fixed point on the grid within tolerance
    def shift(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        out = -v * 0.2 + 0.7
        return out if np.asarray(v).ndim > 1 else out[0]

    # f(x) = 0.7 - 0.2x has fixed point 0.7/1.2 inside; tighten budget so the
    # search cannot zoom far enough
    with pytest.raises(RefinementBudgetError):
        fixed_point_search(shift, 1, tol=1e-15, max_refinements=1)


def test_fixed_point_search_surfaces_batched_map_errors():
    def flaky(v):
        v = np.asarray(v, dtype=float)
        if v.ndim > 1:
            raise RuntimeError("batched evaluation failed")
        return v / 2.0

    with pytest.raises(RuntimeError, match="batched evaluation failed"):
        fixed_point_search(flaky, 1)


@pytest.mark.parametrize(
    "f, message",
    [
        # row-wise in shape, but each grid row gets another point's image
        (lambda v: np.asarray(v)[::-1] / 2 + [0.3, 0.0], "not row-wise"),
        # a per-point map: on the grid it swaps the first two rows
        (lambda v: np.array([v[1], v[0]]) / 2, r"returned shape \(2, 2\)"),
        (lambda v: np.where(np.asarray(v) > 0.5, np.nan, np.asarray(v) / 2), "non-finite"),
    ],
)
def test_fixed_point_search_refuses_maps_that_are_not_row_wise(f, message):
    with pytest.raises(ValueError, match=message):
        fixed_point_search(f, 2)


def test_fixed_point_search_accepts_map_of_point_arrays_only():
    x = fixed_point_search(lambda P: P[:, ::-1] / 2, 2)
    assert np.linalg.norm(x) <= 1e-8


def test_ball_check_contains():
    ball = BallCheck.unit(3)
    assert ball.contains([0.5, 0.5, 0.5])
    assert not ball.contains([1.0, 1.0, 1.0])


# -- wired friend -----------------------------------------------------------


def test_unit_segment_shape():
    s = StringPath([[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(string_shape_features(s), [1.0, 1.0, 1.0, 0.0])


def test_closed_square_shape():
    s = StringPath([[0, 0], [1, 0], [1, 1], [0, 1]], closed=True)
    feats = string_shape_features(s)
    assert feats[0] == pytest.approx(4.0)  # perimeter
    assert feats[1] == 0.0  # closed: no chord
    assert feats[2] == pytest.approx(np.sqrt(2.0))
    assert feats[3] == pytest.approx(2.0 * np.pi)


def test_shape_invariant_under_rigid_motions():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        v = rng.uniform(-2.0, 2.0, size=(m, 3))
        try:
            s = StringPath(v)
        except ValueError:
            continue
        base = string_shape_features(s)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = StringPath(v @ q.T + rng.uniform(-4.0, 4.0, size=3))
        assert np.max(np.abs(string_shape_features(moved) - base)) <= 1e-9


def test_wired_friend_lands_inside_unit_ball():
    s = StringPath([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    res = wired_friend_pipeline(s)
    assert res.ball_ok
    assert np.linalg.norm(res.description) < 1.0
    # renormalization is monotone, so the description keeps the ordering
    assert np.argmax(res.description) == np.argmax(res.shape)
