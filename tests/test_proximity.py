"""Descriptive nearness relations and region calculus."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitop import (
    DescriptiveSpace,
    FeatureMap,
    Region,
    corner_region_descriptor,
    describe_region,
    descriptive_intersection,
    dnear,
    feature_map_from_config,
    map_region,
    pointwise,
    sample_region_pairs,
    sn,
    snd,
    spc_check,
)
from proxitop.proximity import _bits, _row_bits, random_space


def grid_space(width, height, tol=0.0):
    pts = np.array([[i, j] for i in range(width) for j in range(height)], dtype=float)
    fm = feature_map_from_config(
        {"name": "adjacency-count", "width": width, "height": height, "tolerance": tol}
    )
    return DescriptiveSpace(pts, fm)


def test_feature_map_validates_output():
    fm = FeatureMap(2, lambda p: np.array([1.0]), name="bad")
    with pytest.raises(ValueError):
        fm([0.0, 0.0])


@st.composite
def _builtin_map_and_points(draw):
    """A built-in feature map and 1-6 points in its domain."""
    kind = draw(st.sampled_from(["coords", "even-coords", "norm", "adjacency-count", "constant", "lattice"]))
    if kind == "lattice":
        sp = random_space(draw(st.integers(0, 50)), kind="lattice")
        rows = draw(st.lists(st.integers(0, sp.size - 1), min_size=1, max_size=6))
        return sp.features, sp.universe[rows]
    if kind == "adjacency-count":
        w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        fm = feature_map_from_config({"name": kind, "width": w, "height": h})
        cells = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        return fm, np.array(draw(st.lists(cells, min_size=1, max_size=6)), dtype=float)
    dim = draw(st.integers(1, 4))
    if kind == "constant":
        value = draw(st.lists(st.floats(-5, 5), min_size=1, max_size=3))
        fm = feature_map_from_config({"name": kind, "value": value})
    else:
        fm = feature_map_from_config({"name": kind, "dim": dim})
    coords = st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)
    return fm, np.array(draw(st.lists(coords, min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(case=_builtin_map_and_points())
def test_feature_rows_equal_per_point_calls_bit_for_bit(case):
    fm, P = case
    table = fm.rows(P)
    assert table.shape == (len(P), fm.arity)
    assert table.tobytes() == np.array([fm(p) for p in P]).tobytes()


@pytest.mark.parametrize(
    "arity, evaluator, what",
    [
        (2, lambda p: np.array([1.0]), "shape"),
        (1, lambda p: np.array([[1.0]]), "shape"),
        (2, lambda p: [1.0] if p[0] > 0 else [1.0, 2.0], "ragged"),
        (1, lambda p: ["one"], "non-numeric"),
        (1, lambda p: [np.nan] if p[0] > 0 else [0.0], "non-finite"),
        (2, lambda p: [0.0, np.inf] if p[0] > 0 else [0.0, 0.0], "non-finite"),
    ],
)
def test_feature_rows_refuse_bad_values_naming_the_map(arity, evaluator, what):
    fm = FeatureMap(arity, pointwise(evaluator), name="probe")
    with pytest.raises(ValueError, match=f"feature map 'probe' returned .*{what}"):
        fm.rows([[0.0, 0.0], [1.0, 0.0]])


def test_feature_map_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        feature_map_from_config({"name": "norm", "bogus": 1})


@pytest.mark.parametrize(
    "config, message",
    [
        ({"name": "adjacency-count"}, "adjacency-count feature map needs parameter 'width'"),
        ({"name": "adjacency-count", "width": 3}, "needs parameter 'height'"),
        ({"name": "constant"}, "constant feature map needs parameter 'value'"),
        ({"name": "norm", "tolerance": None}, "tolerance must be a number, not None"),
        ({"name": "norm", "tolerance": "0.1"}, "tolerance must be a number"),
        ({"name": "norm", "tolerance": True}, "tolerance must be a number"),
        ({"name": "coords", "dim": 2.7}, "dim must be an integer, not 2.7"),
        ({"name": "coords", "dim": True}, "dim must be an integer, not True"),
        ({"name": "norm", "dim": math.nan}, "dim must be an integer, not nan"),
        ({"name": "adjacency-count", "width": 3.0, "height": 3}, "width must be an integer"),
        ({"name": "adjacency-count", "width": 3, "height": "3"}, "height must be an integer"),
    ],
)
def test_feature_map_from_config_names_bad_parameters(config, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        feature_map_from_config(config)


@pytest.mark.parametrize(
    "value",
    ["abc", None, True, [True, 1.0], [[1, 2]], [], [1.0, "2"], math.nan, [1.0, -math.inf], 10**400, {"x": 1}],
)
def test_constant_feature_map_refuses_bad_values(value):
    message = "constant feature map parameter 'value' must be a finite number"
    with pytest.raises(ValueError, match=re.escape(message)):
        feature_map_from_config({"name": "constant", "value": value})


@pytest.mark.parametrize(
    "value, row", [(2, [2.0]), (-0.5, [-0.5]), ([1, 2.5], [1.0, 2.5]), ((np.int64(3),), [3.0])]
)
def test_constant_feature_map_takes_numbers_and_flat_lists(value, row):
    fm = feature_map_from_config({"name": "constant", "value": value})
    assert fm.rows([[0.0], [1.0]]).tolist() == [row, row]


def test_feature_map_from_config_takes_integer_like_parameters():
    fm = feature_map_from_config({"name": "coords", "dim": np.int64(2), "tolerance": 1})
    assert (fm.arity, fm.match_tolerance) == (2, 1.0)
    assert isinstance(fm.match_tolerance, float)


def test_describe_region_adjacency_counts():
    sp = grid_space(3, 3)
    all_pts = sp.region(range(9))
    desc = describe_region(all_pts, sp.features)
    assert sorted(v[0] for v in desc) == [2.0, 3.0, 4.0]


def test_descriptive_intersection_matches_shared_descriptions():
    sp = grid_space(3, 3)
    corner = sp.region([0])  # (0,0): descriptor 2
    center = sp.region([4])  # (1,1): descriptor 4
    edge = sp.region([1])  # (0,1): descriptor 3
    other_corner = sp.region([8])  # (2,2): descriptor 2
    assert descriptive_intersection(corner, center, sp.features).shape[0] == 0
    got = descriptive_intersection(corner, other_corner, sp.features)
    # both corners carry descriptor 2, so both survive
    assert got.shape[0] == 2
    assert not dnear(corner, edge, sp.features)
    assert dnear(corner, other_corner, sp.features)


def test_near_duplicate_points_keep_dnear_and_intersection_consistent():
    # two points 1e-12 apart are one point, but exact coords descriptions
    # tell them apart; A and B share the point (1e-12, 0) exactly
    fm = feature_map_from_config({"name": "coords", "dim": 2})
    a = Region.from_points([[0.0, 0.0], [1e-12, 0.0]])
    b = Region.from_points([[1e-12, 0.0]])
    assert dnear(a, b, fm)
    assert descriptive_intersection(a, b, fm).tolist() == [[1e-12, 0.0]]


def test_dnear_iff_nonempty_intersection_sampled():
    # the nearness relation and the intersection operator must agree pairwise
    rng = np.random.default_rng(11)
    for seed in range(6):
        sp = random_space(seed)
        for a, b in sample_region_pairs(sp, 40, seed=int(rng.integers(1 << 30))):
            inter = descriptive_intersection(a, b, sp.features)
            assert dnear(a, b, sp.features) == bool(inter.shape[0])


def test_sn_needs_common_interior():
    a = Region.from_points([[0.0, 0.0], [1.0, 0.0]], interior=[True, False])
    b = Region.from_points([[1.0, 0.0], [2.0, 0.0]], interior=[True, False])
    c = Region.from_points([[0.0, 0.0], [1.0, 0.0]], interior=[False, True])
    assert not sn(a, b)  # share boundary point only
    assert sn(b, c)  # share (1,0), interior on both sides
    assert sn(a, a)


def test_sn_singleton_rules():
    a = Region.from_points([[0.0, 0.0], [1.0, 0.0]], interior=[True, False])
    x_in = Region.from_points([[0.0, 0.0]], interior=[False])
    x_out = Region.from_points([[1.0, 0.0]], interior=[False])
    # {x} is strongly near A iff x lies in A's interior, labels on {x} aside
    assert sn(x_in, a)
    assert not sn(x_out, a)
    y = Region.from_points([[0.0, 0.0]])
    z = Region.from_points([[0.0, 1e-12]])
    w = Region.from_points([[0.0, 1.0]])
    assert sn(y, z)  # same point within tolerance
    assert not sn(y, w)


def test_sn_universe_clause():
    # a set equal to the whole space is strongly near everything nonempty
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    universe = Region.from_points(pts, interior=False)
    probe = Region.from_points([[2.0, 0.0]], interior=[False])
    assert not sn(universe, probe)
    assert sn(universe, probe, universe=universe)


def _mixed_dimension_calls():
    # a universe of another dimension than both regions, and regions of two
    # dimensions with a universe matching the first
    flat = Region.from_points([[0.0, 0.0], [1.0, 0.0]])
    space = Region.from_points([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return [(flat, flat, space), (flat, space, flat), (space, flat, flat)]


def test_sn_refuses_mixed_dimensions_with_a_universe():
    for a, b, universe in _mixed_dimension_calls():
        with pytest.raises(ValueError, match="regions must share a dimension"):
            sn(a, b, universe=universe)


def test_snd_refuses_mixed_dimensions_with_a_universe():
    fm = feature_map_from_config({"name": "norm"})
    for a, b, universe in _mixed_dimension_calls():
        with pytest.raises(ValueError, match="regions must share a dimension"):
            snd(a, b, fm, universe=universe)


def test_snd_descriptive_interior_overlap():
    sp = grid_space(3, 3)
    # interiors: one holds a corner, the other the opposite corner
    a = sp.region([0, 1], interior=[0])
    b = sp.region([8, 5], interior=[8])
    c = sp.region([4, 1], interior=[4])
    assert snd(a, b, sp.features)  # corner descriptor 2 on both interiors
    assert not snd(a, c, sp.features)  # 2 vs 4
    d = sp.region([3], interior=[3])
    # singleton: description of the point vs interior image
    assert not snd(d, a, sp.features)
    e = sp.region([2], interior=[2])
    assert snd(e, a, sp.features)  # corner (0,2) matches interior corner (0,0)


def test_snd_singleton_pair_matches_descriptions():
    fm = feature_map_from_config({"name": "norm", "dim": 2})
    p = Region.from_points([[3.0, 4.0]])
    q = Region.from_points([[5.0, 0.0]])
    r = Region.from_points([[1.0, 0.0]])
    assert snd(p, q, fm)  # both norm 5
    assert not snd(p, r, fm)


def test_map_region_interior_needs_all_preimages_interior():
    a = Region.from_points(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], interior=[True, True, False]
    )
    collapse = lambda p: np.array([0.0, 0.0]) if p[0] < 1.5 else np.array([1.0, 0.0])
    img = map_region(pointwise(collapse), a)
    assert img.size == 2
    k0 = int(np.flatnonzero(np.all(np.isclose(img.points, [0.0, 0.0]), axis=1))[0])
    k1 = int(np.flatnonzero(np.all(np.isclose(img.points, [1.0, 0.0]), axis=1))[0])
    assert bool(img.interior[k0])  # both preimages interior
    assert not bool(img.interior[k1])  # lone preimage is boundary


def test_map_region_refuses_ragged_images_naming_the_map():
    region = Region.from_points([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match=r"region map '<lambda>' returned ragged .* expected \(2, 2\)"):
        map_region(pointwise(lambda p: p[:1] if p[0] else p), region)


def test_map_region_refuses_non_finite_and_misshapen_images():
    region = Region.from_points([[0.0, 0.0], [1.0, 0.0]])

    def blow_up(P):
        return np.where(P > 0, np.inf, P)

    def drop_axis(P):
        return P[:, :1]

    with pytest.raises(ValueError, match="region map 'blow_up' returned non-finite"):
        map_region(blow_up, region)
    with pytest.raises(ValueError, match=r"region map 'drop_axis' returned shape \(2, 1\)"):
        map_region(drop_axis, region)


def test_map_region_applies_a_row_wise_map_to_the_whole_table():
    calls = []

    def shift(P):
        calls.append(P.shape)
        return P + [1.0, 0.0]

    img = map_region(shift, Region.from_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], interior=[True, False, True]))
    assert calls == [(3, 2)]
    assert img.points.tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    assert img.interior.tolist() == [True, False, True]


def test_feature_map_empty_batch_is_an_empty_table():
    fm = FeatureMap(3, lambda P: pytest.fail("evaluator called on an empty batch"))
    assert fm.rows([]).shape == (0, 3)


def test_spc_check_reports_broken_pairs():
    # collapsing a 4-point segment chain can kill interior overlap
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    fm = feature_map_from_config({"name": "coords", "dim": 2})
    sp = DescriptiveSpace(pts, fm)
    a = sp.region([0, 1, 3], interior=[1])
    b = sp.region([1, 2], interior=[1])

    def squash(p):
        # send the shared interior point onto a boundary point of a's image
        return np.array([0.0, 0.0]) if p[0] == 1.0 else np.asarray(p, dtype=float)

    rep = spc_check(sp, pointwise(squash), [(a, b)], mode="strong")
    assert rep.pairs_checked == 1
    assert rep.near_pairs == 1
    assert not rep.preserved
    cex = rep.counterexamples[0]
    assert set(cex) == {"source_a", "source_b", "image_a", "image_b"}

    rep_id = spc_check(sp, lambda p: p, [(a, b)], mode="strong")
    assert rep_id.preserved


def test_spc_check_descriptive_mode():
    sp = grid_space(3, 3)
    a = sp.region([0])
    b = sp.region([8])
    # reflection keeps the adjacency descriptor, so nearness survives
    reflect = lambda p: np.array([2.0 - p[0], 2.0 - p[1]])
    rep = spc_check(sp, pointwise(reflect), [(a, b)], mode="descriptive")
    assert rep.preserved and rep.near_pairs == 1


def test_lattice_space_rejects_foreign_points():
    sp = random_space(3, kind="lattice")
    with pytest.raises(ValueError, match="outside the space's universe"):
        sp.features(np.full(sp.dimension, 123.456))


def test_space_rejects_duplicate_universe_points():
    fm = feature_map_from_config({"name": "coords", "dim": 2})
    with pytest.raises(ValueError, match="rows 0 and 1"):
        DescriptiveSpace([[0, 0], [0, 0], [1, 0]], fm)
    with pytest.raises(ValueError, match="rows 1 and 2"):
        DescriptiveSpace([[0, 0], [1, 0], [1, 1e-12]], fm)


def test_random_space_reproducible():
    a = random_space(9)
    b = random_space(9)
    assert np.array_equal(a.universe, b.universe)
    assert a.features.name == b.features.name


@pytest.mark.parametrize("size", [1, 36])
def test_random_space_takes_every_size_its_grid_holds(size):
    assert random_space(4, size=size).size == size


@pytest.mark.parametrize("size", [-1, 0, 37])
def test_random_space_refuses_sizes_its_grid_cannot_hold(size):
    with pytest.raises(ValueError, match=r"size must be 1\.\.36"):
        random_space(4, size=size)


@pytest.mark.parametrize("size", [2.5, 3.0, True, "4"])
def test_random_space_refuses_sizes_that_are_not_integers(size):
    with pytest.raises(ValueError, match="random_space size must be an integer"):
        random_space(4, size=size)


def test_random_space_takes_numpy_integer_sizes():
    assert random_space(4, size=np.int64(5)).size == 5


@pytest.mark.parametrize("count", [2.5, True])
def test_sample_region_pairs_refuses_counts_that_are_not_integers(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        sample_region_pairs(random_space(3, size=4), count)


def test_sample_region_pairs_refuses_negative_counts():
    with pytest.raises(ValueError, match="count must be nonnegative"):
        sample_region_pairs(random_space(3, size=4), -3)


def test_sample_region_pairs_takes_zero_and_numpy_counts():
    sp = random_space(3, size=4)
    assert sample_region_pairs(sp, 0) == []
    assert len(sample_region_pairs(sp, np.int64(3))) == 3


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 130])
def test_row_bits_equal_one_bits_call_per_row(width):
    table = np.random.default_rng(width).random((5, width)) < 0.5
    table[0] = False
    table[1] = True
    assert _row_bits(table) == [_bits(r) for r in table]
    assert _row_bits(table[:0]) == []


# ---------------------------------------------------------------------------
# independent oracles, written from the docstrings on plain tuples
# ---------------------------------------------------------------------------
#
# Points lie on a 0.5 lattice, so coordinates, descriptions and equality are
# exact. A region is a list of (point, interior) rows and may repeat a point;
# a singleton is a one-row region. Tolerance 0.6 makes coords matching
# non-transitive on the lattice: (0, 0) ~ (0.5, 0) ~ (1, 0), but not (0, 0) ~ (1, 0).

PHI = {
    "coords": lambda p: p,
    "even-coords": lambda p: tuple(abs(c) for c in p),
    "norm": lambda p: (math.sqrt(sum(c * c for c in p)),),
}


def _matches(u, v, tol):
    return max(abs(x - y) for x, y in zip(u, v)) <= tol


def _oracle_dnear(A, B, phi, tol):
    # some a in A and b in B have matching descriptions
    return any(_matches(phi(a), phi(b), tol) for a, _ in A for b, _ in B)


def _oracle_intersection(A, B, phi, tol):
    # the union points whose description matches both images
    union = {p for p, _ in A} | {p for p, _ in B}
    return sorted(
        x
        for x in union
        if any(_matches(phi(x), phi(a), tol) for a, _ in A)
        and any(_matches(phi(x), phi(b), tol) for b, _ in B)
    )


def _oracle_strong(A, B, universe, same):
    """sn (same = point equality) or snd (same = description matching)."""
    if universe is not None and (
        {p for p, _ in A} == universe or {p for p, _ in B} == universe
    ):
        return True
    inner_a = [p for p, inside in A if inside]
    inner_b = [p for p, inside in B if inside]
    if len(A) == 1 and len(B) == 1:
        return same(A[0][0], B[0][0])
    if len(A) == 1:
        return any(same(A[0][0], q) for q in inner_b)
    if len(B) == 1:
        return any(same(B[0][0], q) for q in inner_a)
    # the (descriptive) intersection of the interiors is nonempty
    return any(
        any(same(x, a) for a in inner_a) and any(same(x, b) for b in inner_b)
        for x in set(inner_a) | set(inner_b)
    )


_lattice_point = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda ij: (ij[0] * 0.5, ij[1] * 0.5)
)
_labeled = st.lists(st.tuples(_lattice_point, st.booleans()), min_size=1, max_size=5)


def _region(rows):
    return Region.from_points([p for p, _ in rows], interior=[f for _, f in rows])


@settings(max_examples=300, deadline=None)
@given(
    A=_labeled,
    B=_labeled,
    name=st.sampled_from(sorted(PHI)),
    tol=st.sampled_from([0.0, 0.25, 0.6]),
    which=st.sampled_from(["none", "a", "b", "union", "other"]),
    other=_labeled,
)
def test_relations_match_independent_oracles(A, B, name, tol, which, other):
    phi = PHI[name]
    fm = feature_map_from_config({"name": name, "dim": 2, "tolerance": tol})
    ra, rb = _region(A), _region(B)
    universe_rows = {"none": None, "a": A[::-1], "b": B, "union": A + B, "other": other}[which]
    universe = None if universe_rows is None else {p for p, _ in universe_rows}
    ru = None if universe_rows is None else _region(universe_rows)

    assert dnear(ra, rb, fm) == _oracle_dnear(A, B, phi, tol)
    got = [tuple(p) for p in descriptive_intersection(ra, rb, fm)]
    assert got == _oracle_intersection(A, B, phi, tol)
    assert sn(ra, rb, universe=ru) == _oracle_strong(A, B, universe, lambda p, q: p == q)
    assert snd(ra, rb, fm, universe=ru) == _oracle_strong(
        A, B, universe, lambda p, q: _matches(phi(p), phi(q), tol)
    )


# -- refusals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FeatureMap(0, lambda P: P), "feature arity must be at least 1"),
        (lambda: feature_map_from_config({"name": "coords"}), "coords feature map needs a dimension"),
        (lambda: feature_map_from_config({"name": "even-coords", "dim": 0}), "even-coords feature map needs a"),
        (lambda: feature_map_from_config({"name": "median"}), "unknown feature map name: 'median'"),
        (lambda: feature_map_from_config({"name": None}), "unknown feature map name: None"),
        # the config and the descriptor share one size check and its message
        (
            lambda: feature_map_from_config({"name": "adjacency-count", "width": 0, "height": 3}),
            "grid sides must be positive, got 0x3",
        ),
        (lambda: corner_region_descriptor(3, -1, (0, 0)), "grid sides must be positive, got 3x-1"),
        (lambda: grid_space(2, 2).region([0, 1], interior=[1, 3]), "interior indices [3] are not in the region"),
        (lambda: spc_check(grid_space(2, 2), lambda P: P, [], mode="weak"), "unknown continuity mode: 'weak'"),
    ],
)
def test_proximity_refuses_invalid_input_by_name(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_spc_check_counts_a_pair_that_is_not_near_without_testing_its_image():
    sp = grid_space(3, 3)
    far = (sp.region([0]), sp.region([4]))  # a corner (2) and the center (4) share no description
    images = []

    def identity(P):
        images.append(len(P))
        return P

    rep = spc_check(sp, identity, [far, (sp.region([0]), sp.region([8]))], mode="descriptive")
    assert (rep.pairs_checked, rep.near_pairs) == (2, 1) and rep.preserved
    assert images == [1, 1]  # only the near pair's two regions were mapped
