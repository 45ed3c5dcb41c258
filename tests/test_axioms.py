"""Axiom family checker: clean runs, injected defects, engine consistency."""

import functools
import hashlib
import json

import numpy as np
import pytest

from proxitop import (
    EXHAUSTIVE_LIMIT,
    FAMILIES,
    FAMILY_DESCRIPTIVE,
    FAMILY_DESCRIPTIVE_STRONG,
    FAMILY_STRONG,
    check_axioms,
    dnear,
    sn,
    snd,
)
from proxitop.geometry import Region
from proxitop.proximity import (
    AxiomReport,
    DescriptiveSpace,
    _exhaustive_descriptive,
    _MaskEngine,
    _relation_adapter,
    feature_map_from_config,
    random_space,
)


# injected Region-level relations; None stands for the empty set


def _lopsided(a, b):
    if a is None or b is None:
        return False
    # compare by leading point, so arguments do not commute
    return tuple(a.points[0]) < tuple(b.points[0])


def _touching(a, b):
    if a is None or b is None:
        return False
    d = np.min(np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2))
    return bool(d <= 1e-9)


def _second_small(a, b):
    # near to a small member but not to a large union breaks snN3
    return b is not None and b.size <= 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [0, 3, 7, 12])
def test_clean_relations_have_no_violations(family, seed):
    sp = random_space(seed)
    rep = check_axioms(sp, family, trials=300, seed=seed)
    assert rep.passed, rep.violations[:2]
    assert rep.family == family
    assert rep.trials == 300


def test_exhaustive_path_runs_on_small_spaces():
    sp = random_space(1, size=4)
    rep = check_axioms(sp, FAMILY_DESCRIPTIVE, trials=50, seed=1)
    assert rep.passed


def test_unknown_family_rejected():
    sp = random_space(0, size=4)
    with pytest.raises(ValueError):
        check_axioms(sp, "bogus")


@pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "10"])
def test_trials_that_are_not_integers_are_refused(trials):
    sp = random_space(0, size=4)
    with pytest.raises(ValueError, match="trials must be an integer"):
        check_axioms(sp, FAMILY_STRONG, trials=trials)


def test_asymmetric_relation_flagged_as_dP1():
    sp = random_space(2, size=5)
    rep = check_axioms(sp, FAMILY_DESCRIPTIVE, trials=120, seed=4, relation=_lopsided)
    assert not rep.passed
    assert any(v["axiom"] == "dP1" for v in rep.violations)


def test_never_near_relation_flagged_as_dP2():
    sp = random_space(2, size=5)
    rep = check_axioms(
        sp, FAMILY_DESCRIPTIVE, trials=120, seed=4, relation=lambda a, b: False
    )
    assert any(v["axiom"] == "dP2" for v in rep.violations)


def test_always_near_relation_breaks_emptiness_and_points():
    sp = random_space(5, size=5)
    rep = check_axioms(
        sp, FAMILY_STRONG, trials=120, seed=4, relation=lambda a, b: True
    )
    axioms = {v["axiom"] for v in rep.violations}
    assert "snN0" in axioms
    assert "snN6" in axioms


def test_closure_overlap_relation_breaks_descriptive_strong_points():
    # constant features make every description match, so a relation that
    # demands geometric contact fails the singleton matching axiom
    sp = random_space(6, size=5, kind="constant")
    rep = check_axioms(
        sp, FAMILY_DESCRIPTIVE_STRONG, trials=200, seed=9, relation=_touching
    )
    assert not rep.passed
    assert any(v["axiom"] in {"dsnP4", "dsnP5", "dsnP6"} for v in rep.violations)


def test_violation_witnesses_carry_masks_and_trial():
    sp = random_space(2, size=5)
    rep = check_axioms(
        sp, FAMILY_DESCRIPTIVE, trials=60, seed=4, relation=lambda a, b: False
    )
    v = rep.violations[0]
    assert "axiom" in v and "trial" in v
    report = rep.to_dict()
    assert report["passed"] is False
    assert report["violations"]


def _row(mask, m):
    # the bool row of an int subset mask: column i is bit i
    return (mask >> np.arange(m)) & 1 == 1


def test_mask_engine_matches_public_relations():
    # the table engine on single rows and the public Region relations must agree
    rng = np.random.default_rng(77)
    for seed in range(6):
        sp = random_space(seed + 30)
        eng = _MaskEngine(sp)
        m = sp.size
        universe = sp.region(range(m), interior=range(m))
        for _ in range(60):
            A = int(rng.integers(1, 1 << m))
            B = int(rng.integers(1, 1 << m))
            iA = A & int(rng.integers(0, 1 << m))
            iB = B & int(rng.integers(0, 1 << m))
            idx_a = [i for i in range(m) if A & (1 << i)]
            idx_b = [i for i in range(m) if B & (1 << i)]
            ra = sp.region(idx_a, [i for i in idx_a if iA & (1 << i)])
            rb = sp.region(idx_b, [i for i in idx_b if iB & (1 << i)])
            A, iA, B, iB = (_row(k, m) for k in (A, iA, B, iB))
            assert eng.dnear(A, B) == dnear(ra, rb, sp.features)
            assert eng.sn(A, iA, B, iB) == sn(ra, rb, universe=universe)
            assert eng.snd(A, iA, B, iB) == snd(
                ra, rb, sp.features, universe=universe
            )


def _close(a, b):
    # a non-transitive point relation extended to sets: additive, so it keeps
    # dP3 and breaks only dP4
    if a is None or b is None:
        return False
    return bool(np.min(np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)) <= 0.6)


def _exhaustive_loops(m, near, match):
    # the exhaustive phase as plain loops over int subsets: the first violation
    # of dP3 in (A, B, C) order, of dP4 in (C, B, A) order, then of dP5
    S = 1 << m
    dn = [[near(A, B) for B in range(S)] for A in range(S)]
    for A in range(S):
        for B in range(S):
            for C in range(S):
                if dn[A][B | C] != (dn[A][B] or dn[A][C]):
                    return [dict(axiom="dP3", trial=None, phase="exhaustive", a=A, b=B, c=C)]
    for C in range(1, S):
        ok = sum(1 << b for b in range(m) if dn[1 << b][C])
        for B in range(1, S):
            if B & ~ok:
                continue
            for A in range(1, S):
                if dn[A][B] and not dn[A][C]:
                    return [dict(axiom="dP4", trial=None, phase="exhaustive", a=A, b=B, c=C)]
    for x in range(m):
        for y in range(m):
            if dn[1 << x][1 << y] and not match[x][y]:
                return [dict(axiom="dP5", trial=None, phase="exhaustive", x=x, y=y)]
    return []


def test_exhaustive_phase_finds_the_first_violation_the_loops_find():
    seen = set()
    for seed, size in [(0, 6), (1, 4), (4, 5), (8, 6), (9, 5)]:
        sp = random_space(seed, size=size)
        eng = _MaskEngine(sp)
        for relation in (None, _close, _touching, _lopsided, _second_small):
            near = eng.dnear if relation is None else _relation_adapter(eng, relation, FAMILY_DESCRIPTIVE)
            got = []
            _exhaustive_descriptive(eng, near, got)
            loops = _exhaustive_loops(size, _int_relation(sp, FAMILY_DESCRIPTIVE, relation), sp.match_matrix)
            assert got == loops, (seed, size, relation)
            seen |= {v["axiom"] for v in got}
    assert seen == {"dP3", "dP4", "dP5"}


# -- the per-trial loop as the oracle ------------------------------------------
#
# check_axioms as one Python loop per trial over int bit masks, drawing every
# decision with its own Generator.random() call and every point with
# Generator.integers; built-in relations are read from the space's tables,
# and an injected relation is called on Regions built from the masks.


def _oracle_sample(rng, m):
    # a labeled subset of m points: each is in with chance 0.55, then interior with chance 0.6
    mask = imask = 0
    for bit in range(m):
        if rng.random() < 0.55:
            mask |= 1 << bit
            if rng.random() < 0.6:
                imask |= 1 << bit
    return mask, imask


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _meets(rows, A, B):
    # some x in A has a row that meets B (rows are reflexive)
    return bool(A & B) or any(rows[x] & B for x in _members(A))


def _match_rows(sp):
    return [sum(1 << int(j) for j in np.flatnonzero(r)) for r in sp.match_matrix]


def _int_relation(sp, family, relation):
    # an int-mask relation: dnear from the match table when relation is None,
    # else the injected relation on Regions built from the masks (None for
    # the empty set), one Region per labeled mask
    if relation is None:
        match = _match_rows(sp)
        return lambda A, B: _meets(match, A, B)
    regions = {}

    def region(A, iA):
        if (A, iA) not in regions:
            idx = _members(A)
            regions[A, iA] = Region(sp.universe[idx], [bool(iA >> i & 1) for i in idx]) if A else None
        return regions[A, iA]

    if family == FAMILY_DESCRIPTIVE:
        return lambda A, B: bool(relation(region(A, A), region(B, B)))
    return lambda A, iA, B, iB: bool(relation(region(A, iA), region(B, iB)))


def _oracle_report(sp, family, trials, seed, relation=None):
    m = sp.size
    full = (1 << m) - 1
    match = _match_rows(sp)
    same = [1 << i for i in range(m)]  # universe points are distinct
    rng = np.random.default_rng(seed)
    bad = []

    def flag(axiom, t, **masks):
        w = {k: {"points": _members(v[0]), "interior": _members(v[1])} if isinstance(v, tuple) else v for k, v in masks.items()}
        w.update(axiom=axiom, trial=t)
        bad.append(w)

    def strong(rows, A, iA, B, iB):
        if A == 0 or B == 0:
            return False
        if A == full or B == full:
            return True
        if A & (A - 1) == 0:
            return bool(rows[A.bit_length() - 1] & (B if B & (B - 1) == 0 else iB))
        if B & (B - 1) == 0:
            return bool(rows[B.bit_length() - 1] & iA)
        return _meets(rows, iA, iB)

    if family == FAMILY_DESCRIPTIVE:
        near = _int_relation(sp, family, relation)
        for t in range(trials):
            A, _ = _oracle_sample(rng, m)
            B, _ = _oracle_sample(rng, m)
            C, _ = _oracle_sample(rng, m)
            x, y = int(rng.integers(0, m)), int(rng.integers(0, m))
            if near(0, A) or near(A, 0):
                flag("dP0", t, a=(A, 0))
            if near(A, B) != near(B, A):
                flag("dP1", t, a=(A, A), b=(B, B))
            if _meets(match, A, B) and not near(A, B):
                flag("dP2", t, a=(A, A), b=(B, B))
            if near(A, B | C) != (near(A, B) or near(A, C)):
                flag("dP3", t, a=(A, A), b=(B, B), c=(C, C))
            if near(A, B) and B and all(near(1 << b, C) for b in _members(B)) and not near(A, C):
                flag("dP4", t, a=(A, A), b=(B, B), c=(C, C))
            if near(1 << x, 1 << y) and not match[x] >> y & 1:
                flag("dP5", t, x=x, y=y)
        if m <= EXHAUSTIVE_LIMIT and trials > 0:
            bad += _exhaustive_loops(m, near, sp.match_matrix)
        return AxiomReport(family, trials, tuple(bad))
    union = family == FAMILY_STRONG
    rows, prefix = (same, "snN") if union else (match, "dsnP")
    rel = lambda A, iA, B, iB: strong(rows, A, iA, B, iB)  # noqa: E731
    if relation is not None:
        rel = _int_relation(sp, family, relation)
    for t in range(trials):
        A, iA = _oracle_sample(rng, m)
        B, iB = _oracle_sample(rng, m)
        x, y = int(rng.integers(0, m)), int(rng.integers(0, m))
        if rel(0, 0, A, iA) or rel(A, iA, 0, 0):
            flag(prefix + "0", t, a=(A, iA))
        if A and not rel(full, full, A, iA):
            flag(prefix + "0", t, a=(A, iA))
        if rel(A, iA, B, iB) != rel(B, iB, A, iA):
            flag(prefix + "1", t, a=(A, iA), b=(B, iB))
        if rel(A, iA, B, iB) and not _meets(rows, A, B):
            flag(prefix + "2", t, a=(A, iA), b=(B, iB))
        if union:
            fam = [_oracle_sample(rng, m) for _ in range(int(rng.integers(2, 4)))]
            UB = UiB = 0
            for Bm, iBm in fam:
                UB, UiB = UB | Bm, UiB | iBm
            if any(iBm and rel(A, iA, Bm, iBm) for Bm, iBm in fam) and not rel(A, iA, UB, UiB):
                flag(prefix + "3", t, a=(A, iA), union=(UB, UiB))
        if _meets(rows, iA, iB) and not rel(A, iA, B, iB):
            flag(prefix + "4", t, a=(A, iA), b=(B, iB))
        if rows[x] & iA and not rel(1 << x, 1 << x, A, iA):
            flag(prefix + "5", t, x=x, a=(A, iA))
        if rel(1 << x, 1 << x, 1 << y, 1 << y) != bool(rows[x] >> y & 1):
            flag(prefix + "6", t, x=x, y=y)
    return AxiomReport(family, trials, tuple(bad))


def _grid_space(m, features):
    # m distinct points of a centred half-unit grid, drawn like the bench's axiom spaces
    rng = np.random.default_rng(m)
    side = max(6, int(np.ceil(np.sqrt(2 * m))))
    cells = rng.choice(side * side, size=m, replace=False)
    pts = (np.stack([cells // side, cells % side], axis=1) - side // 2).astype(float) * 0.5
    return DescriptiveSpace(pts, feature_map_from_config(dict(features, dim=2)))


_EVEN = {"name": "even-coords"}
# norms within 0.3 match along chains of grid points: a non-transitive
# matching, whose exhaustive phase finds a dP4 violation at m = 6
_NORMS = {"name": "norm", "tolerance": 0.3}

# (m, features, trials, seed, relation): the bench spaces at two seeds;
# m = 1 makes no integer draws; trials = 0; m = 70 is wider than a machine
# word; every run of 200 or more trials crosses windows; injected relations
# fail on most trials, so every draw shows in the witnesses
_ORACLE_CASES = (
    [(m, _EVEN, 1000, seed, None) for m in (6, 12, 30) for seed in (1, 2)]
    + [(1, _EVEN, 200, 3, None), (12, _EVEN, 0, 4, None), (70, _EVEN, 200, 5, None), (6, _NORMS, 50, 6, None)]
    + [(12, _EVEN, 300, 7, _lopsided), (70, _EVEN, 100, 8, _lopsided), (5, _NORMS, 200, 9, _second_small)]
)


@functools.lru_cache(maxsize=None)
def _oracle_case(m, features, trials, seed, relation, family):
    sp = _grid_space(m, dict(features))
    got = check_axioms(sp, family, trials=trials, seed=seed, relation=relation)
    return got, _oracle_report(sp, family, trials, seed, relation)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", _ORACLE_CASES, ids=lambda c: f"m{c[0]}-{c[1]['name']}-t{c[2]}-s{c[3]}-{getattr(c[4], '__name__', 'built-in')}")
def test_check_axioms_equals_the_per_trial_oracle(case, family):
    m, features, trials, seed, relation = case
    got, want = _oracle_case(m, tuple(features.items()), trials, seed, relation, family)
    assert got == want


def test_oracle_cases_show_violations():
    # the table is not all clean reports: built-in and injected relations fail
    seen = {v["axiom"] for c in _ORACLE_CASES for f in FAMILIES for v in _oracle_case(c[0], tuple(c[1].items()), *c[2:], f)[0].violations}
    assert {"dP1", "dP4", "snN0", "snN3", "dsnP1"} <= seen, sorted(seen)


# -- pinned reports under injected relations ----------------------------------

_RELATIONS = {
    "built-in": None,
    "always": lambda a, b: True,
    "never": lambda a, b: False,
    "touching": _touching,
    "lopsided": _lopsided,
    "second-small": _second_small,
}

# sha256 of json.dumps(report.to_dict(), sort_keys=True) for
# check_axioms(random_space(seed), family, trials=100, seed=seed, relation=...).
# The seeds give constant, lattice (tau = 0.25), even-coords, norm and coords
# features; seeds 11 and 14 have 5 points, so the exhaustive path runs too.
AXIOM_REPORT_PINS = {
    (1, "Lodato-descriptive", "built-in"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (1, "Lodato-descriptive", "always"): "d21b26e7bf37af5a0949479df5b942300c2664d7f3fe24152db132ab47801a92",
    (1, "Lodato-descriptive", "never"): "781582879b91fc2b0bb99c1c91a4e6986cbd67e8ed89c35c7b2f566e5b285089",
    (1, "Lodato-descriptive", "touching"): "14f9be651f5a079faaec53a341602fc48ded9f4d737380f98505cfdefdc7f66c",
    (1, "Lodato-descriptive", "lopsided"): "4a3c3d7fd41eadabb9944215aaa145655f2e372f7b27a0401c84da5e58d18350",
    (1, "Lodato-descriptive", "second-small"): "ef006fb9e564e5c7c704bd1c0ab4f7a19d3da33c028543a40ac770e767a4879b",
    (1, "strong", "built-in"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (1, "strong", "always"): "05fc97a58889480ce231c411f6a6a1621f1e19de762f1dd4d7d48ef9781ae9b4",
    (1, "strong", "never"): "ca3a4647776101d11a03725ef51a9ec76df576fc0f7ed16720e7d3aa07087013",
    (1, "strong", "touching"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (1, "strong", "lopsided"): "be2ebeaec2426e84df5ce6c7350a074ba326a2117d64bc3e6e7961c4462177fa",
    (1, "strong", "second-small"): "d6caceeb44d03378535e5e21c6a8a550d3cfd509884745f58d6c394577866cb1",
    (1, "descriptive-strong", "built-in"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (1, "descriptive-strong", "always"): "f71b36df68436c3850b2dff136d716a89d9d004b1fc8ee810a72ace9c854e3b0",
    (1, "descriptive-strong", "never"): "23332f0daeb12911b7380fb7b87aca376ab8693d28fe68d1f5732b17b469bd95",
    (1, "descriptive-strong", "touching"): "1d8f233cf829415a82202b2e0c04a38cda89ef2a19c5f0311ee3f3b6b9632b90",
    (1, "descriptive-strong", "lopsided"): "9c92e6c2fc4a64f4edb372b144e554f98f2d32062c1af8916ccde77bb98931bf",
    (1, "descriptive-strong", "second-small"): "d3b7999eeef2dea39d80f9d6a969b8c238c416162bf0f452b90f644f1ed4d7e4",
    (6, "Lodato-descriptive", "built-in"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (6, "Lodato-descriptive", "always"): "2144cc69a96dd1cbcf860b8939eed1055f855e034bde3a4fd7f193990a3237c8",
    (6, "Lodato-descriptive", "never"): "e819ceecdbc8fa081b500767caf08a3aedb976401597462a9398b32fe0b0cca8",
    (6, "Lodato-descriptive", "touching"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (6, "Lodato-descriptive", "lopsided"): "ab47bda2446099b5b2912ecc05678b6b1cbc49dae372767d54c1f462f15b2e6a",
    (6, "Lodato-descriptive", "second-small"): "e507cd031741c59d868b302734bb74c529ee1d85ab4384bd4126de8881094661",
    (6, "strong", "built-in"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (6, "strong", "always"): "790b41871af2904b69c8022bdb510b43c75f55cb6b9d6c30520ac5723af7576a",
    (6, "strong", "never"): "55fea946edd169d6d82427d4a6dc4bb15e1d1d1346cc5467f6dfc5f2e8821409",
    (6, "strong", "touching"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (6, "strong", "lopsided"): "e951688725416881486231d51b7865b5d1164fec8beac861d6c76c3f29fc6461",
    (6, "strong", "second-small"): "a43473d690d40fdcb250d9a53c99d53868094a52d64d5e8dca1d732a45ca929e",
    (6, "descriptive-strong", "built-in"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (6, "descriptive-strong", "always"): "8474ab7a4cb410e4875613f1c6046a9225ac59bf09f66c990d0d9965f3b882f1",
    (6, "descriptive-strong", "never"): "c68fa94194e9dfb8d3fbf925cb2b7ebb330475c5ceff662cd4533da2b07f1fe8",
    (6, "descriptive-strong", "touching"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (6, "descriptive-strong", "lopsided"): "98abc94425e0f2fac34b3aed10ae3f640abfa404f53052a6aea593b49abfbe49",
    (6, "descriptive-strong", "second-small"): "5163ad4a0e713d90454fae290e7529cbc6a5c007294dbf5c3b4d1b1491ab4606",
    (11, "Lodato-descriptive", "built-in"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (11, "Lodato-descriptive", "always"): "3789048aed55fb583159c9d50726045ff8ed55469230ff9a0040be51b7c1701a",
    (11, "Lodato-descriptive", "never"): "f86ffa87c757206a176867ac2efe0a6417e48c4734cacb6cc616c721c01a5ef1",
    (11, "Lodato-descriptive", "touching"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (11, "Lodato-descriptive", "lopsided"): "3381796a55907b1976d4784ceb40d00c479f5f0dc962d6fd26e7ab9834b09c05",
    (11, "Lodato-descriptive", "second-small"): "fcac6e5c66538156f24b0f2cc32a83001baca6b019529823302f9ba103e0321f",
    (11, "strong", "built-in"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (11, "strong", "always"): "7d878e37f9f847f09001904e074aaa0716f8e3e2fc93a87a43b5ff4dba5c9682",
    (11, "strong", "never"): "22aec96fb1685ad28ed6cbaf4c1928ae9a9efbe9eff9681e2927289543839b3c",
    (11, "strong", "touching"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (11, "strong", "lopsided"): "e4aed2fdc1d1947969c82841d901a7b1ce3d258bb9e3f7263d044de41ccf4b5f",
    (11, "strong", "second-small"): "03e1d33242b46885addc4beb43de22cc44baa55344e667806de9a038aa7e9b6d",
    (11, "descriptive-strong", "built-in"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (11, "descriptive-strong", "always"): "f31331ed5c218e98fc3c0dd5e29e21a1e56bc6ceb4ed0a0a820869659ffa2342",
    (11, "descriptive-strong", "never"): "640a4ab6ee7d1ce8bb3a4f0ed294cd8ca3f0b81bc67858d6b0f74bf2c2e7d11a",
    (11, "descriptive-strong", "touching"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (11, "descriptive-strong", "lopsided"): "ffcb85fd347ed8c585c346df2e74b59760094181f22fcc9c3bd0a2c4c1b57da5",
    (11, "descriptive-strong", "second-small"): "0ac895d4ab2720664ac94f3190a9c521910d17df578010062003ad6b9dae0685",
    (14, "Lodato-descriptive", "built-in"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (14, "Lodato-descriptive", "always"): "f55f904e9d887db8a4c5af1d7c4c137eb947df8eae834677c4ab46b08cf4aa7a",
    (14, "Lodato-descriptive", "never"): "1d3770b6c0b397b2c66a67a4a1f3a29cc0965809921e6745f18df7a79a5721ae",
    (14, "Lodato-descriptive", "touching"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (14, "Lodato-descriptive", "lopsided"): "5a9277ca205216841a20ed285c55c6c69313cb697f671d22de879de38851cadf",
    (14, "Lodato-descriptive", "second-small"): "d15e6d083bd8e84de9631f7d45f5d4701c62fb21b50d929163ef2af334878577",
    (14, "strong", "built-in"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (14, "strong", "always"): "55ae78066ae98b92a63b0cdc6cdc9b445772d178529381693916bb4c1e5af5c2",
    (14, "strong", "never"): "d969aaf821f5066468342c3a7dec3be2e9591d22f7084b89cdf73d628185e083",
    (14, "strong", "touching"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (14, "strong", "lopsided"): "e62b9d500206a5f529d15f1e4a39fe6fcbb97e82108f93817f6bdaa23cbbce56",
    (14, "strong", "second-small"): "f93b4c87f18fa68a2eaeb061c47012b1a82343d288d86a5ec2705291ede54a3b",
    (14, "descriptive-strong", "built-in"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (14, "descriptive-strong", "always"): "9c07202651d54a8944f9ea638e3283c8c861c91a8414c97e844baccbf120fc78",
    (14, "descriptive-strong", "never"): "aaae5745ce2fa47e931c267b7d8ef2e90aa60ffcbbb9b262bc3074f4cb366d80",
    (14, "descriptive-strong", "touching"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (14, "descriptive-strong", "lopsided"): "134c01cd20b982e62f31aae033c446e5e8084ff18b8f2f348e307b6de60276e1",
    (14, "descriptive-strong", "second-small"): "c8f6e3ff39c86d9b4284bdedcfde12a737aae197af42ce5c44fb53454931035d",
    (15, "Lodato-descriptive", "built-in"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (15, "Lodato-descriptive", "always"): "50ba5f29ebdb5af0daee0dfa5adffbfe65a84a30a812b60271784e4354db2501",
    (15, "Lodato-descriptive", "never"): "38b63655173f6927bc552e6814368f59b434006c6dceefac60beda0fa31f14f1",
    (15, "Lodato-descriptive", "touching"): "62ab5f7886f4ff93144b10e471342f890819383b17eabd1a79c3437858e117c9",
    (15, "Lodato-descriptive", "lopsided"): "d8b0c6a33fc9f7c546892ca1eed88df90b75d61d669e6f6fcfa223f091f9fd5d",
    (15, "Lodato-descriptive", "second-small"): "51d23722a0399642db81012237a6b2c6cdff7b91c336cc01f46cf16034dd5b8b",
    (15, "strong", "built-in"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (15, "strong", "always"): "bdc43f5ac7a5eaac91896e01f996382c44cbd40287e2a2c96be961a780a463a6",
    (15, "strong", "never"): "9780296f64a1e2d39871be45f7be7b3e4c8ab35a5fee846a798208d1da9a1bdd",
    (15, "strong", "touching"): "0e5991a3c2cbe6a82901a03885fe3138c78e50cf9a25f396f7b3d3da2cf8f49b",
    (15, "strong", "lopsided"): "c6a74c37efdc2d18ca135c6d33555cf1b8ae1e3759bd27232c1890ddeb8c9aa6",
    (15, "strong", "second-small"): "33b33ed0e8f4566ef12ad7679ff33748728feb8b306e7e5053690ff3a3552dba",
    (15, "descriptive-strong", "built-in"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (15, "descriptive-strong", "always"): "8d8eeb78cb23334a9eaa3977927d169e3ab92fb91e20a87bdb5ae5d7e849dfb8",
    (15, "descriptive-strong", "never"): "1b7ae0918ebf12529c9cc572e5038160b9138fd1062457fdd460d3583959c85a",
    (15, "descriptive-strong", "touching"): "080a520214834e542f627977813c2e22b35b1ad2153f3f8db188da327ccddbef",
    (15, "descriptive-strong", "lopsided"): "0d2e17ac87032cfa91c8004bb82b266742ddad28007b434256e9cb2eeb9e3bd7",
    (15, "descriptive-strong", "second-small"): "0081d2b223afd7092bb42212af4df212f5b7da4e4d3e1851a9ef74666b391088",
}


@functools.lru_cache(maxsize=None)
def _pinned_report(seed, family, relation):
    return check_axioms(random_space(seed), family, trials=100, seed=seed, relation=_RELATIONS[relation])


@pytest.mark.parametrize("case", sorted(AXIOM_REPORT_PINS), ids=lambda c: "-".join(map(str, c)))
def test_axiom_report_is_pinned(case):
    # trial numbers, witnesses and violation order are all part of the digest
    text = json.dumps(_pinned_report(*case).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == AXIOM_REPORT_PINS[case]


def test_pinned_reports_violate_every_strong_axiom():
    seen = {v["axiom"] for case in AXIOM_REPORT_PINS for v in _pinned_report(*case).violations}
    want = {f"snN{i}" for i in range(7)} | {f"dsnP{i}" for i in (0, 1, 2, 4, 5, 6)}
    assert want <= seen, sorted(want - seen)
