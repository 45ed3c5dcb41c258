"""Axiom family checker: clean runs, injected defects, engine consistency."""

import functools
import hashlib
import json

import numpy as np
import pytest

from proxitop import (
    FAMILIES,
    FAMILY_DESCRIPTIVE,
    FAMILY_DESCRIPTIVE_STRONG,
    FAMILY_STRONG,
    check_axioms,
    dnear,
    sn,
    snd,
)
from proxitop.proximity import _MaskEngine, _exhaustive_descriptive, _relation_adapter, random_space


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


def test_mask_engine_matches_public_relations():
    # the bitmask fast path and the public Region relations must agree
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


def _exhaustive_loops(eng, near):
    # the exhaustive phase as plain loops over subsets: the first violation
    # of dP3 in (A, B, C) order, of dP4 in (C, B, A) order, then of dP5
    m, S = eng.m, 1 << eng.m
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
            if dn[1 << x][1 << y] and not eng.match_rows[x] >> y & 1:
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
            assert got == _exhaustive_loops(eng, near), (seed, size, relation)
            seen |= {v["axiom"] for v in got}
    assert seen == {"dP3", "dP4", "dP5"}


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
