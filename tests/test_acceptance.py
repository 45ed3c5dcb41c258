"""Acceptance gate: the nine shipping criteria, one verdict line each.

Each criterion prints a PASS/FAIL line into the terminal summary (see
conftest.py) and then asserts, so a red run still reports every verdict.
Tolerances and budgets are pinned here on purpose; loosening them is a
product change, not a test fix.
"""

import json
import time

import numpy as np
import pytest

from proxitop import (
    FAMILIES,
    StringPath,
    TorusParams,
    bend_to_torus,
    but_search,
    check_axioms,
    corner_region_descriptor,
    descriptive_intersection,
    dnear,
    eeg_twist_lift,
    feature_descriptor,
    feature_map_from_config,
    fixed_point_search,
    roll_worldsheet,
    sample_region_pairs,
    sphere_sample,
    string_shape_features,
    torus_measures,
    torus_residual,
    trace_to_torus_band,
    twist_height,
    wired_friend_pipeline,
)
from proxitop.cli import run_command
from proxitop.proximity import random_space

TAU = 2.0 * np.pi


@pytest.fixture
def verdict(request):
    store = getattr(request.config, "_acceptance_lines", None)
    if store is None:
        store = []
        request.config._acceptance_lines = store

    def record(criterion, ok, detail):
        store.append(
            f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
        )
        assert ok, f"criterion {criterion} failed: {detail}"

    return record


def test_criterion_1_axiom_suites_clean(verdict):
    # 20 random spaces, 1000 trials per family, sizes 4/5/6/6 first so the
    # exhaustive small-space path runs; budget 10 s
    start = time.perf_counter()
    violations = 0
    exhaustive_spaces = 0
    for k in range(20):
        size = [4, 5, 6, 6][k] if k < 4 else None
        sp = random_space(seed=100 + k, size=size)
        if sp.size <= 6:
            exhaustive_spaces += 1
        for family in FAMILIES:
            rep = check_axioms(sp, family, trials=1000, seed=k)
            violations += len(rep.violations)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed <= 10.0 and exhaustive_spaces >= 4
    verdict(
        1,
        ok,
        f"axiom suites: {violations} violations over 20 spaces x 3 families, "
        f"{exhaustive_spaces} exhaustive spaces, {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_nearness_iff_intersection(verdict):
    total = 0
    agree = 0
    oracle_agree = 0
    seed = 0
    while total < 10_000:
        sp = random_space(seed=500 + seed)
        tol = sp.features.match_tolerance
        # independent pairwise oracle: one description table per space,
        # indexed by universe row (region points are universe rows exactly)
        table = sp.features.rows(sp.universe)

        def described(r):
            hit = np.all(r.points[:, None, :] == sp.universe, axis=2)
            assert hit.any(axis=1).all()
            return table[hit.argmax(axis=1)]

        for a, b in sample_region_pairs(sp, 200, seed=seed):
            inter = descriptive_intersection(a, b, sp.features)
            near = dnear(a, b, sp.features)
            if near == bool(inter.shape[0]):
                agree += 1
            # some a in A and b in B match
            fa, fb = described(a), described(b)
            gap = np.max(np.abs(fa[:, None, :] - fb[None, :, :]), axis=2)
            if near == bool(np.any(gap <= tol)):
                oracle_agree += 1
            total += 1
        seed += 1
    ok = agree == total and oracle_agree == total
    verdict(
        2,
        ok,
        f"nearness equivalence: {agree}/{total} sampled pairs agree, "
        f"{oracle_agree}/{total} match the pairwise oracle",
    )


def test_criterion_3_circle_strings_antipodal_search(verdict):
    grid = sphere_sample(1, 32)
    arcs = [StringPath(grid.samples[i : i + 4]) for i in range(0, grid.size, 4)]
    fm = feature_map_from_config({"name": "even-coords", "dim": 2, "tolerance": 1e-9})
    desc = feature_descriptor(fm)
    start = time.perf_counter()
    res = but_search(desc, strings=arcs)
    elapsed = time.perf_counter() - start
    got = [(p.a, p.b) for p in res.pairs]
    oracle = []
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if float(np.max(np.abs(desc(arcs[i]) - desc(arcs[j])))) <= 1e-9:
                oracle.append((i, j))
    matched = set()
    for a, b in got:
        matched.add(a)
        matched.add(b)
    zero_dist = all(p.distance <= 1e-12 for p in res.pairs)
    ok = (
        len(arcs) == 16
        and got == oracle
        and matched == set(range(16))
        and zero_dist
        and elapsed <= 1.0
    )
    verdict(
        3,
        ok,
        f"circle strings: {len(got)} antipodal pairs cover all 16 strings, "
        f"oracle match, {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_4_corner_lemma_exhaustive(verdict):
    checked = 0
    bad = 0
    for w in range(2, 7):
        for h in range(2, 7):
            for i in range(w):
                for j in range(h):
                    got = corner_region_descriptor(w, h, (i, j))
                    edges = (i in (0, w - 1)) + (j in (0, h - 1))
                    want = {0: 4.0, 1: 3.0, 2: 2.0}[edges]
                    checked += 1
                    if got != want:
                        bad += 1
            if corner_region_descriptor(w, h, (0, 0)) != corner_region_descriptor(
                w, h, (w - 1, h - 1)
            ):
                bad += 1
    ok = bad == 0
    verdict(4, ok, f"corner lemma: {checked} cells exact on all grids 2..6, {bad} bad")


def test_criterion_5_fixed_points_vs_oracle(verdict):
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        n = 1 + (k % 2)  # alternate the 1-ball and the 2-ball
        m = rng.standard_normal((n, n))
        m *= 0.9 * rng.uniform(0.5, 1.0) / np.linalg.norm(m, 2)
        b = rng.standard_normal(n)
        b *= rng.uniform(0.0, 0.05) / np.linalg.norm(b)
        star = np.linalg.solve(np.eye(n) - m, b)
        x = fixed_point_search(lambda v: np.asarray(v) @ m.T + b, n)
        worst = max(worst, float(np.linalg.norm(x - star)))
    cos_x = fixed_point_search(lambda v: np.cos(np.asarray(v, dtype=float)), 1)
    cos_err = abs(float(cos_x[0]) - 0.7390851332)
    ok = worst <= 1e-6 and cos_err <= 1e-6
    verdict(
        5,
        ok,
        f"fixed points: worst affine error {worst:.2e} (tol 1e-6), "
        f"cos error {cos_err:.2e}",
    )


def test_criterion_6_torus_measures(verdict):
    tp = TorusParams(2.0, 1.0)
    area, volume = torus_measures(tp)
    closed_ok = (
        abs(area - 8.0 * np.pi**2) <= 1e-12 and abs(volume - 4.0 * np.pi**2) <= 1e-12
    )
    n = 512
    u = (np.arange(n) + 0.5) * TAU / n
    v = (np.arange(n) + 0.5) * TAU / n
    uu, vv = np.meshgrid(u, v, indexing="ij")
    cell = (TAU / n) ** 2
    num_area = float(np.sum(1.0 * (2.0 + np.cos(vv))) * cell)
    p = bend_to_torus(tp, uu.ravel(), vv.ravel()).reshape(n, n, 3)
    du = np.stack(
        [-(2.0 + np.cos(vv)) * np.sin(uu), (2.0 + np.cos(vv)) * np.cos(uu),
         np.zeros_like(uu)],
        axis=2,
    )
    dv = np.stack(
        [-np.sin(vv) * np.cos(uu), -np.sin(vv) * np.sin(uu), np.cos(vv)], axis=2
    )
    num_volume = abs(
        float(np.sum(np.einsum("ijk,ijk->ij", p, np.cross(du, dv))) * cell / 3.0)
    )
    rel_area = abs(area - num_area) / num_area
    rel_volume = abs(volume - num_volume) / num_volume
    ok = closed_ok and rel_area <= 1e-3 and rel_volume <= 1e-3
    verdict(
        6,
        ok,
        f"torus measures: closed form to 1e-12, midpoint 512x512 rel errors "
        f"{rel_area:.1e}/{rel_volume:.1e} (tol 1e-3)",
    )


def test_criterion_7_parametric_identities(verdict):
    rng = np.random.default_rng(7)
    tp = TorusParams(2.0, 0.7)
    u = rng.uniform(0.0, TAU, size=10_000)
    v = rng.uniform(0.0, TAU, size=10_000)
    bend_worst = float(np.max(torus_residual(bend_to_torus(tp, u, v), tp)))
    w, h = 3.0, 2.0
    r = w / TAU
    s = roll_worldsheet(rng.uniform(0, w, 10_000), rng.uniform(0, h, 10_000), w, h)
    roll_worst = float(np.max(np.abs(s[:, 0] ** 2 + s[:, 1] ** 2 - r * r)))
    ok = bend_worst <= 1e-12 and roll_worst <= 1e-12
    verdict(
        7,
        ok,
        f"parametric identities: bend residual {bend_worst:.1e}, "
        f"roll radius error {roll_worst:.1e} over 10^4 samples each (tol 1e-12)",
    )


def test_criterion_8_eeg_pipeline(verdict, tmp_path, capsys):
    twist_ok = twist_height(0.0, 1.0) == 0.0 and all(
        twist_height(np.pi / 5.0, z) == -1.2 for z in (-1.0, -0.5, 0.0, 0.5, 1.0)
    )
    rng = np.random.default_rng(8)
    xz = rng.uniform(-2.0, 2.0, size=(64, 2))
    lifted = eeg_twist_lift(xz)
    round_trip_ok = np.array_equal(lifted.vertices[:, :2], xz)

    trace = tmp_path / "trace.csv"
    rows = ["t,x,z"] + [
        f"{k / 10.0},{x},{z}" for k, (x, z) in enumerate(rng.uniform(-1, 1, (40, 2)))
    ]
    trace.write_text("\n".join(rows) + "\n")
    out = tmp_path / "band.obj"
    rc = run_command(
        ["eeg", "torus", "--in", str(trace), "--c", "2", "--r", "1", "--out", str(out)]
    )
    report = json.loads(capsys.readouterr().out)
    tp = TorusParams(2.0, 1.0)
    xs = np.array([[float(a) for a in r.split(",")[1:]] for r in rows[1:]])
    verts, faces = trace_to_torus_band(tp, xs)
    exact_residual = float(np.max(torus_residual(verts, tp)))
    obj_lines = out.read_text().splitlines()
    vlines = [ln for ln in obj_lines if ln.startswith("v ")]
    flines = [ln for ln in obj_lines if ln.startswith("f ")]
    parsed = np.array([[float(t) for t in ln.split()[1:]] for ln in vlines])
    obj_ok = (
        len(vlines) == verts.shape[0]
        and len(flines) == faces.shape[0]
        and all(
            1 <= int(t) <= len(vlines) for ln in flines for t in ln.split()[1:]
        )
        and float(np.max(np.abs(parsed - verts))) <= 1e-7
    )
    cli_ok = rc == 0 and report["results"]["max_residual"] <= 1e-9
    ok = twist_ok and round_trip_ok and cli_ok and exact_residual <= 1e-9 and obj_ok
    verdict(
        8,
        ok,
        f"eeg pipeline: pinned twists exact, lift round-trip bit-exact, "
        f"end-to-end mesh residual {exact_residual:.1e} (tol 1e-9), OBJ valid",
    )


def test_criterion_9_wired_friend_invariance(verdict):
    rng = np.random.default_rng(9)
    worst = 0.0
    inside = True
    strings = 0
    while strings < 100:
        m = int(rng.integers(2, 10))
        dim = int(rng.integers(2, 4))
        v = rng.uniform(-3.0, 3.0, size=(m, dim))
        try:
            s = StringPath(v)
        except ValueError:
            continue
        strings += 1
        base = string_shape_features(s)
        res = wired_friend_pipeline(s)
        inside = inside and res.ball_ok and float(np.linalg.norm(res.description)) < 1.0
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            t = rng.uniform(-5.0, 5.0, size=dim)
            moved = StringPath(v @ q.T + t)
            worst = max(
                worst, float(np.max(np.abs(string_shape_features(moved) - base)))
            )
            res_m = wired_friend_pipeline(moved)
            inside = inside and res_m.ball_ok
    ok = worst <= 1e-9 and inside
    verdict(
        9,
        ok,
        f"wired friend: descriptor varies {worst:.1e} over 100 strings x 10 "
        f"rigid motions (tol 1e-9), descriptions inside the unit ball",
    )
