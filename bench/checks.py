"""Output checks behind the benchmark's failure count.

Every check recomputes the expected answer with numpy (or scipy's LP
solver for the Petty test) from the documented definitions, without calling
the code under test. Report fields are read by name and unknown keys are
ignored, so added report blocks or a schema bump do not count as failures.
A check raises CheckError with a one-line reason.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

POINT_TOL = 1e-9
# OBJ vertices carry 9 significant digits, so each printed coordinate below
# 10 in magnitude is off by at most 5e-9 from the exact vertex.
OBJ_COORD_TOL = 5e-9


class CheckError(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- antipodal search ---------------------------------------------------------


def _circle_samples(density: int) -> np.ndarray:
    ang = np.arange(2 * density) * (np.pi / density)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _sphere_spiral(density: int) -> np.ndarray:
    i = np.arange(density)
    z = 1.0 - (2.0 * i + 1.0) / density
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = np.pi * (3.0 - np.sqrt(5.0)) * i
    half = np.stack([rad * np.cos(ang), rad * np.sin(ang), z], axis=1)
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    return np.concatenate([half, -half])


def _point_segment(p, a, b):
    """Distances from points p to segments [a, b]; all (k, 2) arrays."""
    ab = b - a
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / np.einsum("ij,ij->i", ab, ab), 0.0, 1.0)
    return np.linalg.norm(a + t[:, None] * ab - p, axis=1)


def _segments_distance(p0, p1, q0, q1):
    """Distances between planar segments [p0, p1] and [q0, q1], row by row."""

    def orient(a, b, c):
        return np.sign((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    crossing = (orient(p0, p1, q0) * orient(p0, p1, q1) < 0) & (orient(q0, q1, p0) * orient(q0, q1, p1) < 0)
    ends = np.min(
        [_point_segment(p0, q0, q1), _point_segment(p1, q0, q1),
         _point_segment(q0, p0, p1), _point_segment(q1, p0, p1)],
        axis=0,
    )
    return np.where(crossing, 0.0, ends)


def _polylines_distance(a: np.ndarray, b: np.ndarray) -> float:
    sa = np.repeat(np.arange(len(a) - 1), len(b) - 1)
    sb = np.tile(np.arange(len(b) - 1), len(a) - 1)
    return float(np.min(_segments_distance(a[sa], a[sa + 1], b[sb], b[sb + 1])))


def _strings_differ(a: np.ndarray, b: np.ndarray) -> bool:
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return bool(np.any(d.min(axis=1) > POINT_TOL) or np.any(d.min(axis=0) > POINT_TOL))


def _sheets_antipodal(a: list, b: list) -> bool:
    return any(_polylines_distance(sa, sb) > POINT_TOL for sa in a for sb in b)


def but_search(report: dict, workdir: Path, *, mode: str, n: int, density: int, tol: float) -> None:
    """Re-derive every matched pair, its descriptor value and distance, and the count."""
    res = report["results"]
    _expect(res["mode"] == mode, f"mode {res['mode']!r} != {mode!r}")
    if mode == "points":
        samples = _sphere_spiral(density) if n == 2 else _circle_samples(density)
        values = np.abs(samples)  # even-coords of a bare point
        candidates = [(i, i + density) for i in range(density)]
        antipodal = None
    else:
        arcs = _circle_samples(density).reshape(-1, 4, 2)
        if mode == "strings":
            objects = list(arcs)
            antipodal = _strings_differ
            values = np.abs(arcs).mean(axis=1)  # mean of even-coords over the arc
        else:
            objects = [[arcs[k], arcs[k + 1]] for k in range(0, len(arcs), 2)]
            antipodal = _sheets_antipodal
            values = np.abs(arcs).reshape(-1, 8, 2).mean(axis=1)  # over both member arcs
        candidates = [(i, j) for i in range(len(objects)) for j in range(i + 1, len(objects))]
    _expect(res["object_count"] == len(values), f"object_count {res['object_count']} != {len(values)}")
    cand = np.array(candidates)
    dist = np.max(np.abs(values[cand[:, 0]] - values[cand[:, 1]]), axis=1)
    expected = {}
    for (i, j), d in zip(candidates, dist):
        if d <= tol and (antipodal is None or antipodal(objects[i], objects[j])):
            expected[(i, j)] = d
    got = {(p["a"], p["b"]): p for p in res["pairs"]}
    _expect(len(got) == len(res["pairs"]), "duplicate pairs in the report")
    _expect(set(got) == set(expected), f"{len(got)} pairs reported, oracle finds {len(expected)}")
    for (i, j), p in got.items():
        _expect(np.allclose(p["value"], values[i], rtol=0, atol=1e-12), f"pair ({i}, {j}) value off")
        _expect(abs(p["distance"] - expected[(i, j)]) <= 1e-12, f"pair ({i}, {j}) distance off")


def _lp_pair_supported(pts: np.ndarray, p: np.ndarray, q: np.ndarray) -> bool:
    """Is there v with p minimal and q maximal on pts along v, and v.(q - p) = 1?"""
    from scipy.optimize import linprog

    n = pts.shape[1]
    res = linprog(
        np.zeros(n),
        A_ub=np.concatenate([-(pts - p), pts - q]),
        b_ub=np.zeros(2 * len(pts)),
        A_eq=(q - p)[None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * n,
        method="highs",
        options={"presolve": False},
    )
    return res.status == 0


def petty_oracle(pts: np.ndarray) -> bool:
    """Every pair is supported: the LP is feasible for each unordered pair.

    (p, q) and (q, p) are the same slab with v negated. The direction
    v = (q - p) / |q - p|^2 is tried first: when it meets the LP's
    constraints it is a feasible point and the LP need not run.
    """
    m = len(pts)
    i, j = np.triu_indices(m, 1)
    v = pts[j] - pts[i]
    v /= np.einsum("ij,ij->i", v, v)[:, None]
    proj = pts @ v.T  # (points, pairs)
    slack = POINT_TOL * max(1.0, float(np.abs(proj).max()))
    p_min = proj[i, np.arange(len(i))] <= proj.min(axis=0) + slack
    q_max = proj[j, np.arange(len(j))] >= proj.max(axis=0) - slack
    direct = p_min & q_max
    return all(direct[k] or _lp_pair_supported(pts, pts[i[k]], pts[j[k]]) for k in range(len(i)))


def petty(report: dict, workdir: Path, *, points: np.ndarray) -> None:
    res = report["results"]
    _expect(res["points"] == len(points), f"points {res['points']} != {len(points)}")
    want = petty_oracle(points)
    _expect(res["antipodal"] is want, f"verdict {res['antipodal']} != LP oracle {want}")


_MAPS = {
    "cos": np.cos,
    "rot90": lambda x: np.array([[0.0, -1.0], [1.0, 0.0]]) @ x,
}


def fixedpoint(report: dict, workdir: Path, *, name: str, tol: float) -> None:
    res = report["results"]
    x = np.asarray(res["point"], dtype=float)
    _expect(np.linalg.norm(x) <= 1.0 + 1e-12, "fixed point outside the unit ball")
    residual = float(np.linalg.norm(_MAPS[name](x) - x))
    _expect(residual <= tol, f"residual {residual:.3e} above tol {tol:.1e}")
    _expect(res["residual"] <= tol, f"reported residual {res['residual']:.3e} above tol")


# -- surfaces ------------------------------------------------------------------


def _read_obj(path: Path):
    lines = path.read_text().splitlines()
    v = [ln[2:] for ln in lines if ln.startswith("v ")]
    f = [ln[2:] for ln in lines if ln.startswith("f ")]
    _expect(len(v) + len(f) == len(lines), "OBJ has lines other than v and f")
    verts = np.array(" ".join(v).split(), dtype=float).reshape(-1, 3)
    faces = np.array(" ".join(f).split(), dtype=np.int64).reshape(-1, 4)
    return verts, faces


def _bend(c: float, r: float, u, v) -> np.ndarray:
    ring = c + r * np.cos(v)
    return np.stack(np.broadcast_arrays(ring * np.cos(u), ring * np.sin(u), r * np.sin(v)), axis=-1)


def _check_mesh(res: dict, path: Path, c: float, r: float, verts: np.ndarray, faces: np.ndarray) -> None:
    got_v, got_f = _read_obj(path)
    _expect(len(got_v) == len(verts), f"OBJ has {len(got_v)} vertices, expected {len(verts)}")
    _expect(len(got_f) == len(faces), f"OBJ has {len(got_f)} faces, expected {len(faces)}")
    _expect(res["vertices"] == len(verts) and res["faces"] == len(faces), "report counts off")
    _expect(np.array_equal(got_f, faces + 1), "OBJ faces differ from the quad grid")
    _expect(float(np.max(np.abs(got_v - verts))) <= OBJ_COORD_TOL * 2, "OBJ vertices off the torus grid")
    residual = np.abs((np.hypot(got_v[:, 0], got_v[:, 1]) - c) ** 2 + got_v[:, 2] ** 2 - r * r)
    # the residual's gradient has norm 2r on the surface
    limit = 1e-9 + 2.0 * r * np.sqrt(3.0) * OBJ_COORD_TOL
    _expect(float(residual.max()) <= limit, f"parsed OBJ residual {residual.max():.2e} > {limit:.2e}")
    _expect(res["max_residual"] <= 1e-9, f"reported residual {res['max_residual']:.2e} > 1e-9")


def surface_torus(report: dict, workdir: Path, *, c: float, r: float, nu: int, nv: int, out: str) -> None:
    res = report["results"]
    u = 2.0 * np.pi * np.arange(nu) / nu
    v = 2.0 * np.pi * np.arange(nv) / nv
    verts = _bend(c, r, u[:, None], v[None, :]).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    i2, j2 = (i + 1) % nu, (j + 1) % nv
    faces = np.stack([i * nv + j, i2 * nv + j, i2 * nv + j2, i * nv + j2], axis=-1).reshape(-1, 4)
    _check_mesh(res, workdir / out, c, r, verts, faces)
    _expect(abs(res["area"] - 4 * np.pi**2 * c * r) <= 1e-12 * res["area"], "area off")
    _expect(abs(res["volume"] - 2 * np.pi**2 * c * r * r) <= 1e-12 * res["volume"], "volume off")


def eeg_torus(report: dict, workdir: Path, *, xz: np.ndarray, c: float, r: float, out: str) -> None:
    k = 16
    x, z = xz[:, 0], xz[:, 1]
    u = 2.0 * np.pi * (x - x.min()) / (x.max() - x.min())
    zspan = z.max() - z.min()
    v0 = np.zeros_like(z) if zspan <= 0 else 2.0 * np.pi * (z - z.min()) / zspan
    verts = _bend(c, r, u[:, None], v0[:, None] + 2.0 * np.pi * np.arange(k) / k).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(len(x) - 1), np.arange(k), indexing="ij")
    j2 = (j + 1) % k
    faces = np.stack([i * k + j, (i + 1) * k + j, (i + 1) * k + j2, i * k + j2], axis=-1).reshape(-1, 4)
    _check_mesh(report["results"], workdir / out, c, r, verts, faces)


def eeg_lift(report: dict, workdir: Path, *, xz: np.ndarray, out: str) -> None:
    lines = (workdir / out).read_text().splitlines()
    _expect(lines[0] == "x,y,z", "curve CSV header is not x,y,z")
    rows = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, 3)
    _expect(len(rows) == len(xz), f"curve has {len(rows)} rows, trace {len(xz)}")
    _expect(np.array_equal(rows[:, :2], xz), "lifted (x, y) are not the trace (x, z) bit for bit")
    x, z = xz[:, 0], xz[:, 1]
    twist = 1.2 * (1.0 - z * np.cos(2.5 * x)) * np.cos(5.0 * x)
    _expect(float(np.max(np.abs(rows[:, 2] - twist))) <= 1e-12, "twist heights off")
    res = report["results"]
    _expect(res["samples"] == len(xz), "report sample count off")
    _expect(res["twist_min"] == rows[:, 2].min() and res["twist_max"] == rows[:, 2].max(), "twist range off")


# -- nearness ------------------------------------------------------------------


def axioms(report: dict, workdir: Path, *, family: str, trials: int) -> None:
    res = report["results"]
    _expect(res["family"] == family and res["trials"] == trials, "family or trials echoed wrongly")
    _expect(res["passed"] is True and not res["violations"], f"{len(res['violations'])} violations")


def _dnear_oracle(a, b) -> bool:
    """Some a in A and b in B have equal even-coords descriptions (tau = 0)."""
    fa, fb = np.abs(a.points), np.abs(b.points)
    return bool(np.any(np.all(fa[:, None, :] == fb[None, :, :], axis=2)))


def relations(result: list, workdir: Path, *, pairs: list) -> None:
    _expect(len(result) == len(pairs), "one answer per pair expected")
    got = [bool(r[0]) for r in result]
    want = [_dnear_oracle(a, b) for a, b in pairs]
    bad = sum(g != w for g, w in zip(got, want))
    _expect(bad == 0, f"dnear disagrees with the pairwise oracle on {bad} pairs")


def continuity(report, workdir: Path, *, pairs: list) -> None:
    res = report.to_dict()
    near = sum(_dnear_oracle(a, b) for a, b in pairs)
    _expect(res["mode"] == "descriptive" and res["pairs_checked"] == len(pairs), "mode or count off")
    _expect(res["near_pairs"] == near, f"near_pairs {res['near_pairs']} != oracle {near}")
    # the reflection keeps every even-coords description, so nearness survives
    _expect(not res["counterexamples"], f"{len(res['counterexamples'])} counterexamples")
