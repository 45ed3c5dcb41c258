"""Command line front end.

Subcommands map one-to-one onto library calls and print a JSON report to
stdout. Exit codes: 0 on success, 1 on runtime or validation failures, 2 on
usage errors; every failure prints a single "error: ..." line to stderr.
Reports contain no timestamps, so identical argv and input bytes give
byte-identical output. PROXITOP_SEED supplies a default seed where a
--seed flag exists; the flag wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import borsuk, geometry, proximity, surfaces
from .io import (
    MeshDocument,
    ReportDocument,
    export_mesh,
    file_digest,
    load_points_csv,
    load_trace_csv,
    save_curve_csv,
)

__all__ = ["run_command", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("PROXITOP_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PROXITOP_SEED is not an integer: {raw!r}") from None


def _emit(report: ReportDocument) -> int:
    sys.stdout.write(report.to_json())
    return 0


def _features_config(raw: str | None) -> dict:
    if raw is None:
        return {"name": "coords"}
    text = raw
    if raw.startswith("@"):
        with open(raw[1:], "r") as fh:
            text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"feature config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ValueError("feature config must be a JSON object")
    return cfg


_FAMILY_ALIASES = {
    "descriptive": proximity.FAMILY_DESCRIPTIVE,
    "lodato-descriptive": proximity.FAMILY_DESCRIPTIVE,
}


def _cmd_axioms_check(ns) -> int:
    family = _FAMILY_ALIASES.get(ns.family.lower(), ns.family)
    if family not in proximity.FAMILIES:
        raise ValueError(
            f"unknown family {ns.family!r}, expected one of {', '.join(proximity.FAMILIES)}"
        )
    pts = load_points_csv(ns.space)
    cfg = _features_config(ns.features)
    fm = proximity.feature_map_from_config(cfg, dim=pts.shape[1] if pts.size else None)
    space = proximity.DescriptiveSpace(pts, fm)
    report = proximity.check_axioms(space, family, trials=ns.trials, seed=ns.seed)
    doc = ReportDocument(
        command="axioms check",
        parameters={
            "family": family,
            "space": ns.space,
            "trials": ns.trials,
            "seed": ns.seed,
            "features": cfg,
        },
        results=report.to_dict(),
        input_digest={"space": file_digest(ns.space)},
    )
    return _emit(doc)


def _cmd_antipodes_witness(ns) -> int:
    pts = load_points_csv(ns.points)
    if pts.shape[0] != 2:
        raise ValueError(f"witness needs exactly 2 points, got {pts.shape[0]}")
    w = geometry.antipodal_point_witness(pts[0], pts[1])
    if w is None:
        result = {"witness": None}
    else:
        result = {
            "witness": {
                "normal": [float(c) for c in w[0].normal],
                "offsets": [w[0].offset, w[1].offset],
            }
        }
    doc = ReportDocument(
        command="antipodes witness",
        parameters={"points": ns.points},
        results=result,
        input_digest={"points": file_digest(ns.points)},
    )
    return _emit(doc)


def _cmd_antipodes_petty(ns) -> int:
    pts = load_points_csv(ns.points)
    verdict = geometry.petty_antipodal_set(pts)
    doc = ReportDocument(
        command="antipodes petty",
        parameters={"points": ns.points},
        results={"antipodal": bool(verdict), "points": pts.shape[0]},
        input_digest={"points": file_digest(ns.points)},
    )
    return _emit(doc)


def _parse_grid_spec(tokens) -> tuple:
    spec = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"grid spec entries look like key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        spec[k.strip()] = v.strip()
    extra = set(spec) - {"n", "density"}
    if extra:
        raise UsageError(f"unknown grid spec keys: {sorted(extra)}")
    try:
        n = int(spec.get("n", "1"))
        density = int(spec.get("density", "2"))
    except ValueError:
        raise UsageError("grid spec n and density must be integers") from None
    return n, density


def _cmd_but_search(ns) -> int:
    n, density = _parse_grid_spec(ns.grid)
    if n not in (1, 2):
        raise ValueError("but search supports grid n=1 or n=2")
    grid = geometry.sphere_sample(n, density)
    fm = proximity.feature_map_from_config(
        {"name": ns.descriptor, "dim": n + 1, "tolerance": ns.tol}
    )
    if ns.mode == "points":
        result = borsuk.but_search(borsuk.feature_descriptor(fm), grid=grid, tol=ns.tol)
    else:
        if n != 1:
            raise ValueError(f"{ns.mode} mode builds circle arcs and needs n=1")
        arcs = geometry.arc_strings(grid)
        desc = borsuk.feature_descriptor(fm, "mean")
        if ns.mode == "strings":
            result = borsuk.but_search(desc, strings=arcs, tol=ns.tol)
        else:
            result = borsuk.but_search(desc, sheets=geometry.arc_sheets(arcs), tol=ns.tol)
    doc = ReportDocument(
        command="but search",
        parameters={
            "mode": ns.mode,
            "n": n,
            "density": density,
            "descriptor": ns.descriptor,
            "tol": ns.tol,
        },
        results=result.to_dict(),
    )
    return _emit(doc)


def _parse_mesh_grid(raw: str) -> tuple:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"mesh grid looks like GxG, got {raw!r}")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"mesh grid looks like GxG, got {raw!r}") from None
    return nu, nv


def _cmd_surface_torus(ns) -> int:
    params = surfaces.TorusParams(ns.c, ns.r)
    nu, nv = _parse_mesh_grid(ns.grid)
    verts, faces = surfaces.torus_grid(params, nu, nv)
    mesh = MeshDocument(verts, faces)
    export_mesh(mesh, ns.out)
    area, volume = surfaces.torus_measures(params)
    doc = ReportDocument(
        command="surface torus",
        parameters={"c": ns.c, "r": ns.r, "grid": ns.grid, "out": ns.out},
        results={
            "vertices": int(verts.shape[0]),
            "faces": int(faces.shape[0]),
            "area": float(area),
            "volume": float(volume),
            "max_residual": float(np.max(surfaces.torus_residual(verts, params))),
        },
    )
    return _emit(doc)


def _trace_xz(path) -> np.ndarray:
    trace = load_trace_csv(path)
    if trace.shape[0] == 0:
        raise ValueError("trace has no samples")
    return trace[:, 1:]


def _cmd_eeg_lift(ns) -> int:
    xz = _trace_xz(ns.infile)
    lifted = surfaces.eeg_twist_lift(xz).vertices
    save_curve_csv(ns.out, lifted)
    doc = ReportDocument(
        command="eeg lift",
        parameters={"in": ns.infile, "out": ns.out},
        results={
            "samples": int(lifted.shape[0]),
            "twist_min": float(lifted[:, 2].min()),
            "twist_max": float(lifted[:, 2].max()),
        },
        input_digest={"in": file_digest(ns.infile)},
    )
    return _emit(doc)


def _cmd_eeg_torus(ns) -> int:
    xz = _trace_xz(ns.infile)
    params = surfaces.TorusParams(ns.c, ns.r)
    verts, faces = surfaces.trace_to_torus_band(params, xz)
    mesh = MeshDocument(verts, faces)
    export_mesh(mesh, ns.out)
    doc = ReportDocument(
        command="eeg torus",
        parameters={"in": ns.infile, "c": ns.c, "r": ns.r, "out": ns.out},
        results={
            "vertices": int(verts.shape[0]),
            "faces": int(faces.shape[0]),
            "max_residual": float(np.max(surfaces.torus_residual(verts, params))),
        },
        input_digest={"in": file_digest(ns.infile)},
    )
    return _emit(doc)


def _builtin_map(name: str):
    if name == "half":
        return (lambda x: np.asarray(x, dtype=float) / 2.0), 1
    if name == "cos":
        return (lambda x: np.cos(np.asarray(x, dtype=float))), 1
    if name == "rot90":
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        return (lambda x: np.asarray(x, dtype=float) @ rot.T), 2
    raise ValueError(f"unknown map {name!r}, expected half, cos, or rot90")


def _cmd_fixedpoint(ns) -> int:
    f, n = _builtin_map(ns.map)
    x = borsuk.fixed_point_search(f, n, tol=ns.tol)
    residual = float(np.linalg.norm(np.asarray(f(x), dtype=float) - x))
    doc = ReportDocument(
        command="fixedpoint",
        parameters={"map": ns.map, "tol": ns.tol},
        results={"point": [float(c) for c in x], "residual": residual},
    )
    return _emit(doc)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="proxitop", description="proximity and antipodal search toolkit")
    sub = top.add_subparsers(dest="group")

    ax = sub.add_parser("axioms", help="axiom family checks")
    axsub = ax.add_subparsers(dest="command")
    axc = axsub.add_parser("check", help="check one axiom family on a space")
    axc.add_argument("--family", required=True)
    axc.add_argument("--space", required=True, help="point CSV for the universe")
    axc.add_argument("--trials", type=int, default=1000)
    axc.add_argument("--seed", type=int, default=None)
    axc.add_argument("--features", default=None, help="feature map JSON (inline or @file)")
    axc.set_defaults(func=_cmd_axioms_check)

    an = sub.add_parser("antipodes", help="antipodality predicates")
    ansub = an.add_subparsers(dest="command")
    anw = ansub.add_parser("witness", help="disjoint parallel hyperplane witness")
    anw.add_argument("--points", required=True)
    anw.set_defaults(func=_cmd_antipodes_witness)
    anp = ansub.add_parser("petty", help="Petty antipodal set test")
    anp.add_argument("--points", required=True)
    anp.set_defaults(func=_cmd_antipodes_petty)

    bt = sub.add_parser("but", help="antipodal descriptor search")
    btsub = bt.add_subparsers(dest="command")
    bts = btsub.add_parser("search", help="search matching antipodal pairs")
    bts.add_argument("--mode", choices=("points", "strings", "sheets"), required=True)
    bts.add_argument("--grid", nargs="+", required=True, metavar="KEY=VALUE")
    bts.add_argument("--descriptor", required=True)
    bts.add_argument("--tol", type=float, default=0.0)
    bts.set_defaults(func=_cmd_but_search)

    sf = sub.add_parser("surface", help="surface meshes")
    sfsub = sf.add_subparsers(dest="command")
    sft = sfsub.add_parser("torus", help="ring torus quad mesh")
    sft.add_argument("--c", type=float, required=True)
    sft.add_argument("--r", type=float, required=True)
    sft.add_argument("--grid", required=True, metavar="GxG")
    sft.add_argument("--out", required=True)
    sft.set_defaults(func=_cmd_surface_torus)

    eeg = sub.add_parser("eeg", help="EEG trace lifting")
    eegsub = eeg.add_subparsers(dest="command")
    eegl = eegsub.add_parser("lift", help="lift a trace by the twist map")
    eegl.add_argument("--in", dest="infile", required=True)
    eegl.add_argument("--out", required=True)
    eegl.set_defaults(func=_cmd_eeg_lift)
    eegt = eegsub.add_parser("torus", help="sweep a trace around a torus tube")
    eegt.add_argument("--in", dest="infile", required=True)
    eegt.add_argument("--c", type=float, required=True)
    eegt.add_argument("--r", type=float, required=True)
    eegt.add_argument("--out", required=True)
    eegt.set_defaults(func=_cmd_eeg_torus)

    fp = sub.add_parser("fixedpoint", help="unit ball fixed point search")
    fp.add_argument("--map", required=True)
    fp.add_argument("--tol", type=float, default=1e-9)
    fp.set_defaults(func=_cmd_fixedpoint)

    return top


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        ns = build_parser().parse_args(list(argv))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if not hasattr(ns, "func"):
        print("error: missing subcommand (try --help)", file=sys.stderr)
        return 2
    if getattr(ns, "seed", "absent") is None:
        try:
            ns.seed = _default_seed()
        except UsageError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    try:
        return ns.func(ns)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
