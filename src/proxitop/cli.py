"""Command line front end.

Subcommands map one-to-one onto library calls and print a JSON report to
stdout. Exit codes: 0 on success, 1 on runtime or validation failures, 2 on
usage errors; every failure prints a single "error: ..." line to stderr.
Reports contain no timestamps, so identical argv and input bytes give
byte-identical output. --seed, where it exists, defaults to 0.

A handler only computes: it returns (parameters, results, input paths),
the paths as a dict of report key to file name. run_command alone builds
the ReportDocument, names the command from the parser's dests, digests
the inputs, writes the report, and maps every error to its exit code
(SystemExit to its code, UsageError to 2, anything else to 1). It is the
one place where report-wide additions, the planned `stats` work counters
and `--profile` phase times, attach. Handlers reach the io functions
through this module's names, where bench/tracing.py wraps them.
"""

from __future__ import annotations

import argparse
import functools
import json
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


def _cmd_axioms_check(ns):
    pts = load_points_csv(ns.space)
    cfg = _features_config(ns.features)
    fm = proximity.feature_map_from_config(cfg, dim=pts.shape[1] if pts.size else None)
    space = proximity.DescriptiveSpace(pts, fm)
    report = proximity.check_axioms(space, ns.family, trials=ns.trials, seed=ns.seed)
    parameters = {
        "family": ns.family,
        "space": ns.space,
        "trials": ns.trials,
        "seed": ns.seed,
        "features": cfg,
    }
    return parameters, report.to_dict(), {"space": ns.space}


def _cmd_antipodes_witness(ns):
    pts = load_points_csv(ns.points)
    if pts.shape[0] != 2:
        raise ValueError(f"witness needs exactly 2 points, got {pts.shape[0]}")
    w = geometry.antipodal_point_witness(pts[0], pts[1])
    if w is not None:
        w = {"normal": [float(c) for c in w[0]], "offsets": list(w[1:])}
    return {"points": ns.points}, {"witness": w}, {"points": ns.points}


def _cmd_antipodes_petty(ns):
    pts = load_points_csv(ns.points)
    verdict = geometry.petty_antipodal_set(pts)
    results = {"antipodal": bool(verdict), "points": pts.shape[0]}
    return {"points": ns.points}, results, {"points": ns.points}


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


def _cmd_but_search(ns):
    n, density = _parse_grid_spec(ns.grid)
    if n not in (1, 2):
        raise ValueError("but search supports grid n=1 or n=2")
    grid = geometry.sphere_sample(n, density)
    fm = proximity.feature_map_from_config(
        {"name": ns.descriptor, "dim": n + 1, "tolerance": ns.tol}
    )
    desc = borsuk.feature_descriptor(fm)
    if ns.mode == "points":
        result = borsuk.but_search(desc, grid=grid)
    elif n != 1:
        raise ValueError(f"{ns.mode} mode builds circle arcs and needs n=1")
    elif ns.mode == "strings":
        result = borsuk.but_search(desc, strings=geometry.arc_strings(grid))
    else:
        result = borsuk.but_search(desc, sheets=geometry.arc_sheets(geometry.arc_strings(grid)))
    parameters = {
        "mode": ns.mode,
        "n": n,
        "density": density,
        "descriptor": ns.descriptor,
        "tol": ns.tol,
    }
    return parameters, result.to_dict(), {}


def _parse_mesh_grid(raw: str) -> tuple:
    try:
        nu, nv = map(int, raw.lower().split("x"))  # a wrong part count is a ValueError too
    except ValueError:
        raise UsageError(f"mesh grid looks like GxG, got {raw!r}") from None
    return nu, nv


def _write_torus_mesh(params, verts, faces, out) -> dict:
    """Write a mesh on the torus as OBJ; its sizes and largest distance off the torus."""
    export_mesh(MeshDocument(verts, faces), out)
    return {
        "vertices": int(verts.shape[0]),
        "faces": int(faces.shape[0]),
        "max_residual": float(np.max(surfaces.torus_residual(verts, params))),
    }


def _cmd_surface_torus(ns):
    params = surfaces.TorusParams(ns.c, ns.r)
    nu, nv = _parse_mesh_grid(ns.grid)
    results = _write_torus_mesh(params, *surfaces.torus_grid(params, nu, nv), ns.out)
    area, volume = surfaces.torus_measures(params)
    results.update(area=float(area), volume=float(volume))
    return {"c": ns.c, "r": ns.r, "grid": ns.grid, "out": ns.out}, results, {}


def _trace_xz(path) -> np.ndarray:
    trace = load_trace_csv(path)
    if trace.shape[0] == 0:
        raise ValueError("trace has no samples")
    return trace[:, 1:]


def _cmd_eeg_lift(ns):
    xz = _trace_xz(ns.infile)
    lifted = surfaces.eeg_twist_lift(xz).vertices
    save_curve_csv(ns.out, lifted)
    results = {
        "samples": int(lifted.shape[0]),
        "twist_min": float(lifted[:, 2].min()),
        "twist_max": float(lifted[:, 2].max()),
    }
    return {"in": ns.infile, "out": ns.out}, results, {"in": ns.infile}


def _cmd_eeg_torus(ns):
    xz = _trace_xz(ns.infile)
    params = surfaces.TorusParams(ns.c, ns.r)
    results = _write_torus_mesh(params, *surfaces.trace_to_torus_band(params, xz), ns.out)
    parameters = {"in": ns.infile, "c": ns.c, "r": ns.r, "out": ns.out}
    return parameters, results, {"in": ns.infile}


def _builtin_map(name: str):
    if name == "half":
        return (lambda x: np.asarray(x, dtype=float) / 2.0), 1
    if name == "cos":
        return (lambda x: np.cos(np.asarray(x, dtype=float))), 1
    if name == "rot90":
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        return (lambda x: np.asarray(x, dtype=float) @ rot.T), 2
    raise ValueError(f"unknown map {name!r}, expected half, cos, or rot90")


def _cmd_fixedpoint(ns):
    f, n = _builtin_map(ns.map)
    x = borsuk.fixed_point_search(f, n, tol=ns.tol)
    residual = float(np.linalg.norm(np.asarray(f(x), dtype=float) - x))
    results = {"point": [float(c) for c in x], "residual": residual}
    return {"map": ns.map, "tol": ns.tol}, results, {}


@functools.cache  # built once per process; parse_args gives a fresh Namespace per call
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="proxitop", description="proximity and antipodal search toolkit")
    sub = top.add_subparsers(dest="group")

    ax = sub.add_parser("axioms", help="axiom family checks")
    axsub = ax.add_subparsers(dest="command")
    axc = axsub.add_parser("check", help="check one axiom family on a space")
    axc.add_argument("--family", required=True)
    axc.add_argument("--space", required=True, help="point CSV for the universe")
    axc.add_argument("--trials", type=int, default=1000)
    axc.add_argument("--seed", type=int, default=0)
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
        if not hasattr(ns, "func"):
            raise UsageError("missing subcommand (try --help)")
        parameters, results, inputs = ns.func(ns)
        report = ReportDocument(
            command=" ".join(filter(None, (ns.group, getattr(ns, "command", None)))),
            parameters=parameters,
            results=results,
            input_digest={key: file_digest(path) for key, path in inputs.items()} or None,
        )
        sys.stdout.write(report.to_json())
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
