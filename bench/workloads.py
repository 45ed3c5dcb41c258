"""Seeded inputs and job mixes for the benchmark workloads.

Each workload is a fixed list of jobs. A job is one CLI invocation, run
in-process through ``proxitop.cli.run_command``, or one public library call
where no subcommand exists. ``build`` writes every input file into the work
directory before anything is timed; jobs refer to their files by bare name,
so the benchmark runs them with the work directory as the current directory
and the reports are byte-identical for a given seed.

Why these workloads:

* ``search-nearness`` answers the nearness and antipodality questions, so
  ``geometry``, ``borsuk`` and ``proximity`` do the work. In ``but search``
  strings and sheets spend their time in the pairwise antipodality
  predicates (``strings_antipodal``, ``polyline_min_distance``); points mode
  evaluates 8,192 descriptors and encodes a 0.8 MB report; the R^4-R^6 Petty
  jobs are where an exact LP would show a cost. ``axioms check`` runs on the
  bitmask engine, ``dnear``/``sn``/``snd`` and ``spc_check`` on the
  Region-level relations.
* ``surface-lift`` answers the lifting question: ``surfaces`` and ``io`` do
  the work, with torus and band meshes written as OBJ and EEG traces parsed
  from CSV and written back; ``geometry`` and ``proximity`` stay idle.

The antipodal-search and nearness mixes share one workload because every
workload costs run time: on a shared two-CPU host, two workloads with long
runs give steadier figures than three with short ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("search-nearness", "surface-lift")

TRACE_RATE_HZ = 250.0


@dataclass(frozen=True)
class Job:
    """One unit of work in a workload's mix.

    ``argv`` runs through ``run_command``; otherwise ``call`` is a
    zero-argument library call. ``check(payload, workdir)`` raises
    ``checks.CheckError`` when the output is wrong; the payload is the
    parsed report for CLI jobs and the return value for library jobs.
    ``outputs`` are files the job writes, deleted after each run of it.
    """

    kind: str
    command: str
    size: str
    check: Callable
    argv: tuple = ()
    call: Callable | None = None
    outputs: tuple = ()
    inputs: tuple = ()


def _write_points(path: Path, pts: np.ndarray) -> None:
    lines = [",".join(f"x{i + 1}" for i in range(pts.shape[1]))]
    lines += [",".join(repr(float(c)) for c in p) for p in pts]
    path.write_text("\n".join(lines) + "\n")


def _write_trace(path: Path, t: np.ndarray, x: np.ndarray, z: np.ndarray) -> None:
    lines = ["t,x,z"] + [f"{a!r},{b!r},{c!r}" for a, b, c in zip(t.tolist(), x.tolist(), z.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _eeg_trace(rng, samples: int):
    t = np.arange(samples) / TRACE_RATE_HZ
    # a slow oscillation plus a bounded random walk, so z stays in [-1, 1]
    walk = np.cumsum(rng.normal(0.0, 0.02, samples))
    z = np.clip(0.6 * np.sin(2.0 * np.pi * 1.5 * t) + 0.3 * np.tanh(walk), -1.0, 1.0)
    x = t + rng.uniform(-0.4, 0.4) / TRACE_RATE_HZ
    return t, x, z


def _cube(rng, n: int) -> np.ndarray:
    """Vertices of a rotated, scaled and shifted n-cube: an antipodal set."""
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return signs @ q.T * rng.uniform(0.5, 2.0) + rng.uniform(-3.0, 3.0, n)


def _plane_set(rng) -> np.ndarray:
    """A parallelogram plus one more point: five points in the plane.

    An antipodal set in R^2 has at most 4 points (Danzer-Gruenbaum), so the
    verdict is False; the cubes give the True verdicts.
    """
    o, a, b = rng.uniform(-2.0, 2.0, (3, 2))
    if abs(a[0] * b[1] - a[1] * b[0]) < 0.5:
        b = np.array([-a[1], a[0]])
    return np.array([o, o + a, o + b, o + a + b, o + rng.uniform(-1.0, 2.0, 2) * (a + b)])


def _grid_space_points(rng, m: int) -> np.ndarray:
    """m distinct points of a centred half-unit grid (mirror images exist)."""
    side = max(6, int(np.ceil(np.sqrt(2 * m))))
    cells = rng.choice(side * side, size=m, replace=False)
    return (np.stack([cells // side, cells % side], axis=1) - side // 2).astype(float) * 0.5


def _but_job(mode: str, n: int, density: int) -> Job:
    objects = {"strings": 2 * density // 4, "sheets": 2 * density // 8, "points": 2 * density}[mode]
    tol = 1e-9
    return Job(
        kind=f"but-search.{mode}.{density}",
        command="but search",
        size=f"n={n} density={density} ({objects} {mode})",
        argv=("but", "search", "--mode", mode, "--grid", f"n={n}", f"density={density}",
              "--descriptor", "even-coords", "--tol", repr(tol)),
        check=partial(checks.but_search, mode=mode, n=n, density=density, tol=tol),
    )


def _petty_job(workdir: Path, name: str, pts: np.ndarray) -> Job:
    fname = f"petty_{name}.csv"
    _write_points(workdir / fname, pts)
    return Job(
        kind=f"petty.{name}",
        command="antipodes petty",
        size=f"{pts.shape[0]} points in R^{pts.shape[1]}",
        argv=("antipodes", "petty", "--points", fname),
        check=partial(checks.petty, points=pts),
        inputs=(fname,),
    )


def _fixedpoint_job(name: str) -> Job:
    tol = 1e-9
    return Job(
        kind=f"fixedpoint.{name}",
        command="fixedpoint",
        size=f"map {name}",
        argv=("fixedpoint", "--map", name, "--tol", repr(tol)),
        check=partial(checks.fixedpoint, name=name, tol=tol),
    )


def _antipodal_search(rng, workdir: Path) -> list:
    # the first job is the smallest size of the first job kind; setup_s runs it
    jobs = [
        _but_job("strings", 1, 256),
        _but_job("strings", 1, 512),
        _but_job("sheets", 1, 256),
        _but_job("sheets", 1, 512),
        _but_job("points", 2, 4096),
        _petty_job(workdir, "plane5", _plane_set(rng)),
    ]
    for n in (4, 5, 6):
        jobs.append(_petty_job(workdir, f"cube{n}", _cube(rng, n)))
    jobs += [_fixedpoint_job("cos"), _fixedpoint_job("rot90")]
    return jobs


def _surface_lift(rng, workdir: Path) -> list:
    c = float(np.round(rng.uniform(1.5, 3.0), 6))
    r = float(np.round(rng.uniform(0.3, 1.0), 6))
    jobs = []
    for g in (128, 256, 512):
        out = f"torus_{g}.obj"
        jobs.append(Job(
            kind=f"surface-torus.{g}",
            command="surface torus",
            size=f"{g}x{g} grid ({g * g} quads)",
            argv=("surface", "torus", "--c", repr(c), "--r", repr(r), "--grid", f"{g}x{g}", "--out", out),
            check=partial(checks.surface_torus, c=c, r=r, nu=g, nv=g, out=out),
            outputs=(out,),
        ))
    traces = {}
    for samples in (5000, 20000):
        fname = f"trace_{samples // 1000}k.csv"
        t, x, z = _eeg_trace(rng, samples)
        _write_trace(workdir / fname, t, x, z)
        traces[samples] = (fname, np.stack([x, z], axis=1))
    for samples, (fname, xz) in traces.items():
        out = f"lift_{samples // 1000}k.csv"
        jobs.append(Job(
            kind=f"eeg-lift.{samples // 1000}k",
            command="eeg lift",
            size=f"{samples} samples",
            argv=("eeg", "lift", "--in", fname, "--out", out),
            check=partial(checks.eeg_lift, xz=xz, out=out),
            outputs=(out,),
            inputs=(fname,),
        ))
    for samples, (fname, xz) in traces.items():
        out = f"band_{samples // 1000}k.obj"
        jobs.append(Job(
            kind=f"eeg-torus.{samples // 1000}k",
            command="eeg torus",
            size=f"{samples} samples x 16 tube strings",
            argv=("eeg", "torus", "--in", fname, "--c", repr(c), "--r", repr(r), "--out", out),
            check=partial(checks.eeg_torus, xz=xz, c=c, r=r, out=out),
            outputs=(out,),
            inputs=(fname,),
        ))
    return jobs


FAMILY_FLAGS = ("Lodato-descriptive", "strong", "descriptive-strong")


def _nearness(rng, workdir: Path) -> list:
    from proxitop import proximity

    features = {"name": "even-coords"}
    axiom_seed = int(rng.integers(2**31))
    jobs = []
    for m in (6, 12, 30):
        fname = f"space_{m}.csv"
        _write_points(workdir / fname, _grid_space_points(rng, m))
        for family in FAMILY_FLAGS:
            jobs.append(Job(
                kind=f"axioms.{family}.{m}",
                command="axioms check",
                size=f"m={m}, 1000 trials" + (" (exhaustive)" if m <= proximity.EXHAUSTIVE_LIMIT else ""),
                argv=("axioms", "check", "--family", family, "--space", fname, "--trials", "1000",
                      "--seed", str(axiom_seed), "--features", json.dumps(features)),
                check=partial(checks.axioms, family=family, trials=1000),
                inputs=(fname,),
            ))

    fm = proximity.feature_map_from_config({"name": "even-coords", "dim": 2})
    space = proximity.DescriptiveSpace(_grid_space_points(rng, 12), fm)
    pairs = proximity.sample_region_pairs(space, 200, seed=int(rng.integers(2**31)))

    def relations():
        return [
            (proximity.dnear(a, b, fm), proximity.sn(a, b), proximity.snd(a, b, fm))
            for a, b in pairs
        ]

    def reflection(p):
        return -np.asarray(p, dtype=float)

    def continuity():
        return proximity.spc_check(space, reflection, pairs, mode="descriptive")

    jobs += [
        Job(
            kind="library.relations",
            command="library dnear/sn/snd",
            size="m=12, 200 region pairs",
            call=relations,
            check=partial(checks.relations, pairs=pairs),
        ),
        Job(
            kind="library.spc",
            command="library spc_check",
            size="m=12, 200 region pairs, descriptive",
            call=continuity,
            check=partial(checks.continuity, pairs=pairs),
        ),
    ]
    return jobs


def _search_nearness(rng, workdir: Path) -> list:
    return _antipodal_search(rng, workdir) + _nearness(rng, workdir)


_BUILDERS = {
    "search-nearness": _search_nearness,
    "surface-lift": _surface_lift,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs for this seed into workdir; return its job mix."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, Path(workdir))
