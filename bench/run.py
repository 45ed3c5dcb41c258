"""proxitop benchmark: closed-loop job mixes with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload search-nearness --seed 1 --seconds 35 --trace 0

One client runs the workload's fixed job mix in a closed loop, in-process:
each job starts when the previous one has ended, and whole passes over the
mix repeat until the timed jobs add up to ``--seconds``. One untimed pass
comes first, so imports, caches and lazy set-up are done before timing.
Every job's output is checked (see checks.py); a failed check, a non-zero
exit or stdout that is not strict JSON makes the job fail.

``--trace 0`` reports the end-to-end metrics: set-up time and peak memory of
fresh interpreters, plus throughput and latency of the warm loop.
``--trace 1`` runs the loop once untraced and once with import-site spans
(tracing.py), and reports per-layer metrics and the tracing overhead.

A line of details (job mix, input sizes, each command's share of the time,
the tail percentile) precedes the result, which is the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_SEED = 0
SETUP_SPAWNS = 5
TAIL_BEYOND = 10
# every job kind gets at least this many timed samples, whatever --seconds says;
# the traced run only needs medians of per-pass layer times
MIN_PASSES = 6
MIN_TRACED_PASSES = 3
SPAWN_TIMEOUT_S = 20
RSS_TIMEOUT_S = 60

# per-layer metrics of the traced run, by span name
LAYER_COUNTS = [
    "geometry.polyline_min_distance", "geometry.worldsheets_antipodal", "geometry.strings_antipodal",
    "geometry.petty_antipodal_set", "borsuk.descriptor", "proximity.feature_eval",
    "proximity.dnear", "proximity.snd", "proximity.sn", "proximity.descriptive_intersection",
    "proximity.check_axioms",
]
LAYER_TIMES = [
    "geometry.polyline_min_distance", "geometry.worldsheets_antipodal", "geometry.strings_antipodal",
    "geometry.petty_antipodal_set", "borsuk.but_search", "borsuk.descriptor", "borsuk.fixed_point_search",
    "io.report_to_json", "io.export_mesh", "io.load_trace_csv", "io.save_curve_csv", "io.load_points_csv",
    "surfaces.torus_grid", "surfaces.trace_to_torus_band", "surfaces.eeg_twist_lift",
    "proximity.dnear", "proximity.snd", "proximity.sn", "proximity.descriptive_intersection",
    "proximity.spc_check", "proximity.map_region", "proximity.check_axioms",
]
LAYER_BYTES = ["io.report_to_json", "io.export_mesh", "io.load_trace_csv", "io.save_curve_csv"]
CLI_COMMANDS = ["axioms check", "antipodes petty", "but search", "surface torus", "eeg lift",
                "eeg torus", "fixedpoint"]
PREDICATES = ("geometry.strings_antipodal", "geometry.worldsheets_antipodal")


def _label(command: str) -> str:
    return command.replace(" ", "_")


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs jobs in-process, checks their outputs and counts failures."""

    def __init__(self, workdir: Path, run_command, golden: dict | None):
        self.workdir = workdir
        self.run_command = run_command
        self.golden = golden
        self.verified = set()
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # job kind -> [count, first reason]

    def fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        self.failures.setdefault(kind, [0, reason])[0] += 1

    def run(self, job, command=None) -> float:
        """Run one job; returns its wall time in seconds."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        payload = None
        start = perf_counter()
        if job.call is not None:
            try:
                payload = job.call()
                rc = 0
            except Exception as e:  # a failing library job is counted, not fatal
                rc = 1
                err.write(f"{type(e).__name__}: {e}\n")
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = (command or self.run_command)(list(job.argv))
        elapsed = perf_counter() - start
        self.attempted += 1
        reason = self.verify(job, rc, out.getvalue(), err.getvalue(), payload)
        if reason:
            self.fail(job.kind, reason)
        for name in job.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        return elapsed

    def verify(self, job, rc: int, stdout: str, stderr: str, payload) -> str | None:
        if rc != 0:
            lines = stderr.strip().splitlines()
            return f"exit code {rc}: {lines[-1] if lines else ''}"
        if job.call is None:
            try:
                payload = _strict_json(stdout)
            except ValueError as e:
                return f"stdout is not strict JSON: {e}"
            key = (job.kind, stdout, tuple(_sha256(self.workdir / n) if (self.workdir / n).exists() else None
                                          for n in job.outputs))
        else:
            key = (job.kind, repr(payload))
        if key in self.verified:  # identical output already passed every check
            return None
        try:
            job.check(payload, self.workdir)
            if self.golden is not None:
                for name in job.inputs + job.outputs:
                    if self.golden.get(job.kind, {}).get(name) != _sha256(self.workdir / name):
                        return f"{name} differs from its pinned sha256 for seed {GOLDEN_SEED}"
        except Exception as e:  # malformed output can break a check anywhere: count it as a failure
            return f"check failed: {type(e).__name__}: {e}"
        self.verified.add(key)
        return None


def timed_loop(runner: Runner, jobs: list, seconds: float, min_passes: int, command_for=None,
               on_pass=None) -> dict:
    """Whole passes over the mix until the timed jobs add up to seconds."""
    times = {job.kind: [] for job in jobs}
    busy = 0.0
    passes = 0
    while busy < seconds or passes < min_passes:
        for job in jobs:
            t = runner.run(job, command_for(job) if command_for else None)
            times[job.kind].append(t)
            busy += t
        passes += 1
        if on_pass:
            on_pass()
    return {"times": times, "passes": passes, "busy": busy}


def jobs_per_s(loop: dict) -> float:
    return sum(len(t) for t in loop["times"].values()) / loop["busy"]


def tail(samples: list) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1
    return {"value": s[k], "percentile": 100.0 * (k + 1) / len(s), "samples": len(s),
            "beyond": len(s) - k - 1}


def spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(runner: Runner, job) -> list:
    """Wall time of fresh `python -m proxitop.cli` runs of one job, spawn to exit."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "proxitop.cli", *job.argv], cwd=runner.workdir,
                                env=spawn_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=SPAWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        samples.append(perf_counter() - start)
        runner.attempted += 1
        reason = runner.verify(job, proc.returncode, stdout, stderr, None)
        if reason:
            runner.fail(f"setup {job.kind}", reason)
        for name in job.outputs:
            (runner.workdir / name).unlink(missing_ok=True)
    return samples


def measure_peak_rss(runner: Runner, workload: str, seed: int) -> float:
    """ru_maxrss, in MB, of a fresh interpreter that runs one pass of the workload."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--rss-child", "--workload", workload, "--seed", str(seed)]
    with open(runner.workdir / "rss_child.err", "w+") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=spawn_env(), stdout=subprocess.DEVNULL, stderr=err)
        deadline = perf_counter() + RSS_TIMEOUT_S
        try:
            # wait4 rather than Popen.wait: it returns the child's own rusage
            while not (waited := os.wait4(proc.pid, os.WNOHANG))[0]:
                if perf_counter() > deadline:
                    proc.kill()
                    waited = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        _, status, usage = waited
        proc.returncode = os.waitstatus_to_exitcode(status)
        runner.attempted += 1
        if proc.returncode != 0:
            err.seek(0)
            runner.fail("peak-rss pass", f"exit code {proc.returncode}: {err.read().strip()[-300:]}")
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def rss_child(workload: str, seed: int) -> int:
    import workloads
    from proxitop.cli import run_command

    workdir = make_workdir(workload, seed, "rss")
    cwd = os.getcwd()
    try:
        jobs = workloads.build(workload, seed, workdir)
        os.chdir(workdir)
        for job in jobs:
            with contextlib.redirect_stdout(io.StringIO()):
                if job.call is not None:
                    job.call()
                    rc = 0
                else:
                    rc = run_command(list(job.argv))
            if rc != 0:
                print(f"error: {job.kind} exited {rc}", file=sys.stderr)
                return 1
        return 0
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def make_workdir(workload: str, seed: int, tag: str) -> Path:
    path = ROOT / ".bench_work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def command_shares(jobs: list, times: dict) -> dict:
    by_command = {}
    for job in jobs:
        by_command[job.command] = by_command.get(job.command, 0.0) + sum(times[job.kind])
    total = sum(by_command.values())
    return {c: round(t / total, 4) for c, t in by_command.items()}


def end_to_end(args, runner: Runner, jobs: list) -> tuple:
    setup = measure_setup(runner, jobs[0])
    rss = measure_peak_rss(runner, args.workload, args.seed)
    for job in jobs:  # warm-up pass, untimed
        runner.run(job)
    loop = timed_loop(runner, jobs, args.seconds, MIN_PASSES)
    samples = [t for ts in loop["times"].values() for t in ts]
    t = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (jobs_per_s(loop), "1/s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (t["value"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_ratio": ((runner.attempted - runner.failed) / runner.attempted, "1"),
    }
    details = {
        "passes": loop["passes"],
        "tail": {k: v for k, v in t.items() if k != "value"},
        "setup_samples_s": setup,
        "failed_ratio": runner.failed / runner.attempted,
        "command_share": command_shares(jobs, loop["times"]),
        "times_s": loop["times"],
    }
    return metrics, details


def per_layer(args, runner: Runner, jobs: list) -> tuple:
    import tracing

    for job in jobs:  # warm-up pass, untimed
        runner.run(job)
    # half the time untraced, half traced: their jobs_per_s give the overhead
    plain = timed_loop(runner, jobs, args.seconds / 2, MIN_TRACED_PASSES)
    tracer = tracing.Tracer()
    wrapped = {c: tracer.span(f"cli.{_label(c)}", runner.run_command) for c in CLI_COMMANDS}
    snapshots = []

    def on_pass():
        snapshots.append((dict(tracer.total), dict(tracer.self_time)))

    def command_for(job):
        tracer.job = job.kind
        return wrapped.get(job.command)

    tracer.install()
    try:
        traced = timed_loop(runner, jobs, args.seconds / 2, MIN_TRACED_PASSES, command_for, on_pass)
    finally:
        tracer.uninstall()
    passes = traced["passes"]

    def per_pass(table: int, names) -> float:
        # median over passes of the time the names took in that pass
        prev, values = {}, []
        for snap in snapshots:
            cur = snap[table]
            values.append(sum(cur.get(n, 0.0) - prev.get(n, 0.0) for n in names))
            prev = cur
        return float(statistics.median(values))

    metrics = {}
    for n in LAYER_COUNTS:
        metrics[f"{n}.calls"] = (tracer.calls[n] / passes, "count")
    for n in LAYER_TIMES:
        metrics[f"{n}.s"] = (per_pass(0, [n]), "s")
    for n in LAYER_BYTES:
        metrics[f"{n}.bytes"] = (tracer.extra[n] / passes, "bytes")
    predicate_calls = sum(tracer.calls[n] for n in PREDICATES) / passes
    matched = tracer.extra["borsuk.but_search"] / passes
    metrics["borsuk.but_search.self_s"] = (per_pass(1, ["borsuk.but_search"]), "s")
    metrics["borsuk.but_search.match_ratio"] = (matched / predicate_calls if predicate_calls else 0.0, "1")
    metrics["borsuk.but_search.predicate_calls"] = (predicate_calls, "count")
    metrics["borsuk.but_search.matched_pairs"] = (matched, "count")
    names = set(tracer.calls)
    for m in tracing.MODULES:
        metrics[f"{m}.self_s"] = (per_pass(1, [n for n in names if n.startswith(m + ".")]), "s")
    for c in CLI_COMMANDS:
        d = tracer.durations.get(f"cli.{_label(c)}")
        metrics[f"cli.{_label(c)}.p50_s"] = (statistics.median(d) if d else 0.0, "s")
    untraced, with_spans = jobs_per_s(plain), jobs_per_s(traced)
    metrics["trace.overhead_ratio"] = ((untraced - with_spans) / untraced, "1")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path)
    details = {
        "passes": {"untraced": plain["passes"], "traced": passes},
        "jobs_per_s": {"untraced": untraced, "traced": with_spans},
        "spans": {"kept": len(tracer.spans), "dropped": tracer.dropped, "file": str(spans_path.relative_to(ROOT))},
        "command_share": command_shares(jobs, plain["times"]),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "proxitop" / "__init__.py").is_file():
        print(f"error: no proxitop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from proxitop.cli import run_command

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.rss_child:
        return rss_child(args.workload, args.seed)

    golden = None
    if args.seed == GOLDEN_SEED:
        golden = json.loads((BENCH_DIR / "golden.json").read_text())[args.workload]
    workdir = make_workdir(args.workload, args.seed, "main")
    cwd = os.getcwd()
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workdir, run_command, golden)
        os.chdir(workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, details = measure(args, runner, jobs)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        job_mix=[{"kind": j.kind, "command": j.command, "size": j.size} for j in jobs],
        failures=runner.failures,
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
