"""Steadiness self-check: run the benchmark on several seeds and report spreads.

    python3 bench/steadiness.py --workload surface-lift --seeds 1-10 --sets 2

For every end-to-end metric it prints, per set of runs, the median and the
spread (the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median),
then how far the second set's median moved from the first's. A metric is
steady when its spread stays below a third of its bound in BENCHMARK.json
and the sets agree within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {out.returncode}: {out.stderr.strip()[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect output: {out.stdout.strip().splitlines()[-2]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for k in range(args.sets):
        runs = []
        for seed in seed_range(args.seeds):
            runs.append(run_once(spec, args.workload, seed))
            print(f"set {k + 1} seed {seed}: " + json.dumps(runs[-1]), file=sys.stderr, flush=True)
        sets.append(runs)
    steady = True
    print(f"{args.workload}: {args.sets} set(s) of seeds {args.seeds}, {spec['run_seconds']} s per run")
    for name, m in bounds.items():
        medians, spreads = [], []
        for runs in sets:
            values = [r[name] for r in runs]
            medians.append(statistics.median(values))
            spreads.append(spread(values))
        worse = 0.0
        if len(medians) > 1:
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if m["better"] == "lower" else -change
        ok = worse <= m["bound"] and (name == "setup_s" or max(spreads) < m["bound"] / 3)
        steady &= ok
        print(f"  {name:14s} bound {m['bound']:.2f}  medians {' '.join(f'{v:.5g}' for v in medians)}  "
              f"spreads {' '.join(f'{s:.3f}' for s in spreads)}  worse {worse:+.3f}  {'ok' if ok else 'NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
