"""Pin the sha256 of every input and output file of the default seed.

Run from the repository root after a change that alters file bytes on
purpose (a documented fix), then commit bench/golden.json:

    python3 bench/pin.py

Every job is run and checked first; nothing is pinned if a check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from run import BENCH_DIR, GOLDEN_SEED, SRC, Runner, _sha256, make_workdir


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from proxitop.cli import run_command

    golden = {}
    cwd = os.getcwd()
    for workload in workloads.WORKLOADS:
        workdir = make_workdir(workload, GOLDEN_SEED, "pin")
        try:
            jobs = workloads.build(workload, GOLDEN_SEED, workdir)
            os.chdir(workdir)
            runner = Runner(workdir, run_command, None)
            pins = {}
            for job in jobs:
                files = job.inputs + job.outputs
                if not files:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = run_command(list(job.argv))
                reason = runner.verify(job, rc, out.getvalue(), "", None)
                if reason:
                    print(f"error: {job.kind}: {reason}", file=sys.stderr)
                    return 1
                pins[job.kind] = {name: _sha256(workdir / name) for name in files}
            golden[workload] = pins
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
