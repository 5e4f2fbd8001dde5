"""Time each sulfsim process of a perfbench workload from its stamp to its exit.

Usage (from the root of the checkout to measure)::

    python3 tools/exit_times.py --workload picard --seed 1 --reps 5

Each command runs as perfbench runs it (``perfbench/child.py plain`` with
the same environment), so the child writes its stamp once the command has
returned and its outputs are closed.  What the parent then waits for is the
interpreter's exit.  Prints one JSON object: per command, the stamp-to-exit
times in ms.  The script reads perfbench from the current directory, so the
same script can time two checkouts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "perfbench"))

import run  # noqa: E402  (perfbench/run.py of the checkout being timed)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    opts = ap.parse_args()
    work = run.WORK / "exit_times"
    shutil.rmtree(work, ignore_errors=True)
    runner = run.Runner(work, hard_end=time.monotonic() + run.HARD_LIMIT_S)
    exit_ms: dict[str, list[float]] = {}
    for rep in range(opts.reps):
        rep_dir = work / str(rep)
        rep_dir.mkdir(parents=True)
        for cmd in run.WORKLOADS[opts.workload].commands(opts.seed, rep_dir):
            stamp = runner.child("plain", cmd.args)
            if stamp is None:
                sys.exit(f"failed: {runner.failures[-1]}")
            spawned = stamp["first_step"] - stamp["setup_s"]
            exited = spawned + stamp["wall_s"]
            exit_ms.setdefault(cmd.out, []).append(round(1e3 * (exited - stamp["end"]), 2))
        shutil.rmtree(rep_dir)
    print(json.dumps({"workload": opts.workload, "seed": opts.seed, "exit_ms": exit_ms}))


if __name__ == "__main__":
    main()
