"""Self-test of the benchmark: tracing must not change what sulfsim writes.

Runs a small instance of every workload untraced and then traced, and
requires each command's two manifests to list the same output files with
the same sha256 values.  Exits 1 if any differ or any command fails.

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

# flags appended to each command (click keeps the last value of an option)
SMALL = {
    "simulate": ["--particles", "300", "--horizon", "0.02"],
    "convergence": ["--n", "50,100", "--horizon", "0.02"],
    "fixedpoint": [],
}


def outputs(out_dir) -> dict[str, str]:
    with open(out_dir / "manifest.json") as fh:
        return {o["path"]: o["sha256"] for o in json.load(fh)["outputs"]}


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work, time.monotonic() + 600.0)
    bad = 0
    try:
        for name, wl in run.WORKLOADS.items():
            digests: dict[str, list[dict]] = {}
            for mode in ("plain", "trace"):
                rep_dir = work / name / mode
                rep_dir.mkdir(parents=True)
                for cmd in wl.commands(7, rep_dir):
                    if runner.child(mode, cmd.args + SMALL[cmd.args[0]]) is None:
                        break
                    digests.setdefault(cmd.out, []).append(outputs(rep_dir / cmd.out))
            for out, pair in digests.items():
                same = len(pair) == 2 and pair[0] == pair[1] and bool(pair[0])
                bad += not same
                print(f"{name}/{out}: {len(pair[0])} outputs, traced and untraced "
                      f"{'identical' if same else 'DIFFER'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for why in runner.failures:
        print(f"FAILED: {why}")
    ok = bad == 0 and runner.failed == 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
