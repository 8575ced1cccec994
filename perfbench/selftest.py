"""Self-test of the benchmark's own measuring and checking.

    python3 perfbench/selftest.py [--workload train]

1. Exact counters repeat: two count passes on the same inputs give
   identical per-layer count metrics (calls, bars, distinct points,
   bytes and the useful-share ratios), so later changes may cite them
   as counts.
2. Checks catch a wrong output: after one pass, one diagram CSV is
   corrupted and the output checks must then report failures.

Exits 0 when both hold.  Uses reference seed 0, so the stored-digest
check is exercised as well.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import steady  # noqa: F401,I001  (first: pins BLAS threads before numpy loads)
import checks
import run
import workloads

SEED = 0


def counters_repeat(pipeline, workload: str, workdir: str) -> list[str]:
    spec = workloads.prepare(workload, SEED, workdir, pipeline)
    _, first = run.count_pass(pipeline, spec, workdir)
    _, second = run.count_pass(pipeline, spec, workdir)
    return [f"{workload}: {k} {first[k]} then {second[k]}" for k in first if first[k] != second[k]]


def corruption_detected(pipeline, workload: str, workdir: str) -> list[str]:
    spec = workloads.prepare(workload, SEED, workdir, pipeline)
    outcome = run.run_pass(pipeline, spec, workdir)
    config = run.zigzag_config(pipeline, spec)
    stored = checks.load_reference()["seeds"][workload].get(str(SEED))
    clean = checks.Checks()
    checks.check_run(clean, spec, [outcome], config, stored)
    if clean.failed:
        return [f"{workload}: clean outputs failed checks: {clean.failures}"]

    victim = outcome.zpd[0]
    with open(victim, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    dim, birth, death = lines[-1].split(",")
    lines[-1] = f"{dim},{birth},{int(death) + 1}"  # a longer bar, still a valid row
    with open(victim, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    corrupted = checks.Checks()
    print(f"{workload}: corrupting {os.path.basename(victim)}; check failures expected below",
          file=sys.stderr)
    checks.check_run(corrupted, spec, [outcome], config, stored)
    if not corrupted.failed:
        return [f"{workload}: a corrupted diagram passed every check"]
    print(f"{workload}: corrupted diagram -> {corrupted.failed} of "
          f"{corrupted.attempted} checks failed", flush=True)
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from zigzagst import pipeline

    problems = []
    for workload in args.workload or workloads.WORKLOADS:
        workdir = os.path.join(run.OUT, f"selftest-{workload}")
        try:
            differ = counters_repeat(pipeline, workload, workdir)
            problems += differ
            if not differ:
                print(f"{workload}: count metrics repeat exactly", flush=True)
            problems += corruption_detected(pipeline, workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
