"""Regenerate ``reference.json``, the stored outputs the benchmark checks.

    python3 perfbench/make_reference.py                 # every workload
    python3 perfbench/make_reference.py --workload wide

For each reference seed this runs one pass of the workload's chain,
requires every seed-independent check to pass, and stores the digest of
the diagram CSVs, the W1 costs and the test MAE.  Regenerate only for a
change that is meant to alter outputs, and say so in that change: the
stored values are the byte-identity gate for every later change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import steady  # noqa: F401,I001  (first: pins BLAS threads before numpy loads)
import checks
import run
import workloads

REFERENCE_SEEDS = tuple(range(20)) + (workloads.HELD_OUT_SEED,)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from zigzagst import pipeline

    try:
        reference = checks.load_reference()
    except FileNotFoundError:
        reference = {"seeds": {}}
    for workload in args.workload or workloads.WORKLOADS:
        entries = reference["seeds"].setdefault(workload, {})
        for seed in REFERENCE_SEEDS:
            workdir = os.path.join(run.OUT, f"reference-{workload}-{seed}")
            try:
                spec = workloads.prepare(workload, seed, workdir, pipeline)
                outcome = run.run_pass(pipeline, spec, workdir)
                tally = checks.Checks()
                checks.check_run(tally, spec, [outcome], run.zigzag_config(pipeline, spec), None)
                if outcome.failed or tally.failed:
                    print(f"{workload} seed {seed}: not stored, {tally.failures}", file=sys.stderr)
                    return 1
                entries[str(seed)] = {
                    "diagrams_sha256": checks.digest(outcome.zpd),
                    "w1": outcome.costs,
                    "test_mae": outcome.test_mae,
                }
                print(f"{workload} seed {seed}: {tally.attempted} checks passed", flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
