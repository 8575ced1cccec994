"""Set-up step of a benchmark run, timed inside a fresh interpreter.

Imports the CLI's modules, then writes the workload's inputs; prints the
elapsed time as JSON.  ``run.py`` runs this several times per run and
reports the median as ``setup_s``, so work moved into import or input
preparation shows there.

    python3 perfbench/prepare.py --workload series --seed 0 --workdir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import zigzagst.cli  # noqa: F401  (everything the CLI imports)
    from zigzagst import pipeline

    import workloads

    workloads.prepare(args.workload, args.seed, args.workdir, pipeline)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
