"""The benchmark's stored diagram digests, reproduced by ``cmd_zigzag``.

``perfbench/reference.json`` holds, per workload and seed, the SHA-256
of every diagram CSV the benchmark's chain writes.  The benchmark checks
it only when it runs; this test rebuilds each stored seed's inputs with
``perfbench.workloads.prepare`` and runs ``cmd_zigzag`` with the config
``perfbench/run.zigzag_config`` builds, so a change of any diagram fails
the tier-1 suite too.
"""

import json
import os
import sys
from dataclasses import replace

import pytest

from zigzagst import pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``run``, ``workloads`` and ``checks`` modules, imported as it runs them.

    ``run`` imports ``steady`` first, which sets the BLAS thread variables;
    they are restored afterwards so later tests see the environment they had.
    """
    env = dict(os.environ)
    sys.path.insert(0, PERFBENCH)
    try:
        import checks
        import run
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
        os.environ.clear()
        os.environ.update(env)
    return run, workloads, checks


def stored_seeds():
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="ascii") as fh:
        seeds = json.load(fh)["seeds"]
    return [(workload, seed) for workload, by_seed in sorted(seeds.items())
            for seed in sorted(by_seed, key=int)]


@pytest.mark.parametrize("workload, seed", stored_seeds())
def test_cmd_zigzag_reproduces_the_stored_diagram_digest(bench, tmp_path, workload, seed):
    run, workloads, checks = bench
    spec = workloads.prepare(workload, int(seed), str(tmp_path / "inputs"), pipeline)
    zcfg = run.zigzag_config(pipeline, spec)
    paths = []
    for k, snapshots in enumerate(spec.zigzag):
        cfg = replace(zcfg, snapshots=snapshots, outdir=str(tmp_path / f"zigzag{k}"))
        paths += pipeline.cmd_zigzag(cfg)["zpd"]
    stored = checks.load_reference()["seeds"][workload][seed]["diagrams_sha256"]
    assert checks.digest(paths) == stored
