"""The benchmark's stored diagram digests, W1 costs and test MAE, reproduced by the library.

``perfbench/reference.json`` holds, per workload and seed, the SHA-256
of every diagram CSV the benchmark's chain writes, the W1 cost of each
pair of diagrams it compares and the test MAE of its training call.
The benchmark checks them only when it runs; these tests rebuild each
stored seed's inputs with ``perfbench.workloads.prepare``, run
``cmd_zigzag`` with the config ``perfbench/run.zigzag_config`` builds,
``cmd_distance`` on the chain's pairs and, at two seeds, ``cmd_train``,
so a change of any diagram, cost or test MAE fails the tier-1 suite too.
"""

import itertools
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


def run_zigzag(bench, tmp_path, workload, seed):
    """The chain's spec, its zigzag config and every diagram CSV it writes, in order."""
    run, workloads, _ = bench
    spec = workloads.prepare(workload, int(seed), str(tmp_path / "inputs"), pipeline)
    zcfg = run.zigzag_config(pipeline, spec)
    paths = []
    for k, snapshots in enumerate(spec.zigzag):
        cfg = replace(zcfg, snapshots=snapshots, outdir=str(tmp_path / f"zigzag{k}"))
        paths += pipeline.cmd_zigzag(cfg)["zpd"]
    return spec, zcfg, paths


@pytest.mark.parametrize("workload, seed", stored_seeds())
def test_cmd_zigzag_reproduces_the_stored_diagram_digest(bench, tmp_path, workload, seed):
    _, _, checks = bench
    _, _, paths = run_zigzag(bench, tmp_path, workload, seed)
    stored = checks.load_reference()["seeds"][workload][seed]["diagrams_sha256"]
    assert checks.digest(paths) == stored


@pytest.mark.parametrize("workload, seed", stored_seeds())
def test_cmd_distance_reproduces_the_stored_w1_costs(bench, tmp_path, workload, seed):
    # the chain's pairs as perfbench/run.run_pass takes them: all of them or
    # consecutive ones, each at dims 0 then 1
    _, _, checks = bench
    spec, zcfg, paths = run_zigzag(bench, tmp_path, workload, seed)
    pairs = itertools.combinations(paths, 2) if spec.all_pairs else zip(paths, paths[1:])
    costs = [pipeline.cmd_distance(zcfg, a, b, dim)["cost"] for a, b in pairs for dim in (0, 1)]
    assert costs == checks.load_reference()["seeds"][workload][seed]["w1"]


# the seed the benchmark is tuned on and the held-out one
TRAIN_SEEDS = ("0", "4242")


@pytest.mark.parametrize("workload, seed", [(w, s) for w, s in stored_seeds() if s in TRAIN_SEEDS])
def test_cmd_train_reproduces_the_stored_test_mae(bench, tmp_path, workload, seed):
    # the chain's training call as perfbench/run.run_pass makes it
    _, workloads, checks = bench
    spec = workloads.prepare(workload, int(seed), str(tmp_path / "inputs"), pipeline)
    tcfg = replace(pipeline.RunConfig(nu_star=workloads.NU_STAR), snapshots=spec.train_snapshots,
                   features=spec.train_features, outdir=str(tmp_path / "train"), **spec.train_cfg)
    mae = pipeline.cmd_train(tcfg)["test_metrics"][0]
    stored = checks.load_reference()["seeds"][workload][seed]["test_mae"]
    assert checks._close("test MAE", mae, stored, checks.MAE_RTOL) is None


def test_checks_betti_passes_the_chain_and_flags_a_missing_bar(bench, tmp_path):
    # checks._betti rebuilds a window with build_zigzag and runs betti_consistency_check on
    # the diagram the chain wrote; check_run picks the first, middle and last windows
    _, _, checks = bench
    spec, zcfg, paths = run_zigzag(bench, tmp_path, "series", "0")
    assert len(spec.zigzag) == 1
    snapshots = spec.zigzag[0]

    def betti(window):
        return checks._betti(snapshots, zcfg.tau, zcfg.nu_star, paths[window], window,
                             zcfg.universe_size)

    windows = sorted({0, len(paths) // 2, len(paths) - 1})
    assert len(windows) == 3
    assert [betti(window) for window in windows] == [None] * 3
    # a missing bar leaves a position with fewer live bars than its Betti number;
    # a later death would not, where the bar already ends at the window's end
    with open(paths[0], encoding="ascii") as fh:
        header, _, *bars = fh.readlines()
    with open(paths[0], "w", encoding="ascii") as fh:
        fh.writelines([header, *bars])
    assert betti(0).startswith("violations ((")
