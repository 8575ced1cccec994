"""The library names the benchmark in ``perfbench/`` looks up must exist.

The benchmark wraps public functions at their lookup names from outside
``src/`` and calls a few library functions in its checks, so renaming or
deleting one of them breaks the benchmark without failing any other test.
"""

import importlib.util
import os

import pytest

from zigzagst import dyngraph, net, pipeline, zigzag

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    for name, sites in tracing.span_targets().items():
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


def test_tracer_and_counter_enter_and_exit(tracing):
    targets = [site for sites in tracing.span_targets().values() for site in sites]
    before = [getattr(owner, attr) for owner, attr in targets]
    with tracing.Tracer().active():
        pass
    with tracing.Counter().active():
        pass
    assert [getattr(owner, attr) for owner, attr in targets] == before


def test_checks_library_calls_exist():
    for owner, attr in [
        (dyngraph, "sliding_windows"),
        (zigzag, "build_zigzag"),
        (zigzag, "betti_consistency_check"),
        (zigzag, "read_zpd_csv"),
    ]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is missing"


def test_split_and_assembly_sizes_the_benchmark_reads(tracing):
    # perfbench/run.py counts training samples by splitting a plain list
    split = net.chronological_split([None] * 57, (0.6, 0.2, 0.2))
    assert [len(split.train), len(split.val), len(split.test)] == [34, 11, 12]
    # the count pass records len() of each assemble_batches result
    data = pipeline.gen_synthetic(n_nodes=6, length=12, seed=0)
    cfg = pipeline.RunConfig(nu_star=0.5, tau=3, horizon=2, resolution=8)
    counter = tracing.Counter()
    with counter.active():
        pipeline.assemble_batches(data.network, data.features, cfg)
        pipeline.assemble_batches(data.network, data.features, cfg, range(5, 8))
    assert counter.assembled == [8, 3]
