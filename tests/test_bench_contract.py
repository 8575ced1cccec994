"""The library names the benchmark in ``perfbench/`` looks up must exist.

The benchmark wraps public functions at their lookup names from outside
``src/`` and calls a few library functions in its checks, so renaming or
deleting one of them breaks the benchmark without failing any other test.
"""

import importlib.util
import os

import pytest

from zigzagst import dyngraph, zigzag

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
