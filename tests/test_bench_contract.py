"""The library names the benchmark in ``perfbench/`` looks up must exist.

The benchmark wraps public functions at their lookup names from outside
``src/`` and calls a few library functions in its checks, so renaming or
deleting one of them breaks the benchmark without failing any other test.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from zigzagst import dyngraph, gf2, net, pipeline, zigzag, zpi
from util import independent_snapshots

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


def test_count_pass_wraps_the_series_engine_and_restores_every_name(tracing):
    # the count pass replaces names on these owners; a renamed counted name such as
    # TrackedBasis.insert would otherwise break the benchmark's count pass silently
    from zigzagst.net import layers

    owners = [zigzag, gf2, gf2.TrackedBasis, pipeline, layers, sys.modules["zigzagst.net.train"]]
    before = [dict(vars(owner)) for owner in owners]
    snaps = independent_snapshots(0, n=10, length=5, density=0.4)
    want = list(zigzag.zigzag_series(snaps, 3, 0.5))
    counter = tracing.Counter()
    with counter.active():
        got = list(zigzag.zigzag_series(snaps, 3, 0.5))
        wrapped = sum(dict(vars(o)) != b for o, b in zip(owners, before))
    assert [dict(vars(owner)) for owner in owners] == before
    assert wrapped == len(owners)
    assert got == want
    assert counter.n["dyngraph.union_graph_calls"] == len(snaps) - 1
    assert counter.n["filtration.build_complex_calls"] == 2 * len(snaps) - 1
    assert counter.n["gf2.insert_calls"] > 0 and counter.n["gf2.matvec_calls"] > 0


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


def _distinct_images(zpd_paths, dims, cfg) -> int:
    """The distinct (dim, image) pairs of the diagrams at ``zpd_paths``, each rendered alone."""
    grid, weighting = cfg.grid_spec(), cfg.weighting()
    return len({(dim, zpi.render_zpi(zigzag.read_zpd_csv(path).points(dim), grid, weighting)
                 .pixels.tobytes()) for path in zpd_paths for dim in dims})


def test_cmd_zpi_reaches_the_wrapped_image_functions(tmp_path, monkeypatch):
    # the zpi.render and zpi.write spans and the zpi.bytes_written counter wrap these
    # names on the pipeline module, count len(args[0]) points and size the file args[1];
    # each distinct image is rendered once, and every window's files are still written
    calls = {"render_zpi": [], "write_zpi": [], "write_pgm": []}
    for name, log in calls.items():
        original = getattr(pipeline, name)

        def recorded(*args, _original=original, _log=log, **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, recorded)
    data = pipeline.gen_synthetic(n_nodes=6, length=8, seed=0)
    snaps = tmp_path / "snapshots.csv"
    dyngraph.write_snapshot_csv(data.network, snaps)
    cfg = pipeline.RunConfig(snapshots=str(snaps), outdir=str(tmp_path / "out"), nu_star=0.5,
                             tau=3, homology_dims=(0, 1), resolution=6)
    zigzagged = pipeline.cmd_zigzag(cfg)
    windows = zigzagged["windows"]
    assert windows == 6
    written = pipeline.cmd_zpi(cfg)["zpi"]
    assert len(written) == 2 * windows
    distinct = _distinct_images(zigzagged["zpd"], (0, 1), cfg)
    assert distinct < 2 * windows  # the series repeats an image
    assert len(calls["render_zpi"]) == distinct
    assert all(isinstance(args[0], list) for args in calls["render_zpi"])
    for name, suffix in [("write_zpi", ".zpi"), ("write_pgm", ".pgm")]:
        paths = [args[1] for args in calls[name]]
        assert paths == [path[: -len(".zpi")] + suffix for path in written]
        assert all(os.path.getsize(path) > 0 for path in paths)


def test_cmd_zpi_and_cmd_distance_run_under_the_count_pass(tracing, tmp_path):
    # the count pass sizes the arguments of render_zpi and wasserstein1 with len() and set()
    data = pipeline.gen_synthetic(n_nodes=6, length=8, seed=0)
    snaps = tmp_path / "snapshots.csv"
    dyngraph.write_snapshot_csv(data.network, snaps)
    cfg = pipeline.RunConfig(snapshots=str(snaps), outdir=str(tmp_path / "out"), nu_star=0.5,
                             tau=3, homology_dims=(0, 1), resolution=6)
    paths = pipeline.cmd_zigzag(cfg)["zpd"]
    counter = tracing.Counter()
    with counter.active():
        written = pipeline.cmd_zpi(cfg)["zpi"]
        costs = [pipeline.cmd_distance(cfg, paths[0], paths[1], dim)["cost"] for dim in (0, 1)]
    assert len(written) == 2 * len(paths)
    assert all(cost >= 0.0 for cost in costs)
    assert counter.n["zpi.render_calls"] == _distinct_images(paths, (0, 1), cfg) < len(written)
    files = [path[: -len(".zpi")] + suffix for path in written for suffix in (".zpi", ".pgm")]
    assert counter.n["zpi.bytes_written"] == sum(map(os.path.getsize, files))
    assert counter.n["metrics.wasserstein1_calls"] == 2


def test_forward_encodes_every_layer_in_one_wrapped_call(monkeypatch):
    # the net.zpi_encoder span wraps layers.zpi_encoder, so every forward must reach the
    # encoder through that module global, once, and never when no code is needed
    from zigzagst.net import layers

    calls = []
    original = layers.zpi_encoder

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(layers, "zpi_encoder", recorded)
    cfg = net.tiny_config()
    params = net.init_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (3, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (2, cfg.zpi_resolution, cfg.zpi_resolution))
    idx = np.array([1, 0, 1])
    net.forward(x, img, idx, params, cfg)
    net.forward(x, img, idx, params, cfg, want_cache=True)
    assert len(calls) == 2
    assert all(len(args[2]) == cfg.num_layers for args in calls)
    net.forward(x, img, idx, params, cfg, ablation=net.Ablation.NO_ZIGZAG, want_cache=True)
    assert len(calls) == 2


def test_cmd_train_calls_the_counted_gru_step_once_per_step_and_layer(tracing, tmp_path):
    # net.gru_cell_calls counts calls of layers.gru_cell; a sequence kernel that
    # bypassed that name would leave the counter short of the steps actually run
    base = dict(outdir=str(tmp_path / "out"), nu_star=0.5, seed=2, synth_nodes=6,
                synth_length=20, synth_period=4, tau=3, horizon=2, resolution=8, hidden=4,
                num_layers=2, embed_dim=2, laplacian_order=1, epochs=2, batch_size=4)
    paths = pipeline.cmd_synth(pipeline.RunConfig(**base))
    cfg = pipeline.RunConfig(**base, snapshots=paths["snapshots"], features=paths["features"])
    counter = tracing.Counter()
    with counter.active():
        pipeline.cmd_train(cfg)
    forwards = counter.n["net.forward_calls"]
    assert forwards > 0
    assert counter.n["net.gru_cell_calls"] == forwards * cfg.tau * cfg.num_layers
