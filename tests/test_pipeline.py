import math
import os
from dataclasses import replace

import numpy as np
import pytest

from zigzagst.cli import main
from zigzagst.dyngraph import (
    read_feature_csv,
    read_snapshot_csv,
    write_feature_csv,
    write_snapshot_csv,
)
from zigzagst.filtration import FiltrationMode, build_complex, betti_numbers
from zigzagst.pipeline import (
    RunConfig,
    _inject_noise,
    _model_config,
    assemble_batches,
    cmd_ablate,
    cmd_distance,
    cmd_filtrate,
    cmd_forecast,
    cmd_gradcheck,
    cmd_synth,
    cmd_train,
    cmd_zigzag,
    cmd_zpi,
    gen_synthetic,
    window_image,
)
from zigzagst.zigzag import (
    build_zigzag,
    compute_zigzag_persistence,
    read_zpd_csv,
    write_zpd_csv,
)
from zigzagst.zpi import read_zpi


GOLDEN_CSV = """t,u,v,w
1,0,1,0.2
1,1,2,0.2
1,2,3,0.2
2,0,1,0.2
2,1,2,0.2
2,2,3,0.2
2,0,3,0.2
3,0,1,0.2
3,1,2,0.2
3,2,3,0.2
"""


@pytest.fixture
def golden_paths(tmp_path):
    snaps = tmp_path / "snapshots.csv"
    snaps.write_text(GOLDEN_CSV)
    return snaps, tmp_path


# --- RunConfig -----------------------------------------------------------------

def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nnu_star = 0.5\ntau = 3\nhomology_dims = 0,1\n")
    cfg = RunConfig.from_file(cfg_file, {"tau": "4", "check": "true"})
    assert cfg.nu_star == 0.5
    assert cfg.tau == 4  # override wins
    assert cfg.homology_dims == (0, 1)
    assert cfg.check is True


def test_config_booleans_are_strict():
    for value, want in [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                        ("0", False), ("false", False), ("NO", False), ("Off", False)]:
        assert RunConfig.from_file(None, {"check": value}).check is want
    with pytest.raises(ValueError, match="check must be one of .* got 'ture'"):
        RunConfig.from_file(None, {"check": "ture"})


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_file(cfg_file)


def test_nu_star_is_required():
    cfg = RunConfig()
    with pytest.raises(ValueError, match="nu_star"):
        cfg.require_nu_star()


def test_unknown_filtration_and_ablation():
    with pytest.raises(ValueError):
        RunConfig(filtration="fancy").filtration_mode()
    with pytest.raises(ValueError):
        RunConfig(ablation="bogus").ablation_flags()


# --- synthetic data --------------------------------------------------------------

def test_gen_synthetic_plants_recoverable_cycle():
    data = gen_synthetic(n_nodes=12, length=24, period=4, delta=1.0, noise=0.0, seed=1)
    assert len(data.network) == 24
    # noise-free indicator is recoverable from the per-snapshot cycle rank
    for snap, flag in zip(data.network, data.indicator):
        cx = build_complex(snap, 0.5, FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE)
        assert betti_numbers(cx, 1) == int(flag)


def test_gen_synthetic_delta_zero_removes_signal_not_cycle():
    data = gen_synthetic(n_nodes=12, length=16, period=4, delta=0.0, noise=0.0, seed=2)
    assert data.indicator.sum() > 0
    values = data.features.values[:, :, 0]
    on = values[data.indicator == 1].mean()
    off = values[data.indicator == 0].mean()
    assert abs(on - off) < 0.2  # only the sinusoid differs


def test_window_image_distinguishes_cycle_windows():
    data = gen_synthetic(n_nodes=12, length=20, period=4, delta=1.0, noise=0.1, seed=3)
    cfg = RunConfig(nu_star=0.5, tau=4, resolution=16)
    grid = cfg.grid_spec()
    snaps = data.network.snapshots
    img_on = window_image(snaps[0:4], 0.5, FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE, grid, cfg.weighting())
    assert img_on.max() > 0.0


# --- commands ----------------------------------------------------------------------

def test_cmd_filtrate_golden(golden_paths):
    snaps, tmp = golden_paths
    cfg = RunConfig(snapshots=str(snaps), outdir=str(tmp / "out"), nu_star=0.5)
    out = cmd_filtrate(cfg)
    lines = open(out["betti"]).read().splitlines()
    assert lines[0] == "t,b0,b1"
    assert lines[1] == "1,1,0"
    assert lines[2] == "2,1,1"  # the square snapshot has one loop
    assert os.path.exists(out["complexes"][0])


def test_cmd_zigzag_golden_window(golden_paths):
    snaps, tmp = golden_paths
    cfg = RunConfig(snapshots=str(snaps), outdir=str(tmp / "out"), nu_star=0.5, tau=3, check=True)
    out = cmd_zigzag(cfg)
    assert out["windows"] == 1 and out["violations"] == 0
    zpd = read_zpd_csv(out["zpd"][0])
    assert zpd.pairs(1) == [(1.5, 2.5)]
    assert zpd.pairs(0) == [(1.0, 3.0)]


def test_cmd_zigzag_parallel_matches_serial(tmp_path):
    # 9 snapshots and tau = 3 give 7 windows, split into 3 blocks of 2, 2 and 3.
    snaps = tmp_path / "snapshots.csv"
    write_snapshot_csv(gen_synthetic(n_nodes=8, length=9, seed=5).network, snaps)
    base = RunConfig(snapshots=str(snaps), nu_star=0.5, tau=3, check=True)
    out_s = cmd_zigzag(replace(base, outdir=str(tmp_path / "s")))
    out_p = cmd_zigzag(replace(base, outdir=str(tmp_path / "p"), jobs=3))
    assert out_s["windows"] == out_p["windows"] == 7
    assert out_s["violations"] == out_p["violations"] == 0
    for a, b in zip(out_s["zpd"], out_p["zpd"], strict=True):
        assert os.path.basename(a) == os.path.basename(b)
        assert open(a, "rb").read() == open(b, "rb").read()


def _nine_snapshots(tmp_path):
    snaps = tmp_path / "snapshots.csv"
    write_snapshot_csv(gen_synthetic(n_nodes=8, length=9, seed=5).network, snaps)
    return snaps


def test_cmd_zigzag_removes_an_earlier_runs_windows(tmp_path):
    base = RunConfig(
        snapshots=str(_nine_snapshots(tmp_path)), outdir=str(tmp_path / "out"), nu_star=0.5,
        homology_dims=(0, 1), resolution=8,
    )
    assert cmd_zigzag(replace(base, tau=2))["windows"] == 8
    cmd_zpi(replace(base, tau=2))
    (tmp_path / "out" / "zpd_other.csv").write_text("p,twice_birth,twice_death\n")
    assert cmd_zigzag(replace(base, tau=5))["windows"] == 5
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == ["zpd_other.csv"] + [f"zpd_window_{k:04d}.csv" for k in range(5)]
    rendered = cmd_zpi(replace(base, tau=5))["zpi"]
    assert len(rendered) == 2 + 5 * 2  # zpd_other plus five windows, two dimensions each


def test_cmd_zigzag_check_computes_betti_once_per_complex(tmp_path, monkeypatch):
    import zigzagst.pipeline as pipeline
    import zigzagst.zigzag as zigzag

    calls = []

    def counted(cx, dim):
        calls.append(dim)
        return betti_numbers(cx, dim)

    monkeypatch.setattr(pipeline, "betti_numbers", counted)
    monkeypatch.setattr(zigzag, "betti_numbers", counted)
    cfg = RunConfig(
        snapshots=str(_nine_snapshots(tmp_path)), outdir=str(tmp_path / "out"), nu_star=0.5,
        tau=4, check=True,
    )
    out = cmd_zigzag(cfg)
    assert out["windows"] == 6 and out["violations"] == 0
    assert len(calls) == 2 * (2 * 9 - 1)


def test_cmd_zigzag_check_catches_a_corrupted_diagram(tmp_path, monkeypatch):
    import zigzagst.pipeline as pipeline
    from zigzagst.zigzag import ZPD

    engine = pipeline.zigzag_series

    def corrupted(*args):
        for zf, zpd in engine(*args):
            yield zf, ZPD(zpd.rows[1:])

    monkeypatch.setattr(pipeline, "zigzag_series", corrupted)
    cfg = RunConfig(
        snapshots=str(_nine_snapshots(tmp_path)), outdir=str(tmp_path / "out"), nu_star=0.5,
        tau=4, check=True,
    )
    with pytest.raises(AssertionError, match="betti consistency check failed"):
        cmd_zigzag(cfg)


def test_cmd_zpi_renders_all_diagrams(golden_paths):
    snaps, tmp = golden_paths
    out_dir = tmp / "out"
    cfg = RunConfig(
        snapshots=str(snaps), outdir=str(out_dir), nu_star=0.5, tau=3,
        homology_dims=(0, 1), resolution=12,
    )
    cmd_zigzag(cfg)
    out = cmd_zpi(cfg)
    assert len(out["zpi"]) == 2  # one window, two dimensions
    z = read_zpi(out["zpi"][1])
    assert z.pixels.max() > 0.0
    assert os.path.exists(out["zpi"][0].replace(".zpi", ".pgm"))


def test_cmd_zpi_requires_diagrams(tmp_path):
    cfg = RunConfig(outdir=str(tmp_path), nu_star=0.5)
    with pytest.raises(FileNotFoundError):
        cmd_zpi(cfg)


def test_pipeline_matches_direct_library_calls(golden_paths):
    snaps, tmp = golden_paths
    out_dir = tmp / "out"
    cfg = RunConfig(snapshots=str(snaps), outdir=str(out_dir), nu_star=0.5, tau=3, resolution=12)
    cmd_zigzag(cfg)
    cmd_zpi(cfg)
    network = read_snapshot_csv(str(snaps))
    zpd = compute_zigzag_persistence(build_zigzag(network.snapshots, 0.5))
    from zigzagst.zpi import render_zpi, transform_diagram

    direct = render_zpi(transform_diagram(zpd, 1), cfg.grid_spec(), cfg.weighting())
    rendered = read_zpi(out_dir / "zpd_window_0000_dim1.zpi")
    assert np.allclose(rendered.pixels, direct.pixels, rtol=0, atol=0)


def test_cmd_idempotent_outputs(golden_paths):
    snaps, tmp = golden_paths
    cfg = RunConfig(snapshots=str(snaps), outdir=str(tmp / "out"), nu_star=0.5, tau=3)
    first = cmd_zigzag(cfg)
    content = open(first["zpd"][0]).read()
    second = cmd_zigzag(cfg)
    assert open(second["zpd"][0]).read() == content


def test_cmd_distance(tmp_path):
    from zigzagst.zigzag import ZPD

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_zpd_csv(ZPD(((1, 2, 6, 1),)), a)
    write_zpd_csv(ZPD(()), b)
    out = cmd_distance(RunConfig(), str(a), str(b), dim=1)
    assert out["cost"] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="dimension must be 0 or 1, got 2"):
        cmd_distance(RunConfig(), str(a), str(b), dim=2)


def test_cmd_zpi_rejects_other_dimensions(golden_paths):
    snaps, tmp = golden_paths
    cfg = RunConfig(
        snapshots=str(snaps), outdir=str(tmp / "out"), nu_star=0.5, tau=3,
        homology_dims=(2,), resolution=8,
    )
    cmd_zigzag(cfg)
    with pytest.raises(ValueError, match="dimension must be 0 or 1, got 2"):
        cmd_zpi(cfg)


def test_cmd_synth_and_train_and_gradcheck(tmp_path):
    out_dir = tmp_path / "out"
    cfg = RunConfig(
        outdir=str(out_dir), nu_star=0.5, seed=1,
        synth_nodes=8, synth_length=26, synth_period=4,
        tau=4, horizon=2, resolution=12, hidden=4, num_layers=1,
        embed_dim=2, laplacian_order=1, epochs=2, batch_size=8,
        learning_rate=0.01,
    )
    paths = cmd_synth(cfg)
    truth = open(paths["truth"]).read().splitlines()
    assert truth[0] == "t,cycle_present" and len(truth) == 27
    cfg2 = RunConfig(
        snapshots=paths["snapshots"], features=paths["features"], outdir=str(out_dir),
        nu_star=0.5, tau=4, horizon=2, resolution=12, hidden=4, num_layers=1,
        embed_dim=2, laplacian_order=1, epochs=2, batch_size=8, learning_rate=0.01,
        seed=1,
    )
    out = cmd_train(cfg2)
    assert os.path.exists(out["checkpoint"])
    assert os.path.exists(out["history"])
    assert all(math.isfinite(v) for v in out["test_metrics"])
    gc = cmd_gradcheck(RunConfig(seed=0))
    assert gc["passed"]


def test_cmd_forecast_and_ablate(tmp_path):
    out_dir = tmp_path / "out"
    base = dict(
        outdir=str(out_dir), nu_star=0.5, seed=2,
        synth_nodes=8, synth_length=30, synth_period=4,
        tau=4, horizon=2, resolution=12, hidden=4, num_layers=1,
        embed_dim=2, laplacian_order=1, epochs=2, batch_size=8,
        learning_rate=0.01,
    )
    paths = cmd_synth(RunConfig(**base))
    cfg = RunConfig(**base, snapshots=paths["snapshots"], features=paths["features"])
    trained = cmd_train(cfg)
    out = cmd_forecast(cfg, trained["checkpoint"])
    lines = open(out["forecast"]).read().splitlines()
    assert lines[0] == "window,step,node,feature,value"
    # one row per (window, step, node, feature)
    assert len(lines) - 1 == out["windows"] * 2 * 8 * 1
    ab = cmd_ablate(cfg)
    names = [row[0] for row in ab["rows"]]
    assert names == ["none", "no-zigzag", "no-spatial", "no-temporal"]
    header = open(ab["ablation"]).read().splitlines()[0]
    assert header == "ablation,mae,rmse,mape"
    assert os.path.exists(out_dir / "history_no-zigzag.csv")


@pytest.fixture
def forecast_inputs(tmp_path):
    """Small synthetic data and an untrained checkpoint whose shapes match it."""
    from zigzagst import net

    data = gen_synthetic(n_nodes=8, length=16, seed=3)
    snaps, feats = tmp_path / "snapshots.csv", tmp_path / "features.csv"
    write_snapshot_csv(data.network, snaps)
    write_feature_csv(data.features, feats)
    cfg = RunConfig(
        snapshots=str(snaps), features=str(feats), outdir=str(tmp_path / "out"), nu_star=0.5,
        tau=4, horizon=2, resolution=8, hidden=4, num_layers=1, embed_dim=2, laplacian_order=1,
    )
    model_cfg = net.ModelConfig(
        n_nodes=8, in_features=1, window=4, horizon=2, hidden=4, num_layers=1,
        embed_dim=2, laplacian_order=1, zpi_resolution=8,
    )
    ckpt = str(tmp_path / "checkpoint.npz")
    identity = (np.zeros(1), np.ones(1), 1.0)
    params = net.init_params(model_cfg, np.random.default_rng(0))
    net.save_checkpoint(ckpt, model_cfg, params, identity)
    return cfg, data, ckpt


def test_cmd_forecast_accepts_a_matching_checkpoint(forecast_inputs):
    cfg, _, ckpt = forecast_inputs
    assert cmd_forecast(cfg, ckpt)["windows"] >= 1


@pytest.mark.parametrize(
    "field", ["universe_size", "feature width", "tau", "horizon", "resolution"]
)
def test_cmd_forecast_rejects_data_the_checkpoint_was_not_trained_on(
    forecast_inputs, tmp_path, field
):
    from zigzagst.dyngraph import FeatureSeries

    cfg, data, ckpt = forecast_inputs
    values = data.features.values
    if field == "universe_size":
        # a ninth, isolated node with its own feature row
        padded = np.concatenate([values, values[:, :1]], axis=1)
        write_feature_csv(FeatureSeries(padded), cfg.features)
        cfg = replace(cfg, universe_size=9)
    elif field == "feature width":
        write_feature_csv(FeatureSeries(np.concatenate([values, values], axis=2)), cfg.features)
    else:
        cfg = replace(cfg, **{field: getattr(cfg, field) + 1})
    with pytest.raises(ValueError, match=f"^{field} is "):
        cmd_forecast(cfg, ckpt)


def test_cmd_forecast_scales_with_the_scalers_training_fitted(tmp_path):
    """A model trained on noisy windows is forecast with its own scalers."""
    from zigzagst import net

    base = dict(
        outdir=str(tmp_path), nu_star=0.5, seed=5, synth_nodes=6, synth_length=30,
        synth_period=4, tau=4, horizon=2, resolution=10, hidden=4, num_layers=1,
        embed_dim=2, laplacian_order=1, epochs=2, batch_size=4, learning_rate=0.01,
        noise_sigma=2.0, noise_fraction=0.5,
    )
    paths = cmd_synth(RunConfig(**base))
    cfg = RunConfig(**base, snapshots=paths["snapshots"], features=paths["features"])
    trained = cmd_train(cfg)
    out = cmd_forecast(cfg, trained["checkpoint"])

    # the same run, repeated in the library, gives the TrainResult cmd_train saw
    network, features = read_snapshot_csv(cfg.snapshots), read_feature_csv(cfg.features)
    dataset = net.chronological_split(assemble_batches(network, features, cfg), cfg.split)
    clean_train = dataset.train
    noisy = _inject_noise(list(dataset.train), len(dataset.train), cfg)
    dataset = net.Dataset(tuple(noisy), dataset.val, dataset.test)
    result = net.train(dataset, _model_config(cfg, 6, 1), cfg.ablation_flags())
    _, _, (lo, hi, scale) = net.load_checkpoint(trained["checkpoint"])
    assert np.array_equal(lo, result.input_lo) and np.array_equal(hi, result.input_hi)
    assert scale == result.image_scale
    want = net.predict(result, net.Batch.stack(dataset.test))
    # scalers refitted on the clean windows would give other forecasts
    clean = np.concatenate([b.inputs.reshape(-1, 1) for b in clean_train])
    refit = replace(result, input_lo=clean.min(axis=0), input_hi=clean.max(axis=0))
    assert not np.allclose(net.predict(refit, net.Batch.stack(dataset.test)), want)

    rows = np.loadtxt(out["forecast"], delimiter=",", skiprows=1)
    assert len(rows) == want.size
    assert np.array_equal(rows[:, 4].reshape(want.shape), want)


def test_noise_injection_perturbs_only_training_inputs():
    data = gen_synthetic(n_nodes=8, length=20, period=4, delta=1.0, noise=0.1, seed=4)
    cfg = RunConfig(nu_star=0.5, tau=4, horizon=2, resolution=10,
                    noise_sigma=2.0, noise_fraction=0.5, seed=0)
    batches = assemble_batches(data.network, data.features, cfg)
    n_train = 8
    noisy = _inject_noise(batches, n_train, cfg)
    changed = [
        i for i, (a, b) in enumerate(zip(batches, noisy))
        if not np.array_equal(a.inputs, b.inputs)
    ]
    assert len(changed) == round(0.5 * n_train)
    assert all(i < n_train for i in changed)
    for i in changed:
        assert np.array_equal(batches[i].image, noisy[i].image)
        assert np.array_equal(batches[i].targets, noisy[i].targets)
    # deterministic under the same seed
    again = _inject_noise(batches, n_train, cfg)
    for a, b in zip(noisy, again):
        assert np.array_equal(a.inputs, b.inputs)


def test_assemble_batches_counts_and_shapes():
    data = gen_synthetic(n_nodes=8, length=20, period=4, delta=1.0, noise=0.1, seed=4)
    cfg = RunConfig(nu_star=0.5, tau=4, horizon=2, resolution=10)
    batches = assemble_batches(data.network, data.features, cfg)
    assert len(batches) == 20 - 4 - 2 + 1
    b = batches[0]
    assert b.inputs.shape == (4, 8, 1)
    assert b.image.shape == (10, 10)
    assert b.targets.shape == (2, 8, 1)


# --- CLI ------------------------------------------------------------------------------

def test_cli_zigzag_and_distance(golden_paths, capsys):
    snaps, tmp = golden_paths
    out_dir = tmp / "cli"
    rc = main([
        "zigzag", "--set", f"snapshots={snaps}", "--set", f"outdir={out_dir}",
        "--set", "nu_star=0.5", "--set", "tau=3", "--set", "check=true",
    ])
    assert rc == 0
    assert "violations: 0" in capsys.readouterr().out
    zpd_file = str(out_dir / "zpd_window_0000.csv")
    rc = main(["distance", zpd_file, zpd_file, "--dim", "1", "--pairing"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "wasserstein1 = 0" in printed
    assert "a_birth,a_death,b_birth,b_death" in printed
    assert "1.5,2.5,1.5,2.5" in printed


def test_cli_synth_and_gradcheck(tmp_path, capsys):
    rc = main([
        "synth", "--set", f"outdir={tmp_path}", "--set", "nu_star=0.5",
        "--set", "synth_length=12", "--set", "synth_nodes=8",
    ])
    assert rc == 0
    assert (tmp_path / "snapshots.csv").exists()
    rc = main(["gradcheck", "--set", "seed=0"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
