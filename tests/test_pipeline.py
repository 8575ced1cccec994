import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import zigzagst
from zigzagst import net
from zigzagst.cli import main
from zigzagst.dyngraph import (
    DynamicNetwork,
    FeatureSeries,
    Snapshot,
    read_feature_csv,
    read_snapshot_csv,
    write_feature_csv,
    write_snapshot_csv,
)
from zigzagst.filtration import FiltrationMode, build_complex, betti_numbers
from zigzagst.pipeline import (
    RunConfig,
    _checkpoint_settings,
    _forecast_csv_text,
    _load_data,
    _model_config,
    _training_data,
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
)
from zigzagst.zigzag import (
    compute_zigzag_persistence,
    read_zpd_csv,
    write_zpd_csv,
)
from zigzagst.zpi import MAX_RESOLUTION, default_domain, default_theta, read_zpi
from util import expand, independent_snapshots, window_image


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
    with pytest.raises(FrozenInstanceError):
        cfg.tau = 5


def test_config_booleans_are_strict():
    for value, want in [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                        ("0", False), ("false", False), ("NO", False), ("Off", False)]:
        assert RunConfig.from_file(None, {"check": value}).check is want
    with pytest.raises(ValueError, match="check must be one of .* got 'ture'"):
        RunConfig.from_file(None, {"check": "ture"})


@pytest.mark.parametrize("key, value, kind", [
    ("tau", "1.5", "int"),
    ("nu_star", "abc", "float"),
    ("homology_dims", "0,x", "int"),
    ("split", "0.6,0.2,y", "float"),
])
def test_config_numbers_name_the_key(key, value, kind):
    with pytest.raises(ValueError, match=f"^{key} expects {kind} values, got '{value}'$"):
        RunConfig.from_file(None, {key: value})


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_file(cfg_file)


def test_nu_star_is_required():
    cfg = RunConfig()
    with pytest.raises(ValueError, match="nu_star"):
        cfg.require_nu_star()


def test_theta_is_zero_for_the_default_or_positive():
    default = default_theta(default_domain(6), 20)
    assert RunConfig(tau=6, resolution=20).grid_spec().theta == default
    assert RunConfig(theta=0.5).grid_spec().theta == 0.5


# A bad value of each setting construction checks, and the start of the message refusing it.
BAD_SETTINGS = [
    ("filtration", "vietoris", "unknown filtration 'vietoris'"),
    ("ablation", "no-zigzg", "unknown ablation 'no-zigzg'"),
    ("homology_dims", (), r"homology_dims must list 0, 1 or both once each, got \(\)$"),
    ("homology_dims", (1, 1), r"homology_dims must list 0, 1 or both once each, got \(1, 1\)$"),
    ("homology_dims", (0, 2), "homology_dims: dimension must be 0 or 1, got 2$"),
    ("nu_star", math.inf, "nu_star must be finite, got inf$"),
    ("nu_star", -math.inf, "nu_star must be finite, got -inf$"),
    ("tau", 0, "window length tau must be >= 1, got 0$"),
    ("resolution", 0, "resolution must be >= 1, got 0$"),
    ("resolution", MAX_RESOLUTION + 1,
     f"resolution {MAX_RESOLUTION + 1} exceeds MAX_RESOLUTION = {MAX_RESOLUTION}$"),
    *[("theta", value, "theta must be finite and >= 0")
      for value in (-3.0, math.nan, math.inf, -math.inf)],
    ("weight_kind", "lineal", "unknown weighting kind 'lineal'$"),
    ("weight_cap", 0.0, r"weight_cap must be positive, got 0\.0$"),
    *[("noise_sigma", value, "noise_sigma must be finite and >= 0")
      for value in (-1.0, math.nan, math.inf)],
    *[("noise_fraction", value, r"noise_fraction must lie in \[0, 1\]")
      for value in (-0.3, 5.0, math.nan)],
    ("split", (0.5, 0.2, 0.2),
     r"split fractions must be 2 or 3 values summing to 1, got \(0\.5, 0\.2, 0\.2\)$"),
    ("split", (1.5, -0.5), r"split fractions must each lie in \[0, 1\], got \(1\.5, -0\.5\)$"),
    ("seed", -1, "seed must be >= 0, got -1$"),
    ("universe_size", -3, "universe_size must be >= 0, got -3$"),
]
# The settings construction leaves alone, by what checks them instead.
MODEL_SETTINGS = {"horizon", "out_features", "embed_dim", "laplacian_order", "hidden",
                  "num_layers", "learning_rate", "lr_decay", "batch_size", "epochs"}  # ModelConfig
SYNTH_SETTINGS = {"synth_nodes", "synth_length", "synth_period", "synth_delta",
                  "synth_noise"}  # gen_synthetic
FREE_SETTINGS = {"snapshots", "features", "outdir", "check"}  # paths the commands open; a flag


def _as_text(value) -> str:
    """``value`` as a config file line or ``--set`` gives it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("setting, value, message", BAD_SETTINGS)
def test_construction_refuses_a_bad_setting(tmp_path, setting, value, message):
    text = _as_text(value)
    for make in (lambda: RunConfig(**{setting: value}),
                 lambda: replace(RunConfig(nu_star=0.5), **{setting: value}),
                 lambda: RunConfig.from_file(None, {setting: text})):
        with pytest.raises(ValueError, match=f"^{message}"):
            make()
    # a file's value is refused at its line, even when an override sets the key again
    path = tmp_path / "run.cfg"
    path.write_text(f"nu_star = 0.5\n{setting} = {text}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: {message}"):
        RunConfig.from_file(path, {setting: _as_text(getattr(RunConfig(), setting))})


@pytest.mark.parametrize("bad", [1.5, 4.0, True, "3", np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("setting", [f.name for f in fields(RunConfig) if type(f.default) is int])
def test_an_integer_setting_is_refused_at_construction_unless_an_integer(tmp_path, setting, bad):
    # epochs=1.5 constructed, and cmd_train made outdir before range() refused it
    cfg = RunConfig(nu_star=0.5, outdir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match=f"^{setting} must be an integer, got {re.escape(repr(bad))}$"):
        cmd_train(replace(cfg, **{setting: bad}))
    assert not os.path.exists(cfg.outdir)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5", None], ids=repr)
@pytest.mark.parametrize("setting", [f.name for f in fields(RunConfig) if type(f.default) is float])
def test_a_float_setting_is_refused_at_construction_unless_a_real_number(tmp_path, setting, bad):
    # RunConfig(nu_star=True) constructed, and a checkpoint would store "nu_star": true
    cfg = RunConfig(nu_star=0.5, outdir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match=f"^{setting} must be a real number, got {re.escape(repr(bad))}$"):
        cmd_train(replace(cfg, **{setting: bad}))
    assert not os.path.exists(cfg.outdir)
    # an int or a numpy float is a real number
    assert getattr(replace(cfg, **{setting: 1}), setting) == 1
    assert getattr(replace(cfg, **{setting: np.float64(0.5)}), setting) == 0.5


@pytest.mark.parametrize("split,bad", [((True, False, False), True), ((0.8, 0.2, "0"), "0")])
def test_split_holds_real_numbers(split, bad):
    message = f"^split: fraction must be a real number, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        RunConfig(split=split)


@pytest.mark.parametrize("dim", [1.0, True, np.float64(0.0)], ids=repr)
def test_homology_dims_holds_integers(dim):
    message = f"^homology_dims: dimension must be 0 or 1, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=message):
        RunConfig(homology_dims=(dim,))


def test_every_setting_is_refused_at_construction_or_checked_elsewhere():
    refused = {setting for setting, _, _ in BAD_SETTINGS}
    elsewhere = MODEL_SETTINGS | SYNTH_SETTINGS | FREE_SETTINGS
    assert not refused & elsewhere
    assert {f.name for f in fields(RunConfig)} == refused | elsewhere
    assert MODEL_SETTINGS <= {f.name for f in fields(net.ModelConfig)}


# The network settings no run setting of the same name sets: what ``_model_config``
# takes from the data or from a renamed run setting, and one a run leaves at its default.
MODEL_FROM_DATA = {"n_nodes", "in_features"}
MODEL_RENAMED = {"window": "tau", "zpi_resolution": "resolution"}
MODEL_DEFAULT_ONLY = {"plateau_patience": "acceptance criterion 8 trains with 4 as a gate"}


def test_every_model_setting_is_a_run_setting():
    model_keys = {f.name for f in fields(net.ModelConfig)}
    run_keys = {f.name for f in fields(RunConfig)}
    assert model_keys - run_keys == MODEL_FROM_DATA | set(MODEL_RENAMED) | set(MODEL_DEFAULT_ONLY)
    cfg = RunConfig(tau=5, resolution=9, hidden=6, num_layers=3, epochs=4, batch_size=3, seed=7)
    model = _model_config(cfg, 11, 2)
    assert (model.n_nodes, model.in_features) == (11, 2)
    for field, key in MODEL_RENAMED.items():
        assert getattr(model, field) == getattr(cfg, key)
    for key in model_keys & run_keys:
        assert getattr(model, key) == getattr(cfg, key)


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


@pytest.mark.parametrize("command", [cmd_filtrate, cmd_zigzag])
def test_an_unset_snapshot_path_is_refused_before_outdir_is_made(tmp_path, command):
    cfg = RunConfig(outdir=str(tmp_path / "out"), nu_star=0.5, tau=2)
    with pytest.raises(ValueError, match="^snapshots path is required$"):
        command(cfg)
    assert not (tmp_path / "out").exists()


def test_cmd_zigzag_golden_window(golden_paths):
    snaps, tmp = golden_paths
    cfg = RunConfig(snapshots=str(snaps), outdir=str(tmp / "out"), nu_star=0.5, tau=3, check=True)
    out = cmd_zigzag(cfg)
    assert out["windows"] == 1 and out["violations"] == 0
    zpd = read_zpd_csv(out["zpd"][0])
    assert zpd.points(1) == [(1.5, 2.5, 1)]
    assert zpd.points(0) == [(1.0, 3.0, 1)]


def test_cmd_zigzag_matches_the_one_window_api(tmp_path):
    # 9 snapshots and tau = 3 give 7 windows.
    snaps = tmp_path / "snapshots.csv"
    write_snapshot_csv(gen_synthetic(n_nodes=8, length=9, seed=5).network, snaps)
    network = read_snapshot_csv(snaps)
    cfg = RunConfig(snapshots=str(snaps), outdir=str(tmp_path / "out"), nu_star=0.5, tau=3,
                    check=True)
    out = cmd_zigzag(cfg)
    assert out["windows"] == 7 and out["violations"] == 0
    want = tmp_path / "want.csv"
    for k, path in enumerate(out["zpd"]):
        assert os.path.basename(path) == f"zpd_window_{k:04d}.csv"
        window = network.snapshots[k : k + 3]
        write_zpd_csv(compute_zigzag_persistence(window, 0.5), want)
        assert open(path, "rb").read() == want.read_bytes()
    with pytest.raises(ValueError, match="unknown config key 'jobs'"):
        RunConfig.from_file(None, {"jobs": "2"})


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


# tau 1 windows start at every position, the others at every snapshot; 9 is one window
@pytest.mark.parametrize("tau", [1, 2, 4, 9])
def test_cmd_zigzag_check_catches_a_corrupted_diagram(tmp_path, monkeypatch, tau):
    import zigzagst.pipeline as pipeline
    from zigzagst.zigzag import ZPD

    cfg = RunConfig(
        snapshots=str(_nine_snapshots(tmp_path)), outdir=str(tmp_path / "out"), nu_star=0.5,
        tau=tau, check=True,
    )
    out = cmd_zigzag(cfg)
    assert out["windows"] == 10 - tau and out["violations"] == 0
    engine = pipeline.zigzag_series

    def corrupted(*args):
        for zpd in engine(*args):
            yield ZPD(zpd.rows[1:])

    monkeypatch.setattr(pipeline, "zigzag_series", corrupted)
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


@pytest.mark.parametrize("repeats", [True, False])
def test_cmd_zpi_writes_what_each_window_renders_and_writes_alone(tmp_path, repeats):
    # each distinct image is rendered and formatted once; every file keeps its bytes
    from zigzagst import zpi

    if repeats:
        network = gen_synthetic(n_nodes=8, length=14, period=4, seed=4).network
    else:
        network = _random_series(seed=5, length=12)[0]
    write_snapshot_csv(network, tmp_path / "snaps.csv")
    cfg = RunConfig(snapshots=str(tmp_path / "snaps.csv"), outdir=str(tmp_path / "out"),
                    nu_star=0.6, tau=4, homology_dims=(1, 0), resolution=12)
    diagrams = cmd_zigzag(cfg)["zpd"]
    written = cmd_zpi(cfg)["zpi"]
    grid, weighting = cfg.grid_spec(), cfg.weighting()
    want = []
    for k, path in enumerate(diagrams):
        zpd = read_zpd_csv(path)
        for dim in cfg.homology_dims:
            base = str(tmp_path / f"alone_{k}_{dim}")
            z = zpi.render_zpi(zpd.points(dim), grid, weighting)
            zpi.write_zpi(z, base + ".zpi")
            zpi.write_pgm(z, base + ".pgm")
            want.append((path[: -len(".csv")] + f"_dim{dim}", base))
    assert written == [got + ".zpi" for got, _ in want]
    for got, alone in want:
        for suffix in (".zpi", ".pgm"):
            with open(got + suffix, "rb") as a, open(alone + suffix, "rb") as b:
                assert a.read() == b.read(), got + suffix
    keys = {(dim, tuple(r for r in read_zpd_csv(p).rows if r[0] == dim))
            for p in diagrams for dim in cfg.homology_dims}
    assert (len(keys) < len(written)) is repeats


def test_cmd_zpi_requires_diagrams(tmp_path):
    cfg = RunConfig(outdir=str(tmp_path), nu_star=0.5)
    with pytest.raises(FileNotFoundError):
        cmd_zpi(cfg)


def test_cmd_zpi_refuses_a_diagram_from_a_longer_window(tmp_path):
    base = RunConfig(
        snapshots=str(_nine_snapshots(tmp_path)), outdir=str(tmp_path / "out"), nu_star=0.5,
        homology_dims=(0, 1), resolution=8,
    )
    paths = cmd_zigzag(replace(base, tau=8))["zpd"]
    deaths = [max(row[2] for row in read_zpd_csv(path).rows) / 2 for path in paths]
    first = next(k for k, death in enumerate(deaths) if death > 3)
    message = re.escape(f"{paths[first]}: death {deaths[first]:g} lies past tau = 3")
    with pytest.raises(ValueError, match=f"^{message}"):
        cmd_zpi(replace(base, tau=3))
    assert sorted(os.listdir(base.outdir)) == [os.path.basename(path) for path in paths]
    # diagrams of a shorter window lie on the grid
    windows = cmd_zigzag(replace(base, tau=2))["windows"]
    assert len(cmd_zpi(replace(base, tau=3))["zpi"]) == 2 * windows


def test_pipeline_matches_direct_library_calls(golden_paths):
    snaps, tmp = golden_paths
    out_dir = tmp / "out"
    cfg = RunConfig(snapshots=str(snaps), outdir=str(out_dir), nu_star=0.5, tau=3, resolution=12)
    cmd_zigzag(cfg)
    cmd_zpi(cfg)
    network = read_snapshot_csv(str(snaps))
    zpd = compute_zigzag_persistence(network.snapshots, 0.5)
    from zigzagst.zpi import render_zpi

    direct = render_zpi(zpd.points(1), cfg.grid_spec(), cfg.weighting())
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


_SCIPY_PROBE = """
import sys
from dataclasses import replace
from zigzagst.pipeline import (RunConfig, cmd_distance, cmd_forecast, cmd_synth, cmd_train,
                                cmd_zigzag, cmd_zpi)


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


cfg = RunConfig(outdir="out", nu_star=0.5, seed=1, synth_nodes=6, synth_length=12,
                synth_period=4, tau=3, horizon=1, resolution=8, hidden=2, num_layers=1,
                embed_dim=2, laplacian_order=1, epochs=1, batch_size=4)
paths = cmd_synth(cfg)
cfg = replace(cfg, snapshots=paths["snapshots"], features=paths["features"])
zpd = cmd_zigzag(cfg)["zpd"]
assert cmd_zpi(cfg)["zpi"]
assert cmd_forecast(cfg, cmd_train(cfg)["checkpoint"])["windows"]
print(scipy_modules())
cmd_distance(cfg, zpd[0], zpd[1])
print("scipy.optimize" in scipy_modules())
"""


def test_cmd_zpi_train_and_forecast_load_no_scipy_module(tmp_path):
    # a fresh interpreter, so that no other test's import counts; only W1 needs scipy
    src = os.path.dirname(os.path.dirname(zigzagst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]", "True"]  # and the probe sees a module that is loaded


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


def forecast_csv_by_rows(preds, start):
    """``forecast.csv`` as ``cmd_forecast`` wrote it before, one write per row."""
    out = ["window,step,node,feature,value\n"]
    for w, pred in enumerate(preds):
        for step in range(pred.shape[0]):
            for node in range(pred.shape[1]):
                for feat in range(pred.shape[2]):
                    out.append(f"{start + w},{step},{node},{feat},{pred[step, node, feat]:.17g}\n")
    return "".join(out)


@pytest.mark.parametrize("shape,start", [((12, 12, 16, 1), 45), ((3, 2, 5, 3), 0), ((1, 1, 1, 1), 7)])
def test_forecast_csv_is_byte_identical_to_the_row_writer(shape, start):
    rng = np.random.default_rng(sum(shape))
    preds = rng.normal(scale=10.0, size=shape) ** 3
    flat = preds.reshape(-1)
    specials = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.0]
    flat[: len(specials)] = specials[: flat.size]
    text = _forecast_csv_text(preds, start)
    assert text == forecast_csv_by_rows(preds, start)
    assert len(text.splitlines()) == 1 + preds.size


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
    net.save_checkpoint(ckpt, _untrained(model_cfg), _checkpoint_settings(cfg))
    return cfg, data, ckpt


def _untrained(model_cfg):
    """A ``TrainResult`` of freshly initialised parameters for one input feature, scaled as is."""
    params = net.init_params(model_cfg, np.random.default_rng(0))
    return net.TrainResult(params, model_cfg, [], np.zeros(1), np.ones(1), 1.0)


def test_cmd_forecast_accepts_a_matching_checkpoint(forecast_inputs):
    cfg, _, ckpt = forecast_inputs
    assert cmd_forecast(cfg, ckpt)["windows"] >= 1


# Settings the checkpoint must have been trained with, and a different value for each.
OTHER_SETTINGS = {
    "tau": 5, "horizon": 3, "resolution": 9, "filtration": "vietoris-rips", "nu_star": 0.6,
    "homology_dims": (0, 1), "theta": 0.5, "weight_kind": "constant", "weight_cap": 2.0,
    "ablation": "no-zigzag", "out_features": 3,
}


@pytest.mark.parametrize("field", ["universe_size", "feature width", *OTHER_SETTINGS])
def test_cmd_forecast_rejects_data_the_checkpoint_was_not_trained_on(
    forecast_inputs, tmp_path, field, monkeypatch
):
    from zigzagst.dyngraph import FeatureSeries
    from zigzagst import pipeline

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
        cfg = replace(cfg, **{field: OTHER_SETTINGS[field]})

    def no_windows(*args, **kwargs):
        raise AssertionError("windows assembled before the checkpoint was checked")

    monkeypatch.setattr(pipeline, "assemble_batches", no_windows)
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
    dataset, model_cfg = _training_data(cfg)
    result = net.train(dataset, model_cfg, cfg.ablation_flags())
    loaded, _ = net.load_checkpoint(trained["checkpoint"])
    assert np.array_equal(loaded.input_lo, result.input_lo)
    assert np.array_equal(loaded.input_hi, result.input_hi)
    assert loaded.image_scale == result.image_scale
    want = net.predict(result, dataset.test)
    # scalers refitted on the clean windows would give other forecasts
    clean = net.chronological_split(assemble_batches(*_load_data(cfg), cfg), cfg.split).train
    flat = clean.inputs.reshape(-1, 1)
    refit = replace(result, input_lo=flat.min(axis=0), input_hi=flat.max(axis=0))
    assert not np.allclose(net.predict(refit, dataset.test), want)

    rows = np.loadtxt(out["forecast"], delimiter=",", skiprows=1)
    assert len(rows) == want.size
    assert np.array_equal(rows[:, 4].reshape(want.shape), want)


def _series_files(tmp_path, data):
    snaps, feats = tmp_path / "snapshots.csv", tmp_path / "features.csv"
    write_snapshot_csv(data.network, snaps)
    write_feature_csv(data.features, feats)
    return str(snaps), str(feats)


def test_noise_injection_perturbs_only_training_inputs(tmp_path):
    data = gen_synthetic(n_nodes=8, length=20, period=4, delta=1.0, noise=0.1, seed=4)
    snaps, feats = _series_files(tmp_path, data)
    cfg = RunConfig(snapshots=snaps, features=feats, outdir=str(tmp_path / "out"), nu_star=0.5,
                    tau=4, horizon=2, resolution=10, noise_sigma=2.0, noise_fraction=0.5, seed=0)
    clean, _ = _training_data(replace(cfg, noise_sigma=0.0))
    noisy, _ = _training_data(cfg)
    # a per-window reference loop on the same generator stream
    rng = np.random.default_rng(cfg.seed + 1)
    n_train = len(clean.train)
    want = [clean.train.inputs[k] for k in range(n_train)]
    for k in rng.permutation(n_train)[: round(0.5 * n_train)]:
        want[k] = want[k] + rng.normal(0.0, cfg.noise_sigma, want[k].shape)
    assert noisy.train.inputs.tobytes() == np.stack(want).tobytes()
    changed = [k for k in range(n_train)
               if not np.array_equal(noisy.train.inputs[k], clean.train.inputs[k])]
    assert len(changed) == round(0.5 * n_train)
    for field in ("images", "index", "targets"):
        assert np.array_equal(getattr(noisy.train, field), getattr(clean.train, field))
    for got, unchanged in [(noisy.val, clean.val), (noisy.test, clean.test)]:
        for field in ("inputs", "images", "index", "targets"):
            assert np.array_equal(getattr(got, field), getattr(unchanged, field))
    # deterministic under the same seed
    again, _ = _training_data(cfg)
    assert np.array_equal(again.train.inputs, noisy.train.inputs)


def test_assemble_batches_counts_and_shapes():
    data = gen_synthetic(n_nodes=8, length=20, period=4, delta=1.0, noise=0.1, seed=4)
    cfg = RunConfig(nu_star=0.5, tau=4, horizon=2, resolution=10)
    batches = assemble_batches(data.network, data.features, cfg)
    assert len(batches) == 20 - 4 - 2 + 1
    assert batches.inputs.shape == (15, 4, 8, 1)
    assert batches.index.shape == (15,) and batches.images[batches.index].shape == (15, 10, 10)
    assert batches.targets.shape == (15, 2, 8, 1)
    values = data.features.values
    assert np.array_equal(batches.inputs[3], values[3:7])
    assert np.array_equal(batches.targets[3], values[7:9])


def _own_images(network, cfg, windows):
    """Each window's image as ``window_image`` renders it alone, stacked."""
    grid, weighting, mode = cfg.grid_spec(), cfg.weighting(), cfg.filtration_mode()
    snaps = network.snapshots
    return np.stack([window_image(snaps[k : k + cfg.tau], cfg.nu_star, mode, grid, weighting,
                                  cfg.homology_dims) for k in windows])


@pytest.mark.parametrize("repeats", [True, False])
def test_every_window_reads_its_own_image_from_the_distinct_ones(repeats):
    # repeats: a periodic planted cycle, whose windows share diagrams; else random graphs
    if repeats:
        data = gen_synthetic(n_nodes=8, length=24, period=4, seed=4)
        network, features = data.network, data.features
    else:
        network, features = _random_series(seed=5, length=12)
    cfg = RunConfig(nu_star=0.6, tau=4, horizon=2, resolution=12, homology_dims=(1, 0))
    batch = assemble_batches(network, features, cfg)
    windows = range(len(batch))
    assert (len(batch.images) < len(batch)) is repeats
    assert batch.index.dtype == np.intp and sorted(set(batch.index)) == list(range(len(batch.images)))
    want = _own_images(network, cfg, windows)
    assert batch.images[batch.index].tobytes() == want.tobytes()
    # in the order windows first show them
    first = [list(batch.index).index(u) for u in range(len(batch.images))]
    assert first == sorted(first)


def test_a_sliced_batch_holds_only_the_images_it_indexes():
    data = gen_synthetic(n_nodes=8, length=24, period=4, seed=4)
    cfg = RunConfig(nu_star=0.6, tau=4, horizon=2, resolution=12, homology_dims=(0, 1))
    batch = assemble_batches(data.network, data.features, cfg)
    assert len(batch.images) < len(batch)
    rng = np.random.default_rng(0)
    for key in [slice(0, 5), slice(7, None), slice(3, 4), 6, np.array([9, 2, 9]),
                rng.permutation(len(batch))[:7], np.array([], dtype=np.intp)]:
        part = batch[key]
        rows = np.atleast_1d(np.arange(len(batch))[key])
        assert np.array_equal(part.inputs, batch.inputs[rows])
        assert np.array_equal(part.images[part.index], batch.images[batch.index[rows]])
        assert sorted(set(part.index)) == list(range(len(part.images)))
    # the training part keeps exactly the images of its windows, so their maximum is exact
    train = net.chronological_split(batch, cfg.split).train
    assert len(train.images) == len(set(batch.index[: len(train)]))
    assert train.images.max() == batch.images[batch.index[: len(train)]].max()


def test_an_empty_run_of_windows_has_no_image():
    data = gen_synthetic(n_nodes=8, length=20, period=4, seed=4)
    cfg = RunConfig(nu_star=0.5, tau=4, horizon=2, resolution=10)
    empty = assemble_batches(data.network, data.features, cfg, range(3, 3))
    assert len(empty) == 0
    assert empty.images.shape == (0, 10, 10) and empty.index.shape == (0,)
    assert empty[:].images.shape == (0, 10, 10)


def _random_series(seed, n=7, length=9, edge_prob=0.4):
    rng = np.random.default_rng(seed)
    snaps = []
    for t in range(1, length + 1):
        edges = [(u, v, float(rng.uniform(0.05, 1.0)))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
        snaps.append(Snapshot.from_edges(t, n, edges, nodes=range(n)))
    return DynamicNetwork(tuple(snaps), n), FeatureSeries(rng.normal(size=(length, n, 2)))


@pytest.mark.parametrize("tau", [1, 3])
def test_assemble_batches_of_a_run_equals_the_full_assembly_indexed(tau):
    network, features = _random_series(seed=tau)
    cfg = RunConfig(nu_star=0.6, tau=tau, horizon=2, resolution=9, homology_dims=(0, 1),
                    weight_kind="constant")  # tau = 1 gives only zero-persistence points
    full = assemble_batches(network, features, cfg)
    n = len(network) - 2 - tau + 1
    assert len(full) == n and full.images.any()
    for start in range(n + 1):
        for stop in range(start, n + 1):
            part = assemble_batches(network, features, cfg, range(start, stop))
            for got, want in [(part.inputs, full.inputs[start:stop]),
                              (part.images[part.index], full.images[full.index[start:stop]]),
                              (part.targets, full.targets[start:stop])]:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for bad in (range(0, n + 1), range(-1, 2), range(0, n, 2)):
        with pytest.raises(ValueError, match="is not a run of the"):
            assemble_batches(network, features, cfg, bad)


def test_cmd_forecast_runs_the_engine_on_its_test_windows_only(forecast_inputs, monkeypatch):
    from zigzagst import pipeline

    cfg, data, ckpt = forecast_inputs
    engine, seen = pipeline.zigzag_series, []

    def recorded(snapshots, *args):
        snapshots = list(snapshots)
        seen.append([s.index for s in snapshots])
        return engine(snapshots, *args)

    monkeypatch.setattr(pipeline, "zigzag_series", recorded)
    out = cmd_forecast(cfg, ckpt)
    # 16 snapshots, tau 4 and horizon 2 give 11 windows; the test split is windows 9 and 10,
    # which read snapshots 10 to 14 (t counts from 1)
    assert out["windows"] == 2
    assert seen == [[10, 11, 12, 13, 14]]
    windows = np.loadtxt(out["forecast"], delimiter=",", skiprows=1)[:, 0]
    assert sorted(set(windows)) == [9, 10]


def test_an_overlong_horizon_names_horizon_and_tau(forecast_inputs, tmp_path):
    from zigzagst import net

    cfg, _, _ = forecast_inputs
    # 16 snapshots cannot hold a window of 4 plus 13 more
    cfg = replace(cfg, horizon=13, epochs=1)
    message = "no window can be forecast: tau 4 plus horizon 13 exceeds series length 16"
    with pytest.raises(ValueError, match=message):
        cmd_train(cfg)
    model_cfg = net.ModelConfig(
        n_nodes=8, in_features=1, window=4, horizon=13, hidden=4, num_layers=1,
        embed_dim=2, laplacian_order=1, zpi_resolution=8,
    )
    ckpt = str(tmp_path / "long.npz")
    net.save_checkpoint(ckpt, _untrained(model_cfg), _checkpoint_settings(cfg))
    with pytest.raises(ValueError, match=message):
        cmd_forecast(cfg, ckpt)
    assert not os.path.exists(os.path.join(cfg.outdir, "forecast.csv"))


def test_an_empty_test_split_is_refused_before_assembly(forecast_inputs, monkeypatch):
    from zigzagst import net, pipeline

    cfg, _, ckpt = forecast_inputs
    # 6 snapshots hold one window of 4 plus 2 more, and the default split sends it to training
    data = gen_synthetic(n_nodes=8, length=6, seed=3)
    write_snapshot_csv(data.network, cfg.snapshots)
    write_feature_csv(data.features, cfg.features)
    cfg = replace(cfg, epochs=1)

    def never(*args, **kwargs):
        raise AssertionError("entered")

    monkeypatch.setattr(pipeline, "assemble_batches", never)
    monkeypatch.setattr(net, "train", never)
    message = r"split \(0\.6, 0\.2, 0\.2\) leaves no test window of the 1 forecastable windows"
    for run in (cmd_train, cmd_ablate, lambda c: cmd_forecast(c, ckpt)):
        with pytest.raises(ValueError, match=message):
            run(cfg)
    assert not os.path.exists(cfg.outdir)


def _features_of_other_steps(cfg):
    """``cfg`` reading its feature rows as steps 101.. where its snapshots name steps 1.."""
    path = cfg.features + ".shifted.csv"
    write_feature_csv(FeatureSeries(read_feature_csv(cfg.features).values, start=101), path)
    return replace(cfg, features=path)


def _with_settings(ckpt, settings):
    """A copy of checkpoint ``ckpt`` whose header holds ``settings``."""
    with np.load(ckpt) as data:
        members = dict(data)
    header = json.loads(bytes(members["header_json"]).decode("ascii"))
    members["header_json"] = np.bytes_(json.dumps({**header, "settings": settings}).encode("ascii"))
    path = ckpt + ".settings.npz"
    np.savez(path, **members)
    return path


def _past_the_image_budget(run):
    """``run`` with room for one image double."""
    from zigzagst import pipeline

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "MAX_IMAGE_DOUBLES", 1)
        run()


# Each command with an input it refuses, and the start of the refusal.
OUTDIR_REFUSALS = {
    "zigzag past the series": (lambda c, ckpt: cmd_zigzag(replace(c, tau=20)),
                               "window size 20 exceeds series length 16"),
    "zpi without outdir": (lambda c, ckpt: cmd_zpi(c), r"no zpd_\*\.csv files"),
    "synth of 3 nodes": (lambda c, ckpt: cmd_synth(replace(c, synth_nodes=3)), "need at least 6"),
    "synth of no steps": (lambda c, ckpt: cmd_synth(replace(c, synth_length=0)),
                          "a dynamic network needs"),
    "train without features": (lambda c, ckpt: cmd_train(replace(c, features=c.features + "x")),
                               r"\[Errno 2\] No such file"),
    "ablate without features": (lambda c, ckpt: cmd_ablate(replace(c, features=c.features + "x")),
                                r"\[Errno 2\] No such file"),
    "train past the series": (lambda c, ckpt: cmd_train(replace(c, tau=10, horizon=10)),
                              "no window can be forecast"),
    "train of other steps": (lambda c, ckpt: cmd_train(_features_of_other_steps(c)),
                             r"features \(first step"),
    "train past the image budget": (lambda c, ckpt: _past_the_image_budget(lambda: cmd_train(c)),
                                    r"\d+ windows of tau 4"),
    "forecast at another tau": (lambda c, ckpt: cmd_forecast(replace(c, tau=5), ckpt),
                                "tau is 5 here but the checkpoint"),
    "forecast of other steps": (lambda c, ckpt: cmd_forecast(_features_of_other_steps(c), ckpt),
                                r"features \(first step"),
    "forecast of a checkpoint whose settings are a list": (
        lambda c, ckpt: cmd_forecast(c, _with_settings(ckpt, [1, 2])),
        "checkpoint .*: settings is list, not a JSON object$"),
    "forecast past the image budget": (
        lambda c, ckpt: _past_the_image_budget(lambda: cmd_forecast(c, ckpt)),
        r"\d+ windows of tau 4"),
}


@pytest.mark.parametrize("case", sorted(OUTDIR_REFUSALS))
def test_a_command_that_refuses_its_inputs_leaves_no_outdir(forecast_inputs, case):
    cfg, _, ckpt = forecast_inputs
    run, message = OUTDIR_REFUSALS[case]
    with pytest.raises((ValueError, OSError), match=f"^{message}"):
        run(replace(cfg, epochs=1), ckpt)
    assert not os.path.exists(cfg.outdir)


@pytest.mark.parametrize("resolution", [5, 6])
def test_a_resolution_the_encoder_cannot_read_is_refused_before_assembly(
    forecast_inputs, monkeypatch, resolution
):
    from zigzagst import net, pipeline

    cfg, _, _ = forecast_inputs
    data = gen_synthetic(n_nodes=8, length=40, seed=3)
    write_snapshot_csv(data.network, cfg.snapshots)
    write_feature_csv(data.features, cfg.features)
    cfg = replace(cfg, resolution=resolution, epochs=1)

    def never(*args, **kwargs):
        raise AssertionError("entered")

    monkeypatch.setattr(pipeline, "assemble_batches", never)
    monkeypatch.setattr(net, "train", never)
    message = rf"resolution {resolution} is too small .* at least 7"
    for run in (cmd_train, cmd_ablate):
        with pytest.raises(ValueError, match=message):
            run(cfg)


def _never(*args, **kwargs):
    raise AssertionError("entered")


def _no_input_files(monkeypatch):
    """Fail on opening a snapshot CSV, a feature CSV or a checkpoint."""
    from zigzagst import net, pipeline

    monkeypatch.setattr(pipeline, "read_snapshot_csv", _never)
    monkeypatch.setattr(pipeline, "read_feature_csv", _never)
    monkeypatch.setattr(net, "load_checkpoint", _never)


def test_an_unset_nu_star_is_refused_before_any_input_file_is_read(forecast_inputs, monkeypatch):
    cfg, _, ckpt = forecast_inputs
    cfg = replace(cfg, epochs=1, nu_star=math.nan)
    _no_input_files(monkeypatch)
    for run in (_load_data, cmd_train, cmd_ablate, lambda c: cmd_forecast(c, ckpt), cmd_filtrate,
                cmd_zigzag):
        with pytest.raises(ValueError, match="^nu_star must be set"):
            run(cfg)


def test_a_negative_seed_or_universe_size_is_refused_before_any_work(
    forecast_inputs, monkeypatch
):
    from zigzagst import pipeline

    cfg, _, _ = forecast_inputs
    monkeypatch.setattr(pipeline, "zigzag_series", _never)
    _no_input_files(monkeypatch)
    for setting, value in (("seed", -1), ("universe_size", -3)):
        with pytest.raises(ValueError, match=f"^{setting} must be >= 0, got {value}$"):
            cmd_train(replace(cfg, epochs=1, **{setting: value}))


def test_an_image_batch_above_the_budget_is_refused_before_any_zigzag_work(monkeypatch):
    from zigzagst import pipeline

    data = gen_synthetic(n_nodes=8, length=20, seed=4)
    cfg = RunConfig(nu_star=0.5, tau=4, horizon=2, resolution=10)  # 15 windows of 100 pixels
    monkeypatch.setattr(pipeline, "MAX_IMAGE_DOUBLES", 1500)
    batch = assemble_batches(data.network, data.features, cfg)
    assert len(batch) == 15
    # the bound counts windows, not the fewer distinct images the batch holds
    assert len(batch.images) < 15
    monkeypatch.setattr(pipeline, "MAX_IMAGE_DOUBLES", 1499)
    monkeypatch.setattr(pipeline, "zigzag_series", _never)
    message = ("^15 windows of tau 4 at resolution 10 need 1500 image doubles, "
               "more than MAX_IMAGE_DOUBLES = 1499$")
    with pytest.raises(ValueError, match=message):
        assemble_batches(data.network, data.features, cfg)


def test_features_from_other_steps_are_refused_before_any_window(forecast_inputs, monkeypatch):
    from zigzagst import pipeline

    cfg, data, ckpt = forecast_inputs
    # the snapshots name steps 1..16; the same feature rows now name steps 101..116
    write_feature_csv(FeatureSeries(data.features.values, start=101), cfg.features)
    cfg = replace(cfg, epochs=1)
    monkeypatch.setattr(pipeline, "zigzag_series", _never)
    message = "^" + re.escape(
        "features (first step, steps, nodes) (101, 16, 8) do not match the snapshots' (1, 16, 8)")
    for run in (lambda c: assemble_batches(*_load_data(c), c), cmd_train, cmd_ablate,
                lambda c: cmd_forecast(c, ckpt)):
        with pytest.raises(ValueError, match=message):
            run(cfg)


def _four_node_snapshots_and_six_node_features(tmp_path, length=20):
    """Snapshots on nodes 0..3 (a 4-cycle every other step) and features of 6 nodes."""
    snaps, feats = tmp_path / "snapshots.csv", tmp_path / "features.csv"
    rows = [f"{t},{u},{v},0.2\n" for t in range(1, length + 1)
            for u, v in [(0, 1), (1, 2), (2, 3)] + [(0, 3)] * (t % 2)]
    snaps.write_text("t,u,v,w\n" + "".join(rows))
    values = np.random.default_rng(0).uniform(0.5, 1.5, (length, 6, 1))
    write_feature_csv(FeatureSeries(values), feats)
    return RunConfig(
        snapshots=str(snaps), features=str(feats), outdir=str(tmp_path / "out"), nu_star=0.5,
        tau=4, horizon=2, resolution=8, hidden=4, num_layers=1, embed_dim=2, laplacian_order=1,
        epochs=1,
    )


def test_a_universe_smaller_than_the_feature_file_is_refused(tmp_path, monkeypatch):
    from zigzagst import pipeline

    cfg = replace(_four_node_snapshots_and_six_node_features(tmp_path), universe_size=4)
    monkeypatch.setattr(pipeline, "zigzag_series", _never)
    message = "^" + re.escape(
        "features (first step, steps, nodes) (1, 20, 6) do not match the snapshots' (1, 20, 4)")
    with pytest.raises(ValueError, match=message):
        cmd_train(cfg)


def test_the_feature_file_sets_the_universe_when_it_is_unset(tmp_path):
    from zigzagst import net

    cfg = _four_node_snapshots_and_six_node_features(tmp_path)
    network, features = _load_data(cfg)
    assert network.universe_size == 6 and features.shape == (20, 6, 1)
    loaded, _ = net.load_checkpoint(cmd_train(cfg)["checkpoint"])
    assert loaded.config.n_nodes == 6
    # a snapshot row on a node the feature file does not name is refused at its line
    with open(cfg.snapshots, "a") as fh:
        fh.write("3,2,6,0.5\n")  # line 72: a header and 70 edge rows come first
    message = re.escape(f"{cfg.snapshots}: line 72: node 6 outside universe of size 6")
    with pytest.raises(ValueError, match=message):
        cmd_train(cfg)


def test_cmd_train_keeps_a_last_step_without_edges(tmp_path):
    # 20 steps of a 4-cycle on nodes 0..3; the last step has no edges
    snaps = [Snapshot.from_edges(t, 4, [(0, 1, 0.2), (1, 2, 0.2), (2, 3, 0.2), (0, 3, 0.2)])
             for t in range(1, 20)] + [Snapshot.from_edges(20, 4, [])]
    values = np.random.default_rng(0).uniform(0.5, 1.5, (20, 4, 1))
    snaps_csv, feats_csv = tmp_path / "snapshots.csv", tmp_path / "features.csv"
    write_snapshot_csv(DynamicNetwork(tuple(snaps), 4), snaps_csv)
    write_feature_csv(FeatureSeries(values), feats_csv)
    cfg = RunConfig(
        snapshots=str(snaps_csv), features=str(feats_csv), outdir=str(tmp_path / "out"),
        nu_star=0.5, tau=4, horizon=2, resolution=8, hidden=4, num_layers=1, embed_dim=2,
        laplacian_order=1, epochs=1,
    )
    network, _ = _load_data(cfg)
    assert len(network) == 20 and network.snapshots[-1].n_edges == 0
    assert os.path.exists(cmd_train(cfg)["checkpoint"])


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.01])
def test_a_learning_rate_that_is_not_finite_and_positive_is_refused(
    forecast_inputs, monkeypatch, value
):
    from zigzagst import net, pipeline

    cfg, _, _ = forecast_inputs
    cfg = replace(cfg, epochs=1, learning_rate=value)
    monkeypatch.setattr(pipeline, "assemble_batches", _never)
    message = r"^learning_rate must be finite and > 0"
    for run in (_training_data, cmd_train, cmd_ablate):
        with pytest.raises(ValueError, match=message):
            run(cfg)
    with pytest.raises(ValueError, match=message):
        net.ModelConfig(n_nodes=4, in_features=1, learning_rate=value)


def test_out_features_wider_than_the_feature_file_is_refused_before_assembly(
    forecast_inputs, monkeypatch
):
    from zigzagst import pipeline

    cfg, _, _ = forecast_inputs
    cfg = replace(cfg, epochs=1, out_features=2)
    monkeypatch.setattr(pipeline, "assemble_batches", _never)
    message = "^" + re.escape(f"out_features 2 exceeds the 1 feature column(s) of {cfg.features}")
    for run in (_training_data, cmd_train, cmd_ablate):
        with pytest.raises(ValueError, match=message):
            run(cfg)


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


def test_cli_distance_pairs_every_point_of_two_different_diagrams(tmp_path, capsys):
    snapshots = tmp_path / "snapshots.csv"
    write_snapshot_csv(DynamicNetwork(tuple(independent_snapshots(0, n=16, length=8, density=0.2)),
                                      16), snapshots)
    assert main(["zigzag", "--set", f"snapshots={snapshots}", "--set", f"outdir={tmp_path}",
                 "--set", "nu_star=0.5", "--set", "tau=4"]) == 0
    paths = [str(tmp_path / f"zpd_window_000{k}.csv") for k in (0, 4)]
    capsys.readouterr()
    assert main(["distance", *paths, "--dim", "1", "--pairing"]) == 0
    head, header, *lines = capsys.readouterr().out.splitlines()
    assert header == "a_birth,a_death,b_birth,b_death"
    cost = float(head.removeprefix("wasserstein1 = "))
    pairs = []
    for line in lines:
        ab, ad, bb, bd = line.split(",")
        pairs.append(((float(ab), float(ad)) if ab else None, (float(bb), float(bd)) if bb else None))
    for side, path in enumerate(paths):
        printed = Counter(pair[side] for pair in pairs if pair[side] is not None)
        assert printed == Counter(expand(read_zpd_csv(path).points(1)))
    terms = [max(abs(a[0] - b[0]), abs(a[1] - b[1])) if a and b else (p[1] - p[0]) / 2.0
             for a, b in pairs for p in [a or b]]
    assert math.fsum(terms) == cost > 0
    # the assignment ran: some points pair with another point, some go to the diagonal
    assert any(a and b and a != b for a, b in pairs)
    assert any(a is None for a, _ in pairs) and any(b is None for _, b in pairs)


@pytest.mark.parametrize("command, setting, message", [
    ("train", "ablation=bogus", "unknown ablation 'bogus'"),
    ("zigzag", "filtration=bogus", "unknown filtration 'bogus'"),
    ("zigzag", "theta=-1", "theta must be finite and >= 0"),
    ("zpi", "filtration=bogus", "unknown filtration 'bogus'"),
    ("zpi", "theta=-1", "theta must be finite and >= 0"),
])
def test_cli_refuses_a_bad_setting_before_any_file_is_touched(tmp_path, command, setting, message):
    argv = [command, "--set", f"snapshots={tmp_path / 'missing.csv'}",
            "--set", f"features={tmp_path / 'missing_features.csv'}",
            "--set", f"outdir={tmp_path / 'out'}", "--set", "nu_star=0.5", "--set", setting]
    with pytest.raises(ValueError, match=f"^{message}"):
        main(argv)
    assert os.listdir(tmp_path) == []


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
