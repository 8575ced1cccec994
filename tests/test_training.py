import importlib
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from zigzagst.net import (
    Adam,
    Batch,
    Dataset,
    ModelConfig,
    TrainResult,
    TrainingDiverged,
    backward,
    chronological_split,
    forward,
    init_params,
    load_checkpoint,
    mae_loss_and_grad,
    predict,
    save_checkpoint,
    train,
    write_history_csv,
)
from reference_net import ArrayAdam

train_module = importlib.import_module("zigzagst.net.train")  # ``net.train`` is the function


def make_batches(cfg, count, seed=0):
    """``count`` random windows, drawn one after another, as one stacked Batch.

    Every window has an image of its own, so its index runs 0, 1, ...
    """
    rng = np.random.default_rng(seed)
    samples = [
        (
            rng.uniform(0, 1, (cfg.window, cfg.n_nodes, cfg.in_features)),
            rng.uniform(0, 1, (cfg.zpi_resolution, cfg.zpi_resolution)),
            rng.uniform(0, 1, (cfg.horizon, cfg.n_nodes, cfg.out_features)),
        )
        for _ in range(count)
    ]
    inputs, images, targets = (np.stack(parts) for parts in zip(*samples))
    return Batch(inputs, images, np.arange(count), targets)


def small_cfg(**kw):
    base = dict(
        n_nodes=6, in_features=2, out_features=1, embed_dim=2, laplacian_order=1,
        window=4, horizon=2, hidden=4, num_layers=1, zpi_resolution=16,
        learning_rate=0.01, batch_size=4, epochs=3, seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_chronological_split_counts():
    cfg = small_cfg()
    batches = make_batches(cfg, 10)
    ds = chronological_split(batches, (0.6, 0.2, 0.2))
    assert (len(ds.train), len(ds.val), len(ds.test)) == (6, 2, 2)
    ds2 = chronological_split(batches, (0.8, 0.2))
    assert (len(ds2.train), len(ds2.val), len(ds2.test)) == (8, 0, 2)
    # time order preserved: each part is a slice of the stack
    for part, (lo, hi) in zip((ds.train, ds.val, ds.test), [(0, 6), (6, 8), (8, 10)]):
        assert np.array_equal(part.inputs, batches.inputs[lo:hi])
        assert np.array_equal(part.images, batches.images[lo:hi])
        assert np.array_equal(part.index, np.arange(hi - lo))
        assert np.array_equal(part.targets, batches.targets[lo:hi])
    # the same boundaries for any sequence that slices
    assert chronological_split(range(10), (0.6, 0.2, 0.2)) == Dataset(
        range(6), range(6, 8), range(8, 10))
    assert chronological_split(list(range(10)), (0.8, 0.2)) == Dataset(
        list(range(8)), [], [8, 9])
    with pytest.raises(ValueError):
        chronological_split(batches, (0.5, 0.2))


@pytest.mark.parametrize("fractions", [
    (-0.2, 0.6, 0.6),  # trains on windows 0-27 and tests on 14-34 of 35
    (0.8, -0.2, 0.4),  # the test part would start inside the training part
    (math.nan, 0.5, 0.5),
    (0.5, math.nan),
])
def test_chronological_split_rejects_a_fraction_outside_zero_one(fractions):
    with pytest.raises(ValueError, match=re.escape(f"[0, 1], got {fractions}")):
        chronological_split(range(35), fractions)


def test_batch_indexing_keeps_the_batch_axis():
    cfg = small_cfg()
    batches = make_batches(cfg, 5)
    assert len(batches) == 5 and len(batches[:0]) == 0
    one = batches[-1]
    assert len(one) == 1 and one.inputs.shape == (1, cfg.window, cfg.n_nodes, cfg.in_features)
    assert np.array_equal(one.images, batches.images[4:]) and one.index.tolist() == [0]
    picked = batches[np.array([3, 0])]
    assert np.array_equal(picked.targets, batches.targets[[3, 0]])


def test_train_is_deterministic_under_seed():
    cfg = small_cfg()
    ds = chronological_split(make_batches(cfg, 8), (0.6, 0.2, 0.2))
    r1 = train(ds, cfg)
    r2 = train(ds, cfg)
    assert r1.history == r2.history
    for (_, a), (_, b) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        assert np.array_equal(a, b)


def test_full_batch_permutation_has_no_effect():
    cfg = small_cfg(batch_size=8, epochs=2)
    ds = Dataset(make_batches(cfg, 8), (), ())
    r1 = train(ds, cfg)
    shuffled = Dataset(ds.train[::-1], (), ())
    r2 = train(shuffled, cfg)
    for (_, a), (_, b) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        assert np.allclose(a, b, atol=1e-12)


def test_parameters_are_views_of_one_vector_in_named_order_after_training():
    cfg = small_cfg(num_layers=2)
    params = train(chronological_split(make_batches(cfg, 8), (0.8, 0.2)), cfg).params
    named = list(params.named_arrays())
    assert len(named) == 4 + 12 * cfg.num_layers
    at = 0
    for name, arr in named:
        assert np.shares_memory(arr, params.flat), name
        assert np.array_equal(arr.ravel(), params.flat[at : at + arr.size]), name
        at += arr.size
    assert at == params.flat.size
    for fresh in (params.copy(), params.zeros_like()):
        assert not np.shares_memory(fresh.flat, params.flat)
        assert all(np.shares_memory(arr, fresh.flat) for _, arr in fresh.named_arrays())


def test_history_has_train_val_test_rows(tmp_path):
    cfg = small_cfg()
    ds = chronological_split(make_batches(cfg, 10), (0.6, 0.2, 0.2))
    result = train(ds, cfg)
    splits = {row[1] for row in result.history}
    assert splits == {"train", "val", "test"}
    path = tmp_path / "history.csv"
    write_history_csv(result.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,split,mae,rmse,mape"
    assert len(lines) == len(result.history) + 1


# (the split, the monitored MAE of each epoch, the rate each epoch steps with), for
# patience 2 and decay 0.5: a stalled MAE halves the rate every second epoch
PLATEAUS = {
    "stalled val": ((0.6, 0.2, 0.2), [1.0] * 7, [0.01] * 3 + [0.005] * 2 + [0.0025] * 2),
    "improving val": ((0.6, 0.2, 0.2), [1.0 - 0.1 * e for e in range(7)], [0.01] * 7),
    "stalled then improving val": ((0.6, 0.2, 0.2), [1.0, 1.0, 1.0, 0.5, 0.4, 0.4, 0.4],
                                   [0.01] * 3 + [0.005] * 4),
    "stalled train, no val": ((0.8, 0.2), [1.0] * 7, [0.01] * 3 + [0.005] * 2 + [0.0025] * 2),
}


@pytest.mark.parametrize("case", sorted(PLATEAUS))
def test_the_learning_rate_decays_when_the_monitored_mae_stalls(monkeypatch, case):
    fractions, maes, want = PLATEAUS[case]
    cfg = small_cfg(epochs=len(maes), batch_size=8, plateau_patience=2, lr_decay=0.5)
    ds = chronological_split(make_batches(cfg, 10), fractions)
    monitored = ds.val or ds.train
    scores = iter(maes)
    # the monitored split scores the given MAE; the others a constant
    monkeypatch.setattr(train_module, "evaluate", lambda result, split, ablation: (
        (next(scores),) * 3 if split is monitored else (5.0, 5.0, 5.0)))
    rates = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, params, grads, lr: (
        rates.append(lr), step(self, params, grads, lr)))
    train(ds, cfg)
    assert rates == want  # one step per epoch: the training split fits in one batch


def test_training_diverges_raises_with_epoch():
    # a step this size overflows the embedding products to inf/nan
    cfg = small_cfg(learning_rate=1e160, epochs=5)
    ds = chronological_split(make_batches(cfg, 8), (0.8, 0.2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(ds, cfg)
    assert info.value.epoch >= 0


def test_empty_train_split_rejected():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        train(Dataset((), (), ()), cfg)


def test_normalization_fits_on_train_only():
    cfg = small_cfg(epochs=1)
    batches = make_batches(cfg, 8)
    # blow up the test split; the input scaler must ignore it
    inputs = batches.inputs.copy()
    inputs[-1] *= 100.0
    ds = chronological_split(replace(batches, inputs=inputs), (0.8, 0.2))
    result = train(ds, cfg)
    assert float(result.input_hi.max()) <= 1.0  # raw inputs were in [0, 1]


def test_predict_uses_stored_scalers():
    cfg = small_cfg(epochs=2)
    ds = chronological_split(make_batches(cfg, 8), (0.8, 0.2))
    result = train(ds, cfg)
    pred = predict(result, ds.test[0])
    assert pred.shape == (1, cfg.horizon, cfg.n_nodes, cfg.out_features)
    assert np.all(np.isfinite(pred))


def test_adam_moves_toward_minimum():
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(0))
    batch = make_batches(cfg, 1, seed=3)
    adam = Adam()
    losses = []
    for _ in range(60):
        pred, cache = forward(batch.inputs, batch.images, batch.index, params, cfg, want_cache=True)
        loss, dpred = mae_loss_and_grad(pred, batch.targets)
        losses.append(loss)
        adam.step(params, backward(cache, dpred), lr=0.01)
    assert losses[-1] < 0.3 * losses[0]


def test_adam_on_the_vector_steps_as_adam_array_by_array():
    cfg = small_cfg(num_layers=2)
    rng = np.random.default_rng(11)
    params = init_params(cfg, rng)
    ref_params = params.copy()
    adam, ref = Adam(), ArrayAdam()
    for step in range(20):
        grads = params.zeros_like()
        # gradients over six decades, a few exactly zero, and a decaying rate
        grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-4, 2, grads.flat.size)
        grads.flat[rng.random(grads.flat.size) < 0.05] = 0.0
        lr = 0.01 * 0.9 ** step
        adam.step(params, grads, lr)
        ref.step(ref_params, grads, lr)
    assert np.array_equal(params.flat, ref_params.flat)
    names = [name for name, _ in params.named_arrays()]
    assert np.array_equal(adam.m, np.concatenate([ref.m[name].ravel() for name in names]))
    assert np.array_equal(adam.v, np.concatenate([ref.v[name].ravel() for name in names]))


def untrained(cfg, seed=0):
    """A ``TrainResult`` of freshly initialised parameters, identity scalers and no history."""
    params = init_params(cfg, np.random.default_rng(seed))
    return TrainResult(params, cfg, [], np.zeros(cfg.in_features), np.ones(cfg.in_features), 1.0)


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_cfg()
    result = replace(untrained(cfg, seed=5), history=[(0, "train", 1.0, 2.0, 3.0)])
    path = tmp_path / "model.npz"
    settings = {"filtration": "power", "nu_star": 0.1, "weight_cap": float("inf")}
    save_checkpoint(path, result, settings)
    loaded, settings2 = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.history == []  # the history is not stored
    assert settings2 == settings
    for (na, a), (nb, b) in zip(result.params.named_arrays(), loaded.params.named_arrays()):
        assert na == nb
        assert np.array_equal(a, b)
        assert np.shares_memory(b, loaded.params.flat)


def test_checkpoint_stores_scalers(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ckpt.npz"
    scalers = dict(input_lo=np.array([-1.0, 2.0]), input_hi=np.array([3.0, 5.0]), image_scale=0.25)
    save_checkpoint(path, replace(untrained(cfg), **scalers), {})
    loaded, _ = load_checkpoint(path)
    assert loaded.input_lo.tolist() == [-1.0, 2.0] and loaded.input_hi.tolist() == [3.0, 5.0]
    assert loaded.image_scale == 0.25


def test_a_loaded_checkpoint_predicts_as_the_trained_network(tmp_path):
    cfg = small_cfg()
    data = chronological_split(make_batches(cfg, 12, seed=3))
    trained = train(data, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, trained, {})
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(predict(loaded, data.test), predict(trained, data.test))


SETTINGS = {"filtration": "weight-sublevel-clique", "nu_star": 0.5}


def ascii_json(obj):
    return np.bytes_(json.dumps(obj).encode("ascii"))


def saved_checkpoint(path):
    """The members of a fresh checkpoint of ``small_cfg`` written to ``path``, as a dict."""
    save_checkpoint(path, untrained(small_cfg()), SETTINGS)
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def version_7_members():
    """What version 7 stored of a fresh ``small_cfg`` network, but its version.

    One member per parameter array, the config and the settings as two
    JSON members, and each scaler apart.
    """
    result = untrained(small_cfg())
    return {
        **{name.replace(".", "__"): arr for name, arr in result.params.named_arrays()},
        "config_json": ascii_json(asdict(result.config)),
        "settings_json": ascii_json(SETTINGS),
        "input_lo": result.input_lo,
        "input_hi": result.input_hi,
        "image_scale": np.float64(result.image_scale),
    }


def without(*keys):
    return lambda members: {k: v for k, v in members.items() if k not in keys}


def with_config(**extra):
    """Adds ``extra`` to the config of version-7 members."""
    def edit(members):
        stored = json.loads(bytes(members["config_json"]).decode("ascii"))
        return {**members, "config_json": ascii_json({**stored, **extra})}
    return edit


def split_gates(members):
    """The members with each [W_z | W_r] and [b_z | b_r] split, as version 5 stored them."""
    split = {}
    for key, arr in members.items():
        if key.endswith(("__gru_wzr", "__gru_bzr")):
            half = arr.shape[-1] // 2
            split[key[:-1]], split[key[:-2] + "r"] = arr[..., :half], arr[..., half:]
        else:
            split[key] = arr
    return split


# what each retired layout lacked or held against version 7; the saved
# settings have no "ablation", which version 4 also lacked
OLD_LAYOUTS = {
    1: without("input_lo", "input_hi", "image_scale"),
    2: without("settings_json"),
    3: with_config(pool_size=5),
    4: lambda members: members,
    5: split_gates,
    6: with_config(cnn_filters=8, cnn_kernel=3, cnn_stride=2),
    7: lambda members: members,
}


@pytest.mark.parametrize("version", sorted(OLD_LAYOUTS))
def test_retired_checkpoint_versions_are_rejected(tmp_path, version):
    path = tmp_path / "ckpt.npz"
    np.savez(path, checkpoint_version=np.int64(version), **OLD_LAYOUTS[version](version_7_members()))
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}; retrain it"):
        load_checkpoint(path)


def with_header(edit):
    """Replaces the header of version-8 members by ``edit(header)``."""
    def rewrite(members):
        header = json.loads(bytes(members["header_json"]).decode("ascii"))
        return {**members, "header_json": ascii_json(edit(header))}
    return rewrite


def with_arrays(edit):
    """Passes the ``arrays`` member through ``edit``."""
    return lambda members: {**members, "arrays": edit(members["arrays"])}


def saved_with(edit):
    """Writes a fresh checkpoint's members, passed through ``edit``, to a path."""
    return lambda path: np.savez(path, **edit(saved_checkpoint(path)))


def truncated(path):
    saved_checkpoint(path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def cut_npy_header(path):
    """A ``.npy`` array whose header dict is never closed."""
    with open(path, "wb") as fh:
        np.save(fh, np.arange(3))
    path.write_bytes(path.read_bytes().replace(b"}", b" ", 1))


def zip_patched(signature, offset, value):
    """A fresh checkpoint with ``value`` written ``offset`` bytes into its first ``signature``."""
    def write(path):
        saved_checkpoint(path)
        data = path.read_bytes()
        at = data.index(signature) + offset
        path.write_bytes(data[:at] + value + data[at + len(value):])
    return write


# how each bad file is written, and a word its error holds besides the path;
# small_cfg's arrays member holds its parameters, then 2 + 2 + 1 scalers
WRONG_SHAPE = "expected float64 of shape"
MALFORMED = {
    "missing header": (saved_with(without("header_json")), "header_json"),
    "missing arrays": (saved_with(without("arrays")), "arrays"),
    "missing parameter": (saved_with(with_arrays(lambda a: a[1:])), WRONG_SHAPE),
    "missing scaler": (saved_with(with_arrays(lambda a: a[:-1])), WRONG_SHAPE),
    "extra value": (saved_with(with_arrays(lambda a: np.append(a, 1.0))), WRONG_SHAPE),
    "float32 arrays": (saved_with(with_arrays(lambda a: a.astype(np.float32))), WRONG_SHAPE),
    "unknown config key": (
        saved_with(with_header(lambda h: {**h, "config": {**h["config"], "pool_size": 5}})), "pool_size"),
    "bad config json": (
        saved_with(lambda members: {**members, "header_json": np.bytes_(b"{not json")}), "Expecting"),
    "truncated archive": (truncated, "zip"),
    "text file": (lambda path: path.write_bytes(b"not a checkpoint\n"), "pickled"),
    "empty file": (lambda path: path.write_bytes(b""), "No data left"),
    "cut npy header": (cut_npy_header, "EOF in multi-line statement"),
    # the version needed to extract, the flags and the directory offset of a zip archive
    "zip version": (zip_patched(b"PK\x01\x02", 6, b"\xff"), "zip file version"),
    "zip encrypted": (zip_patched(b"PK\x01\x02", 8, b"\x01"), "encrypted"),
    "zip directory offset": (zip_patched(b"PK\x05\x06", 16, b"\xff" * 4), "Invalid argument"),
}
# a header, config or settings that is not a JSON object: settings of [1, 2] loaded,
# and cmd_forecast then failed on list.get
NOT_OBJECTS = ([1, 2], "x", None)
MALFORMED.update(
    (f"header of {value!r}", (saved_with(with_header(lambda h, value=value: value)),
                              f"header_json holds {type(value).__name__}, not a JSON object"))
    for value in NOT_OBJECTS)
MALFORMED.update(
    (f"{key} of {value!r}", (saved_with(with_header(lambda h, key=key, value=value: {**h, key: value})),
                             f"{key} is {type(value).__name__}, not a JSON object"))
    for key in ("config", "settings") for value in NOT_OBJECTS)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_raises_a_value_error_naming_the_path(tmp_path, case):
    write, detail = MALFORMED[case]
    path = tmp_path / "ckpt.npz"
    write(path)
    with pytest.raises(ValueError, match=re.escape(str(path))) as info:
        load_checkpoint(path)
    assert detail in str(info.value)


def untrained_with(nan_in=None, **scalers):
    """A fresh ``small_cfg`` network with ``scalers`` replaced and a NaN in array ``nan_in``."""
    result = replace(untrained(small_cfg()), **scalers)
    if nan_in is not None:
        dict(result.params.named_arrays())[nan_in].flat[-1] = np.nan
    return result


# a network whose values save but must not load, and its error's detail
BAD_VALUES = {
    "non-finite parameter": (lambda: untrained_with("layers.0.gru_bo"),
                             "layers.0.gru_bo holds a non-finite value"),
    "non-finite output bias": (lambda: untrained_with("out_b"), "out_b holds a non-finite value"),
    "non-finite input_lo": (lambda: untrained_with(input_lo=np.array([np.nan, 0.0])),
                            "input_lo holds a non-finite value"),
    "infinite input_hi": (lambda: untrained_with(input_hi=np.array([1.0, np.inf])),
                          "input_hi holds a non-finite value"),
    "non-finite image_scale": (lambda: untrained_with(image_scale=np.nan),
                               "image_scale holds a non-finite value"),
    "zero image_scale": (lambda: untrained_with(image_scale=0.0), "image_scale is 0.0, not positive"),
    "negative image_scale": (lambda: untrained_with(image_scale=-1.0),
                             "image_scale is -1.0, not positive"),
    "input_hi below input_lo": (
        lambda: untrained_with(input_lo=np.array([0.0, 3.0]), input_hi=np.array([1.0, 2.0])),
        "input_hi is below input_lo for feature 1"),
    # one scaler for two input features would broadcast over both
    "one scaler per side": (lambda: untrained_with(input_lo=np.zeros(1), input_hi=np.ones(1)),
                            WRONG_SHAPE),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_a_checkpoint_of_bad_values_raises_a_value_error_naming_the_path(tmp_path, case):
    make, detail = BAD_VALUES[case]
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, make(), SETTINGS)
    with pytest.raises(ValueError, match=re.escape(str(path))) as info:
        load_checkpoint(path)
    assert detail in str(info.value)
