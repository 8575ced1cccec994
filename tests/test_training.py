import json
import math
import re

import numpy as np
import pytest

from zigzagst.net import (
    Adam,
    Batch,
    Dataset,
    ModelConfig,
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


def make_batches(cfg, count, seed=0):
    """``count`` random windows, drawn one after another, as one stacked Batch."""
    rng = np.random.default_rng(seed)
    samples = [
        (
            rng.uniform(0, 1, (cfg.window, cfg.n_nodes, cfg.in_features)),
            rng.uniform(0, 1, (cfg.zpi_resolution, cfg.zpi_resolution)),
            rng.uniform(0, 1, (cfg.horizon, cfg.n_nodes, cfg.out_features)),
        )
        for _ in range(count)
    ]
    return Batch(*(np.stack(parts) for parts in zip(*samples)))


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
        assert np.array_equal(part.image, batches.image[lo:hi])
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
    assert np.array_equal(one.image, batches.image[4:])
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
    ds = chronological_split(Batch(inputs, batches.image, batches.targets), (0.8, 0.2))
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
        pred, cache = forward(batch.inputs, batch.image, params, cfg, want_cache=True)
        loss, dpred = mae_loss_and_grad(pred, batch.targets)
        losses.append(loss)
        adam.step(params, backward(cache, dpred), lr=0.01)
    assert losses[-1] < 0.3 * losses[0]


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(5))
    path = tmp_path / "model.npz"
    settings = {"filtration": "power", "nu_star": 0.1, "weight_cap": float("inf")}
    save_checkpoint(path, cfg, params, (np.zeros(cfg.in_features), np.ones(cfg.in_features), 1.0),
                    settings)
    cfg2, params2, _, settings2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert settings2 == settings
    for (na, a), (nb, b) in zip(params.named_arrays(), params2.named_arrays()):
        assert na == nb
        assert np.array_equal(a, b)


def test_checkpoint_stores_scalers(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(0))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, (np.array([-1.0, 2.0]), np.array([3.0, 5.0]), 0.25), {})
    _, _, (lo, hi, scale), _ = load_checkpoint(path)
    assert lo.tolist() == [-1.0, 2.0] and hi.tolist() == [3.0, 5.0] and scale == 0.25
    with np.load(path) as data:
        old = {k: data[k] for k in data.files if k not in ("input_lo", "input_hi", "image_scale")}
    old["checkpoint_version"] = np.int64(1)
    np.savez(path, **old)
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_checkpoint_version_2_without_settings_is_rejected(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(0)),
                    (np.zeros(cfg.in_features), np.ones(cfg.in_features), 1.0), {})
    with np.load(path) as data:
        old = {k: data[k] for k in data.files if k != "settings_json"}
    old["checkpoint_version"] = np.int64(2)
    np.savez(path, **old)
    with pytest.raises(ValueError, match="unsupported checkpoint version 2; retrain it"):
        load_checkpoint(path)


def test_checkpoint_version_3_with_pool_size_is_rejected(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(0)),
                    (np.zeros(cfg.in_features), np.ones(cfg.in_features), 1.0), {})
    with np.load(path) as data:
        old = {k: data[k] for k in data.files}
    stored = json.loads(bytes(old["config_json"]).decode("ascii"))
    old["config_json"] = np.bytes_(json.dumps({**stored, "pool_size": 5}).encode("ascii"))
    old["checkpoint_version"] = np.int64(3)
    np.savez(path, **old)
    with pytest.raises(ValueError, match="unsupported checkpoint version 3; retrain it"):
        load_checkpoint(path)


def test_checkpoint_version_4_without_ablation_is_rejected(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ckpt.npz"
    settings = {"filtration": "weight-sublevel-clique", "nu_star": 0.5}
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(0)),
                    (np.zeros(cfg.in_features), np.ones(cfg.in_features), 1.0), settings)
    with np.load(path) as data:
        old = {k: data[k] for k in data.files}
    old["checkpoint_version"] = np.int64(4)
    np.savez(path, **old)
    with pytest.raises(ValueError, match="unsupported checkpoint version 4; retrain it"):
        load_checkpoint(path)
