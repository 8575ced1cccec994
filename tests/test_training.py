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
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            Batch(
                rng.uniform(0, 1, (cfg.window, cfg.n_nodes, cfg.in_features)),
                rng.uniform(0, 1, (cfg.zpi_resolution, cfg.zpi_resolution)),
                rng.uniform(0, 1, (cfg.horizon, cfg.n_nodes, cfg.out_features)),
            )
        )
    return out


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
    assert ds.train[0] is batches[0]  # time order preserved
    with pytest.raises(ValueError):
        chronological_split(batches, (0.5, 0.2))


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
    ds = Dataset(tuple(make_batches(cfg, 8)), (), ())
    r1 = train(ds, cfg)
    shuffled = Dataset(tuple(reversed(ds.train)), (), ())
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
    scaled = list(batches)
    big = batches[-1]
    scaled[-1] = Batch(big.inputs * 100.0, big.image, big.targets)
    ds = chronological_split(scaled, (0.8, 0.2))
    result = train(ds, cfg)
    assert float(result.input_hi.max()) <= 1.0  # raw inputs were in [0, 1]


def test_predict_uses_stored_scalers():
    cfg = small_cfg(epochs=2)
    ds = chronological_split(make_batches(cfg, 8), (0.8, 0.2))
    result = train(ds, cfg)
    pred = predict(result, ds.test[0])
    assert pred.shape == (cfg.horizon, cfg.n_nodes, cfg.out_features)
    assert np.all(np.isfinite(pred))


def test_adam_moves_toward_minimum():
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(0))
    batch = make_batches(cfg, 1, seed=3)[0]
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
    save_checkpoint(path, cfg, params, (np.zeros(cfg.in_features), np.ones(cfg.in_features), 1.0))
    cfg2, params2, _ = load_checkpoint(path)
    assert cfg2 == cfg
    for (na, a), (nb, b) in zip(params.named_arrays(), params2.named_arrays()):
        assert na == nb
        assert np.array_equal(a, b)


def test_checkpoint_stores_scalers(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(0))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, (np.array([-1.0, 2.0]), np.array([3.0, 5.0]), 0.25))
    _, _, (lo, hi, scale) = load_checkpoint(path)
    assert lo.tolist() == [-1.0, 2.0] and hi.tolist() == [3.0, 5.0] and scale == 0.25
    with np.load(path) as data:
        old = {k: data[k] for k in data.files if k not in ("input_lo", "input_hi", "image_scale")}
    old["checkpoint_version"] = np.int64(1)
    np.savez(path, **old)
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)
