import re
from dataclasses import fields

import numpy as np
import pytest

from util import ones_codes
from zigzagst.net import (
    Ablation,
    ModelConfig,
    backward,
    forward,
    grad_check,
    init_params,
    loss_metrics,
    mae_loss_and_grad,
    tiny_config,
)


def make_inputs(cfg, seed=0):
    """One window, its image, the index to it and its target, as a batch of one."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (1, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (1, cfg.zpi_resolution, cfg.zpi_resolution))
    y = rng.uniform(0, 1, (1, cfg.horizon, cfg.n_nodes, cfg.out_features))
    return x, img, np.zeros(1, dtype=np.intp), y


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(n_nodes=4, in_features=1, hidden=5)
    with pytest.raises(ValueError):
        ModelConfig(n_nodes=4, in_features=1, laplacian_order=0)
    with pytest.raises(ValueError):
        ModelConfig(n_nodes=0, in_features=1)


INT_FIELDS = [f.name for f in fields(ModelConfig) if type(getattr(tiny_config(), f.name)) is int]


@pytest.mark.parametrize("bad", [4.0, 2.5, True, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_config_refuses_an_integer_field_that_is_not_an_integer(field, bad):
    # hidden=4.0 was accepted
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
        ModelConfig(**{"n_nodes": 4, "in_features": 1, field: bad})


class DrawLog:
    """Stands in for a Generator: the i-th ``normal`` draw is filled with i."""

    def __init__(self):
        self.shapes = []

    def normal(self, loc, scale, shape):
        self.shapes.append(tuple(shape))
        return np.full(shape, float(len(self.shapes)))


def test_init_draws_the_update_then_the_reset_gate_as_two_blocks():
    # a trained model depends on the draw order, so the joined [W_z | W_r]
    # must still be two whole (2h, h) draws, W_z first
    cfg = tiny_config()
    log = DrawLog()
    params = init_params(cfg, log)
    h = cfg.hidden
    for lp in params.layers:
        wz, wr = lp.gru_wzr[:, :h], lp.gru_wzr[:, h:]
        draw = int(wz[0, 0])
        assert np.all(wz == draw) and np.all(wr == draw + 1)
        assert log.shapes[draw - 1] == log.shapes[draw] == (2 * h, h)


def test_forward_output_shape():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(1))
    x, img, idx, _ = make_inputs(cfg)
    pred = forward(x, img, idx, params, cfg)
    assert pred.shape == (1, cfg.horizon, cfg.n_nodes, cfg.out_features)


def test_forward_shape_validation():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(1))
    x, img, idx, _ = make_inputs(cfg)
    with pytest.raises(ValueError):
        forward(x[:, :-1], img, idx, params, cfg)
    with pytest.raises(ValueError):
        forward(x, img[:, :-1], idx, params, cfg)


def test_forward_and_backward_take_only_a_batch():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(1))
    x, img, idx, y = make_inputs(cfg)
    window = f"(batch, {cfg.window}, {cfg.n_nodes}, {cfg.in_features})"
    with pytest.raises(ValueError, match=re.escape(f"shape {x[0].shape}, expected {window}")):
        forward(x[0], img, idx, params, cfg)
    p = cfg.zpi_resolution
    with pytest.raises(ValueError, match=re.escape(f"shape {img[0].shape}, expected (images, {p}, {p})")):
        forward(x, img[0], idx, params, cfg)
    pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
    _, dpred = mae_loss_and_grad(pred, y)
    with pytest.raises(ValueError, match=re.escape(f"shape {dpred[0].shape}, expected {pred.shape}")):
        backward(cache, dpred[0])


@pytest.mark.parametrize("index,message", [
    (np.intp(0), "index has shape () and dtype int64, expected (1,) integers"),
    (np.zeros(2, np.intp), "index has shape (2,) and dtype int64, expected (1,) integers"),
    (np.zeros(1), "index has shape (1,) and dtype float64, expected (1,) integers"),
    (np.array([True]), "index has shape (1,) and dtype bool, expected (1,) integers"),
    (np.array([1]), "index holds 1 to 1, not all within the 1 images"),
    (np.array([-1]), "index holds -1 to -1, not all within the 1 images"),
], ids=["scalar", "two", "float", "bool", "past-the-end", "negative"])
def test_forward_refuses_an_index_that_does_not_name_one_image_per_window(index, message):
    # a negative index would silently read an image from the end
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(1))
    x, img, _, _ = make_inputs(cfg)
    with pytest.raises(ValueError, match=re.escape(message)):
        forward(x, img, index, params, cfg)


def test_windows_that_share_an_image_predict_as_with_copies_of_it():
    # the encoder convolves a shared image once; every window's rows keep their bits
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (5, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (2, cfg.zpi_resolution, cfg.zpi_resolution))
    idx = np.array([1, 0, 1, 1, 0])
    y = rng.uniform(0, 1, (5, cfg.horizon, cfg.n_nodes, cfg.out_features))
    pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
    want_pred, want_cache = forward(x, img[idx], np.arange(5), params, cfg, want_cache=True)
    assert np.array_equal(pred, want_pred)
    _, dpred = mae_loss_and_grad(pred, y)
    assert np.array_equal(backward(cache, dpred).flat, backward(want_cache, dpred).flat)


def test_zero_params_predict_output_bias():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(1)).zeros_like()
    params.out_b += 0.25
    x, img, idx, _ = make_inputs(cfg)
    pred = forward(x, img, idx, params, cfg)
    assert np.allclose(pred, 0.25)


def test_no_zigzag_equals_ones_override_bitwise(monkeypatch):
    from zigzagst.net import layers

    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(2))
    x, img, idx, _ = make_inputs(cfg, seed=3)
    flagged = forward(x, img, idx, params, cfg, ablation=Ablation.NO_ZIGZAG)
    monkeypatch.setattr(layers, "zpi_encoder", ones_codes)
    assert np.array_equal(flagged, forward(x, img, idx, params, cfg))


def test_branch_ablations_zero_the_branches():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(2))
    x, img, idx, _ = make_inputs(cfg, seed=3)
    full = forward(x, img, idx, params, cfg)
    no_s = forward(x, img, idx, params, cfg, ablation=Ablation.NO_SPATIAL)
    no_t = forward(x, img, idx, params, cfg, ablation=Ablation.NO_TEMPORAL)
    assert not np.array_equal(full, no_s)
    assert not np.array_equal(full, no_t)


def test_node_permutation_equivariance():
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    params = init_params(cfg, rng)
    x, img, idx, _ = make_inputs(cfg, seed=5)
    perm = rng.permutation(cfg.n_nodes)
    permuted = params.copy()
    permuted.embedding[...] = params.embedding[perm]
    base = forward(x, img, idx, params, cfg)
    moved = forward(x[:, :, perm], img, idx, permuted, cfg)
    assert np.allclose(base[:, :, perm], moved, rtol=1e-10, atol=1e-12)


def test_nan_input_raises_with_stage_name():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(1))
    params.embedding[0, 0] = np.nan
    x, img, idx, _ = make_inputs(cfg)
    with pytest.raises(FloatingPointError, match="adaptive_laplacian"):
        forward(x, img, idx, params, cfg)


def test_loss_metrics_examples():
    target = np.full((2, 3, 1), 4.0)
    assert loss_metrics(target, target) == (0.0, 0.0, 0.0)
    mae, rmse, mape = loss_metrics(target + 1.0, target)
    assert mae == pytest.approx(1.0)
    assert rmse == pytest.approx(1.0)
    mae, rmse, mape = loss_metrics(np.array([[[2.0]]]), np.array([[[4.0]]]))
    assert mape == pytest.approx(50.0)
    # entries below threshold are skipped by MAPE
    _, _, mape = loss_metrics(np.array([[[1.0, 2.0]]]), np.array([[[0.0, 4.0]]]))
    assert mape == pytest.approx(50.0)


def test_mae_grad_matches_definition():
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(2, 3, 1))
    target = rng.normal(size=(2, 3, 1))
    mae, grad = mae_loss_and_grad(pred, target)
    assert mae == pytest.approx(np.mean(np.abs(pred - target)))
    assert np.array_equal(grad, np.sign(pred - target) / pred.size)


def test_mae_loss_rejects_unequal_shapes():
    # broadcasting (..., 1) targets against (..., 2) predictions would train on them silently
    with pytest.raises(ValueError, match=r"shape mismatch \(2, 3, 2\) vs \(2, 3, 1\)"):
        mae_loss_and_grad(np.zeros((2, 3, 2)), np.zeros((2, 3, 1)))


def test_backward_matches_finite_difference_spot_check():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(7))
    x, img, idx, y = make_inputs(cfg, seed=8)
    pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
    _, dpred = mae_loss_and_grad(pred, y)
    grads = backward(cache, dpred)
    eps = 1e-5
    rng = np.random.default_rng(9)
    named, named_grads = dict(params.named_arrays()), dict(grads.named_arrays())
    for name in ("embedding", "time_mix", "layers.1.zmap_w", "layers.0.gru_wo", "out_w"):
        flat = named[name].reshape(-1)
        pos = int(rng.integers(flat.size))
        keep = flat[pos]
        flat[pos] = keep + eps
        up, _ = mae_loss_and_grad(forward(x, img, idx, params, cfg), y)
        flat[pos] = keep - eps
        dn, _ = mae_loss_and_grad(forward(x, img, idx, params, cfg), y)
        flat[pos] = keep
        numeric = (up - dn) / (2 * eps)
        analytic = named_grads[name].reshape(-1)[pos]
        assert analytic == pytest.approx(numeric, abs=1e-7), name


def test_grad_check_single_seed_fast():
    assert grad_check(seed=0) <= 1e-4
