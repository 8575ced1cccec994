"""The batched network against the per-sample reference in reference_net.py."""

import itertools

import numpy as np
import pytest

import reference_net as ref
from zigzagst.net import (
    Ablation,
    ModelConfig,
    backward,
    forward,
    init_params,
    mae_loss_and_grad,
    tiny_config,
)
from zigzagst.net import layers

TOL = dict(rtol=1e-12, atol=1e-12)


def wider_config():
    """Every width differs from the others, so a transposed axis cannot pass."""
    return ModelConfig(
        n_nodes=5, in_features=3, out_features=2, embed_dim=3, laplacian_order=3,
        window=6, horizon=3, hidden=8, num_layers=2, zpi_resolution=21,
        cnn_filters=6, batch_size=4, epochs=1, seed=1,
    )


CONFIGS = {"tiny": tiny_config, "wider": wider_config}


def make_batch(cfg, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (b, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (b, cfg.zpi_resolution, cfg.zpi_resolution))
    y = rng.uniform(0, 1, (b, cfg.horizon, cfg.n_nodes, cfg.out_features))
    return x, img, y


def reference_sum(cfg, params, x, img, dpred, ablation=Ablation(), gates=None):
    """Per-sample reference predictions and the sum of their gradients.

    ``gates`` is None or one ``z_override`` per sample.
    """
    preds = []
    total = params.zeros_like()
    for i in range(len(x)):
        z_override = None if gates is None else gates[i]
        pred, cache = ref.forward(x[i], img[i], params, cfg, ablation, z_override, want_cache=True)
        preds.append(pred)
        for (_, g), (_, gs) in zip(total.named_arrays(), ref.backward(cache, dpred[i]).named_arrays()):
            g += gs
    return np.stack(preds), total


def assert_grads_close(got, want):
    for (name, a), (_, b) in zip(got.named_arrays(), want.named_arrays()):
        assert np.allclose(a, b, **TOL), name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_of_one_matches_reference(name):
    cfg = CONFIGS[name]()
    params = init_params(cfg, np.random.default_rng(3))
    x, img, y = make_batch(cfg, 1, seed=4)
    want_pred, want_cache = ref.forward(x[0], img[0], params, cfg, want_cache=True)
    _, dpred = mae_loss_and_grad(want_pred, y[0])
    want = ref.backward(want_cache, dpred)
    # one window without a batch axis, and the same window as a batch of one
    pred, cache = forward(x[0], img[0], params, cfg, want_cache=True)
    assert pred.shape == want_pred.shape
    assert np.allclose(pred, want_pred, **TOL)
    assert_grads_close(backward(cache, dpred), want)
    pred1, cache1 = forward(x, img, params, cfg, want_cache=True)
    assert pred1.shape == (1,) + want_pred.shape
    assert np.allclose(pred1[0], want_pred, **TOL)
    assert_grads_close(backward(cache1, dpred[None]), want)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_matches_stacked_reference(name):
    cfg = CONFIGS[name]()
    params = init_params(cfg, np.random.default_rng(5))
    x, img, y = make_batch(cfg, 5, seed=6)
    dpred = np.random.default_rng(7).normal(size=y.shape)
    want_pred, want = reference_sum(cfg, params, x, img, dpred)
    pred, cache = forward(x, img, params, cfg, want_cache=True)
    assert np.allclose(pred, want_pred, **TOL)
    assert_grads_close(backward(cache, dpred), want)


FLAGS = [Ablation(*bits) for bits in itertools.product((False, True), repeat=3)]


@pytest.mark.parametrize("ablation", FLAGS, ids=str)
@pytest.mark.parametrize("gates", ["encoder", "shared", "per-sample"])
def test_ablations_and_overrides_match_reference_per_sample(ablation, gates):
    cfg = wider_config()
    params = init_params(cfg, np.random.default_rng(8))
    b = 3
    x, img, y = make_batch(cfg, b, seed=9)
    dpred = np.random.default_rng(10).normal(size=y.shape)
    rng = np.random.default_rng(11)
    per_sample = [rng.uniform(0.5, 1.5, (b, cfg.half_hidden)) for _ in range(cfg.num_layers)]
    if gates == "encoder":
        batched, single = None, None
    elif gates == "shared":
        batched = [g[0] for g in per_sample]
        single = [batched] * b
    else:
        batched = per_sample
        single = [[g[i] for g in per_sample] for i in range(b)]
    want_pred, want = reference_sum(cfg, params, x, img, dpred, ablation, single)
    pred, cache = forward(x, img, params, cfg, ablation, batched, want_cache=True)
    assert np.allclose(pred, want_pred, **TOL)
    assert_grads_close(backward(cache, dpred), want)


def test_no_zigzag_is_a_ones_override_bitwise_in_a_batch():
    cfg = wider_config()
    params = init_params(cfg, np.random.default_rng(12))
    x, img, _ = make_batch(cfg, 4, seed=13)
    flagged = forward(x, img, params, cfg, ablation=Ablation(no_zigzag=True))
    ones = [np.ones(cfg.half_hidden)] * cfg.num_layers
    assert np.array_equal(flagged, forward(x, img, params, cfg, z_override=ones))


def test_batched_backward_matches_finite_differences():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(14))
    x, img, y = make_batch(cfg, 3, seed=15)
    pred, cache = forward(x, img, params, cfg, want_cache=True)
    _, dpred = mae_loss_and_grad(pred, y)
    grads = backward(cache, dpred)
    eps = 1e-5
    worst = 0.0
    for name, arr in params.named_arrays():
        flat = arr.reshape(-1)
        analytic = grads.get(name).reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up, _ = mae_loss_and_grad(forward(x, img, params, cfg), y)
            flat[idx] = keep - eps
            dn, _ = mae_loss_and_grad(forward(x, img, params, cfg), y)
            flat[idx] = keep
            numeric = (up - dn) / (2 * eps)
            worst = max(worst, abs(analytic[idx] - numeric) / max(abs(analytic[idx]), abs(numeric), 1e-3))
    assert worst <= 1e-4  # the grad_check tolerance


def test_encoder_batch_matches_reference_per_sample():
    cfg = wider_config()
    layer = init_params(cfg, np.random.default_rng(16)).layers[1]
    layer.conv1_b[...] = np.linspace(-0.3, 0.3, cfg.cnn_filters)  # some channels die
    rng = np.random.default_rng(17)
    img = rng.uniform(0, 1, (4, cfg.zpi_resolution, cfg.zpi_resolution))
    img[1] = 0.0  # a sample whose maps are all zero after the ReLUs
    dz = rng.normal(size=(4, cfg.half_hidden))
    z, cache = layers.zpi_encoder(img, layer, cfg.cnn_stride)
    got = layers.zpi_encoder_backward(cache, dz)
    want = [np.zeros_like(g) for g in got]
    for i in range(4):
        z_i, cache_i = ref.zpi_encoder(img[i], layer, cfg.cnn_stride)
        assert np.allclose(z[i], z_i, **TOL)
        for acc, g in zip(want, ref.zpi_encoder_backward(cache_i, dz[i])):
            acc += g
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.allclose(a, b, **TOL)
