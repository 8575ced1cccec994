"""The batched network against the per-sample reference in reference_net.py."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_net as ref
from util import ones_codes
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
        window=6, horizon=3, hidden=14, num_layers=2, zpi_resolution=21,
        batch_size=4, epochs=1, seed=1,
    )


CONFIGS = {"tiny": tiny_config, "wider": wider_config}


def make_batch(cfg, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (b, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (b, cfg.zpi_resolution, cfg.zpi_resolution))
    y = rng.uniform(0, 1, (b, cfg.horizon, cfg.n_nodes, cfg.out_features))
    return x, img, np.arange(b), y


def reference_sum(cfg, params, x, img, dpred, ablation=Ablation.NONE, gates=None):
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
    x, img, idx, y = make_batch(cfg, 1, seed=4)
    want_pred, want_cache = ref.forward(x[0], img[0], params, cfg, want_cache=True)
    _, dpred = mae_loss_and_grad(want_pred, y[0])
    want = ref.backward(want_cache, dpred)
    pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
    assert pred.shape == (1,) + want_pred.shape
    assert np.allclose(pred[0], want_pred, **TOL)
    assert_grads_close(backward(cache, dpred[None]), want)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_matches_stacked_reference(name):
    cfg = CONFIGS[name]()
    params = init_params(cfg, np.random.default_rng(5))
    x, img, idx, y = make_batch(cfg, 5, seed=6)
    dpred = np.random.default_rng(7).normal(size=y.shape)
    want_pred, want = reference_sum(cfg, params, x, img, dpred)
    pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
    assert np.allclose(pred, want_pred, **TOL)
    assert_grads_close(backward(cache, dpred), want)


@pytest.mark.parametrize("ablation", list(Ablation), ids=lambda a: a.value)
@pytest.mark.parametrize("gates", ["encoder", "shared", "per-sample"])
def test_ablations_and_overrides_match_reference_per_sample(ablation, gates, monkeypatch):
    # "shared" and "per-sample" gates stand in for the encoder's codes, with no cache,
    # as the reference's z_override puts them in place of its encoder
    cfg = wider_config()
    params = init_params(cfg, np.random.default_rng(8))
    b = 3
    x, img, idx, y = make_batch(cfg, b, seed=9)
    dpred = np.random.default_rng(10).normal(size=y.shape)
    rng = np.random.default_rng(11)
    per_sample = [rng.uniform(0.5, 1.5, (b, cfg.half_hidden)) for _ in range(cfg.num_layers)]
    if gates == "encoder":
        batched, single = None, None
    elif gates == "shared":
        batched = [np.broadcast_to(g[0], g.shape) for g in per_sample]
        single = [[g[0] for g in per_sample]] * b
    else:
        batched = per_sample
        single = [[g[i] for g in per_sample] for i in range(b)]
    want_pred, want = reference_sum(cfg, params, x, img, dpred, ablation, single)
    if batched is not None:
        monkeypatch.setattr(layers, "zpi_encoder", lambda *_, **__: [(z, None) for z in batched])
    pred, cache = forward(x, img, idx, params, cfg, ablation, want_cache=True)
    assert np.allclose(pred, want_pred, **TOL)
    assert_grads_close(backward(cache, dpred), want)


def test_no_zigzag_is_a_ones_override_bitwise_in_a_batch(monkeypatch):
    cfg = wider_config()
    params = init_params(cfg, np.random.default_rng(12))
    x, img, idx, _ = make_batch(cfg, 4, seed=13)
    flagged = forward(x, img, idx, params, cfg, ablation=Ablation.NO_ZIGZAG)
    monkeypatch.setattr(layers, "zpi_encoder", ones_codes)
    assert np.array_equal(flagged, forward(x, img, idx, params, cfg))


def _worst_finite_difference_error(shared):
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(14))
    x, img, idx, y = make_batch(cfg, 3, seed=15)
    if shared:  # windows 0 and 2 read one image
        img, idx = img[:2], np.array([1, 0, 1])
    pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
    _, dpred = mae_loss_and_grad(pred, y)
    grads = backward(cache, dpred)
    eps = 1e-5
    worst = 0.0
    for pos, analytic in enumerate(grads.flat):
        keep = params.flat[pos]
        params.flat[pos] = keep + eps
        up, _ = mae_loss_and_grad(forward(x, img, idx, params, cfg), y)
        params.flat[pos] = keep - eps
        dn, _ = mae_loss_and_grad(forward(x, img, idx, params, cfg), y)
        params.flat[pos] = keep
        numeric = (up - dn) / (2 * eps)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3))
    return worst


def test_batched_backward_matches_finite_differences():
    assert _worst_finite_difference_error(shared=False) <= 1e-4  # the grad_check tolerance


def test_batched_backward_matches_finite_differences_where_windows_share_an_image():
    assert _worst_finite_difference_error(shared=True) <= 1e-4


def test_encoder_batch_matches_reference_per_sample():
    cfg = wider_config()
    params = init_params(cfg, np.random.default_rng(16))
    layer = params.layers[1]
    layer.conv1_b[...] = np.linspace(-0.3, 0.3, layers.ENCODER_FILTERS)  # some channels die
    rng = np.random.default_rng(17)
    img = rng.uniform(0, 1, (4, cfg.zpi_resolution, cfg.zpi_resolution))
    img[1] = 0.0  # a sample whose maps are all zero after the ReLUs
    dz = rng.normal(size=(4, cfg.half_hidden))
    [(z, cache)] = layers.zpi_encoder(img, np.arange(4), [layer])
    got = layers.zpi_encoder_backward(cache, dz)
    want = [np.zeros_like(g) for g in got]
    for i in range(4):
        z_i, cache_i = ref.zpi_encoder(img[i], layer, layers.ENCODER_STRIDE)
        assert np.allclose(z[i], z_i, **TOL)
        for acc, g in zip(want, ref.zpi_encoder_backward(cache_i, dz[i])):
            acc += g
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.allclose(a, b, **TOL)


# The encoder tests' own shape: 5 filters, and codes of width 3
FILTERS, CODE = 5, 3


def encoder_layers(kernel, n_layers, seed):
    """``n_layers`` encoder layers with dead channels: one first-map and one second-map channel.

    A layer holds the encoder's arrays only, scaled as ``init_params`` scales them.
    """
    rng = np.random.default_rng(seed)
    enc_layers = []
    for _ in range(n_layers):
        conv1_b, conv2_b = rng.uniform(-0.2, 0.2, (2, FILTERS))
        conv1_b[1] = conv2_b[3] = -100.0
        enc_layers.append(SimpleNamespace(
            conv1_k=rng.normal(0.0, 1.0 / kernel, (FILTERS, 1, kernel, kernel)),
            conv1_b=conv1_b,
            conv2_k=rng.normal(0.0, 1.0 / (kernel * np.sqrt(FILTERS)),
                               (FILTERS, FILTERS, kernel, kernel)),
            conv2_b=conv2_b,
            zmap_w=rng.normal(0.0, 1.0 / np.sqrt(FILTERS), (FILTERS, CODE)),
            zmap_b=np.ones(CODE),
        ))
    return enc_layers


ENCODER_SHAPES = [
    (p, kernel, stride)
    for p in (15, 16, 17, 100)
    for kernel in (2, 3, 5)
    for stride in (1, 2, 3)
    if kernel + (kernel - 1) * stride <= p
]


# The encoder reads ``layers.ENCODER_STRIDE`` at call time; the tests set it to 1 and 3 as
# well, so that a stride-2 coincidence in the index arithmetic cannot pass.
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("p,kernel,stride", ENCODER_SHAPES)
def test_encoder_layers_match_reference_per_layer_and_sample(p, kernel, stride, n_layers, monkeypatch):
    monkeypatch.setattr(layers, "ENCODER_STRIDE", stride)
    enc_layers = encoder_layers(kernel, n_layers, seed=p + 10 * kernel + stride)
    rng = np.random.default_rng(p * stride)
    images = rng.uniform(0, 1, (17, p, p))
    images[4] = 0.0
    dzs = rng.normal(size=(n_layers, 17, CODE))
    for b, u in ((1, 1), (2, 2), (17, 17), (17, 6)):
        # 17 windows of 6 images: window i reads image index[i], some more than once
        index = np.arange(b) % u
        want = []  # per layer: the reference codes and summed gradients
        for li, lp in enumerate(enc_layers):
            codes, grads = [], None
            for i in range(b):
                z_i, cache_i = ref.zpi_encoder(images[index[i]], lp, stride)
                codes.append(z_i)
                g_i = ref.zpi_encoder_backward(cache_i, dzs[li, i])
                grads = g_i if grads is None else [acc + g for acc, g in zip(grads, g_i)]
            want.append((np.stack(codes), grads))
        got = layers.zpi_encoder(images[:u], index, enc_layers)
        assert len(got) == n_layers
        for li, ((z, cache), (want_z, want_grads)) in enumerate(zip(got, want)):
            assert np.allclose(z, want_z, **TOL), (b, li)
            grads = layers.zpi_encoder_backward(cache, dzs[li, :b])
            for g, w in zip(grads, want_grads):
                assert g.shape == w.shape
                assert np.allclose(g, w, **TOL), (b, li)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("p", [16, 32, 100])
def test_an_images_encoder_maxima_do_not_depend_on_the_other_images_of_the_call(p, data):
    # the encoder convolves each distinct image once and hands its maxima, argmax positions
    # and first-map patches to every window that reads it, so they must be the bits the
    # image gets in a call of its own
    b = data.draw(st.integers(1, 70), label="windows")
    u = data.draw(st.integers(1, b), label="images")
    index = np.array(data.draw(st.lists(st.integers(0, u - 1), min_size=b, max_size=b)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    images = rng.uniform(0, 1, (u, p, p))
    images[rng.random(u) < 0.2] = 0.0  # images whose maps are all zero after the ReLUs
    enc_layers = encoder_layers(3, 2, seed=p)
    got = layers.zpi_encoder(images, index, enc_layers)
    alone = {j: layers.zpi_encoder(images[j : j + 1], np.zeros(1, np.intp), enc_layers)
             for j in np.unique(index)}
    for li, (_, cache) in enumerate(got):
        _, _, y2, x2, patch1, maxvals, _ = cache
        for w, j in enumerate(index):
            _, _, y2_j, x2_j, patch1_j, maxvals_j, _ = alone[j][li][1]
            assert np.array_equal(maxvals[w], maxvals_j[0]), (li, w)
            assert np.array_equal(y2[w], y2_j[0]) and np.array_equal(x2[w], x2_j[0]), (li, w)
            assert np.array_equal(patch1[w], patch1_j[0]), (li, w)


def _encoder_peak_bytes(b, p, want_cache):
    enc_layers = encoder_layers(3, 2, seed=0)
    img = np.random.default_rng(2).uniform(0, 1, (b, p, p))
    tracemalloc.start()
    try:
        layers.zpi_encoder(img, np.arange(b), enc_layers, want_cache)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p,want_cache", [(100, True), (16, False), (32, False)])
def test_encoder_memory_grows_with_the_image_not_the_batch(p, want_cache):
    # the column and feature-map buffers hold one image at every resolution; buffers for
    # a block of images would grow about 14 times from 1 to 32 images of 32x32
    one, many = _encoder_peak_bytes(1, p, want_cache), _encoder_peak_bytes(32, p, want_cache)
    assert many <= 1.5 * one, (one, many)


def gru_inputs(cfg, seed, saturate):
    """A GRU layer and (o_prev, h_in, do) rows; ``saturate`` spreads the pre-activations over [-800, 800]."""
    rng = np.random.default_rng(seed)
    layer = init_params(cfg, rng).layers[0]
    rows, hidden = 3 * cfg.n_nodes, cfg.hidden
    o_prev, h_in = rng.uniform(-1, 1, (2, rows, hidden))
    if saturate:
        # biases from -720 to 720; 2h inputs in [-1, 1] times weights below 40/h add at most 80
        for w in (layer.gru_wzr[:, :hidden], layer.gru_wzr[:, hidden:], layer.gru_wo):
            w[...] = rng.uniform(-40, 40, (2 * hidden, hidden)) / hidden
        for b in (layer.gru_bzr[:hidden], layer.gru_bzr[hidden:], layer.gru_bo):
            b[...] = rng.permutation(np.linspace(-720, 720, hidden))
    return layer, o_prev, h_in, rng.normal(size=(rows, hidden))


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_gru_cell_matches_the_expit_reference(name, saturate):
    cfg = CONFIGS[name]()
    layer, o_prev, h_in, do = gru_inputs(cfg, seed=20, saturate=saturate)
    want_o, want_cache = ref.gru_cell(o_prev, h_in, layer)
    do_prev, dh_in, dw_z, dw_r, dw_o, db_z, db_r, db_o = ref.gru_cell_backward(want_cache, do)
    want = (do_prev, dh_in, np.concatenate([dw_z, dw_r], axis=1), dw_o, np.concatenate([db_z, db_r]), db_o)
    if saturate:  # the reference's gates reach 0 and 1, so the test covers both ends
        z, r = want_cache[3], want_cache[4]
        assert np.any(z == 0.0) and np.any(z == 1.0) and np.any(r == 0.0) and np.any(r == 1.0)
        h = cfg.hidden
        assert np.max(np.abs(want_cache[2] @ layer.gru_wzr[:, :h] + layer.gru_bzr[:h])) > 700
    with np.errstate(all="raise"):  # the tanh form neither overflows nor underflows
        o, cache = layers.gru_cell(o_prev, h_in, layer)
        got = layers.gru_cell_backward(cache, do)
    assert np.allclose(o, want_o, **TOL)
    assert np.all(np.isfinite(o))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.all(np.isfinite(g))
        assert np.allclose(g, w, **TOL)


@pytest.mark.parametrize("p,kernel,stride", [(16, 3, 2), (17, 5, 1), (100, 3, 2)])
def test_encoder_without_cache_gives_the_same_codes(p, kernel, stride, monkeypatch):
    monkeypatch.setattr(layers, "ENCODER_STRIDE", stride)
    enc_layers = encoder_layers(kernel, 3, seed=p + kernel)
    img = np.random.default_rng(p).uniform(0, 1, (5, p, p))
    img[2] = 0.0
    index = np.array([4, 0, 1, 2, 3, 2])  # six windows of five images
    cached = layers.zpi_encoder(img, index, enc_layers)
    bare = layers.zpi_encoder(img, index, enc_layers, want_cache=False)
    assert len(bare) == len(cached) == 3
    for (z, cache), (zc, _) in zip(bare, cached):
        assert cache is None
        assert z.shape == zc.shape and np.all(z == zc)


def test_forward_without_cache_gathers_no_patches(monkeypatch):
    cfg = wider_config()
    params = init_params(cfg, np.random.default_rng(21))
    x, img, idx, _ = make_batch(cfg, 3, seed=22)
    want, _ = forward(x, img, idx, params, cfg, want_cache=True)

    def refuse(*args, **kwargs):
        raise AssertionError("a forward without a cache gathered encoder patches")

    monkeypatch.setattr(layers, "_patches", refuse)
    assert np.all(forward(x, img, idx, params, cfg) == want)
    with pytest.raises(AssertionError, match="gathered encoder patches"):
        forward(x, img, idx, params, cfg, want_cache=True)
