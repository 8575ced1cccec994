import math
from dataclasses import replace

import numpy as np
import pytest

from zigzagst.net import (
    adaptive_laplacian,
    gru_cell,
    init_params,
    laplacian_powers,
    temporal_conv,
    tiny_config,
    zpi_encoder,
)
from zigzagst.net import layers
from zigzagst.net.layers import spatial_conv_window, zpi_encoder_output_size


# --- adaptive laplacian ------------------------------------------------------------

def test_zero_embedding_gives_uniform_rows():
    lap, _ = adaptive_laplacian(np.zeros((5, 3)))
    assert np.allclose(lap, 1.0 / 5.0)


def test_identity_embedding_analytic_softmax():
    n = 4
    lap, _ = adaptive_laplacian(np.eye(n))
    on = math.e / (math.e + n - 1)
    off = 1.0 / (math.e + n - 1)
    expected = np.full((n, n), off) + (on - off) * np.eye(n)
    assert np.allclose(lap, expected)


def test_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    lap, _ = adaptive_laplacian(rng.normal(size=(7, 3)))
    assert np.allclose(lap.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(lap > 0.0)


# --- laplacian powers -----------------------------------------------------------------

def test_powers_k1_is_identity_then_lap():
    rng = np.random.default_rng(1)
    lap, _ = adaptive_laplacian(rng.normal(size=(4, 2)))
    powers = laplacian_powers(lap, 1)
    assert powers.shape == (2, 4, 4)
    assert np.array_equal(powers[0], np.eye(4))
    assert np.array_equal(powers[1], lap)


def test_powers_of_row_stochastic_are_row_stochastic():
    rng = np.random.default_rng(2)
    lap, _ = adaptive_laplacian(rng.normal(size=(5, 3)))
    powers = laplacian_powers(lap, 3)
    for k in range(4):
        assert np.allclose(powers[k].sum(axis=1), 1.0, atol=1e-10)


# --- spatial conv -----------------------------------------------------------------------

def test_spatial_conv_zero_weight_zero_output():
    h = np.ones((1, 3, 2))
    powers = laplacian_powers(np.full((3, 3), 1 / 3), 2)
    out, _ = spatial_conv_window(h, powers, np.ones((3, 2)), np.zeros((2, 3, 2, 4)))
    assert np.array_equal(out, np.zeros((1, 3, 4)))


def test_spatial_conv_all_ones_hand_contraction():
    # N=1, c=1, K=1, Cin=1, half=1: out = 1*1*1 + 1*1*1 = 2
    h = np.ones((1, 1, 1))
    powers = laplacian_powers(np.ones((1, 1)), 1)
    out, _ = spatial_conv_window(h, powers, np.ones((1, 1)), np.ones((1, 2, 1, 1)))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(2.0)


# --- temporal conv ---------------------------------------------------------------------

def temporal_slices(h, powers, emb, weight):
    """The per-slice maps ``temporal_conv`` mixes: the window convolved with the summed powers."""
    slices, _ = spatial_conv_window(h, powers.sum(axis=0)[None], emb, weight[:, None])
    return slices


def test_temporal_conv_zero_mix_zero_output():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 3, 2))
    powers = laplacian_powers(np.full((3, 3), 1 / 3), 1)
    emb, weight = rng.normal(size=(3, 2)), rng.normal(size=(2, 2, 5))
    out, _ = temporal_conv(h, powers, emb, weight, np.zeros(4))
    assert np.array_equal(out, np.zeros((3, 5)))
    slices = temporal_slices(h, powers, emb, weight)
    assert slices.shape == (4, 3, 5) and np.any(slices != 0.0)


def test_temporal_conv_single_slice_reduces_to_contraction():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(1, 3, 2))
    powers = laplacian_powers(np.full((3, 3), 1 / 3), 2)
    emb = rng.normal(size=(3, 2))
    weight = rng.normal(size=(2, 2, 5))
    out, _ = temporal_conv(h, powers, emb, weight, np.ones(1))
    slices = temporal_slices(h, powers, emb, weight)
    assert np.allclose(out, slices[0])
    # each slice equals the spatial contraction with a k-uniform weight
    expanded = np.broadcast_to(weight[:, None], (2, 3, 2, 5))
    spatial, _ = spatial_conv_window(h, powers, emb, expanded)
    assert np.allclose(slices[0], spatial[0])


# --- image encoder ----------------------------------------------------------------------

def _layer(cfg, seed=0):
    return init_params(cfg, np.random.default_rng(seed)).layers[0]


def test_encoder_zero_image_zero_biases_gives_zero():
    cfg = tiny_config()
    layer = _layer(cfg)
    layer.zmap_b[...] = 0.0
    [(z, _)] = zpi_encoder(np.zeros((1, 16, 16)), np.zeros(1, np.intp), [layer])
    assert np.array_equal(z, np.zeros((1, cfg.half_hidden)))


def test_encoder_positive_scaling():
    cfg = tiny_config()
    layer = _layer(cfg, seed=5)
    img = np.abs(np.random.default_rng(6).normal(size=(1, 16, 16)))
    [(z1, cache1)] = zpi_encoder(img, np.zeros(1, np.intp), [layer])
    [(z2, _)] = zpi_encoder(3.0 * img, np.zeros(1, np.intp), [layer])
    # biases are zero at init, so pre-pool activations scale linearly
    max1 = cache1[5]  # the per-channel maxima
    assert np.allclose(z2 - layer.zmap_b, 3.0 * (z1 - layer.zmap_b), rtol=1e-10)
    assert np.all(max1 >= 0.0)


def test_encoder_rejects_small_images():
    cfg = tiny_config()
    layer = _layer(cfg)
    with pytest.raises(ValueError, match="resolution 5 is too small"):
        zpi_encoder(np.zeros((1, 5, 5)), np.zeros(1, np.intp), [layer])
    assert zpi_encoder_output_size(16, 3) == 3
    assert zpi_encoder_output_size(100, 3) == 24
    assert zpi_encoder_output_size(7, 3) == 1  # the smallest side two 3x3 stride-2 convolutions fit


@pytest.mark.parametrize("p", [5, 6])
def test_model_config_rejects_a_resolution_the_encoder_cannot_read(p, monkeypatch):
    with pytest.raises(ValueError, match=f"resolution {p} is too small .* at least 7"):
        replace(tiny_config(), zpi_resolution=p)
    # the bound follows the encoder's stride, which the size reads at call time
    monkeypatch.setattr(layers, "ENCODER_STRIDE", 3)
    with pytest.raises(ValueError, match=f"resolution {p} is too small .* stride-3 .* at least 9"):
        zpi_encoder_output_size(p, 3)


# --- GRU cell ----------------------------------------------------------------------------

def test_gru_zero_weights_halves_state():
    cfg = tiny_config()
    layer = _layer(cfg)
    for name in ("gru_wzr", "gru_wo", "gru_bzr", "gru_bo"):
        getattr(layer, name)[...] = 0.0
    o_prev = np.random.default_rng(8).normal(size=(6, 4))
    h_in = np.zeros((6, 4))
    o, _ = gru_cell(o_prev, h_in, layer)
    assert np.allclose(o, 0.5 * o_prev)
    o2, _ = gru_cell(np.zeros((6, 4)), h_in, layer)
    assert np.array_equal(o2, np.zeros((6, 4)))


def test_gru_output_bounded():
    cfg = tiny_config()
    layer = _layer(cfg, seed=9)
    rng = np.random.default_rng(10)
    o_prev = rng.normal(size=(6, 4))
    h_in = rng.normal(size=(6, 4))
    o, _ = gru_cell(o_prev, h_in, layer)
    bound = np.maximum(np.abs(o_prev), 1.0)
    assert np.all(np.abs(o) <= bound + 1e-12)
