"""Per-sample network forward and backward, kept as a differential reference.

This is the path the batched ``zigzagst.net.forward``/``backward``
replaced: one window per call, the GRU over (N, hidden) rows, the image
encoder as 9-tap ``einsum`` convolutions that cache every activation,
and the graph convolutions as three-operand ``einsum`` contractions.
The layer functions, ``forward`` and ``backward`` are kept verbatim
(only the ``L.`` module prefix is dropped); a batch of B in the library
must match B calls here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from zigzagst.net.config import ModelConfig, ModelParams
from zigzagst.net.layers import (
    adaptive_laplacian,
    adaptive_laplacian_backward,
    laplacian_powers,
    laplacian_powers_backward,
)
from zigzagst.net.model import Ablation, _ensure_finite


def spatial_conv_window(h_win, powers, embedding, weight):
    propagated = np.einsum("knm,imf->iknf", powers, h_win)
    out = np.einsum("iknf,ne,ekfo->ino", propagated, embedding, weight)
    cache = (propagated, h_win, powers, embedding, weight)
    return out, cache


def spatial_conv_window_backward(cache, dout):
    propagated, h_win, powers, embedding, weight = cache
    dprop = np.einsum("ino,ne,ekfo->iknf", dout, embedding, weight)
    dembed = np.einsum("ino,iknf,ekfo->ne", dout, propagated, weight)
    dweight = np.einsum("ino,iknf,ne->ekfo", dout, propagated, embedding)
    dh_win = np.einsum("knm,iknf->imf", powers, dprop)
    dpowers = np.einsum("iknf,imf->knm", dprop, h_win)
    return dh_win, dpowers, dembed, dweight


def temporal_conv(h_win, powers, embedding, weight, time_mix):
    """Window graph convolution followed by a learned mix over time slices.

    The per-slice contraction matches the spatial one but the weight has
    no power index (power slices enter uniformly); the result is one
    half-width feature map per window.
    """
    propagated = np.einsum("knm,imf->iknf", powers, h_win)
    slices = np.einsum("iknf,ne,efo->ino", propagated, embedding, weight)
    out = np.einsum("i,ino->no", time_mix, slices)
    cache = (propagated, h_win, powers, embedding, weight, time_mix, slices)
    return out, slices, cache


def temporal_conv_backward(cache, dout):
    propagated, h_win, powers, embedding, weight, time_mix, slices = cache
    dtime_mix = np.einsum("no,ino->i", dout, slices)
    dslices = time_mix[:, None, None] * dout[None]
    dprop_nf = np.einsum("ino,ne,efo->inf", dslices, embedding, weight)
    k_plus_1 = propagated.shape[1]
    dprop = np.broadcast_to(dprop_nf[:, None], (dprop_nf.shape[0], k_plus_1) + dprop_nf.shape[1:])
    dembed = np.einsum("ino,iknf,efo->ne", dslices, propagated, weight)
    dweight = np.einsum("ino,iknf,ne->efo", dslices, propagated, embedding)
    dh_win = np.einsum("knm,iknf->imf", powers, dprop)
    dpowers = np.einsum("iknf,imf->knm", dprop, h_win)
    return dh_win, dpowers, dembed, dweight, dtime_mix


def _conv_forward(x, kernel, bias, stride):
    """Valid-padding strided convolution; x (Cin,H,W) -> (Cout,Ho,Wo)."""
    _, h, w = x.shape
    _, _, kh, kw = kernel.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.tile(bias[:, None, None], (1, ho, wo))
    for ky in range(kh):
        for kx in range(kw):
            window = x[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride]
            out += np.einsum("oc,chw->ohw", kernel[:, :, ky, kx], window)
    return out


def _conv_backward(x, kernel, stride, dout):
    _, _, kh, kw = kernel.shape
    _, ho, wo = dout.shape
    dx = np.zeros_like(x)
    dkernel = np.zeros_like(kernel)
    dbias = dout.sum(axis=(1, 2))
    for ky in range(kh):
        for kx in range(kw):
            window = x[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride]
            dkernel[:, :, ky, kx] = np.einsum("ohw,chw->oc", dout, window)
            dx[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride] += np.einsum(
                "oc,ohw->chw", kernel[:, :, ky, kx], dout
            )
    return dx, dkernel, dbias


def zpi_encoder_output_size(p: int, kernel: int, stride: int) -> int:
    """Feature-map side length after the two strided convolutions."""
    s1 = (p - kernel) // stride + 1
    if s1 < kernel:
        raise ValueError(f"image side {p} too small for two {kernel}x{kernel} stride-{stride} convolutions")
    return (s1 - kernel) // stride + 1


def zpi_encoder(image, layer, stride: int):
    """Two ReLU convolutions, a global max per channel, and a linear map.

    Max-pooling in 5x5 regions followed by a global max over the pooled
    map collapses to one global max per channel, which is what is
    computed; gradients route to the argmax position.
    """
    zpi_encoder_output_size(image.shape[0], layer.conv1_k.shape[2], stride)
    x0 = image[None]
    pre1 = _conv_forward(x0, layer.conv1_k, layer.conv1_b, stride)
    r1 = np.maximum(pre1, 0.0)
    pre2 = _conv_forward(r1, layer.conv2_k, layer.conv2_b, stride)
    r2 = np.maximum(pre2, 0.0)
    flat = r2.reshape(r2.shape[0], -1)
    arg = flat.argmax(axis=1)
    maxvals = flat[np.arange(flat.shape[0]), arg]
    z = maxvals @ layer.zmap_w + layer.zmap_b
    cache = (image, x0, pre1, r1, pre2, r2, arg, maxvals, layer, stride)
    return z, cache


def zpi_encoder_backward(cache, dz):
    """Returns gradients for (conv1_k, conv1_b, conv2_k, conv2_b, zmap_w, zmap_b)."""
    image, x0, pre1, r1, pre2, r2, arg, maxvals, layer, stride = cache
    dzmap_w = np.outer(maxvals, dz)
    dzmap_b = dz.copy()
    dmax = layer.zmap_w @ dz
    dr2 = np.zeros_like(r2)
    flat = dr2.reshape(dr2.shape[0], -1)
    flat[np.arange(flat.shape[0]), arg] = dmax
    dpre2 = dr2 * (pre2 > 0.0)
    dr1, dconv2_k, dconv2_b = _conv_backward(r1, layer.conv2_k, stride, dpre2)
    dpre1 = dr1 * (pre1 > 0.0)
    _, dconv1_k, dconv1_b = _conv_backward(x0, layer.conv1_k, stride, dpre1)
    return dconv1_k, dconv1_b, dconv2_k, dconv2_b, dzmap_w, dzmap_b


def gru_cell(o_prev, h_in, layer):
    """One gated recurrent step on per-node feature rows."""
    cat = np.concatenate([o_prev, h_in], axis=1)
    z = expit(cat @ layer.gru_wz + layer.gru_bz)
    r = expit(cat @ layer.gru_wr + layer.gru_br)
    cat_o = np.concatenate([r * o_prev, h_in], axis=1)
    o_tilde = np.tanh(cat_o @ layer.gru_wo + layer.gru_bo)
    o = z * o_prev + (1.0 - z) * o_tilde
    cache = (o_prev, h_in, cat, z, r, cat_o, o_tilde, layer)
    return o, cache


def gru_cell_backward(cache, do):
    o_prev, h_in, cat, z, r, cat_o, o_tilde, layer = cache
    hidden = o_prev.shape[1]
    dz = do * (o_prev - o_tilde)
    do_tilde = do * (1.0 - z)
    do_prev = do * z

    da_o = do_tilde * (1.0 - o_tilde * o_tilde)
    dw_o = cat_o.T @ da_o
    db_o = da_o.sum(axis=0)
    dcat_o = da_o @ layer.gru_wo.T
    dro = dcat_o[:, :hidden]
    dh_in = dcat_o[:, hidden:].copy()
    dr = dro * o_prev
    do_prev += dro * r

    da_z = dz * z * (1.0 - z)
    da_r = dr * r * (1.0 - r)
    dw_z = cat.T @ da_z
    db_z = da_z.sum(axis=0)
    dw_r = cat.T @ da_r
    db_r = da_r.sum(axis=0)
    dcat = da_z @ layer.gru_wz.T + da_r @ layer.gru_wr.T
    do_prev += dcat[:, :hidden]
    dh_in += dcat[:, hidden:]
    return do_prev, dh_in, dw_z, dw_r, dw_o, db_z, db_r, db_o


def forward(
    x_win: np.ndarray,
    image: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    ablation: Ablation = Ablation(),
    z_override: list[np.ndarray] | None = None,
    want_cache: bool = False,
):
    """Predict (horizon, n_nodes, out_features) from a window and its image.

    ``z_override`` injects fixed gate vectors (one per layer) in place of
    the encoder output; the no_zigzag ablation is exactly a ones
    override.  Returns the prediction, or (prediction, cache) when
    ``want_cache`` is set.
    """
    x_win = np.asarray(x_win, dtype=np.float64)
    image = np.asarray(image, dtype=np.float64)
    tau, n, feat = x_win.shape
    if (tau, n, feat) != (config.window, config.n_nodes, config.in_features):
        raise ValueError(f"input window has shape {x_win.shape}, expected "
                         f"({config.window}, {config.n_nodes}, {config.in_features})")
    if image.shape != (config.zpi_resolution, config.zpi_resolution):
        raise ValueError(f"image has shape {image.shape}, expected "
                         f"({config.zpi_resolution}, {config.zpi_resolution})")

    lap, lap_cache = adaptive_laplacian(params.embedding)
    _ensure_finite("adaptive_laplacian", lap)
    powers = laplacian_powers(lap, config.laplacian_order)

    seq = x_win
    layer_caches = []
    half = config.half_hidden
    for li, lp in enumerate(params.layers):
        if ablation.no_zigzag:
            z, enc_cache = np.ones(half), None
        elif z_override is not None:
            z, enc_cache = np.asarray(z_override[li], dtype=np.float64), None
        else:
            z, enc_cache = zpi_encoder(image, lp, config.cnn_stride)
        s_out, s_cache = spatial_conv_window(seq, powers, params.embedding, lp.spatial_w)
        t_out, _, t_cache = temporal_conv(seq, powers, params.embedding, lp.temporal_w, params.time_mix)
        s_scaled = np.zeros_like(s_out) if ablation.no_spatial else s_out * z
        t_scaled = np.zeros_like(t_out) if ablation.no_temporal else t_out * z
        _ensure_finite(f"layer {li} branches", s_scaled)
        gru_in = np.concatenate(
            [s_scaled, np.broadcast_to(t_scaled, s_scaled.shape)], axis=2
        )
        state = np.zeros((n, config.hidden))
        step_caches = []
        states = np.empty((tau, n, config.hidden))
        for i in range(tau):
            state, c = gru_cell(state, gru_in[i], lp)
            states[i] = state
            step_caches.append(c)
        _ensure_finite(f"layer {li} recurrence", states)
        layer_caches.append((enc_cache, s_cache, t_cache, s_out, t_out, z, step_caches))
        seq = states

    final = seq[-1]
    flat = final @ params.out_w + params.out_b
    pred = np.moveaxis(flat.reshape(n, config.horizon, config.out_features), 0, 1)
    _ensure_finite("output projection", pred)
    if not want_cache:
        return pred
    cache = (x_win, params, config, ablation, z_override, lap, lap_cache, powers, layer_caches, final)
    return pred, cache


def backward(cache, dpred: np.ndarray) -> ModelParams:
    """Gradients of a scalar loss w.r.t. every parameter array."""
    (x_win, params, config, ablation, z_override, lap, lap_cache, powers,
     layer_caches, final) = cache
    tau, n = config.window, config.n_nodes
    half = config.half_hidden
    grads = params.zeros_like()

    dflat = np.moveaxis(np.asarray(dpred, dtype=np.float64), 0, 1).reshape(n, -1)
    grads.out_w += final.T @ dflat
    grads.out_b += dflat.sum(axis=0)
    dstates_ext = np.zeros((tau, n, config.hidden))
    dstates_ext[-1] = dflat @ params.out_w.T

    dpowers = np.zeros_like(powers)
    dembed = np.zeros_like(params.embedding)

    for li in range(config.num_layers - 1, -1, -1):
        enc_cache, s_cache, t_cache, s_out, t_out, z, step_caches = layer_caches[li]
        glp = grads.layers[li]

        dgru_in = np.empty((tau, n, config.hidden))
        do_prev = np.zeros((n, config.hidden))
        for i in range(tau - 1, -1, -1):
            do = dstates_ext[i] + do_prev
            do_prev, dh_in, dwz, dwr, dwo, dbz, dbr, dbo = gru_cell_backward(step_caches[i], do)
            dgru_in[i] = dh_in
            glp.gru_wz += dwz
            glp.gru_wr += dwr
            glp.gru_wo += dwo
            glp.gru_bz += dbz
            glp.gru_br += dbr
            glp.gru_bo += dbo

        ds_scaled = dgru_in[:, :, :half]
        dt_scaled = dgru_in[:, :, half:].sum(axis=0)

        dz = np.zeros(half)
        if ablation.no_spatial:
            ds_out = np.zeros_like(s_out)
        else:
            ds_out = ds_scaled * z
            dz += np.einsum("ino,ino->o", ds_scaled, s_out)
        if ablation.no_temporal:
            dt_out = np.zeros_like(t_out)
        else:
            dt_out = dt_scaled * z
            dz += np.einsum("no,no->o", dt_scaled, t_out)

        dseq_s, dpow_s, demb_s, dw_s = spatial_conv_window_backward(s_cache, ds_out)
        dseq_t, dpow_t, demb_t, dw_t, dq = temporal_conv_backward(t_cache, dt_out)
        glp.spatial_w += dw_s
        glp.temporal_w += dw_t
        grads.time_mix += dq
        dpowers += dpow_s + dpow_t
        dembed += demb_s + demb_t

        if enc_cache is not None:
            dk1, db1, dk2, db2, dzw, dzb = zpi_encoder_backward(enc_cache, dz)
            glp.conv1_k += dk1
            glp.conv1_b += db1
            glp.conv2_k += dk2
            glp.conv2_b += db2
            glp.zmap_w += dzw
            glp.zmap_b += dzb

        dstates_ext = dseq_s + dseq_t  # gradient on the previous layer's state sequence

    dlap = laplacian_powers_backward(powers, dpowers, lap)
    dembed += adaptive_laplacian_backward(lap_cache, dlap)
    grads.embedding += dembed
    return grads
