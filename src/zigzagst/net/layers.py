"""Network layers with hand-derived backward passes.

Every forward returns its output plus an opaque cache; the matching
backward consumes the cache and the output gradient.  All math is
float64 so the finite-difference gradient check is meaningful.  Leading
axes are batch axes, and a backward sums its parameter gradients over
them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

__all__ = [
    "adaptive_laplacian",
    "adaptive_laplacian_backward",
    "laplacian_powers",
    "laplacian_powers_backward",
    "spatial_conv",
    "spatial_conv_window",
    "spatial_conv_window_backward",
    "temporal_conv",
    "temporal_conv_backward",
    "zpi_encoder",
    "zpi_encoder_output_size",
    "zpi_encoder_backward",
    "zigzag_layer",
    "gru_cell",
    "gru_cell_backward",
]


def adaptive_laplacian(embedding: np.ndarray):
    """Row-stochastic similarity matrix: softmax(relu(E E^T)) per row."""
    scores = embedding @ embedding.T
    act = np.maximum(scores, 0.0)
    act_max = act.max(axis=1, keepdims=True)
    ex = np.exp(act - act_max)
    lap = ex / ex.sum(axis=1, keepdims=True)
    cache = (embedding, scores > 0.0, lap)
    return lap, cache


def adaptive_laplacian_backward(cache, dlap: np.ndarray) -> np.ndarray:
    embedding, mask, lap = cache
    dact = lap * (dlap - (dlap * lap).sum(axis=1, keepdims=True))
    dscores = dact * mask
    return (dscores + dscores.T) @ embedding


def laplacian_powers(lap: np.ndarray, order: int) -> np.ndarray:
    """Stack [I, L, L^2, ..., L^order], shape (order+1, N, N)."""
    n = lap.shape[0]
    powers = np.empty((order + 1, n, n))
    powers[0] = np.eye(n)
    for k in range(1, order + 1):
        powers[k] = lap @ powers[k - 1]
    return powers


def laplacian_powers_backward(powers: np.ndarray, dpowers: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. L given gradients for every power slice."""
    dpow = dpowers.copy()
    dlap = np.zeros_like(lap)
    for k in range(dpow.shape[0] - 1, 0, -1):
        dlap += dpow[k] @ powers[k - 1].T
        dpow[k - 1] += lap.T @ dpow[k]
    return dlap


def spatial_conv(h: np.ndarray, powers: np.ndarray, embedding: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Single-slice graph convolution, out[n,o] = sum_kfe (L^k h)[n,f] E[n,e] W[e,k,f,o]."""
    out, _ = spatial_conv_window(h[None], powers, embedding, weight)
    return out[0]


def _node_major(h: np.ndarray) -> np.ndarray:
    """(..., N, F) -> (N, M, F), with M the product of the leading axes."""
    return np.moveaxis(h, -2, 0).reshape(h.shape[-2], -1, h.shape[-1])


def _from_node_major(h_nm: np.ndarray, lead: tuple) -> np.ndarray:
    """Inverse of ``_node_major`` for leading axes ``lead``."""
    n, _, f = h_nm.shape
    return np.moveaxis(h_nm.reshape((n,) + lead + (f,)), 0, -2)


def _node_weights(embedding: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-node weights sum_e E[n,e] W[e,k,f,o], as (K+1, N, F, O)."""
    e, k1, f, o = weight.shape
    return (embedding @ weight.reshape(e, -1)).reshape(len(embedding), k1, f, o).swapaxes(0, 1)


def _propagate(h_win, powers):
    """Node-major input and its propagation by every power.

    ``h_win`` (..., N, F) becomes ``h_nm`` (N, M, F), and ``prop`` is
    [L^k h] as (K+1, N, M, F), one matmul over all powers and slices.
    """
    k1, n, _ = powers.shape
    h_nm = _node_major(h_win)
    _, m, f = h_nm.shape
    prop = (powers.reshape(k1 * n, n) @ h_nm.reshape(n, m * f)).reshape(k1, n, m, f)
    return h_nm, prop


def _graph_conv(h_win, powers, embedding, weight):
    """out[..., n, o] = sum_kfe (L^k h)[..., n, f] E[n,e] W[e,k,f,o], any leading axes.

    Node-major layout turns the power propagation into one matmul and
    the per-node weight contraction into matmuls batched over (power,
    node).  The cache holds the inputs only; the backward recomputes
    the propagation.
    """
    _, prop = _propagate(h_win, powers)
    out = (prop @ _node_weights(embedding, weight)).sum(axis=0)
    return _from_node_major(out, h_win.shape[:-2]), (h_win, powers, embedding, weight)


def _graph_conv_backward(cache, dout):
    h_win, powers, embedding, weight = cache
    h_nm, prop = _propagate(h_win, powers)
    k1, n, m, f = prop.shape
    dout_nm = _node_major(dout)
    dnode_w = (prop.swapaxes(2, 3) @ dout_nm).swapaxes(0, 1).reshape(n, -1)  # (N, (k, f, o))
    del prop  # the largest array here; dprop below has its size
    dembed = dnode_w @ weight.reshape(len(weight), -1).T
    dweight = (embedding.T @ dnode_w).reshape(weight.shape)
    dprop = (dout_nm @ _node_weights(embedding, weight).swapaxes(2, 3)).reshape(k1 * n, m * f)
    dh_nm = powers.reshape(k1 * n, n).T @ dprop
    dpowers = (dprop @ h_nm.reshape(n, m * f).T).reshape(powers.shape)
    dh_win = _from_node_major(dh_nm.reshape(n, m, f), h_win.shape[:-2])
    return dh_win, dpowers, dembed, dweight


def spatial_conv_window(h_win, powers, embedding, weight):
    """Graph convolution of every slice: (..., N, F) -> (..., N, O).

    Every leading axis is a batch axis.
    """
    return _graph_conv(h_win, powers, embedding, weight)


def spatial_conv_window_backward(cache, dout):
    return _graph_conv_backward(cache, dout)


def temporal_conv(h_win, powers, embedding, weight, time_mix):
    """Window graph convolution followed by a learned mix over time slices.

    ``h_win`` is (window, ..., N, F): time first, then any batch axes.
    The per-slice contraction matches the spatial one but the weight has
    no power index, so the power slices enter as their sum; the result
    is one half-width feature map per window, (..., N, O).
    """
    slices, conv_cache = _graph_conv(h_win, powers.sum(axis=0)[None], embedding, weight[:, None])
    out = (time_mix @ slices.reshape(len(time_mix), -1)).reshape(slices.shape[1:])
    return out, slices, (conv_cache, powers.shape, time_mix, slices)


def temporal_conv_backward(cache, dout):
    conv_cache, powers_shape, time_mix, slices = cache
    dtime_mix = slices.reshape(len(time_mix), -1) @ dout.reshape(-1)
    dslices = (time_mix[:, None] * dout.reshape(1, -1)).reshape(slices.shape)
    dh_win, dpower_sum, dembed, dweight = _graph_conv_backward(conv_cache, dslices)
    return dh_win, np.broadcast_to(dpower_sum, powers_shape), dembed, dweight[:, 0], dtime_mix


def _relu_conv(x, kernel, bias, stride):
    """ReLU of a valid strided convolution, channels first.

    (Cin, B, H, W) -> (Cout, B, Ho, Wo) through im2col: one strided copy
    per kernel tap builds the (k*k*Cin, B*Ho*Wo) column matrix, which
    meets the kernel in one matmul.
    """
    cout, cin, k, _ = kernel.shape
    _, b, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    cols = np.empty((k, k, cin, b, ho, wo))
    for ky in range(k):
        for kx in range(k):
            cols[ky, kx] = x[:, :, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride]
    pre = kernel.transpose(0, 2, 3, 1).reshape(cout, -1) @ cols.reshape(k * k * cin, -1)
    pre += bias[:, None]
    return np.maximum(pre, 0.0, out=pre).reshape(cout, b, ho, wo)


def _patches(x, ys, xs, k, stride):
    """x[c, b, stride*y + ky, stride*x + kx] for the output positions (ys, xs).

    ``x`` is (C, B, H, W) and ``ys``/``xs`` are (B, ...) index arrays;
    the result is (B, ..., k, k, C).
    """
    offsets = np.arange(k)
    rows = (stride * ys)[..., None, None] + offsets[:, None]
    cols = (stride * xs)[..., None, None] + offsets[None, :]
    batch = np.arange(x.shape[1]).reshape((-1,) + (1,) * (rows.ndim - 1))
    return np.moveaxis(x[:, batch, rows, cols], 0, -1)


def zpi_encoder_output_size(p: int, kernel: int, stride: int) -> int:
    """Feature-map side length after the two strided convolutions."""
    s1 = (p - kernel) // stride + 1
    if s1 < kernel:
        raise ValueError(f"image side {p} too small for two {kernel}x{kernel} stride-{stride} convolutions")
    return (s1 - kernel) // stride + 1


def zpi_encoder(image, layer, stride: int):
    """Two ReLU convolutions, a global max per channel, and a linear map.

    ``image`` is (..., p, p) and the code is (..., half); every leading
    axis is a batch axis.  Max-pooling in 5x5 regions followed by a
    global max over the pooled map collapses to one global max per
    channel, which is what is computed; gradients route to the argmax
    position.  So the cache keeps only what that one position per
    sample and channel needs: where it sits, and its k x k patch of the
    first feature map (whose sign is the first ReLU's mask).
    """
    p = image.shape[-1]
    k = layer.conv1_k.shape[2]
    side = zpi_encoder_output_size(p, k, stride)
    x0 = image.reshape(1, -1, p, p)  # one input channel
    r1 = _relu_conv(x0, layer.conv1_k, layer.conv1_b, stride)
    r2 = _relu_conv(r1, layer.conv2_k, layer.conv2_b, stride)
    flat = r2.reshape(r2.shape[0], r2.shape[1], -1).swapaxes(0, 1)  # (B, channels, side^2)
    arg = flat.argmax(axis=2)  # row-major position
    y2, x2 = np.divmod(arg, side)
    maxvals = np.take_along_axis(flat, arg[..., None], axis=2)[..., 0]
    patch1 = _patches(r1, y2, x2, k, stride)
    z = maxvals @ layer.zmap_w + layer.zmap_b
    cache = (image, x0, y2, x2, patch1, side, arg, maxvals, layer, stride)
    return z.reshape(image.shape[:-2] + z.shape[1:]), cache


def zpi_encoder_backward(cache, dz):
    """Returns gradients for (conv1_k, conv1_b, conv2_k, conv2_b, zmap_w, zmap_b).

    The gradients of every sample are summed.
    """
    _, x0, y2, x2, patch1, _, _, maxvals, layer, stride = cache
    k = layer.conv1_k.shape[2]
    dz = dz.reshape(maxvals.shape[0], -1)
    dzmap_w = maxvals.T @ dz
    dzmap_b = dz.sum(axis=0)
    dpre2 = (dz @ layer.zmap_w.T) * (maxvals > 0.0)  # (B, channels), at the argmax only
    dconv2_b = dpre2.sum(axis=0)
    # patch1[b, o, ky, kx, c] is r1 under kernel tap (ky, kx) of channel o's argmax
    dconv2_k = np.einsum("bo,boyxc->ocyx", dpre2, patch1)
    dpre1 = dpre2[:, :, None, None, None] * layer.conv2_k.transpose(0, 2, 3, 1) * (patch1 > 0.0)
    dconv1_b = dpre1.sum(axis=(0, 1, 2, 3))
    # every (b, o, ky, kx) names one first-map position; overlaps just add
    offsets = np.arange(k)
    y1 = stride * y2[:, :, None, None] + offsets[:, None]
    x1 = stride * x2[:, :, None, None] + offsets[None, :]
    patch0 = _patches(x0, y1, x1, k, stride)
    cout, cin = layer.conv1_k.shape[:2]
    dconv1_k = dpre1.reshape(-1, cout).T @ patch0.reshape(-1, k * k * cin)
    dconv1_k = dconv1_k.reshape(cout, k, k, cin).transpose(0, 3, 1, 2)
    return dconv1_k, dconv1_b, dconv2_k, dconv2_b, dzmap_w, dzmap_b


def zigzag_layer(h_spatial, h_temporal, z):
    """Channelwise gate by the image code, then channel concatenation."""
    return np.concatenate([h_spatial * z, h_temporal * z], axis=-1)


def _gru_terms(o_prev, h_in, layer):
    """Update gate z, reset gate r, candidate o~ and the two gate inputs."""
    cat = np.concatenate([o_prev, h_in], axis=1)
    z = expit(cat @ layer.gru_wz + layer.gru_bz)
    r = expit(cat @ layer.gru_wr + layer.gru_br)
    cat_o = np.concatenate([r * o_prev, h_in], axis=1)
    o_tilde = np.tanh(cat_o @ layer.gru_wo + layer.gru_bo)
    return cat, z, r, cat_o, o_tilde


def gru_cell(o_prev, h_in, layer):
    """One gated recurrent step on per-node feature rows.

    The cache holds the step's inputs only; the backward recomputes the
    gates, which costs a second forward step but keeps a minibatch's
    cache to its state sequence.
    """
    _, z, _, _, o_tilde = _gru_terms(o_prev, h_in, layer)
    o = z * o_prev + (1.0 - z) * o_tilde
    return o, (o_prev, h_in, layer)


def gru_cell_backward(cache, do):
    o_prev, h_in, layer = cache
    cat, z, r, cat_o, o_tilde = _gru_terms(o_prev, h_in, layer)
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
