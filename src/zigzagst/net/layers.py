"""Network layers with hand-derived backward passes.

Every forward returns its output plus an opaque cache; the matching
backward consumes the cache and the output gradient.  The image encoder
reads every layer at once and returns one (code, cache) pair per layer.
All math is float64 so the finite-difference gradient check is
meaningful.  Leading axes are batch axes, and a backward sums its
parameter gradients over them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "adaptive_laplacian",
    "adaptive_laplacian_backward",
    "laplacian_powers",
    "laplacian_powers_backward",
    "spatial_conv_window",
    "spatial_conv_window_backward",
    "temporal_conv",
    "temporal_conv_backward",
    "zpi_encoder",
    "zpi_encoder_output_size",
    "zpi_encoder_backward",
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
        if k > 1:  # the identity's gradient dpow[0] is never read
            dpow[k - 1] += lap.T @ dpow[k]
    return dlap


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
    """Graph convolution of every slice: (..., N, F) -> (..., N, O).

    out[..., n, o] = sum_kfe (L^k h)[..., n, f] E[n,e] W[e,k,f,o], and
    every leading axis is a batch axis.  Node-major layout turns the
    power propagation into one matmul and the per-node weight
    contraction into matmuls batched over (power, node).  The cache
    holds the inputs only; the backward recomputes the propagation.
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


# The model's spatial layer; ``temporal_conv`` calls the private names, so
# that a wrapper put on these public names sees spatial calls only.
spatial_conv_window = _graph_conv
spatial_conv_window_backward = _graph_conv_backward


def temporal_conv(h_win, powers, embedding, weight, time_mix):
    """Window graph convolution followed by a learned mix over time slices.

    ``h_win`` is (window, ..., N, F): time first, then any batch axes.
    The per-slice contraction matches the spatial one but the weight has
    no power index, so the power slices enter as their sum; the result
    is one half-width feature map per window, (..., N, O).
    """
    slices, conv_cache = _graph_conv(h_win, powers.sum(axis=0)[None], embedding, weight[:, None])
    out = (time_mix @ slices.reshape(len(time_mix), -1)).reshape(slices.shape[1:])
    return out, (conv_cache, powers.shape, time_mix, slices)


def temporal_conv_backward(cache, dout):
    conv_cache, powers_shape, time_mix, slices = cache
    dtime_mix = slices.reshape(len(time_mix), -1) @ dout.reshape(-1)
    dslices = (time_mix[:, None] * dout.reshape(1, -1)).reshape(slices.shape)
    dh_win, dpower_sum, dembed, dweight = _graph_conv_backward(conv_cache, dslices)
    return dh_win, np.broadcast_to(dpower_sum, powers_shape), dembed, dweight[:, 0], dtime_mix


# The model's image encoder: two convolutions of 8 filters of 3x3 at stride 2.
ENCODER_FILTERS, ENCODER_KERNEL, ENCODER_STRIDE = 8, 3, 2

def _im2col(x, out, k, side):
    """Columns of a valid k x k convolution at the encoder's stride of ``x``, into ``out``.

    ``x`` is one image (C, H, W) and ``out`` a (k, k, C, side, side)
    buffer; the result is a view of it, (k*k*C, side*side) with rows
    ordered (ky, kx, c), built by one strided copy per kernel tap.
    """
    span = ENCODER_STRIDE * side
    for ky in range(k):
        for kx in range(k):
            out[ky, kx] = x[:, ky : ky + span : ENCODER_STRIDE, kx : kx + span : ENCODER_STRIDE]
    return out.reshape(-1, side * side)


def _relu_matmul(kernel, cols, bias, out):
    """ReLU(kernel @ cols + bias) of one image's (K, S) columns into ``out``, (len(kernel), S)."""
    np.matmul(kernel, cols, out=out)
    out += bias[:, None]
    return np.maximum(out, 0.0, out=out)


def _patches(x, batch, ys, xs, k):
    """x[batch, c, stride*y + ky, stride*x + kx] for output positions (ys, xs) at the encoder's stride.

    ``x`` is (U, C, H, W), ``batch`` a (B,) index into its first axis and
    ``ys``/``xs`` are (B, ...) index arrays; the result is (B, ..., k, k, C).
    """
    offsets, stride = np.arange(k), ENCODER_STRIDE
    rows = (stride * ys)[..., None, None] + offsets[:, None]
    cols = (stride * xs)[..., None, None] + offsets[None, :]
    batch = batch.reshape((-1,) + (1,) * (rows.ndim - 1))
    return x[batch, :, rows, cols]


def zpi_encoder_output_size(p: int, kernel: int) -> int:
    """Feature-map side length after the two convolutions at the encoder's stride."""
    stride = ENCODER_STRIDE
    s1 = (p - kernel) // stride + 1
    if s1 < kernel:
        raise ValueError(
            f"image resolution {p} is too small for two {kernel}x{kernel} stride-{stride} "
            f"convolutions; it must be at least {kernel + (kernel - 1) * stride}"
        )
    return (s1 - kernel) // stride + 1


def zpi_encoder(images, index, layers, want_cache: bool = True):
    """Every layer's code of the windows' images: one ``(z, cache)`` per layer.

    ``images`` is (U, p, p), the distinct images of a call, and ``index``
    is (B,): window b reads ``images[index[b]]``.  Each code is (B, half).
    A layer's code is two ReLU convolutions at ``ENCODER_STRIDE``, whose
    kernel size and filter count are read from the layer's arrays, a
    global max per channel, and a linear map.  Max-pooling in 5x5
    regions followed by a global max over the pooled map collapses to one
    global max per channel, which is what is computed; gradients route to
    the argmax position.  So a layer's cache keeps only what that one
    position per window and channel needs: where it sits, and its k x k
    patch of the first feature map (whose sign is the first ReLU's mask).
    Without ``want_cache`` every cache is None and only the maxima are
    taken: no argmax, no positions and no patches.

    The convolutions run once per distinct image, each as matrix
    products of its own whose shapes do not depend on the call, so an
    image's maxima, argmax positions and patches do not depend on the
    other images of the call.  They are gathered per window through
    ``index``; the linear map and the backward then run on window rows,
    as if every window had brought its own copy of its image.

    Every layer's first convolution is one product of the stacked
    (layers*filters, k*k) kernels against an image's im2col columns.
    The column and feature-map buffers hold one image; they are
    allocated once per call and reused from image to image.
    """
    u, p = images.shape[0], images.shape[-1]
    filters, _, k, _ = layers[0].conv1_k.shape
    n_layers = len(layers)
    s2 = zpi_encoder_output_size(p, k)
    s1 = (p - k) // ENCODER_STRIDE + 1
    x0 = images.reshape(u, 1, p, p)  # one input channel
    cols1, cols2 = np.empty((k, k, 1, s1, s1)), np.empty((k, k, filters, s2, s2))
    maps1, maps2 = np.empty((n_layers * filters, s1 * s1)), np.empty((filters, s2 * s2))
    kernel1 = np.concatenate([lp.conv1_k.reshape(filters, k * k) for lp in layers])
    bias1 = np.concatenate([lp.conv1_b for lp in layers])
    kernels2 = [lp.conv2_k.transpose(0, 2, 3, 1).reshape(filters, -1) for lp in layers]
    maxvals = np.empty((n_layers, u, filters))
    if want_cache:
        y2, x2 = np.empty((2, n_layers, u, filters), dtype=np.intp)
        patch1 = np.empty((n_layers, u, filters, k, k, filters))
    for i, x in enumerate(x0):
        r1 = _relu_matmul(kernel1, _im2col(x, cols1, k, s1), bias1, maps1)
        r1 = r1.reshape(n_layers, filters, s1, s1)
        for li, lp in enumerate(layers):
            flat = _relu_matmul(kernels2[li], _im2col(r1[li], cols2, k, s2), lp.conv2_b, maps2)
            maxvals[li, i] = flat.max(axis=1)
            if want_cache:  # the argmax's row-major position
                y2[li, i], x2[li, i] = np.divmod(flat.argmax(axis=1), s2)
        if want_cache:
            patch1[:, i] = _patches(r1, np.arange(n_layers), y2[:, i], x2[:, i], k)
    maxvals = maxvals[:, index]
    if want_cache:
        y2, x2, patch1 = y2[:, index], x2[:, index], patch1[:, index]
    return [
        (
            maxvals[li] @ lp.zmap_w + lp.zmap_b,
            (x0, index, y2[li], x2[li], patch1[li], maxvals[li], lp) if want_cache else None,
        )
        for li, lp in enumerate(layers)
    ]


def zpi_encoder_backward(cache, dz):
    """Returns gradients for (conv1_k, conv1_b, conv2_k, conv2_b, zmap_w, zmap_b).

    The gradients of every window are summed; a window reads its
    first-convolution patches from its image through the index.
    """
    x0, index, y2, x2, patch1, maxvals, layer = cache
    k, stride = layer.conv1_k.shape[2], ENCODER_STRIDE
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
    patch0 = _patches(x0, index, y1, x1, k)
    cout, cin = layer.conv1_k.shape[:2]
    dconv1_k = dpre1.reshape(-1, cout).T @ patch0.reshape(-1, k * k * cin)
    dconv1_k = dconv1_k.reshape(cout, k, k, cin).transpose(0, 3, 1, 2)
    return dconv1_k, dconv1_b, dconv2_k, dconv2_b, dzmap_w, dzmap_b


def _sigmoid(a):
    """The logistic 1 / (1 + exp(-a)), in place, as 0.5 * tanh(a / 2) + 0.5.

    The tanh form cannot overflow for any finite ``a``, and its four
    in-place ufunc passes take less than half the time of
    ``scipy.special.expit`` on the same array.
    """
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def gru_cell(o_prev, h_in, layer):
    """One gated recurrent step on per-node feature rows.

    The update gate z and reset gate r come from one product against the
    stored [W_z | W_r] plus [b_z | b_r] and one sigmoid call.  The cache
    holds the step's inputs and the gate activations it computed, z|r
    and the candidate o~, so the backward applies no transcendental
    function; of the forward it redoes only the two concatenated gate
    inputs, which are copies.
    """
    hidden = o_prev.shape[1]
    zr = np.concatenate([o_prev, h_in], axis=1) @ layer.gru_wzr
    zr += layer.gru_bzr
    _sigmoid(zr)
    z, r = zr[:, :hidden], zr[:, hidden:]
    o_tilde = np.concatenate([r * o_prev, h_in], axis=1) @ layer.gru_wo
    o_tilde += layer.gru_bo
    np.tanh(o_tilde, out=o_tilde)
    o = z * (o_prev - o_tilde)  # z o_prev + (1 - z) o~
    o += o_tilde
    return o, (o_prev, h_in, zr, o_tilde, layer)


def gru_cell_backward(cache, do):
    """Returns (do_prev, dh_in, dw_zr, dw_o, db_zr, db_o), the z|r ones joined as stored."""
    o_prev, h_in, zr, o_tilde, layer = cache
    hidden = o_prev.shape[1]
    z, r = zr[:, :hidden], zr[:, hidden:]
    dz = do * (o_prev - o_tilde)
    do_tilde = do * (1.0 - z)
    do_prev = do * z

    da_o = do_tilde * (1.0 - o_tilde * o_tilde)
    dw_o = np.concatenate([r * o_prev, h_in], axis=1).T @ da_o
    db_o = da_o.sum(axis=0)
    dcat_o = da_o @ layer.gru_wo.T
    dro = dcat_o[:, :hidden]
    dh_in = dcat_o[:, hidden:].copy()
    do_prev += dro * r

    # d sigmoid(a) / da = s (1 - s), for both gates at once
    da_zr = zr * (1.0 - zr)
    da_zr[:, :hidden] *= dz
    da_zr[:, hidden:] *= dro * o_prev
    dw_zr = np.concatenate([o_prev, h_in], axis=1).T @ da_zr
    db_zr = da_zr.sum(axis=0)
    dcat = da_zr @ layer.gru_wzr.T
    do_prev += dcat[:, :hidden]
    dh_in += dcat[:, hidden:]
    return do_prev, dh_in, dw_zr, dw_o, db_zr, db_o
