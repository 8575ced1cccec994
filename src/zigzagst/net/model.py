"""Forward pass, loss, analytic gradients, and the finite-difference check.

The network stacks recurrent layers.  Within a layer the spatial branch
convolves the snapshot at each window step, the temporal branch
convolves the whole window into one feature map, both are gated
channelwise by the image code of that layer's encoder, and a GRU runs
over the gated sequence; its state sequence is the next layer's input.
The final state is projected linearly to the forecast horizon.  Every
layer's encoder reads the same image, so ``forward`` encodes it for all
layers in one ``zpi_encoder`` call before the layer loop; windows that
share an image share its convolutions.
"""

from __future__ import annotations

import enum

import numpy as np

from . import layers as L
from .config import ModelConfig, ModelParams, init_params

__all__ = [
    "Ablation",
    "forward",
    "backward",
    "loss_metrics",
    "mae_loss_and_grad",
    "grad_check",
    "tiny_config",
]


class Ablation(enum.Enum):
    """The full model, or one part removed: gates of ones, or a branch zeroed before combination."""

    NONE = "none"
    NO_ZIGZAG = "no-zigzag"
    NO_SPATIAL = "no-spatial"
    NO_TEMPORAL = "no-temporal"


def _ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced in {name}")


def forward(
    x_win: np.ndarray,
    images: np.ndarray,
    index: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    ablation: Ablation = Ablation.NONE,
    want_cache: bool = False,
):
    """Predict (B, horizon, n_nodes, out_features) from B windows and their images.

    ``x_win`` is (B, window, n_nodes, in_features), ``images`` is (U, p, p)
    and ``index`` is (B,) integers: window b's image is
    ``images[index[b]]``, so windows with equal images share one.  One
    window is a batch of one.  The gates are the encoder's codes, or ones
    under ``Ablation.NO_ZIGZAG``.
    Returns the prediction, or (prediction, cache) when ``want_cache`` is
    set.
    """
    x_win = np.asarray(x_win, dtype=np.float64)
    images = np.asarray(images, dtype=np.float64)
    index = np.asarray(index)
    expected = (config.window, config.n_nodes, config.in_features)
    if x_win.ndim != 4 or x_win.shape[1:] != expected:
        raise ValueError(f"input window has shape {x_win.shape}, expected "
                         f"(batch, {', '.join(map(str, expected))})")
    b, p = x_win.shape[0], config.zpi_resolution
    if images.ndim != 3 or images.shape[1:] != (p, p):
        raise ValueError(f"images have shape {images.shape}, expected (images, {p}, {p})")
    if index.shape != (b,) or index.dtype.kind not in "iu":
        raise ValueError(f"index has shape {index.shape} and dtype {index.dtype}, "
                         f"expected ({b},) integers")
    if b and not 0 <= index.min() <= index.max() < len(images):
        raise ValueError(f"index holds {index.min()} to {index.max()}, "
                         f"not all within the {len(images)} images")
    tau, n = config.window, config.n_nodes
    # one (z, encoder cache) per layer; the encoder reads every layer's
    # kernels in one pass over the images, and builds no cache unless a
    # backward will read it
    if ablation is Ablation.NO_ZIGZAG:
        gates = [(np.ones((b, config.half_hidden)), None)] * config.num_layers
    else:
        gates = L.zpi_encoder(images, index, params.layers, want_cache=want_cache)

    lap, lap_cache = L.adaptive_laplacian(params.embedding)
    _ensure_finite("adaptive_laplacian", lap)
    powers = L.laplacian_powers(lap, config.laplacian_order)

    # time-major (window, B, N, width): the GRU steps over the first axis
    # with the batch's B * N node rows side by side
    seq = np.moveaxis(x_win, 1, 0)
    layer_caches = []
    for li, (lp, (z, enc_cache)) in enumerate(zip(params.layers, gates)):
        s_out, s_cache = L.spatial_conv_window(seq, powers, params.embedding, lp.spatial_w)
        t_out, t_cache = L.temporal_conv(seq, powers, params.embedding, lp.temporal_w, params.time_mix)
        s_scaled = np.zeros_like(s_out) if ablation is Ablation.NO_SPATIAL else s_out * z[:, None, :]
        t_scaled = np.zeros_like(t_out) if ablation is Ablation.NO_TEMPORAL else t_out * z[:, None, :]
        _ensure_finite(f"layer {li} branches", s_scaled)
        gru_in = np.concatenate(
            [s_scaled, np.broadcast_to(t_scaled, s_scaled.shape)], axis=3
        ).reshape(tau, b * n, config.hidden)
        # each step's input state is a view of the previous row of states
        state = np.zeros((b * n, config.hidden))
        step_caches = []
        states = np.empty((tau, b * n, config.hidden))
        for i in range(tau):
            states[i], c = L.gru_cell(state, gru_in[i], lp)
            state = states[i]
            if want_cache:
                step_caches.append(c)
        _ensure_finite(f"layer {li} recurrence", states)
        if want_cache:
            layer_caches.append((enc_cache, s_cache, t_cache, s_out, t_out, z, step_caches))
        seq = states.reshape(tau, b, n, config.hidden)

    final = states[-1]
    flat = final @ params.out_w + params.out_b
    pred = np.moveaxis(flat.reshape(b, n, config.horizon, config.out_features), 1, 2)
    _ensure_finite("output projection", pred)
    if not want_cache:
        return pred
    cache = (params, config, ablation, lap, lap_cache, powers, layer_caches, final)
    return pred, cache


def backward(cache, dpred: np.ndarray) -> ModelParams:
    """Gradients of a scalar loss w.r.t. every parameter array, summed over the batch.

    ``dpred`` has the shape of the prediction ``forward`` returned with ``cache``.
    """
    params, config, ablation, lap, lap_cache, powers, layer_caches, final = cache
    tau, n = config.window, config.n_nodes
    half = config.half_hidden
    grads = params.zeros_like()

    dpred = np.asarray(dpred, dtype=np.float64)
    b = final.shape[0] // n
    if dpred.shape != (b, config.horizon, n, config.out_features):
        raise ValueError(f"dpred has shape {dpred.shape}, expected "
                         f"({b}, {config.horizon}, {n}, {config.out_features})")
    dflat = np.moveaxis(dpred, 2, 1).reshape(b * n, -1)
    grads.out_w += final.T @ dflat
    grads.out_b += dflat.sum(axis=0)
    dstates_ext = np.zeros((tau, b * n, config.hidden))
    dstates_ext[-1] = dflat @ params.out_w.T

    dpowers = np.zeros_like(powers)
    dembed = np.zeros_like(params.embedding)

    for li in range(config.num_layers - 1, -1, -1):
        enc_cache, s_cache, t_cache, s_out, t_out, z, step_caches = layer_caches[li]
        glp = grads.layers[li]

        dgru_in = np.empty((tau, b * n, config.hidden))
        do_prev = np.zeros((b * n, config.hidden))
        for i in range(tau - 1, -1, -1):
            do = dstates_ext[i] + do_prev
            do_prev, dh_in, dwzr, dwo, dbzr, dbo = L.gru_cell_backward(step_caches[i], do)
            dgru_in[i] = dh_in
            glp.gru_wzr += dwzr
            glp.gru_wo += dwo
            glp.gru_bzr += dbzr
            glp.gru_bo += dbo

        dgru_in = dgru_in.reshape(tau, b, n, config.hidden)
        ds_scaled = dgru_in[..., :half]
        dt_scaled = dgru_in[..., half:].sum(axis=0)

        dz = np.zeros((b, half))
        if ablation is Ablation.NO_SPATIAL:
            ds_out = np.zeros_like(s_out)
        else:
            ds_out = ds_scaled * z[:, None, :]
            dz += (ds_scaled * s_out).sum(axis=(0, 2))
        if ablation is Ablation.NO_TEMPORAL:
            dt_out = np.zeros_like(t_out)
        else:
            dt_out = dt_scaled * z[:, None, :]
            dz += (dt_scaled * t_out).sum(axis=1)

        dseq_s, dpow_s, demb_s, dw_s = L.spatial_conv_window_backward(s_cache, ds_out)
        dseq_t, dpow_t, demb_t, dw_t, dq = L.temporal_conv_backward(t_cache, dt_out)
        glp.spatial_w += dw_s
        glp.temporal_w += dw_t
        grads.time_mix += dq
        dpowers += dpow_s + dpow_t
        dembed += demb_s + demb_t

        if enc_cache is not None:
            dk1, db1, dk2, db2, dzw, dzb = L.zpi_encoder_backward(enc_cache, dz)
            glp.conv1_k += dk1
            glp.conv1_b += db1
            glp.conv2_k += dk2
            glp.conv2_b += db2
            glp.zmap_w += dzw
            glp.zmap_b += dzb

        # gradient on the previous layer's state sequence, as GRU rows
        dstates_ext = (dseq_s + dseq_t).reshape(tau, b * n, -1)

    dlap = L.laplacian_powers_backward(powers, dpowers, lap)
    dembed += L.adaptive_laplacian_backward(lap_cache, dlap)
    grads.embedding += dembed
    return grads


def loss_metrics(pred: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """(MAE, RMSE, MAPE%); MAPE skips target entries below 1e-6 magnitude."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    mask = np.abs(target) >= 1e-6
    mape = float(np.mean(np.abs(diff[mask] / target[mask])) * 100.0) if mask.any() else 0.0
    return mae, rmse, mape


def mae_loss_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    mae = float(np.mean(np.abs(diff)))
    return mae, np.sign(diff) / diff.size


def tiny_config(seed: int = 0) -> ModelConfig:
    """Desk-size configuration for gradient checking."""
    return ModelConfig(
        n_nodes=6, in_features=2, out_features=1, embed_dim=2, laplacian_order=2,
        window=4, horizon=2, hidden=4, num_layers=2, zpi_resolution=16,
        batch_size=1, epochs=1, seed=seed,
    )


def grad_check(seed: int = 0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    The model is ``tiny_config(seed)``, stepped by 1e-5.  Relative error
    uses max(|analytic|, |numeric|, 1e-3) as denominator so near-zero
    entries compare in absolute terms.
    """
    config, epsilon = tiny_config(seed), 1e-5
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    x_win = rng.uniform(0.0, 1.0, (1, config.window, config.n_nodes, config.in_features))
    image = rng.uniform(0.0, 1.0, (1, config.zpi_resolution, config.zpi_resolution))
    target = rng.uniform(0.0, 1.0, (1, config.horizon, config.n_nodes, config.out_features))

    index = np.zeros(1, dtype=np.intp)
    pred, cache = forward(x_win, image, index, params, config, want_cache=True)
    _, dpred = mae_loss_and_grad(pred, target)
    grads = backward(cache, dpred)

    worst = 0.0
    for idx, analytic in enumerate(grads.flat):
        keep = params.flat[idx]
        params.flat[idx] = keep + epsilon
        up, _ = mae_loss_and_grad(forward(x_win, image, index, params, config), target)
        params.flat[idx] = keep - epsilon
        dn, _ = mae_loss_and_grad(forward(x_win, image, index, params, config), target)
        params.flat[idx] = keep
        numeric = (up - dn) / (2.0 * epsilon)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        worst = max(worst, err)
    return worst
