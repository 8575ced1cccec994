"""The forecasting network at desk scale: layers, gradients, overfit.

The model gates spatial and temporal graph convolutions by a code
learned from the window's persistence image and runs a GRU over the
gated sequence.  Every gradient is hand-derived and checked against
central finite differences.

Run:  python demos/05_forecasting_model.py
"""

import numpy as np

from zigzagst.net import (
    Ablation,
    Adam,
    adaptive_laplacian,
    backward,
    forward,
    grad_check,
    init_params,
    laplacian_powers,
    mae_loss_and_grad,
    tiny_config,
)

cfg = tiny_config()
rng = np.random.default_rng(0)
params = init_params(cfg, rng)

# The adjacency is learned from node embeddings: softmax(relu(E E^T))
# rows always sum to one.
lap, _ = adaptive_laplacian(params.embedding)
print("laplacian row sums:", np.round(lap.sum(axis=1), 12))
print("power stack shape:", laplacian_powers(lap, cfg.laplacian_order).shape)

# one window, its image and its target, as a batch of one
x = rng.uniform(0, 1, (1, cfg.window, cfg.n_nodes, cfg.in_features))
img = rng.uniform(0, 1, (1, cfg.zpi_resolution, cfg.zpi_resolution))
y = rng.uniform(0, 1, (1, cfg.horizon, cfg.n_nodes, cfg.out_features))

pred = forward(x, img, params, cfg)
print("forecast shape:", pred.shape)

# The no-zigzag ablation gates both branches by ones in place of the
# image code, so the image no longer reaches the forecast.
no_zigzag = forward(x, img, params, cfg, ablation=Ablation.NO_ZIGZAG)
print("node 0 forecast, full model:", np.round(pred[0, :, 0, 0], 4))
print("node 0 forecast, no zigzag: ", np.round(no_zigzag[0, :, 0, 0], 4))

# Finite differences agree with the analytic gradients on every array.
print("gradient check worst relative error:", f"{grad_check(seed=0):.2e}")

# A few hundred Adam steps drive the single-batch error to zero.
adam = Adam()
for step in range(300):
    out, cache = forward(x, img, params, cfg, want_cache=True)
    loss, dpred = mae_loss_and_grad(out, y)
    adam.step(params, backward(cache, dpred), lr=0.01)
    if step % 100 == 0:
        print(f"  step {step}: mae {loss:.5f}")
print("overfit mae:", f"{mae_loss_and_grad(forward(x, img, params, cfg), y)[0]:.5f}")
