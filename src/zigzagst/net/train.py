"""Adam training loop with chronological splits and plateau decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import textio
from .config import ModelConfig, ModelParams, TrainResult, init_params
from .model import Ablation, backward, forward, loss_metrics, mae_loss_and_grad

__all__ = [
    "Batch",
    "Dataset",
    "TrainingDiverged",
    "Adam",
    "chronological_split",
    "train",
    "evaluate",
    "predict",
    "write_history_csv",
]


@dataclass(frozen=True)
class Batch:
    """Input windows, their images and their targets, stacked along a leading axis.

    ``len`` counts the windows.  An index array or a slice selects
    windows as a ``Batch``; an integer selects a batch of one.
    """

    inputs: np.ndarray   # (B, window, n_nodes, in_features)
    image: np.ndarray    # (B, p, p)
    targets: np.ndarray  # (B, horizon, n_nodes, out_features)

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index) -> "Batch":
        if isinstance(index, (int, np.integer)):
            index = [index]
        return Batch(self.inputs[index], self.image[index], self.targets[index])


@dataclass(frozen=True)
class Dataset:
    """The chronological parts of a sequence of windows, usually ``Batch``es."""

    train: Batch
    val: Batch
    test: Batch


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam (Kingma & Ba, ICLR 2015) over the whole parameter vector at once.

    The moments ``m`` and ``v`` are vectors shaped as ``params.flat``, and
    each step is one elementwise update of ``params.flat`` from
    ``grads.flat``, so it gives the bits an update array by array would.
    """

    def __init__(self):
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, params: ModelParams, grads: ModelParams, lr: float) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        self.t += 1
        corr1 = 1.0 - BETA1 ** self.t
        corr2 = 1.0 - BETA2 ** self.t
        g, m, v = grads.flat, self.m, self.v
        m += (1.0 - BETA1) * (g - m)
        v += (1.0 - BETA2) * (g * g - v)
        params.flat -= lr * (m / corr1) / (np.sqrt(v / corr2) + EPS)


def chronological_split(windows, fractions: tuple[float, ...] = (0.6, 0.2, 0.2)) -> Dataset:
    """Split windows in time order into (train, val, test), or (train, test) with val empty.

    ``windows`` is any sequence that slices: a ``Batch``, a list or a
    ``range``; each part is a slice of it.  A fraction outside [0, 1]
    (NaN included) would make the parts overlap, so it raises.
    """
    if len(fractions) not in (2, 3) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be 2 or 3 values summing to 1, got {tuple(fractions)}")
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError(f"split fractions must each lie in [0, 1], got {tuple(fractions)}")
    n = len(windows)
    n_train = int(round(n * fractions[0]))
    n_val = int(round(n * fractions[1])) if len(fractions) == 3 else 0
    return Dataset(
        windows[:n_train], windows[n_train : n_train + n_val], windows[n_train + n_val :]
    )


def _scale_inputs(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.clip((x - lo) / span, 0.0, 1.0)


def predict(result: TrainResult, batch: Batch, ablation: Ablation = Ablation.NONE) -> np.ndarray:
    """Forecasts (B, horizon, n_nodes, out_features) for a batch of raw windows.

    The windows go ``batch_size`` at a time through ``forward``, and each
    chunk is scaled with the stored scalers when it is taken, so no
    scaled copy of the whole batch is held.  The encoder's matrix products
    round by the number of images in a call, so forecasts made with
    another ``batch_size`` can differ in the last bits.
    """
    cfg = result.config
    step = cfg.batch_size
    preds = np.empty((len(batch), cfg.horizon, cfg.n_nodes, cfg.out_features))
    for start in range(0, len(batch), step):
        chunk = batch[start : start + step]
        x = _scale_inputs(chunk.inputs, result.input_lo, result.input_hi)
        preds[start : start + step] = forward(
            x, chunk.image / result.image_scale, result.params, cfg, ablation
        )
    return preds


def evaluate(
    result: TrainResult, batch: Batch, ablation: Ablation = Ablation.NONE
) -> tuple[float, float, float]:
    """Pooled MAE/RMSE/MAPE of ``predict`` over a batch of raw windows."""
    return loss_metrics(predict(result, batch, ablation), batch.targets)


def _step(result: TrainResult, chunk: Batch, ablation, adam: Adam, lr: float) -> float:
    """One Adam step on a minibatch of raw windows; returns its MAE.

    A function of its own so that the minibatch's cache is freed before
    the next forward call.
    """
    x = _scale_inputs(chunk.inputs, result.input_lo, result.input_hi)
    pred, cache = forward(x, chunk.image / result.image_scale, result.params, result.config,
                          ablation, want_cache=True)
    loss, dpred = mae_loss_and_grad(pred, chunk.targets)
    if np.isfinite(loss):
        adam.step(result.params, backward(cache, dpred), lr)
    return loss


def train(dataset: Dataset, config: ModelConfig, ablation: Ablation = Ablation.NONE) -> TrainResult:
    """Adam training; input min-max scaling is fit on the training split only.

    The learning rate is multiplied by the configured decay whenever the
    monitored MAE (validation when a val split exists, else training)
    fails to improve for ``plateau_patience`` epochs.  Each minibatch is
    one forward and one backward call on the windows it indexes, scaled
    when they are taken.  Deterministic under the config seed.
    """
    if not dataset.train:
        raise ValueError("training split is empty")
    inputs = dataset.train.inputs
    lo, hi = inputs.min(axis=(0, 1, 2)), inputs.max(axis=(0, 1, 2))
    image_scale = max(float(dataset.train.image.max()), 1e-12)

    rng = np.random.default_rng(config.seed)
    history: list[tuple[int, str, float, float, float]] = []
    # the result's params are trained in place
    result = TrainResult(init_params(config, rng), config, history, lo, hi, image_scale)
    adam = Adam()
    lr = config.learning_rate
    best = np.inf
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset.train))
        try:
            for start in range(0, len(order), config.batch_size):
                chunk = dataset.train[order[start : start + config.batch_size]]
                if not np.isfinite(_step(result, chunk, ablation, adam, lr)):
                    raise TrainingDiverged(epoch)
            tr = evaluate(result, dataset.train, ablation)
        except FloatingPointError as exc:
            raise TrainingDiverged(epoch) from exc
        history.append((epoch, "train", *tr))
        if not np.isfinite(tr[0]):
            raise TrainingDiverged(epoch)
        monitored = tr[0]
        if dataset.val:
            va = evaluate(result, dataset.val, ablation)
            history.append((epoch, "val", *va))
            monitored = va[0]
        if monitored < best - 1e-12:
            best = monitored
            stale = 0
        else:
            stale += 1
            if stale >= config.plateau_patience:
                lr *= config.lr_decay
                stale = 0
    if dataset.test:
        te = evaluate(result, dataset.test, ablation)
        history.append((config.epochs - 1, "test", *te))
    return result


def write_history_csv(history, path) -> None:
    textio.write(path, "epoch,split,mae,rmse,mape\n" + "".join(
        f"{epoch},{split},{mae:.17g},{rmse:.17g},{mape:.17g}\n"
        for epoch, split, mae, rmse, mape in history))
