"""Adam training loop with chronological splits and plateau decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, ModelParams, init_params
from .model import Ablation, backward, forward, loss_metrics, mae_loss_and_grad

__all__ = [
    "Batch",
    "Dataset",
    "TrainResult",
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
    """Input windows, their images, and the targets.

    One sample, or several stacked along a leading batch axis.
    """

    inputs: np.ndarray   # ([B,] window, n_nodes, in_features)
    image: np.ndarray    # ([B,] p, p)
    targets: np.ndarray  # ([B,] horizon, n_nodes, out_features)

    @classmethod
    def stack(cls, batches) -> "Batch":
        """One batch holding single samples along a new leading axis."""
        return cls(
            np.stack([b.inputs for b in batches]),
            np.stack([b.image for b in batches]),
            np.stack([b.targets for b in batches]),
        )


@dataclass(frozen=True)
class Dataset:
    train: tuple[Batch, ...]
    val: tuple[Batch, ...]
    test: tuple[Batch, ...]


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainResult:
    params: ModelParams
    config: ModelConfig
    history: list[tuple[int, str, float, float, float]]  # (epoch, split, mae, rmse, mape)
    input_lo: np.ndarray
    input_hi: np.ndarray
    image_scale: float


class Adam:
    """Standard Adam over the named parameter arrays."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: ModelParams, grads: ModelParams, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        grad_map = dict(grads.named_arrays())
        for name, arr in params.named_arrays():
            g = grad_map[name]
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            arr -= lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


def chronological_split(batches: list[Batch], fractions: tuple[float, ...] = (0.6, 0.2, 0.2)) -> Dataset:
    """Split windows in time order; (train, val, test) or (train, test)."""
    if len(fractions) not in (2, 3) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be 2 or 3 values summing to 1")
    n = len(batches)
    n_train = int(round(n * fractions[0]))
    if len(fractions) == 3:
        n_val = int(round(n * fractions[1]))
        return Dataset(
            tuple(batches[:n_train]),
            tuple(batches[n_train : n_train + n_val]),
            tuple(batches[n_train + n_val :]),
        )
    return Dataset(tuple(batches[:n_train]), (), tuple(batches[n_train:]))


def _fit_input_range(batches: tuple[Batch, ...]) -> tuple[np.ndarray, np.ndarray]:
    stack = np.concatenate([b.inputs.reshape(-1, b.inputs.shape[-1]) for b in batches])
    return stack.min(axis=0), stack.max(axis=0)


def _scale_inputs(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.clip((x - lo) / span, 0.0, 1.0)


def predict(result: TrainResult, batch: Batch, ablation: Ablation = Ablation()) -> np.ndarray:
    """Forecast for raw (unnormalized) windows using stored scalers.

    ``batch`` holds one window or a stack of them along a leading axis;
    a stack is predicted ``batch_size`` windows per forward call.
    """
    if batch.inputs.ndim == 3:
        return predict(result, Batch.stack([batch]), ablation)[0]
    x = _scale_inputs(batch.inputs, result.input_lo, result.input_hi)
    image = batch.image / result.image_scale
    step = result.config.batch_size
    return np.concatenate([
        forward(x[start : start + step], image[start : start + step],
                result.params, result.config, ablation)
        for start in range(0, len(x), step)
    ])


def evaluate(
    result: TrainResult, batches: list[Batch], ablation: Ablation = Ablation()
) -> tuple[float, float, float]:
    """Pooled MAE/RMSE/MAPE of ``predict`` over a list of raw samples.

    The samples are stacked ``batch_size`` at a time, so no scaled copy
    of the whole list is ever held.
    """
    step = result.config.batch_size
    preds = [
        predict(result, Batch.stack(batches[start : start + step]), ablation)
        for start in range(0, len(batches), step)
    ]
    return loss_metrics(np.concatenate(preds), np.stack([b.targets for b in batches]))


def _step(result: TrainResult, chunk: Batch, ablation, adam: Adam, lr: float) -> float:
    """One Adam step on a raw stacked minibatch; returns its MAE.

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


def train(dataset: Dataset, config: ModelConfig, ablation: Ablation = Ablation()) -> TrainResult:
    """Adam training; input min-max scaling is fit on the training split only.

    The learning rate is multiplied by the configured decay whenever the
    monitored MAE (validation when a val split exists, else training)
    fails to improve for ``plateau_patience`` epochs.  Each minibatch is
    one stacked forward and one backward call, and is scaled when it is
    stacked.  Deterministic under the config seed.
    """
    if not dataset.train:
        raise ValueError("training split is empty")
    lo, hi = _fit_input_range(dataset.train)
    image_scale = max(float(np.max([b.image.max() for b in dataset.train])), 1e-12)

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
                chunk = Batch.stack([dataset.train[i] for i in order[start : start + config.batch_size]])
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,split,mae,rmse,mape\n")
        for epoch, split, mae, rmse, mape in history:
            fh.write(f"{epoch},{split},{mae:.17g},{rmse:.17g},{mape:.17g}\n")
