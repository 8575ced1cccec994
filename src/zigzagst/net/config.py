"""Model configuration, trainable parameter arrays, trained networks, and checkpoints."""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, asdict
from tokenize import TokenError
from typing import Iterator

import numpy as np

from .layers import ENCODER_FILTERS, ENCODER_KERNEL, zpi_encoder_output_size

__all__ = [
    "ModelConfig",
    "LayerParams",
    "ModelParams",
    "TrainResult",
    "init_params",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 7


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and hyperparameters of the forecasting network.

    ``hidden`` is the full layer width; the spatial and temporal branches
    each produce half of it and are concatenated.  The image encoder's
    shape is fixed by the ``layers.ENCODER_*`` constants.
    """

    n_nodes: int
    in_features: int
    out_features: int = 1
    embed_dim: int = 2
    laplacian_order: int = 2
    window: int = 12
    horizon: int = 12
    hidden: int = 64
    num_layers: int = 2
    zpi_resolution: int = 100
    learning_rate: float = 0.003
    lr_decay: float = 0.3
    plateau_patience: int = 5
    batch_size: int = 64
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        positive = (
            "n_nodes", "in_features", "out_features", "embed_dim", "window",
            "horizon", "hidden", "num_layers", "zpi_resolution", "batch_size", "epochs",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.laplacian_order < 1:
            raise ValueError("laplacian_order must be >= 1")
        if self.hidden % 2 != 0:
            raise ValueError("hidden width must be even (two half-width branches)")
        if not 0 < self.learning_rate < math.inf or not 0 < self.lr_decay <= 1:
            raise ValueError("learning_rate must be finite and > 0, and lr_decay in (0, 1]")
        # the image encoder's two convolutions must fit in the image
        zpi_encoder_output_size(self.zpi_resolution, ENCODER_KERNEL)

    @property
    def half_hidden(self) -> int:
        return self.hidden // 2

    def layer_input_width(self, layer: int) -> int:
        return self.in_features if layer == 0 else self.hidden


@dataclass
class LayerParams:
    """Per-layer weights: graph convolutions, image encoder, and GRU."""

    spatial_w: np.ndarray   # (embed, order+1, in_width, half)
    temporal_w: np.ndarray  # (embed, in_width, half)
    conv1_k: np.ndarray     # (filters, 1, k, k)
    conv1_b: np.ndarray     # (filters,)
    conv2_k: np.ndarray     # (filters, filters, k, k)
    conv2_b: np.ndarray     # (filters,)
    zmap_w: np.ndarray      # (filters, half)
    zmap_b: np.ndarray      # (half,)
    gru_wzr: np.ndarray     # (2*hidden, 2*hidden), [W_z | W_r]
    gru_wo: np.ndarray      # (2*hidden, hidden)
    gru_bzr: np.ndarray     # (2*hidden,), [b_z | b_r]
    gru_bo: np.ndarray      # (hidden,)


@dataclass
class ModelParams:
    """All trainable arrays; shapes are fixed by a ModelConfig."""

    embedding: np.ndarray   # (n_nodes, embed)
    time_mix: np.ndarray    # (window,)
    layers: list[LayerParams]
    out_w: np.ndarray       # (hidden, horizon*out_features)
    out_b: np.ndarray       # (horizon*out_features,)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "embedding", self.embedding
        yield "time_mix", self.time_mix
        for i, lp in enumerate(self.layers):
            for fname, arr in vars(lp).items():
                yield f"layers.{i}.{fname}", arr
        yield "out_w", self.out_w
        yield "out_b", self.out_b

    def get(self, name: str) -> np.ndarray:
        obj = self
        for part in name.split("."):
            obj = obj[int(part)] if isinstance(obj, list) else getattr(obj, part)
        return obj

    def zeros_like(self) -> "ModelParams":
        return self._map(np.zeros_like)

    def copy(self) -> "ModelParams":
        return self._map(np.copy)

    def _map(self, fn) -> "ModelParams":
        layers = [
            LayerParams(**{k: fn(v) for k, v in vars(lp).items()}) for lp in self.layers
        ]
        return ModelParams(
            embedding=fn(self.embedding),
            time_mix=fn(self.time_mix),
            layers=layers,
            out_w=fn(self.out_w),
            out_b=fn(self.out_b),
        )


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Random initialization scaled by fan-in; biases start at zero."""
    c, k, half, hidden = (
        config.embed_dim, config.laplacian_order, config.half_hidden, config.hidden,
    )
    ks, nf = ENCODER_KERNEL, ENCODER_FILTERS

    def dense(*shape):
        fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0]
        return rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), shape)

    def conv(out_ch, in_ch):
        return rng.normal(0.0, 1.0 / np.sqrt(in_ch * ks * ks), (out_ch, in_ch, ks, ks))

    layers = []
    for layer in range(config.num_layers):
        width = config.layer_input_width(layer)
        layers.append(
            LayerParams(
                spatial_w=dense(c, k + 1, width, half),
                temporal_w=dense(c, width, half),
                conv1_k=conv(nf, 1),
                conv1_b=np.zeros(nf),
                conv2_k=conv(nf, nf),
                conv2_b=np.zeros(nf),
                zmap_w=dense(nf, half),
                # gates start neutral: the image code multiplies both
                # branches, so its bias begins at one, not zero
                zmap_b=np.ones(half),
                # W_z, then W_r, as two draws: one (2h, 2h) draw would spread
                # the same numbers row by row over both gates
                gru_wzr=np.concatenate([dense(2 * hidden, hidden), dense(2 * hidden, hidden)], axis=1),
                gru_wo=dense(2 * hidden, hidden),
                gru_bzr=np.zeros(2 * hidden),
                gru_bo=np.zeros(hidden),
            )
        )
    return ModelParams(
        embedding=rng.normal(0.0, 0.5, (config.n_nodes, c)),
        time_mix=np.full(config.window, 1.0 / config.window),
        layers=layers,
        out_w=dense(hidden, config.horizon * config.out_features),
        out_b=np.zeros(config.horizon * config.out_features),
    )


@dataclass
class TrainResult:
    """A trained network: its shape, its parameters, the metric history and the input scalers.

    Training fits the scalers on its training split: per input feature
    ``input_lo`` and ``input_hi``, and ``image_scale`` for the images.
    """

    params: ModelParams
    config: ModelConfig
    history: list[tuple[int, str, float, float, float]]  # (epoch, split, mae, rmse, mape)
    input_lo: np.ndarray
    input_hi: np.ndarray
    image_scale: float


def save_checkpoint(path, result: TrainResult, settings: dict) -> None:
    """Versioned npz dump of a trained network and ``settings``; the history is not stored.

    ``settings`` is a JSON-able dict of the data-side settings the
    training windows were made with.
    """
    arrays = {name.replace(".", "__"): arr for name, arr in result.params.named_arrays()}
    np.savez(
        path,
        checkpoint_version=np.int64(CHECKPOINT_VERSION),
        config_json=np.bytes_(json.dumps(asdict(result.config)).encode("ascii")),
        settings_json=np.bytes_(json.dumps(settings).encode("ascii")),
        input_lo=np.asarray(result.input_lo, dtype=np.float64),
        input_hi=np.asarray(result.input_hi, dtype=np.float64),
        image_scale=np.float64(result.image_scale),
        **arrays,
    )


def load_checkpoint(path) -> tuple[TrainResult, dict]:
    """The trained network, with an empty history, and the settings ``save_checkpoint`` stored.

    A file that is not an npz archive (empty, cut or corrupt), a missing
    entry, a wrong shape or version, or an unreadable or unknown
    configuration raises a ``ValueError`` naming ``path``.
    """
    try:
        with np.load(path) as data:
            version = int(data["checkpoint_version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}; retrain it")
            config = ModelConfig(**json.loads(bytes(data["config_json"]).decode("ascii")))
            params = init_params(config, np.random.default_rng(0))
            for name, arr in params.named_arrays():
                stored = data[name.replace(".", "__")]
                if stored.shape != arr.shape:
                    raise ValueError(f"checkpoint array {name} has shape {stored.shape}, expected {arr.shape}")
                arr[...] = stored
            result = TrainResult(params, config, [], data["input_lo"], data["input_hi"],
                                 float(data["image_scale"]))
            settings = json.loads(bytes(data["settings_json"]).decode("ascii"))
    except (EOFError, KeyError, NotImplementedError, OSError, RuntimeError, TokenError, TypeError,
            ValueError, zipfile.BadZipFile) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            raise  # the file itself could not be opened
        raise ValueError(f"checkpoint {path}: {exc}") from exc
    return result, settings
