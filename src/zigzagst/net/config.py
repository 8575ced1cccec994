"""Model configuration, trainable parameter arrays, and checkpoints."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Iterator

import numpy as np

__all__ = [
    "ModelConfig",
    "LayerParams",
    "ModelParams",
    "init_params",
    "traffic_config",
    "token_config",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and hyperparameters of the forecasting network.

    ``hidden`` is the full layer width; the spatial and temporal branches
    each produce half of it and are concatenated.
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
    cnn_filters: int = 8
    cnn_kernel: int = 3
    cnn_stride: int = 2
    pool_size: int = 5
    learning_rate: float = 0.003
    lr_decay: float = 0.3
    plateau_patience: int = 5
    batch_size: int = 64
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        positive = (
            "n_nodes", "in_features", "out_features", "embed_dim", "window",
            "horizon", "hidden", "num_layers", "zpi_resolution", "cnn_filters",
            "cnn_kernel", "cnn_stride", "pool_size", "batch_size", "epochs",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.laplacian_order < 1:
            raise ValueError("laplacian_order must be >= 1")
        if self.hidden % 2 != 0:
            raise ValueError("hidden width must be even (two half-width branches)")
        if self.learning_rate <= 0 or not 0 < self.lr_decay <= 1:
            raise ValueError("learning_rate must be > 0 and lr_decay in (0, 1]")

    @property
    def half_hidden(self) -> int:
        return self.hidden // 2

    def layer_input_width(self, layer: int) -> int:
        return self.in_features if layer == 0 else self.hidden


def traffic_config(n_nodes: int, in_features: int = 3, **overrides) -> ModelConfig:
    """Traffic-style defaults: 12-step window and horizon, 64 hidden units."""
    kw = dict(
        window=12, horizon=12, laplacian_order=2, hidden=64, num_layers=2,
        learning_rate=0.003, lr_decay=0.3, batch_size=64, epochs=300,
    )
    kw.update(overrides)
    return ModelConfig(n_nodes=n_nodes, in_features=in_features, **kw)


def token_config(n_nodes: int = 100, in_features: int = 1, **overrides) -> ModelConfig:
    """Token-network defaults: weekly window and horizon, 16 hidden units."""
    kw = dict(
        window=7, horizon=7, laplacian_order=3, hidden=16, num_layers=2,
        learning_rate=0.001, lr_decay=0.1, batch_size=8, epochs=100,
    )
    kw.update(overrides)
    return ModelConfig(n_nodes=n_nodes, in_features=in_features, **kw)


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
    gru_wz: np.ndarray      # (2*hidden, hidden)
    gru_wr: np.ndarray
    gru_wo: np.ndarray
    gru_bz: np.ndarray      # (hidden,)
    gru_br: np.ndarray
    gru_bo: np.ndarray


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
            for fname in (
                "spatial_w", "temporal_w", "conv1_k", "conv1_b", "conv2_k",
                "conv2_b", "zmap_w", "zmap_b", "gru_wz", "gru_wr", "gru_wo",
                "gru_bz", "gru_br", "gru_bo",
            ):
                yield f"layers.{i}.{fname}", getattr(lp, fname)
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
    ks = config.cnn_kernel
    nf = config.cnn_filters

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
                gru_wz=dense(2 * hidden, hidden),
                gru_wr=dense(2 * hidden, hidden),
                gru_wo=dense(2 * hidden, hidden),
                gru_bz=np.zeros(hidden),
                gru_br=np.zeros(hidden),
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


def save_checkpoint(path, config: ModelConfig, params: ModelParams, scalers) -> None:
    """Versioned npz dump of the configuration, every parameter array and the input scalers.

    ``scalers`` is ``(input_lo, input_hi, image_scale)`` as fitted by training.
    """
    input_lo, input_hi, image_scale = scalers
    arrays = {name.replace(".", "__"): arr for name, arr in params.named_arrays()}
    np.savez(
        path,
        checkpoint_version=np.int64(CHECKPOINT_VERSION),
        config_json=np.bytes_(json.dumps(asdict(config)).encode("ascii")),
        input_lo=np.asarray(input_lo, dtype=np.float64),
        input_hi=np.asarray(input_hi, dtype=np.float64),
        image_scale=np.float64(image_scale),
        **arrays,
    )


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams, tuple[np.ndarray, np.ndarray, float]]:
    """The configuration, parameters and ``(input_lo, input_hi, image_scale)`` of a checkpoint."""
    with np.load(path) as data:
        version = int(data["checkpoint_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = ModelConfig(**json.loads(bytes(data["config_json"]).decode("ascii")))
        rng = np.random.default_rng(0)
        params = init_params(config, rng)
        for name, arr in params.named_arrays():
            stored = data[name.replace(".", "__")]
            if stored.shape != arr.shape:
                raise ValueError(f"checkpoint array {name} has shape {stored.shape}, expected {arr.shape}")
            arr[...] = stored
        scalers = (data["input_lo"], data["input_hi"], float(data["image_scale"]))
    return config, params, scalers
