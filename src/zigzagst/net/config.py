"""Model configuration, trainable parameter arrays, trained networks, and checkpoints."""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields
from tokenize import TokenError
from typing import Iterator

import numpy as np

from ..dyngraph import check_fields
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

CHECKPOINT_VERSION = 8


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and hyperparameters of the forecasting network.

    ``hidden`` is the full layer width; the spatial and temporal branches
    each produce half of it and are concatenated.  The image encoder's
    shape is fixed by the ``layers.ENCODER_*`` constants.  Every field
    must hold its annotation's kind (``dyngraph.check_fields``): an ``int``
    field an integer, so 4.0 is refused, and a ``float`` field a real
    number that is not a ``bool``, so ``learning_rate=True`` is refused.
    A numpy scalar is stored as its Python value.
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
        check_fields(self)
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
    """All trainable arrays, as views of one float64 vector; shapes are fixed by a ModelConfig.

    ``flat`` holds every parameter, array after array in ``named_arrays()``
    order, and each field is a reshaped view of its slice.  An in-place
    update of a field (``params.out_b += ...``) updates ``flat``, and an
    update of ``flat`` updates every field; binding a field to another
    array would break that link.
    """

    flat: np.ndarray        # (n_params,)
    embedding: np.ndarray   # (n_nodes, embed)
    time_mix: np.ndarray    # (window,)
    layers: list[LayerParams]
    out_w: np.ndarray       # (hidden, horizon*out_features)
    out_b: np.ndarray       # (horizon*out_features,)

    @classmethod
    def over(cls, flat: np.ndarray, shapes: list[tuple[int, ...]]) -> "ModelParams":
        """Parameters viewing consecutive slices of ``flat``, one per shape in ``named_arrays()`` order."""
        n = sum(map(math.prod, shapes))
        if flat.shape != (n,):
            raise ValueError(f"parameter vector has shape {flat.shape}, expected ({n},)")
        views, at = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[at : at + size].reshape(shape))
            at += size
        embedding, time_mix, *stacked, out_w, out_b = views
        per_layer = len(fields(LayerParams))
        layers = [LayerParams(*stacked[i : i + per_layer]) for i in range(0, len(stacked), per_layer)]
        return cls(flat, embedding, time_mix, layers, out_w, out_b)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "embedding", self.embedding
        yield "time_mix", self.time_mix
        for i, lp in enumerate(self.layers):
            for fname, arr in vars(lp).items():
                yield f"layers.{i}.{fname}", arr
        yield "out_w", self.out_w
        yield "out_b", self.out_b

    def zeros_like(self) -> "ModelParams":
        return ModelParams.over(np.zeros_like(self.flat), self._shapes())

    def copy(self) -> "ModelParams":
        return ModelParams.over(self.flat.copy(), self._shapes())

    def _shapes(self) -> list[tuple[int, ...]]:
        return [arr.shape for _, arr in self.named_arrays()]


def _param_shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    """The shape of each parameter array of ``config``, in ``named_arrays()`` order."""
    c, k, half, hidden = (
        config.embed_dim, config.laplacian_order, config.half_hidden, config.hidden,
    )
    ks, nf = ENCODER_KERNEL, ENCODER_FILTERS
    shapes = [(config.n_nodes, c), (config.window,)]
    for layer in range(config.num_layers):
        width = config.layer_input_width(layer)
        shapes += [
            (c, k + 1, width, half), (c, width, half),          # spatial_w, temporal_w
            (nf, 1, ks, ks), (nf,), (nf, nf, ks, ks), (nf,),    # conv1_k, conv1_b, conv2_k, conv2_b
            (nf, half), (half,),                                # zmap_w, zmap_b
            (2 * hidden, 2 * hidden), (2 * hidden, hidden),     # gru_wzr, gru_wo
            (2 * hidden,), (hidden,),                           # gru_bzr, gru_bo
        ]
    out = config.horizon * config.out_features
    return shapes + [(hidden, out), (out,)]


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Random initialization scaled by fan-in; biases start at zero.

    The arrays are drawn in a fixed order, each layer's weights and then
    the embedding and the output weights, into one zeroed parameter
    vector laid out as ``ModelParams`` describes.
    """
    shapes = _param_shapes(config)
    params = ModelParams.over(np.zeros(sum(map(math.prod, shapes))), shapes)

    def dense(arr):  # fan-in: every axis but the last
        arr[...] = rng.normal(0.0, 1.0 / np.sqrt(max(math.prod(arr.shape[:-1]), 1)), arr.shape)

    def conv(arr):  # fan-in: every axis but the output channel
        arr[...] = rng.normal(0.0, 1.0 / np.sqrt(math.prod(arr.shape[1:])), arr.shape)

    hidden = config.hidden
    for lp in params.layers:
        dense(lp.spatial_w)
        dense(lp.temporal_w)
        conv(lp.conv1_k)
        conv(lp.conv2_k)
        dense(lp.zmap_w)
        # gates start neutral: the image code multiplies both branches,
        # so its bias begins at one, not zero
        lp.zmap_b[...] = 1.0
        # W_z, then W_r, as two draws: one (2h, 2h) draw would spread the
        # same numbers row by row over both gates
        dense(lp.gru_wzr[:, :hidden])
        dense(lp.gru_wzr[:, hidden:])
        dense(lp.gru_wo)
    params.embedding[...] = rng.normal(0.0, 0.5, params.embedding.shape)
    params.time_mix[...] = 1.0 / config.window
    dense(params.out_w)
    return params


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
    """Versioned npz of a trained network and ``settings``; the history is not stored.

    ``settings`` is a JSON-able dict of the data-side settings the
    training windows were made with; the config holds Python values
    (``dyngraph.check_fields``).  Version 8 has three members:
    ``checkpoint_version``; ``header_json``, the JSON of ``{"config": ...,
    "settings": ...}``; and ``arrays``, one float64 vector of
    ``params.flat`` followed by ``input_lo``, ``input_hi`` and
    ``image_scale``.
    """
    header = {"config": asdict(result.config), "settings": settings}
    np.savez(
        path,
        checkpoint_version=np.int64(CHECKPOINT_VERSION),
        header_json=np.bytes_(json.dumps(header).encode("ascii")),
        arrays=np.concatenate(
            [result.params.flat, result.input_lo, result.input_hi, [result.image_scale]],
            dtype=np.float64),
    )


def load_checkpoint(path) -> tuple[TrainResult, dict]:
    """The trained network, with an empty history, and the settings ``save_checkpoint`` stored.

    The layout of ``arrays`` follows from the stored config alone; the
    parameters and scalers returned are views of the vector read.  A
    file that is not an npz archive (empty, cut or corrupt), a missing
    member, a wrong version, a header, configuration or settings that is
    not a JSON object, an unreadable or unknown configuration, an
    ``arrays`` of the wrong length, a non-finite value, an
    ``image_scale`` that is not positive or an ``input_hi`` below
    ``input_lo`` raises a ``ValueError`` naming ``path``.
    """
    try:
        with np.load(path) as data:
            version = int(data["checkpoint_version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}; retrain it")
            header = json.loads(bytes(data["header_json"]).decode("ascii"))
            arrays = data["arrays"]
        if not isinstance(header, dict):
            raise ValueError(f"header_json holds {type(header).__name__}, not a JSON object")
        for key in ("config", "settings"):
            if not isinstance(header[key], dict):
                raise ValueError(f"{key} is {type(header[key]).__name__}, not a JSON object")
        result = _unpack(ModelConfig(**header["config"]), arrays)
        settings = header["settings"]
    except (EOFError, KeyError, NotImplementedError, OSError, RuntimeError, TokenError, TypeError,
            ValueError, zipfile.BadZipFile) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            raise  # the file itself could not be opened
        raise ValueError(f"checkpoint {path}: {exc}") from exc
    return result, settings


def _unpack(config: ModelConfig, arrays: np.ndarray) -> TrainResult:
    """The network a checkpoint's ``arrays`` vector holds, as views of it, once its values check."""
    shapes = _param_shapes(config)
    n, f = sum(map(math.prod, shapes)), config.in_features
    if arrays.dtype != np.float64 or arrays.shape != (n + 2 * f + 1,):
        raise ValueError(f"arrays is {arrays.dtype} of shape {arrays.shape}, expected float64 "
                         f"of shape ({n + 2 * f + 1},) for this config")
    lo, hi = arrays[n : n + f], arrays[n + f : n + 2 * f]
    result = TrainResult(ModelParams.over(arrays[:n], shapes), config, [], lo, hi, float(arrays[-1]))
    if not np.isfinite(arrays).all():
        named = [*result.params.named_arrays(), ("input_lo", lo), ("input_hi", hi),
                 ("image_scale", arrays[-1:])]
        raise ValueError(f"{next(name for name, arr in named if not np.isfinite(arr).all())} "
                         "holds a non-finite value")
    if result.image_scale <= 0.0:
        raise ValueError(f"image_scale is {result.image_scale!r}, not positive")
    if (hi < lo).any():
        raise ValueError(f"input_hi is below input_lo for feature {int(np.argmax(hi < lo))}")
    return result
