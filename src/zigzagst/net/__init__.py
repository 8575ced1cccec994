"""Reference forecasting network: topology-gated graph convolutions over a GRU."""

from .config import (
    LayerParams,
    ModelConfig,
    ModelParams,
    TrainResult,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .layers import (
    adaptive_laplacian,
    gru_cell,
    laplacian_powers,
    temporal_conv,
    zpi_encoder,
)
from .model import (
    Ablation,
    backward,
    forward,
    grad_check,
    loss_metrics,
    mae_loss_and_grad,
    tiny_config,
)
from .train import (
    Adam,
    Batch,
    Dataset,
    TrainingDiverged,
    chronological_split,
    evaluate,
    predict,
    train,
    write_history_csv,
)

__all__ = [
    "Ablation", "Adam", "Batch", "Dataset", "LayerParams", "ModelConfig",
    "ModelParams", "TrainResult", "TrainingDiverged", "adaptive_laplacian",
    "backward", "chronological_split", "evaluate", "forward", "grad_check",
    "gru_cell", "init_params", "laplacian_powers", "load_checkpoint",
    "loss_metrics", "mae_loss_and_grad", "predict", "save_checkpoint",
    "temporal_conv", "tiny_config", "train",
    "write_history_csv", "zpi_encoder",
]
