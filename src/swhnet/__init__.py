"""Four-channel spatial-channel attention network for significant wave
height retrieval, with the collocation pipeline and evaluation suite."""

from .autodiff import Tensor, count_params
from .config import ModelConfig, SplitSpec, SynthSpec, TrainConfig
from .model import WaveHeightModel, batch_loss
from .training import AdamW, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ModelConfig",
    "SplitSpec",
    "SynthSpec",
    "Tensor",
    "TrainConfig",
    "WaveHeightModel",
    "batch_loss",
    "count_params",
    "train",
    "__version__",
]
