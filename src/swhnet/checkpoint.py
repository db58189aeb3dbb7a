"""Checkpoint files: all learnable parameters keyed by name, plus the
architecture config, the input-standardization statistics, and selection
metadata.

The format is a `container` file: the config, statistics and metadata sit
in the JSON header and each parameter array follows as a raw float64
`.npy` record, in the model's parameter order. Re-saving an unchanged
model is byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import container
from .config import ModelConfig
from .errors import ConfigError, FormatError, NonFiniteError
from .model import WaveHeightModel

FORMAT_VERSION = 3


def save_checkpoint(path: str, model: WaveHeightModel,
                    state: dict[str, np.ndarray] | None = None,
                    standardization: dict | None = None,
                    meta: dict | None = None) -> None:
    state = state if state is not None else model.bag.state_arrays()
    header = {"config": asdict(model.cfg), "standardization": standardization, "meta": meta}
    container.write(path, "checkpoint", FORMAT_VERSION, header, state)


def load_checkpoint(path: str) -> tuple[WaveHeightModel, dict | None, dict | None]:
    """Rebuild the model from a checkpoint; returns (model, standardization, meta)."""
    header, state = container.read(path, "checkpoint", FORMAT_VERSION)
    try:
        cfg = ModelConfig(**header.get("config", {}))
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"checkpoint {path} config does not fit ModelConfig: {exc}") from exc
    model = WaveHeightModel(cfg)
    try:
        model.bag.load_state_arrays(state)
    except ConfigError as exc:
        raise FormatError(f"checkpoint {path} does not match its declared config: {exc}") from exc
    except NonFiniteError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    return model, header.get("standardization"), header.get("meta")
