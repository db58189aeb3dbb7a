"""Checkpoint files: all learnable parameters keyed by name, plus the
architecture config, the input-standardization statistics, and selection
metadata.

The format is a `container` file: the config, statistics and metadata sit
in the JSON header, with each parameter's dtype (float64) and shape, and
each parameter's raw bytes follow in the model's parameter order.
Re-saving an unchanged model is byte-identical. A save without a given
state writes the parameters' own views, and a load reads each array
straight into the new model's parameter buffer, so neither holds a second
copy of the parameters. As in every container file, a parameter holding
NaN or inf is refused by a save and rejected by a load.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import container
from .config import ModelConfig
from .errors import ConfigError, FormatError
from .model import WaveHeightModel

FORMAT_VERSION = 4


def save_checkpoint(path: str, model: WaveHeightModel,
                    state: dict[str, np.ndarray] | None = None,
                    standardization: dict | None = None,
                    meta: dict | None = None) -> None:
    """Write `state`, or else the model's own parameters, with the model's
    config. Raises ContractError, and writes nothing, if a parameter holds
    NaN or inf."""
    state = state if state is not None else {name: p.data for name, p in model.bag.items()}
    header = {"config": asdict(model.cfg), "standardization": standardization, "meta": meta}
    container.write(path, "checkpoint", FORMAT_VERSION, header, state)


def load_checkpoint(path: str) -> tuple[WaveHeightModel, dict | None, dict | None]:
    """Rebuild the model from a checkpoint; returns (model, standardization, meta).

    Once the container header is checked, the model is built from its
    config object, and each parameter is read straight into its view of
    the model's parameter buffer."""
    built = []

    def build(header: dict) -> dict[str, np.ndarray]:
        config = header.get("config")
        if not isinstance(config, dict):
            raise FormatError(f"checkpoint {path} header has no config object")
        try:
            cfg = ModelConfig(**config)
        except (TypeError, ConfigError) as exc:
            raise FormatError(f"checkpoint {path} config does not fit ModelConfig: {exc}") from exc
        built.append(WaveHeightModel(cfg))
        try:
            built[0].bag.check_shapes({name: spec["shape"] for name, spec in header["arrays"].items()})
        except ConfigError as exc:
            raise FormatError(f"checkpoint {path} does not match its declared config: {exc}") from exc
        return {name: p.data for name, p in built[0].bag.items()}

    header, _ = container.read(path, "checkpoint", FORMAT_VERSION, into=build)
    return built[0], header.get("standardization"), header.get("meta")
