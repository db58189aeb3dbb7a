"""Configuration objects, the flat config-file schema, and config hashing.

The CLI consumes a flat JSON key/value file; every key has a default
below. Unknown keys are rejected with an error naming the key. CLI flags
override file values. The config hash (short sha256 of the resolved
config) is embedded in every produced artifact for traceability.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from .errors import ConfigError

STRATEGIES = ("CI", "CD")

# Fixed AP column order; a stable contract between the data pipeline and
# the network input. The wind column is appended when enabled.
AP_COLUMNS = (
    "ddm_nbrcs",
    "ddm_les",
    "ddm_snr",
    "gps_eirp",
    "sp_rx_gain",
    "sp_inc_angle",
    "sp_lat",
    "sp_lon",
    "rcg",
)
WIND_COLUMN = "wind_speed"

DDM_TYPES = ("brcs", "eff_scatter", "power_analog")

SWH_CAP_M = 8.0


@dataclass
class ModelConfig:
    """Architecture hyperparameters of the four-channel network.

    The four receiver channels are the four attention heads (d_k = 1), so
    the token width and the head count are 4 by design, not settings.
    """

    width: int = 11           # Doppler bins per DDM
    height: int = 17          # delay bins per DDM
    patch_size: int = 3
    embed_dim: int = 8
    n_layers: int = 6
    d_ff: int = 2048
    dropout_p: float = 0.1
    strategy: str = "CD"
    use_wind: bool = False
    standard_residual: bool = False
    head_input: str = "full"          # "full" | "global_only"
    head_hidden: list[int] | None = None  # None -> geometric taper to 32
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.patch_size < 1:
            raise ConfigError("patch_size must be >= 1")
        if self.embed_dim < 1 or self.d_ff < 1 or self.n_layers < 1:
            raise ConfigError("embed_dim, d_ff and n_layers must be >= 1")
        if self.strategy == "CI" and self.d_ff % 4 != 0:
            raise ConfigError("CI strategy requires d_ff divisible by 4")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")
        if self.head_input not in ("full", "global_only"):
            raise ConfigError(f"head_input must be 'full' or 'global_only', got {self.head_input!r}")
        if self.width < 1 or self.height < 1:
            raise ConfigError("DDM width/height must be >= 1")
        if self.head_hidden is not None and (len(self.head_hidden) != 9 or any(w < 1 for w in self.head_hidden)):
            raise ConfigError("head_hidden must be 9 positive widths")

    @property
    def k_ap(self) -> int:
        return len(AP_COLUMNS) + (1 if self.use_wind else 0)

    @property
    def n_patches(self) -> int:
        return -(-self.width // self.patch_size) * (-(-self.height // self.patch_size))

    @property
    def seq_len(self) -> int:
        """Token count per channel: 3 DDM types x N patches plus the global token."""
        return 3 * self.n_patches + 1

    @property
    def flat_len(self) -> int:
        """Per-channel flattened embedding length M."""
        return self.seq_len * self.embed_dim


@dataclass
class TrainConfig:
    """Optimization hyperparameters (decoupled-weight-decay Adam)."""

    batch_size: int = 512
    max_epochs: int = 75
    patience: int = 15
    lr: float = 1.4e-4
    weight_decay: float = 1e-5
    delta: float = 2.0
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not 0 < self.patience <= self.max_epochs:
            raise ConfigError("patience must satisfy 0 < patience <= max_epochs")
        if self.lr <= 0 or self.delta <= 0:
            raise ConfigError("lr and delta must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass
class SynthSpec:
    """Synthetic dataset generator knobs (desk-scale verification data)."""

    n_samples: int = 256
    width: int = 11
    height: int = 17
    seed: int = 0
    noise_sd: float = 0.05
    swh_lo: float = 0.2
    swh_hi: float = 8.0
    channel_corr: float = 0.9
    planted_signal: bool = True
    include_wind: bool = False
    time_start: str = "2019-08-01"
    time_end: str = "2022-08-01"

    def __post_init__(self):
        if self.n_samples < 0:
            raise ConfigError("n_samples must be >= 0")
        if not 0.0 <= self.channel_corr <= 1.0:
            raise ConfigError("channel_corr must lie in [0, 1]")
        if self.swh_lo < 0 or self.swh_hi > SWH_CAP_M or self.swh_lo >= self.swh_hi:
            raise ConfigError(f"swh range must satisfy 0 <= lo < hi <= {SWH_CAP_M}")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")


@dataclass
class SplitSpec:
    """Half-open [start, next_start) temporal split boundaries (UTC dates).

    Subsample counts of None keep the whole split; the year-scale source
    campaign drew 3M/0.5M/3M samples, recorded here as documentation.
    """

    train_start: str = "2019-08-01"
    val_start: str = "2020-08-01"
    test_start: str = "2021-08-01"
    test_end: str = "2022-08-01"
    train_subsample: int | None = None
    val_subsample: int | None = None
    test_subsample: int | None = None
    seed: int = 0

    def __post_init__(self):
        for key in ("train_subsample", "val_subsample", "test_subsample"):
            n = getattr(self, key)
            if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
                raise ConfigError(f"{key} must be null or a non-negative integer, got {n!r}")


# ---------------------------------------------------------------------------
# Flat config-file schema
# ---------------------------------------------------------------------------

DEFAULT_CONFIG: dict = {
    # model
    "strategy": "CD",
    "use_wind": False,
    "seed": 0,
    "width": 11,
    "height": 17,
    "patch_size": 3,
    "embed_dim": 8,
    "n_layers": 6,
    "d_ff": 2048,
    "dropout_p": 0.1,
    "standard_residual": False,
    "head_input": "full",
    "head_hidden": None,
    # training
    "batch_size": 512,
    "max_epochs": 75,
    "patience": 15,
    "lr": 1.4e-4,
    "weight_decay": 1e-5,
    "delta": 2.0,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    # temporal split
    "split_train_start": "2019-08-01",
    "split_val_start": "2020-08-01",
    "split_test_start": "2021-08-01",
    "split_test_end": "2022-08-01",
    "train_subsample": None,
    "val_subsample": None,
    "test_subsample": None,
    # synthetic data
    "synth_n_samples": 256,
    "synth_noise_sd": 0.05,
    "synth_swh_lo": 0.2,
    "synth_swh_hi": 8.0,
    "synth_channel_corr": 0.9,
    "synth_planted_signal": True,
    "synth_include_wind": False,
    "synth_time_start": "2019-08-01",
    "synth_time_end": "2022-08-01",
    # reporting
    "report_bin_edges": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    "scatter_bin_width": 0.1,
    "bias_cell_deg": 1.0,
}


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Resolve a config: defaults <- file <- overrides. Unknown keys error."""
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _apply(cfg, loaded, source=path)
    if overrides:
        _apply(cfg, overrides, source="command line")
    return cfg


# The kind a value takes where the default is None, and the kind of a list's items.
_OPTIONAL_KINDS = {"head_hidden": list, "train_subsample": int, "val_subsample": int,
                   "test_subsample": int}
_LIST_ITEM_KINDS = {"head_hidden": int, "report_bin_edges": float}
_KIND_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               bool: ("true or false", ""), str: ("a string", ""), list: ("a list", "")}


def _is_kind(value, kind: type) -> bool:
    """True when `value` can stand where a default of type `kind` does: an int
    or float for a float, and a bool only for a bool."""
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_kind(key: str, value, source: str) -> None:
    """Raise ConfigError naming `key` when `value` is not of its default's kind."""
    default = DEFAULT_CONFIG[key]
    if default is None and value is None:
        return
    kind = _OPTIONAL_KINDS[key] if default is None else type(default)
    want = _KIND_NAMES[kind][0]
    ok = _is_kind(value, kind)
    if kind is list:
        item = _LIST_ITEM_KINDS[key]
        want += " of " + _KIND_NAMES[item][1]
        ok = ok and all(_is_kind(v, item) for v in value)
    if not ok:
        null = "null or " if default is None else ""
        raise ConfigError(f"config key {key!r} (from {source}) must be {null}{want}, got {value!r}")


def _apply(cfg: dict, updates: dict, source: str) -> None:
    for key, value in updates.items():
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r} (from {source})")
        _check_kind(key, value, source)
        cfg[key] = value


def config_hash(cfg: dict) -> str:
    """Short stable hash of a resolved config for artifact traceability."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def model_config(cfg: dict) -> ModelConfig:
    names = {f.name for f in fields(ModelConfig)}
    kwargs = {k: v for k, v in cfg.items() if k in names}
    return ModelConfig(**kwargs)


def train_config(cfg: dict) -> TrainConfig:
    names = {f.name for f in fields(TrainConfig)}
    kwargs = {k: v for k, v in cfg.items() if k in names}
    return TrainConfig(**kwargs)


def synth_spec(cfg: dict) -> SynthSpec:
    return SynthSpec(
        n_samples=cfg["synth_n_samples"],
        width=cfg["width"],
        height=cfg["height"],
        seed=cfg["seed"],
        noise_sd=cfg["synth_noise_sd"],
        swh_lo=cfg["synth_swh_lo"],
        swh_hi=cfg["synth_swh_hi"],
        channel_corr=cfg["synth_channel_corr"],
        planted_signal=cfg["synth_planted_signal"],
        include_wind=cfg["synth_include_wind"],
        time_start=cfg["synth_time_start"],
        time_end=cfg["synth_time_end"],
    )


def split_spec(cfg: dict) -> SplitSpec:
    return SplitSpec(
        train_start=cfg["split_train_start"],
        val_start=cfg["split_val_start"],
        test_start=cfg["split_test_start"],
        test_end=cfg["split_test_end"],
        train_subsample=cfg["train_subsample"],
        val_subsample=cfg["val_subsample"],
        test_subsample=cfg["test_subsample"],
        seed=cfg["seed"],
    )
