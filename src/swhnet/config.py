"""Configuration objects, the flat config-file schema, and config hashing.

The five dataclasses below are the schema. The CLI consumes a flat JSON
key/value file whose keys are their field names, prefixed `split_` for
SplitSpec and `synth_` for SynthSpec; `seed`, `width`, `height` and the
three `*_subsample` counts stay bare. A field's default is its key's
default and its annotation the kind of value the key takes. Unknown keys,
values of the wrong kind, values out of range and dates that do not parse
or are out of order raise a ConfigError naming the key. CLI flags
override file values. The config hash (short sha256 of the resolved
config) is embedded in every produced artifact for traceability.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone

from . import metrics
from .errors import ConfigError, FormatError

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


def parse_time(text: str) -> float:
    """ISO date or datetime to UTC epoch seconds; naive times are UTC."""
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise FormatError(f"cannot parse time {text!r}: {exc}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


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
        _check_kinds(self)
        _need(self, "strategy", self.strategy in STRATEGIES, f"be one of {STRATEGIES}")
        for name in ("width", "height", "patch_size", "embed_dim", "n_layers", "d_ff"):
            _need(self, name, getattr(self, name) >= 1, "be >= 1")
        _need(self, "d_ff", self.strategy != "CI" or self.d_ff % 4 == 0, "be divisible by 4 under CI")
        _need(self, "dropout_p", 0.0 <= self.dropout_p < 1.0, "lie in [0, 1)")
        _need(self, "head_input", self.head_input in ("full", "global_only"), "be 'full' or 'global_only'")
        _need(self, "head_hidden", self.head_hidden is None
              or (len(self.head_hidden) == 9 and min(self.head_hidden) >= 1), "be null or 9 widths >= 1")

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
        _check_kinds(self)
        for name in ("batch_size", "max_epochs"):
            _need(self, name, getattr(self, name) >= 1, "be >= 1")
        _need(self, "patience", 0 < self.patience <= self.max_epochs, "satisfy 0 < patience <= max_epochs")
        for name in ("lr", "delta", "adam_eps"):
            _need(self, name, getattr(self, name) > 0, "be positive")
        _need(self, "weight_decay", self.weight_decay >= 0, "be >= 0")
        # A beta of 1 zeroes Adam's bias correction 1 - beta**t.
        for name in ("adam_beta1", "adam_beta2"):
            _need(self, name, 0 <= getattr(self, name) < 1, "lie in [0, 1)")


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
        _check_kinds(self)
        for name in ("n_samples", "noise_sd"):
            _need(self, name, getattr(self, name) >= 0, "be >= 0")
        _need(self, "channel_corr", 0.0 <= self.channel_corr <= 1.0, "lie in [0, 1]")
        _need(self, "swh_lo", 0 <= self.swh_lo < self.swh_hi, "satisfy 0 <= synth_swh_lo < synth_swh_hi")
        _need(self, "swh_hi", self.swh_hi <= SWH_CAP_M, f"be <= {SWH_CAP_M}")
        _need_time_order(self, ("time_start", "time_end"), strict=False)


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
        _check_kinds(self)
        for name in ("train_subsample", "val_subsample", "test_subsample"):
            n = getattr(self, name)
            _need(self, name, n is None or n >= 0, "be null or >= 0")
        _need_time_order(self, ("train_start", "val_start", "test_start", "test_end"), strict=True)


@dataclass
class ReportSpec:
    """Granularity of the reports: reference-SWH bin edges for the binned
    metrics, the density scatter's bin width over 0-8 m (at least one bin)
    and the bias map's cell size in degrees."""

    report_bin_edges: list[float] = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    scatter_bin_width: float = 0.1
    bias_cell_deg: float = 1.0

    def __post_init__(self):
        _check_kinds(self)
        _need(self, "report_bin_edges", metrics.increasing(self.report_bin_edges),
              "hold at least 2 strictly increasing edges")
        _need(self, "scatter_bin_width", 0.0 < self.scatter_bin_width <= 8.0, "lie in (0, 8.0]")
        _need(self, "bias_cell_deg", self.bias_cell_deg > 0.0, "be > 0")


# ---------------------------------------------------------------------------
# Flat config-file schema
# ---------------------------------------------------------------------------

# The key prefix of each dataclass's fields; the _BARE fields take none.
_SECTIONS = {ModelConfig: "", TrainConfig: "", SplitSpec: "split_", SynthSpec: "synth_", ReportSpec: ""}
_BARE = frozenset({"seed", "width", "height", "train_subsample", "val_subsample", "test_subsample"})


def _key(cls: type, name: str) -> str:
    """The config-file key of field `name` of `cls`."""
    return name if name in _BARE else _SECTIONS[cls] + name


# Key -> evaluated field annotation: the kind of value the key takes.
_KINDS = {_key(cls, name): hint for cls in _SECTIONS for name, hint in typing.get_type_hints(cls).items()}
DEFAULT_CONFIG: dict = {_key(cls, f.name): f.default_factory() if f.default is MISSING else f.default
                        for cls in _SECTIONS for f in fields(cls)}

_KIND_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               bool: ("true or false", ""), str: ("a string", ""), list: ("a list", "")}


def _is_kind(value, kind: type) -> bool:
    """True when `value` can stand where `kind` is annotated: an int or float
    for a float, and a bool only for a bool."""
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_kind(label: str, value, hint) -> None:
    """Raise ConfigError naming `label` unless `value` is of the kind `hint`
    states: bool, int, float, str or list[item] of one of them, each
    optionally `| None`."""
    null = typing.get_origin(hint) is types.UnionType
    if null:
        if value is None:
            return
        hint = typing.get_args(hint)[0]
    kind, item = typing.get_origin(hint) or hint, (typing.get_args(hint) or (None,))[0]
    if not (_is_kind(value, kind) and (item is None or all(_is_kind(v, item) for v in value))):
        want = _KIND_NAMES[kind][0] + (f" of {_KIND_NAMES[item][1]}" if item else "")
        raise ConfigError(f"{label} must be {'null or ' if null else ''}{want}, got {value!r}")


def _check_kinds(spec) -> None:
    """Check every field of a config dataclass against its annotation."""
    for f in fields(spec):
        key = _key(type(spec), f.name)
        _check_kind(f"config key {key!r}", getattr(spec, f.name), _KINDS[key])


def _need(spec, name: str, ok: bool, rule: str) -> None:
    """Raise ConfigError naming the key of field `name` unless `ok`."""
    if not ok:
        raise ConfigError(f"config key {_key(type(spec), name)!r} must {rule}, "
                          f"got {getattr(spec, name)!r}")


def _need_time_order(spec, names: tuple[str, ...], strict: bool) -> None:
    """Raise ConfigError naming the key of a date field in `names` that does
    not parse, or that comes before the field preceding it (or at the same
    time, when `strict`)."""
    times = []
    for name in names:
        try:
            times.append(parse_time(getattr(spec, name)))
        except FormatError:
            _need(spec, name, False, "be an ISO date or datetime")
    for (a, ta), (b, tb) in zip(zip(names, times), zip(names[1:], times[1:])):
        _need(spec, b, tb > ta if strict else tb >= ta,
              f"come {'after' if strict else 'no earlier than'} {_key(type(spec), a)!r} "
              f"({getattr(spec, a)!r})")


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Resolve a config: defaults <- file <- overrides. Unknown keys, values of
    the wrong kind and values out of range raise ConfigError naming the key."""
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
    for cls in _SECTIONS:
        _section(cls, cfg)
    return cfg


def _apply(cfg: dict, updates: dict, source: str) -> None:
    for key, value in updates.items():
        if key not in _KINDS:
            raise ConfigError(f"unknown config key {key!r} (from {source})")
        _check_kind(f"config key {key!r} (from {source})", value, _KINDS[key])
        cfg[key] = value


def config_hash(cfg: dict) -> str:
    """Short stable hash of a resolved config for artifact traceability."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _section(cls: type, cfg: dict):
    """The `cls` dataclass read from a resolved flat config."""
    return cls(**{f.name: cfg[_key(cls, f.name)] for f in fields(cls)})


model_config = functools.partial(_section, ModelConfig)
train_config = functools.partial(_section, TrainConfig)
synth_spec = functools.partial(_section, SynthSpec)
split_spec = functools.partial(_section, SplitSpec)
