"""Tests for the flat config schema: keys and defaults derived from the
config dataclasses, value kinds and ranges, and the config hash."""

import typing
from collections import Counter
from dataclasses import fields

import pytest

from swhnet.config import (DEFAULT_CONFIG, ModelConfig, SplitSpec, SynthSpec, TrainConfig,
                           config_hash, load_config, model_config, split_spec, synth_spec,
                           train_config)
from swhnet.errors import ConfigError

SECTIONS = (ModelConfig, TrainConfig, SplitSpec, SynthSpec)


# The README quick-start config.
QUICK_START = {
    "width": 6, "height": 6, "patch_size": 3, "embed_dim": 2,
    "n_layers": 1, "d_ff": 16, "dropout_p": 0.0,
    "head_hidden": [16, 16, 16, 16, 16, 16, 16, 16, 16],
    "strategy": "CD", "lr": 0.003, "batch_size": 16,
    "max_epochs": 10, "patience": 10, "synth_n_samples": 300,
}


def test_default_config_hash_is_pinned():
    assert config_hash(load_config()) == config_hash(DEFAULT_CONFIG) == "b9a6d034a79c"


def test_quick_start_config_hash_is_pinned():
    assert config_hash(load_config(None, QUICK_START)) == "cc5d66871212"


@pytest.mark.parametrize("key, value", [
    ("synth_n_samples", "5"),
    ("n_layers", True),
    ("n_layers", 2.0),
    ("lr", "0.1"),
    ("use_wind", 1),
    ("strategy", None),
    ("report_bin_edges", 5),
    ("report_bin_edges", [0.0, "1"]),
    ("head_hidden", [16.5] * 9),
    ("train_subsample", 2.5),
    # Out of range: a beta of 1 zeroes Adam's bias correction.
    ("adam_beta1", 1.0),
    ("adam_beta2", 1.5),
    ("adam_eps", 0.0),
    ("adam_eps", -1e-8),
    # Dates that do not parse.
    ("split_val_start", "soon"),
    ("split_test_end", "2022-13-01"),
    ("synth_time_start", ""),
])
def test_value_of_the_wrong_kind_names_its_key(key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        load_config(None, {key: value})


@pytest.mark.parametrize("key, value", [
    ("report_bin_edges", [3.0, 1.0]),
    ("report_bin_edges", [0.0, 1.0, 1.0]),
    ("report_bin_edges", [1.0]),
    ("report_bin_edges", []),
    ("scatter_bin_width", -1.0),
    ("scatter_bin_width", 0.0),
    ("scatter_bin_width", 8.5),
    ("scatter_bin_width", 20),
    ("scatter_bin_width", float("nan")),
    ("bias_cell_deg", 0.0),
    ("bias_cell_deg", -1.0),
])
def test_reporting_key_out_of_range_names_its_key(key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        load_config(None, {key: value})


@pytest.mark.parametrize("key, value", [
    ("report_bin_edges", [0.0, 8.0]),
    ("scatter_bin_width", 8.0),
    ("scatter_bin_width", 0.01),
    ("bias_cell_deg", 0.25),
])
def test_reporting_key_at_its_range_edge_is_taken(key, value):
    assert load_config(None, {key: value})[key] == value


@pytest.mark.parametrize("key, value", [
    ("lr", 1),
    ("scatter_bin_width", 0.5),
    ("n_layers", 2),
    ("use_wind", True),
    ("head_hidden", None),
    ("head_hidden", [16] * 9),
    ("train_subsample", None),
    ("val_subsample", 3),
    ("report_bin_edges", [0, 1.5, 8]),
])
def test_value_of_its_default_kind_is_taken(key, value):
    assert load_config(None, {key: value})[key] == value


def test_keys_shared_by_several_dataclasses_agree():
    names = Counter(f.name for cls in SECTIONS for f in fields(cls))
    shared = sorted(name for name, n in names.items() if n > 1)
    assert shared == ["height", "seed", "width"]
    for name in shared:
        owners = [cls for cls in SECTIONS if name in typing.get_type_hints(cls)]
        assert len({typing.get_type_hints(cls)[name] for cls in owners}) == 1
        assert len({f.default for cls in owners for f in fields(cls) if f.name == name}) == 1


def test_sections_read_their_prefixed_keys():
    assert model_config(load_config()) == ModelConfig()
    assert train_config(load_config()) == TrainConfig()
    cfg = load_config(None, {"seed": 3, "width": 5, "synth_n_samples": 7, "synth_time_end": "2021-01-01",
                             "split_val_start": "2020-02-01", "test_subsample": 4})
    assert synth_spec(cfg) == SynthSpec(n_samples=7, width=5, seed=3, time_end="2021-01-01")
    assert split_spec(cfg) == SplitSpec(val_start="2020-02-01", test_subsample=4, seed=3)
    assert model_config(cfg) == ModelConfig(width=5, seed=3)


@pytest.mark.parametrize("cls, kwargs, key", [
    (ModelConfig, {"n_layers": 2.0}, "n_layers"),
    (ModelConfig, {"head_hidden": [2.0] * 9}, "head_hidden"),
    (TrainConfig, {"lr": "0.1"}, "lr"),
    (SplitSpec, {"seed": True}, "seed"),
    (SynthSpec, {"n_samples": "5"}, "synth_n_samples"),
])
def test_dataclass_built_with_the_wrong_kind_names_its_key(cls, kwargs, key):
    with pytest.raises(ConfigError, match=repr(key)):
        cls(**kwargs)


@pytest.mark.parametrize("overrides, key", [
    ({"split_val_start": "2019-01-01"}, "split_val_start"),
    ({"split_val_start": "2019-08-01"}, "split_val_start"),
    ({"split_test_start": "2030-01-01"}, "split_test_end"),
    ({"split_test_end": "2021-08-01T00:00:00Z"}, "split_test_end"),
    ({"synth_time_start": "2023-01-01"}, "synth_time_end"),
])
def test_dates_out_of_order_name_the_later_key(overrides, key):
    with pytest.raises(ConfigError, match=f"{key!r} must come"):
        load_config(None, overrides)


def test_equal_synth_times_and_datetime_splits_are_taken():
    cfg = load_config(None, {"synth_time_start": "2020-01-01", "synth_time_end": "2020-01-01T00:00:00Z",
                             "split_val_start": "2020-08-01T06:00:00+06:00"})
    assert synth_spec(cfg).time_end == "2020-01-01T00:00:00Z"
    assert split_spec(cfg).val_start == "2020-08-01T06:00:00+06:00"
