"""Tests for the flat config schema: value kinds and the config hash."""

import pytest

from swhnet.config import DEFAULT_CONFIG, config_hash, load_config
from swhnet.errors import ConfigError


def test_default_config_hash_is_pinned():
    assert config_hash(load_config()) == config_hash(DEFAULT_CONFIG) == "b9a6d034a79c"


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
])
def test_value_of_the_wrong_kind_names_its_key(key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        load_config(None, {key: value})


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
