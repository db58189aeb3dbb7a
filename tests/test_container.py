"""Tests for the binary container shared by checkpoints, sample files and
group files."""

import numpy as np
import pytest

from swhnet import container
from swhnet.errors import FormatError


def test_roundtrip_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.bin"
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([True, False]), "empty": np.zeros((0, 4))}
    container.write(str(path), "demo", 7, {"note": "x"}, arrays)
    header, back = container.read(str(path), "demo", 7)
    assert header["note"] == "x"
    assert header["arrays"] == {"a": [2, 3], "b": [2], "empty": [0, 4]}
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes()
    with pytest.raises(FormatError, match="not a other file"):
        container.read(str(path), "other", 7)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="after its last array"):
        container.read(str(path), "demo", 7)


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "c.bin"
    container.write(str(path), "demo", 1, {}, {"a": np.ones(3)})
    before = path.read_bytes()
    # object arrays cannot be written without pickling: the write fails after the first array
    with pytest.raises(ValueError):
        container.write(str(path), "demo", 1, {}, {"a": np.zeros(3), "b": np.array([object()])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]
