"""Tests for the binary container shared by checkpoints, sample files and
group files."""

import io
import json

import numpy as np
import pytest

from damage import record_shape
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


def test_read_into_the_destinations_the_header_asks_for(tmp_path):
    path = tmp_path / "c.bin"
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2])}
    container.write(str(path), "demo", 1, {}, arrays)
    buffer = np.zeros(8)
    headers = []

    def into(header):
        headers.append(header["arrays"])
        return {"a": buffer[1:7].reshape(2, 3)}

    _, back = container.read(str(path), "demo", 1, into=into)
    assert headers == [{"a": [2, 3], "b": [2]}]
    assert back["a"].base is buffer and buffer.tolist() == [0, 0, 1, 2, 3, 4, 5, 0]
    assert back["b"].dtype == np.int64 and back["b"].tolist() == [1, 2]
    with pytest.raises(FormatError, match="'b' is int64 .* does not fit its destination"):
        container.read(str(path), "demo", 1, into=lambda header: {"b": np.zeros(2)})


def test_fortran_ordered_arrays_are_written_in_c_order(tmp_path):
    path = tmp_path / "c.bin"
    arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    container.write(str(path), "demo", 1, {}, {"a": arr})
    back = container.read(str(path), "demo", 1)[1]["a"]
    assert back.flags.c_contiguous and np.array_equal(back, arr)


def npy(arr, **kw) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, **kw)
    return buf.getvalue()


@pytest.mark.parametrize("shapes, record, message", [
    ({"a": [-1]}, npy(np.zeros(1)), "not a demo file"),
    ({"a": "4"}, npy(np.zeros(4)), "not a demo file"),
    ({"a": [1]}, b"garbage", "'a' is truncated or corrupt"),
    ({"a": [1]}, npy(np.array([None]), allow_pickle=True), "'a' holds Python objects"),
    ({"a": [2, 3]}, npy(np.zeros((2, 3), order="F")), "'a' is not in C order"),
    ({"a": [4]}, npy(np.zeros(3)), r"'a' has shape \[3\], header says \[4\]"),
    ({"a": [4]}, npy(np.zeros(4))[:-1], "'a' is truncated: 32 bytes declared, 31 left"),
    ({"a": [400000000000]}, record_shape(npy(np.zeros(4)), (4,), (400000000000,)),
     "'a' is truncated: 3200000000000 bytes declared, 32 left"),
], ids=["negative-dim", "shape-not-a-list", "bad-magic", "object-dtype", "fortran-order", "shape-mismatch",
        "truncated", "huge-shape"])
def test_a_bad_record_is_a_format_error_before_anything_is_allocated(tmp_path, shapes, record, message):
    path = tmp_path / "c.bin"
    header = {"kind": "demo", "format_version": 1, "arrays": shapes}
    path.write_bytes(json.dumps(header).encode() + b"\n" + record)
    with pytest.raises(FormatError, match=message):
        container.read(str(path), "demo", 1)
