"""Damage to container files, for the tests of their error paths."""

import io
import json
import math

import numpy as np

from swhnet import container


def record_shape(raw: bytes, name: str, new) -> bytes:
    """`raw`, the bytes of a container file, with its header declaring the
    shape `new` for the array `name`; the header is written as `container`
    writes it, and every byte after it stays as it was."""
    line, sep, data = raw.partition(b"\n")
    header = json.loads(line)
    assert header["arrays"][name]["shape"] != new
    header["arrays"][name]["shape"] = new
    return json.dumps(header).encode("utf-8") + sep + data


def set_last_value(path, kind: str, version: int, name: str, value) -> None:
    """Patch, in place, the bytes of the last element of the array `name`
    in the container file at `path` to `value`; every other byte stays as
    it was. `container.write` would refuse a non-finite value."""
    with open(path, "r+b") as fh:
        header = json.loads(fh.readline())
        assert (header["kind"], header["format_version"]) == (kind, version)
        end = fh.tell()
        for key, spec in header["arrays"].items():
            dtype = np.dtype(spec["dtype"])
            end += math.prod(spec["shape"]) * dtype.itemsize
            if key == name:
                break
        else:
            raise KeyError(name)
        fh.seek(end - dtype.itemsize)
        fh.write(np.array(value, dtype).tobytes())


def set_header_field(path, kind: str, version: int, key: str, value) -> None:
    """Rewrite the container file at `path` with its header's `key` set to
    `value`, the arrays and every other header field kept."""
    header, arrays = container.read(str(path), kind, version)
    meta = {k: v for k, v in header.items() if k not in ("kind", "format_version", "arrays")}
    container.write(str(path), kind, version, {**meta, key: value}, arrays)


def as_version_3(path) -> None:
    """Rewrite the container file at `path` in the version 3 layout, which
    held only each array's shape in the header and each array as an `.npy`
    record."""
    line, _, data = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    out, lo = io.BytesIO(), 0
    for spec in header["arrays"].values():
        arr = np.frombuffer(data, np.dtype(spec["dtype"]), math.prod(spec["shape"]), lo).reshape(spec["shape"])
        np.save(out, arr, allow_pickle=False)
        lo += arr.nbytes
    header = {**header, "format_version": 3,
              "arrays": {name: spec["shape"] for name, spec in header["arrays"].items()}}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + out.getvalue())
