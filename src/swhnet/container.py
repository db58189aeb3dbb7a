"""The binary format of the checkpoint, sample and group files: one JSON
header line (artifact kind, format version, metadata, and the arrays in
file order with their shapes), then one raw `.npy` record per array.
`.npy` records hold no timestamps, so equal arrays give equal bytes.

One loop reads every file kind. It checks each record's `.npy` header
(dtype, C order, and shape against the file header and the bytes left)
before it allocates or writes anything, then reads the data into a fresh
array or into a destination the caller supplies: a checkpoint's records
go straight into the model's parameter buffer.

Writes go to a temporary file beside the target that is then renamed onto
it, so a crashed writer leaves no half-written file. There is no fsync.
The text reports (history, predictions, metrics and plot data) are written
the same way, by `write_csv` and `write_json`, each float as its `repr`.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np
from numpy.lib import format as npformat

from .errors import FormatError

# The `.npy` header readers by format version; `np.save` writes 1.0, or 2.0
# for a header over 64 KiB.
_NPY_HEADERS = {(1, 0): npformat.read_array_header_1_0, (2, 0): npformat.read_array_header_2_0}


@contextlib.contextmanager
def atomic_open(path: str):
    """A binary handle on a temporary file that replaces `path` once the
    block exits cleanly; on an exception the temporary file is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def atomic_open_text(path: str):
    """`atomic_open` through a UTF-8 text handle that writes newlines as given."""
    with atomic_open(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        yield fh


def write_csv(path: str, header, rows) -> None:
    """`header`, then each row of `rows`: a float cell as `repr(float(v))`,
    which reads back to the same bits (numpy 2's own `repr` would write
    `np.float64(v)`), every other cell as `csv` writes it."""
    with atomic_open_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def write_json(path: str, doc) -> None:
    """`doc` as JSON indented by one space, then a newline."""
    with atomic_open_text(path) as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def write(path: str, kind: str, version: int, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """A header of kind, version, `meta` and the array shapes, then `arrays` in order."""
    header = {"kind": kind, "format_version": version, **meta,
              "arrays": {name: list(arr.shape) for name, arr in arrays.items()}}
    with atomic_open(path) as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for arr in arrays.values():
            np.save(fh, np.require(arr, requirements="C"), allow_pickle=False)


def read(path: str, kind: str, version: int, into=None) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a file written by `write`, after checking
    its kind, version, array shapes and length.

    `into`, if given, is called with the checked header and returns a
    {name: array} of C-ordered destinations: each named record is read
    straight into its destination, every other one into a fresh array.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise FormatError(f"{path} does not start with a JSON header line: {exc}") from exc
        found = header.get("format_version") if isinstance(header, dict) else None
        if found != version:
            raise FormatError(f"{path}: {kind} format version {found} unsupported (expected {version})")
        shapes = header.get("arrays")
        if header.get("kind") != kind or not isinstance(shapes, dict) or not all(
                isinstance(shape, list) and all(isinstance(n, int) and n >= 0 for n in shape)
                for shape in shapes.values()):
            raise FormatError(f"{path} is not a {kind} file")
        dests = into(header) if into is not None else {}
        size = os.fstat(fh.fileno()).st_size
        arrays = {name: _read_record(fh, size, f"{path}: array {name!r}", shape, dests.get(name))
                  for name, shape in shapes.items()}
        if fh.read(1):
            raise FormatError(f"{path} has bytes after its last array")
    return header, arrays


def _read_record(fh, size: int, where: str, shape: list[int], out: np.ndarray | None) -> np.ndarray:
    """The `.npy` record at `fh` (a file of `size` bytes), read into `out` or
    a fresh array. Its header is checked against `shape` and the bytes left
    before anything is allocated or written."""
    try:
        version = npformat.read_magic(fh)
        if version not in _NPY_HEADERS:
            raise ValueError(f".npy version {version} unsupported")
        found, fortran_order, dtype = _NPY_HEADERS[version](fh)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"{where} is truncated or corrupt: {exc}") from exc
    if dtype.hasobject:
        raise FormatError(f"{where} holds Python objects")
    if fortran_order:
        raise FormatError(f"{where} is not in C order")
    if list(found) != shape:
        raise FormatError(f"{where} has shape {list(found)}, header says {shape}")
    nbytes = math.prod(found) * dtype.itemsize
    if nbytes > size - fh.tell():
        raise FormatError(f"{where} is truncated: {nbytes} bytes declared, {size - fh.tell()} left")
    if out is None:
        out = np.empty(found, dtype)
    elif out.dtype != dtype or out.shape != found or not out.flags.c_contiguous:
        raise FormatError(f"{where} is {dtype} {found}, which does not fit its destination")
    if fh.readinto(out.reshape(-1).view(np.uint8)) != nbytes:
        raise FormatError(f"{where} is truncated")
    return out
