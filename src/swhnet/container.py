"""The binary format of the checkpoint, sample and group files: one JSON
header line (artifact kind, format version, metadata, and each array's
dtype and shape in file order), then each array's raw C-order bytes,
back to back. Equal arrays give equal bytes.

One loop reads every file kind. It checks the whole header first: the
header line fits in `HEADER_MAX_BYTES`, every dtype is one of `DTYPES`,
every shape a list of non-negative integers, and the file holds exactly
the header line plus the bytes those declare. Only then does it
allocate, reading each array into a fresh array or into a destination
the caller supplies: a checkpoint's arrays go straight into the model's
parameter buffer.

Every float array of every kind holds only finite values: `write`
refuses, and writes nothing, and `read` rejects the file once the array
is read, if one holds NaN or inf.

Writes go to a temporary file beside the target that is then renamed onto
it, so a crashed writer leaves no half-written file. There is no fsync.
The text reports (history, predictions, metrics and plot data) are written
the same way, by `write_csv` and `write_json`, each float as its `repr`.
Text inputs are read through `open_text`, which names a file that is not
UTF-8.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from .errors import ContractError, FormatError

# The array dtypes a file may hold, by the name its header gives them.
DTYPES = {name: np.dtype(name) for name in ("<f8", "<i8", "|b1")}

# The longest header line, its newline included, that `read` takes.
HEADER_MAX_BYTES = 1 << 20


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


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None, error: type = FormatError):
    """`path` opened as UTF-8 text; a byte that does not decode, wherever
    the block reads it, raises `error` naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from exc


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
    """A header of kind, version, `meta` and each array's dtype and shape,
    then the bytes of `arrays` in order. Raises ContractError, and writes
    nothing, for an array whose dtype is not one of `DTYPES` or a float
    array that holds NaN or inf."""
    for name, arr in arrays.items():
        if arr.dtype.str not in DTYPES:
            raise ContractError(f"{path}: array {name!r} has dtype {arr.dtype}, not one of {', '.join(DTYPES)}")
        if not _finite(arr):
            raise ContractError(f"{path}: {kind} array {name!r} holds a non-finite value; not written")
    header = {"kind": kind, "format_version": version, **meta,
              "arrays": {name: {"dtype": arr.dtype.str, "shape": list(arr.shape)} for name, arr in arrays.items()}}
    with atomic_open(path) as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr).data)


def read(path: str, kind: str, version: int, into=None) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a file written by `write`, after checking
    its header line's length, kind, version, array dtypes and shapes, and
    file length; each float array is then checked for finite values.

    `into`, if given, is called with the checked header and returns a
    {name: array} of C-ordered destinations: each named array is read
    straight into its destination, every other one into a fresh array.
    """
    with open(path, "rb") as fh:
        # Read in pieces: one readline of the whole cap would hold it twice.
        line = bytearray()
        while len(line) <= HEADER_MAX_BYTES and not line.endswith(b"\n"):
            piece = fh.readline(1 << 16)
            if not piece:
                break
            line += piece
        if len(line) > HEADER_MAX_BYTES:
            raise FormatError(f"{path} has no header line within its first {HEADER_MAX_BYTES} bytes")
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise FormatError(f"{path} does not start with a JSON header line: {exc}") from exc
        found = header.get("format_version") if isinstance(header, dict) else None
        if found != version:
            raise FormatError(f"{path}: {kind} format version {found} unsupported (expected {version})")
        specs = header.get("arrays")
        if header.get("kind") != kind or not isinstance(specs, dict):
            raise FormatError(f"{path} is not a {kind} file")
        layout = _layout(path, specs, os.fstat(fh.fileno()).st_size - fh.tell())
        dests = into(header) if into is not None else {}
        for name, (dtype, shape) in layout.items():
            out = dests.get(name)
            if out is not None and (out.dtype != dtype or out.shape != shape or not out.flags.c_contiguous):
                raise FormatError(f"{path}: array {name!r} is {dtype} {shape}, which does not fit its destination")
        arrays = {}
        for name, (dtype, shape) in layout.items():
            out = dests[name] if name in dests else np.empty(shape, dtype)
            buf = out.reshape(-1).view(np.uint8)
            if fh.readinto(buf) != buf.size:
                raise FormatError(f"{path}: array {name!r} is truncated")
            if not _finite(out):
                raise FormatError(f"{path}: {kind} array {name!r} holds a non-finite value")
            arrays[name] = out
    return header, arrays


def _finite(arr: np.ndarray) -> bool:
    """False for a float array holding NaN or inf, else True. Its min and
    max carry any NaN or inf, and allocate nothing."""
    return arr.dtype.kind != "f" or arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _layout(path: str, specs: dict, size: int) -> dict[str, tuple[np.dtype, tuple[int, ...]]]:
    """{name: (dtype, shape)} of a header's `arrays`, checked against the
    `size` bytes that follow the header line."""
    layout, left = {}, size
    for name, spec in specs.items():
        where = f"{path}: array {name!r}"
        if not isinstance(spec, dict) or set(spec) != {"dtype", "shape"}:
            raise FormatError(f"{where} is described by {spec!r}, not by a dtype and a shape")
        dtype = DTYPES.get(spec["dtype"]) if isinstance(spec["dtype"], str) else None
        shape = spec["shape"]
        if dtype is None:
            raise FormatError(f"{where} has dtype {spec['dtype']!r}, not one of {', '.join(DTYPES)}")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise FormatError(f"{where} has shape {shape!r}, not a list of non-negative integers")
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > left:
            raise FormatError(f"{where} is truncated: {nbytes} bytes declared, {left} left")
        layout[name], left = (dtype, tuple(shape)), left - nbytes
    if left:
        raise FormatError(f"{path} has {left} bytes after its last array")
    return layout
