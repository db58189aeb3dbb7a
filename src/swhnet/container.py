"""The binary format of the checkpoint, sample and group files: one JSON
header line (artifact kind, format version, metadata, and the arrays in
file order with their shapes), then one raw `.npy` record per array.
`.npy` records hold no timestamps, so equal arrays give equal bytes.

Writes go to a temporary file beside the target that is then renamed onto
it, so a crashed writer leaves no half-written file. There is no fsync.
The text reports (history, predictions, metrics and plot data) are written
the same way, through `atomic_open_text`.
"""

import contextlib
import io
import json
import os

import numpy as np

from .errors import FormatError


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


def write(path: str, kind: str, version: int, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """A header of kind, version, `meta` and the array shapes, then `arrays` in order."""
    header = {"kind": kind, "format_version": version, **meta,
              "arrays": {name: list(arr.shape) for name, arr in arrays.items()}}
    with atomic_open(path) as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for arr in arrays.values():
            np.save(fh, arr, allow_pickle=False)


def read(path: str, kind: str, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a file written by `write`, after checking
    its kind, version, array shapes and length."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise FormatError(f"{path} does not start with a JSON header line: {exc}") from exc
        found = header.get("format_version") if isinstance(header, dict) else None
        if found != version:
            raise FormatError(f"{path}: {kind} format version {found} unsupported (expected {version})")
        if header.get("kind") != kind or not isinstance(header.get("arrays"), dict):
            raise FormatError(f"{path} is not a {kind} file")
        arrays = {}
        for name, shape in header["arrays"].items():
            try:
                arr = np.load(fh, allow_pickle=False)
            except (ValueError, EOFError) as exc:
                raise FormatError(f"{path}: array {name!r} is truncated or corrupt: {exc}") from exc
            if list(arr.shape) != shape:
                raise FormatError(f"{path}: array {name!r} has shape {list(arr.shape)}, header says {shape}")
            arrays[name] = arr
        if fh.read(1):
            raise FormatError(f"{path} has bytes after its last array")
    return header, arrays
