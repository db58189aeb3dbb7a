"""Damage to container files, for the tests of their error paths."""

from swhnet import container


def record_shape(raw: bytes, shape: tuple, new: tuple) -> bytes:
    """`raw` with the first `.npy` record header that declares `shape`
    declaring `new` instead. The header's padding absorbs the longer text,
    so the header keeps its length and every other byte stays as it was."""
    old, repl = f"'shape': {shape!r}, }}".encode(), f"'shape': {new!r}, }}".encode()
    out = raw.replace(old + b" " * (len(repl) - len(old)), repl, 1)
    assert len(out) == len(raw) and out != raw
    return out


def set_last_value(path, kind: str, version: int, name: str, value: float) -> None:
    """Rewrite the container file at `path` with the last element of its
    array `name` set to `value`, every other array and the header kept."""
    header, arrays = container.read(str(path), kind, version)
    arrays[name].reshape(-1)[-1] = value
    meta = {k: v for k, v in header.items() if k not in ("kind", "format_version", "arrays")}
    container.write(str(path), kind, version, meta, arrays)


def set_header_field(path, kind: str, version: int, key: str, value) -> None:
    """Rewrite the container file at `path` with its header's `key` set to
    `value`, the arrays and every other header field kept."""
    header, arrays = container.read(str(path), kind, version)
    meta = {k: v for k, v in header.items() if k not in ("kind", "format_version", "arrays")}
    container.write(str(path), kind, version, {**meta, key: value}, arrays)
