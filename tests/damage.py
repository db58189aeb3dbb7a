"""Byte-level damage to container files, for the tests of their error paths."""


def record_shape(raw: bytes, shape: tuple, new: tuple) -> bytes:
    """`raw` with the first `.npy` record header that declares `shape`
    declaring `new` instead. The header's padding absorbs the longer text,
    so the header keeps its length and every other byte stays as it was."""
    old, repl = f"'shape': {shape!r}, }}".encode(), f"'shape': {new!r}, }}".encode()
    out = raw.replace(old + b" " * (len(repl) - len(old)), repl, 1)
    assert len(out) == len(raw) and out != raw
    return out
