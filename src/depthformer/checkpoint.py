"""Binary named-tensor checkpoints with a plain-text metadata sidecar.

Layout (all integers little-endian): a single version byte, then the
tensor count (u32), then per tensor a u16 name length, the UTF-8 name,
a dtype code byte, a rank byte, u32 dims, and the raw array payload.
Metadata goes to ``<path>.meta`` as ``key = value`` lines (read by ``read_lines``).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .corpus import read_lines

FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.int64): 2}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def meta_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta")


class Meta(dict):
    """A checkpoint's ``key = value`` metadata; reading a key it lacks
    raises a ``ValueError`` naming the ``.meta`` file and the key."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path

    def __missing__(self, key: str):
        raise ValueError(f"{self.path}: no key {key!r}")


def parse_bool(text: str) -> bool:
    """``True`` or ``False``, as ``str`` writes a bool; nothing else."""
    if text not in ("True", "False"):
        raise ValueError(f"expected True or False, got {text!r}")
    return text == "True"


def meta_where(meta: dict[str, str]) -> str:
    """``"<file>: "``, the start of an error about a ``Meta``; "" for a plain dict."""
    return f"{meta.path}: " if isinstance(meta, Meta) else ""


def meta_value(meta: dict[str, str], key: str, parse, default: str | None = None):
    """``meta[key]`` (or ``default``, if given, when the key is missing)
    read by ``parse``; a value it rejects raises a ValueError naming the
    key and, for a ``Meta``, its file."""
    text = meta[key] if default is None else meta.get(key, default)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{meta_where(meta)}{key}: {exc}") from None


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                raise ValueError(f"{name}: unsupported dtype {arr.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    with open(meta_path(path), "w", encoding="utf-8") as fh:
        for key, value in meta.items():
            fh.write(f"{key} = {value}\n")


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], Meta]:
    blob = Path(path).read_bytes()
    offset = 0

    def need(n_bytes: int, what: str) -> None:
        if offset + n_bytes > len(blob):
            raise ValueError(
                f"{path}: checkpoint is truncated: {what} needs {n_bytes} bytes at offset {offset}, "
                f"{len(blob) - offset} remain"
            )

    def take(fmt: str, what: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        need(size, what)
        values = struct.unpack_from(fmt, blob, offset)
        offset += size
        return values

    (version,) = take("<B", "version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (count,) = take("<I", "tensor count")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H", "name length")
        need(name_len, "name")
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        code, ndim = take("<BB", f"{name} dtype and rank")
        shape = take(f"<{ndim}I", f"{name} shape")
        if code not in _CODE_DTYPES:
            raise ValueError(f"{path}: {name}: unknown dtype code {code}")
        dtype = _CODE_DTYPES[code].newbyteorder("<")
        n_items = int(np.prod(shape, dtype=np.int64))
        need(n_items * dtype.itemsize, f"{name} payload")
        arrays[name] = np.frombuffer(blob, dtype, n_items, offset).reshape(shape).astype(_CODE_DTYPES[code])
        offset += n_items * dtype.itemsize
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last tensor")

    mp = meta_path(path)
    meta = Meta(mp)
    if mp.exists():
        for lineno, line in enumerate(read_lines(mp), 1):
            if not line.strip():
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{mp}:{lineno}: expected 'key = value', got {line!r}")
            meta[key.strip()] = value.strip()
    return arrays, meta
