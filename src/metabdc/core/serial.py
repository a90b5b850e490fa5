"""Binary array and checkpoint files.

Array layout (all integers little-endian):

    bytes 0..3   magic b"MBDC"
    bytes 4..5   format version, u16 (currently 1)
    byte  6      dtype tag, u8: 0 = float32, 1 = float64
    byte  7      rank, u8
    next 8*rank  dims, u64 each
    rest         payload, row-major IEEE754 little-endian

A checkpoint is a container of named arrays plus a config digest used to
detect loading weights into a mismatched architecture:

    magic b"MBCP", version u16, digest length u16, digest (ascii hex),
    entry count u32, then per entry: name length u16, name utf-8, array blob.

Entries are written sorted by name so equal parameter dicts serialize to
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import BinaryIO

import numpy as np

ARRAY_MAGIC = b"MBDC"
CHECKPOINT_MAGIC = b"MBCP"
FORMAT_VERSION = 1

_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_TO_DTYPE = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


class SerializationError(ValueError):
    """Malformed or unsupported array/checkpoint bytes."""


def write_array(stream: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    shape = arr.shape  # ascontiguousarray promotes 0-d to 1-d, so record shape first
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_TO_TAG:
        raise SerializationError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
    if len(shape) > 255:
        raise SerializationError("rank exceeds u8")
    stream.write(ARRAY_MAGIC)
    stream.write(struct.pack("<H", FORMAT_VERSION))
    stream.write(struct.pack("<BB", _DTYPE_TO_TAG[arr.dtype], len(shape)))
    for dim in shape:
        stream.write(struct.pack("<Q", dim))
    stream.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))


def read_array(stream: BinaryIO) -> np.ndarray:
    magic = stream.read(4)
    if magic != ARRAY_MAGIC:
        raise SerializationError(f"bad array magic {magic!r}")
    (version,) = struct.unpack("<H", _read_exact(stream, 2))
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported array format version {version}")
    tag, rank = struct.unpack("<BB", _read_exact(stream, 2))
    if tag not in _TAG_TO_DTYPE:
        raise SerializationError(f"unknown dtype tag {tag}")
    dims = struct.unpack(f"<{rank}Q", _read_exact(stream, 8 * rank)) if rank else ()
    dtype = _TAG_TO_DTYPE[tag]
    count = 1
    for dim in dims:
        count *= dim
    payload = _read_exact(stream, count * dtype.itemsize)
    arr = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype)
    return arr.reshape(dims)


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise SerializationError(f"truncated stream: wanted {n} bytes, got {len(data)}")
    return data


def config_digest(obj) -> str:
    """sha256 over a canonical JSON rendering; stable across runs."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_checkpoint(path: str, params: dict[str, np.ndarray], digest: str) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        raw = digest.encode("ascii")
        f.write(struct.pack("<H", len(raw)))
        f.write(raw)
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            write_array(f, params[name])


def load_checkpoint(path: str, expected_digest: str | None = None) -> tuple[dict[str, np.ndarray], str]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise SerializationError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<H", _read_exact(f, 2))
        if version != FORMAT_VERSION:
            raise SerializationError(f"unsupported checkpoint version {version}")
        (dlen,) = struct.unpack("<H", _read_exact(f, 2))
        digest = _read_exact(f, dlen).decode("ascii")
        if expected_digest is not None and digest != expected_digest:
            raise SerializationError(
                f"checkpoint config digest mismatch: file has {digest[:12]}.., expected {expected_digest[:12]}.."
            )
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2))
            name = _read_exact(f, nlen).decode("utf-8")
            params[name] = read_array(f)
    return params, digest
