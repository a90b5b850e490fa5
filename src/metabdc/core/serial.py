"""Checkpoint files.

An `.mbcp` checkpoint is a numpy `.npz` archive (`np.savez`; each member
is in numpy's documented `.npy` format). It holds one member per
parameter, named as the parameter, plus a `digest` member: the config
digest, a string, used to detect loading weights into a mismatched
architecture. Members are written in sorted name order, and numpy stamps
every member with one fixed date, so equal parameter dicts serialize to
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import zipfile

import numpy as np


class SerializationError(ValueError):
    """Malformed or unsupported checkpoint file."""


def config_digest(obj) -> str:
    """sha256 over a canonical JSON rendering; stable across runs."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_checkpoint(path: str, params: dict[str, np.ndarray], digest: str) -> None:
    with open(path, "wb") as f:  # an open file keeps np.savez from appending ".npz" to the name
        np.savez(f, digest=digest, **{name: params[name] for name in sorted(params)})


def load_checkpoint(path: str, expected_digest: str | None = None) -> tuple[dict[str, np.ndarray], str]:
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy array")
        with archive:
            members = {name: archive[name] for name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SerializationError(f"{path}: not a readable .npz checkpoint archive ({exc})") from exc
    digest = members.pop("digest", None)
    if not isinstance(digest, np.ndarray) or digest.dtype.kind != "U" or digest.shape != ():
        raise SerializationError(f"{path}: no string digest member")
    digest = str(digest)
    if expected_digest is not None and digest != expected_digest:
        raise SerializationError(
            f"checkpoint config digest mismatch: file has {digest[:12]}.., expected {expected_digest[:12]}.."
        )
    params: dict[str, np.ndarray] = {}
    for name, arr in members.items():
        dtype = getattr(arr, "dtype", None)  # a member that is not in .npy format reads back as bytes
        if dtype is None or dtype.type not in (np.float32, np.float64):
            raise SerializationError(f"{path}: member {name!r} has dtype {dtype}; expected float32 or float64")
        params[name] = arr.astype(dtype.type, copy=False)  # native byte order
    return params, digest
