"""Binary checkpoint container: JSON config plus named raw tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"VECA"
    version u32      container version (currently 1)
    cfg_len u32      length of the UTF-8 JSON config blob
    config  bytes    JSON object (model config, seed, dtype, ...)
    count   u32      number of tensors
    per tensor:
        name_len u32, name UTF-8 bytes
        rank     u32, extents rank x u64
        dtype    u8   (0 = float32, 1 = float64)
        payload  raw little-endian scalars, row-major

Round-trips are bitwise lossless for both dtypes. Every malformed container
raises :class:`CheckpointError` (unknown versions its subclass
:class:`UnsupportedVersionError`). Big-endian hosts byte-swap on load and save
so the on-disk format stays canonical.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import CHANNELS
from .elastic import CHUNK
from .errors import CheckpointError, DTypeError, UnsupportedVersionError, VecaError
from .rope import BASE

MAGIC = b"VECA"
VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
# model fields older checkpoints carry, each with the one value this build implements
RETIRED_FIELDS = {"dropout": 0.0, "in_channels": CHANNELS, "chunk": CHUNK, "rope_base": BASE, "norm_eps": 1e-6}


def save_container(path: str | Path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write config and tensors; tensor dict order is preserved."""
    chunks: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]
    blob = json.dumps(config, sort_keys=True).encode()
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)
    chunks.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _TAG_FOR:
            raise CheckpointError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        encoded = name.encode()
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(struct.pack("<B", _TAG_FOR[arr.dtype]))
        payload = np.ascontiguousarray(arr)
        if sys.byteorder == "big":  # pragma: no cover
            payload = payload.byteswap()
        chunks.append(payload.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, raw: bytes, path: str):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated container")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; inverse of :func:`save_container`."""
    r = _Reader(Path(path).read_bytes(), str(path))
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint container")
    version = r.u32()
    if version != VERSION:
        raise UnsupportedVersionError(
            f"{path}: container version {version} unsupported (this build reads {VERSION})"
        )
    try:
        config = json.loads(r.take(r.u32()).decode())
    except ValueError as err:  # covers both JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: config blob is not UTF-8 JSON: {err}") from err
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config blob is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        try:
            name = r.take(r.u32()).decode()
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {err}") from err
        rank = r.u32()
        shape = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        tag = r.u8()
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype tag {tag}")
        dt = _DTYPE_TAGS[tag]
        count = math.prod(shape)
        arr = np.frombuffer(r.take(count * dt.itemsize), dtype=dt).reshape(shape)
        tensors[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    if r.pos != len(r.raw):
        raise CheckpointError(f"{path}: {len(r.raw) - r.pos} trailing bytes")
    return config, tensors


def save_model(path: str | Path, encoder, extra_config: dict | None = None) -> None:
    """Serialize an encoder's config and every parameter tensor."""
    config = {
        "model": asdict(encoder.config),
        "seed": encoder.seed,
        "dtype": np.dtype(encoder.dtype).name,
    }
    if extra_config:
        config.update(extra_config)
    save_container(path, config, encoder.state())


def load_model(path: str | Path):
    """Rebuild an encoder from a checkpoint written by :func:`save_model`.

    Older checkpoints carry model fields that are now constants
    (:data:`RETIRED_FIELDS`). A field holding exactly the constant's value is
    dropped; any other value describes a model this build cannot construct and
    is refused, as is a tensor whose dtype is not the config's ``dtype`` (no
    silent cast).
    """
    from .model import Encoder, ModelConfig

    config, tensors = load_container(path)
    if not isinstance(config.get("model"), dict):
        raise CheckpointError(f"{path}: config has no 'model' object")
    model_cfg = dict(config["model"])
    for name, value in RETIRED_FIELDS.items():
        if name in model_cfg and model_cfg.pop(name) != value:
            raise CheckpointError(f"{path}: model {name} other than {value} is no longer supported")
    try:
        if "budgets" in model_cfg:
            model_cfg["budgets"] = tuple(model_cfg["budgets"])
        enc = Encoder(
            ModelConfig(**model_cfg),
            seed=int(config.get("seed", 0)),
            dtype=np.dtype(config.get("dtype", "float64")),
        )
        cast = [name for name, arr in tensors.items() if arr.dtype != enc.dtype]
        if cast:
            raise DTypeError(
                f"{len(cast)} tensor(s), first {cast[0]!r} ({tensors[cast[0]].dtype}), "
                f"are not the config's {np.dtype(enc.dtype).name}"
            )
        enc.load_state(tensors)
    except (TypeError, ValueError, VecaError) as err:  # an unknown field is a TypeError
        raise CheckpointError(f"{path}: cannot rebuild the encoder it describes: {err}") from err
    return enc, config
