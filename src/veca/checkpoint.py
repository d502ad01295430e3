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
import os
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import CHANNELS
from .elastic import BUDGETS, CHUNK, MAX_CORES
from .errors import CheckpointError, DTypeError, UnsupportedVersionError, VecaError
from .rope import BASE
from .tensor import LAYER_NORM_EPS

MAGIC = b"VECA"
VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
# model fields older checkpoints carry, each with the one value this build implements, as JSON holds it
RETIRED_FIELDS = {
    "dropout": 0.0, "in_channels": CHANNELS, "chunk": CHUNK, "rope_base": BASE, "norm_eps": LAYER_NORM_EPS,
    "max_cores": MAX_CORES, "budgets": list(BUDGETS),
}


def save_container(path: str | Path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write config and tensors; tensor dict order is preserved.

    The container is written to a temporary file beside ``path`` and renamed
    over it, so ``path`` holds either its old bytes or the whole new
    container, never a part. Each payload is written from the array's own
    buffer (copied only if it is not C-contiguous).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(MAGIC + struct.pack("<I", VERSION))
            blob = json.dumps(config, sort_keys=True).encode()
            f.write(struct.pack("<I", len(blob)) + blob)
            f.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                if arr.dtype not in _TAG_FOR:
                    raise CheckpointError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
                encoded = name.encode()
                f.write(struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) + struct.pack("<B", _TAG_FOR[arr.dtype]))
                payload = np.ascontiguousarray(arr)
                if sys.byteorder == "big":  # pragma: no cover
                    payload = payload.byteswap()
                f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Reads a container front to back; every size is checked against the bytes left."""

    def __init__(self, file, path: str):
        self.file = file
        self.left = os.fstat(file.fileno()).st_size
        self.path = path

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise CheckpointError(f"{self.path}: truncated container")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.file.read(n)
        if len(out) != n:
            raise CheckpointError(f"{self.path}: truncated container")
        return out

    def array(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """The next payload, read straight into its own native-order array."""
        self._claim(math.prod(shape) * dtype.itemsize)
        try:
            arr = np.empty(shape, dtype=dtype.newbyteorder("="))
        # an empty tensor can still declare more axes, or a longer axis, than numpy allows
        except ValueError as err:
            raise CheckpointError(f"{self.path}: tensor shape cannot be built: {err}") from err
        if arr.nbytes and self.file.readinto(memoryview(arr).cast("B")) != arr.nbytes:
            raise CheckpointError(f"{self.path}: truncated container")
        if sys.byteorder == "big":  # pragma: no cover
            arr.byteswap(inplace=True)
        return arr

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; inverse of :func:`save_container`.

    Each payload is read straight into the array returned for it, so loading
    holds one copy of the weights, never the whole file as well.
    """
    with open(path, "rb") as file:
        r = _Reader(file, str(path))
        if r.take(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic; not a checkpoint container")
        version = r.u32()
        if version != VERSION:
            raise UnsupportedVersionError(
                f"{path}: container version {version} unsupported (this build reads {VERSION})"
            )
        try:
            config = json.loads(r.take(r.u32()).decode())
        # ValueError covers JSONDecodeError and UnicodeDecodeError; RecursionError is nesting too deep to parse
        except (ValueError, RecursionError) as err:
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
            tensors[name] = r.array(shape, _DTYPE_TAGS[tag])
        if r.left:
            raise CheckpointError(f"{path}: {r.left} trailing bytes")
    return config, tensors


def json_integer(value, key: str) -> int:
    """The integer a JSON config holds under ``key``.

    ``int()`` would turn 2.7 into 2 and true into 1 while the config still
    records 2.7 or true, and would overflow on Infinity.
    """
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def save_model(path: str | Path, encoder, extra_config: dict | None = None) -> None:
    """Serialize an encoder's config and every parameter tensor."""
    config = {
        "model": asdict(encoder.config),
        "seed": encoder.seed,
        "dtype": np.dtype(encoder.dtype).name,
    }
    if extra_config:
        config.update(extra_config)
    save_container(path, config, {name: t.data for name, t in encoder.params.items()})


def load_model(path: str | Path):
    """Rebuild an encoder from a checkpoint written by :func:`save_model`.

    Older checkpoints carry model fields that are now constants
    (:data:`RETIRED_FIELDS`). A field holding exactly the constant's value is
    dropped; any other value describes a model this build cannot construct and
    is refused, as is a tensor whose dtype is not the config's ``dtype`` (no
    silent cast).

    The encoder wraps the arrays read from the file, with no initial weights
    drawn and no second copy made, and it is frozen: forwards record no tape
    until an optimizer turns ``requires_grad`` on.
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
        model = ModelConfig(**model_cfg)
        dtype = np.dtype(config.get("dtype", "float64"))
        cast = [name for name, arr in tensors.items() if arr.dtype != dtype]
        if cast:
            raise DTypeError(
                f"{len(cast)} tensor(s), first {cast[0]!r} ({tensors[cast[0]].dtype}), "
                f"are not the config's {dtype.name}"
            )
        enc = Encoder(model, seed=json_integer(config.get("seed", 0), "seed"), dtype=dtype, state=tensors)
    except (TypeError, ValueError, VecaError) as err:  # an unknown field is a TypeError
        raise CheckpointError(f"{path}: cannot rebuild the encoder it describes: {err}") from err
    return enc, config
