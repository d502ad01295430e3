"""Synthetic training images and raster loading.

Desk-scale training never downloads a dataset: images are procedurally
generated (colored geometric shapes over a noisy background) from an explicit
stream, so every batch is replayable. User-supplied rasters are accepted as
binary PPM (P6) or .npy arrays; no other codecs. All model inputs are
channel-normalized with the usual ImageNet constants.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from tokenize import TokenError

import numpy as np
from numpy.lib import format as npy_format

from .errors import CapacityError, CheckpointError, ResolutionError
from .rng import RngStream

CHANNELS = 3  # RGB; every model input is [B, CHANNELS, H, W]
NORM_MEAN = np.array([0.485, 0.456, 0.406])
NORM_STD = np.array([0.229, 0.224, 0.225])


def normalize(images: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Channelwise (x - mean) / std for images shaped [..., CHANNELS, H, W] in [0, 1].

    The result goes to ``out`` when given (``images`` itself normalizes in
    place), else to one new array.
    """
    out = np.subtract(images, NORM_MEAN.reshape(CHANNELS, 1, 1), out=out)
    return np.divide(out, NORM_STD.reshape(CHANNELS, 1, 1), out=out)


def synthetic_images(stream: RngStream, batch: int, resolution: int) -> np.ndarray:
    """Generate [batch, 3, R, R] normalized images of shapes on noise.

    Each image gets a random base color, low-amplitude pixel noise, and 1-3
    shapes (axis-aligned rectangles or disks) in random colors. Deterministic
    given the stream state. A batch numpy cannot allocate raises
    ``CapacityError``.
    """
    if resolution < 1:
        raise ResolutionError(f"synthetic images need a resolution of at least 1, got {resolution}")
    r = resolution
    try:
        out = np.empty((batch, CHANNELS, r, r))
    except (ValueError, MemoryError) as err:  # ValueError: the byte count overflows
        raise CapacityError(f"cannot allocate synthetic images of shape {(batch, CHANNELS, r, r)}: {err}") from err
    pixels = np.arange(r)  # x along a row, y down a column
    for i in range(batch):
        base = stream.uniform(0.1, 0.9, size=3)
        img = out[i]
        np.add(base[:, None, None], stream.normal(0.05, size=(3, r, r)), out=img)
        n_shapes = int(stream.integers(1, 4))
        # one draw per shape: color (3), centre (2), half-width, kind; each column is
        # rescaled by numpy's own uniform formula lo + (hi - lo) * u
        for u in stream.uniform(size=(n_shapes, 7)):
            color = u[:3]
            cx, cy = (0.15 + (0.85 - 0.15) * u[3:5]) * r
            half = (0.08 + (0.3 - 0.08) * u[5]) * r
            if u[6] < 0.5:
                # a square: one run of columns and one of rows lie within half of the centre
                cols = np.flatnonzero(np.abs(pixels - cx) <= half)
                rows = np.flatnonzero(np.abs(pixels - cy) <= half)
                if cols.size and rows.size:
                    img[:, rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] = color[:, None, None]
            else:
                mask = ((pixels - cx) ** 2)[None, :] + ((pixels - cy) ** 2)[:, None] <= half**2
                img[:, mask] = color[:, None]
    np.clip(out, 0.0, 1.0, out=out)
    return normalize(out, out=out)


def load_raster(path: str | Path) -> np.ndarray:
    """Load one image as [3, H, W] floats in [0, 1] from .npy or binary PPM.

    Both formats are parsed from the file's bytes, so a header that claims
    more data than the file holds is refused before anything is allocated;
    so are empty images and non-finite values.
    """
    path = Path(path)
    if path.suffix == ".npy":
        arr = _read_npy(path)
        if arr.ndim == 3 and arr.shape[-1] == 3 and arr.shape[0] != 3:
            arr = arr.transpose(2, 0, 1)
        if arr.ndim != 3 or arr.shape[0] != 3 or arr.size == 0:
            raise CheckpointError(f"{path}: expected a non-empty [3,H,W] or [H,W,3] array, got {arr.shape}")
        arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: .npy image holds non-finite values")
        if arr.max() > 1.5:
            arr = arr / 255.0
        return np.clip(arr, 0.0, 1.0)
    if path.suffix in (".ppm", ".pnm"):
        return _read_ppm(path)
    raise CheckpointError(f"{path}: unsupported raster format (use .npy or binary .ppm)")


def _read_npy(path: Path) -> np.ndarray:
    """A read-only view of the one real-valued array in a version 1 or 2 .npy file."""
    raw = path.read_bytes()
    # a BytesIO read past the end returns what is there, where a file read first
    # allocates the (up to 4 GiB) header length that a version 2 header claims
    buf = io.BytesIO(raw)
    try:
        version = npy_format.read_magic(buf)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported version {version}")
        read_header = npy_format.read_array_header_1_0 if version == (1, 0) else npy_format.read_array_header_2_0
        shape, fortran_order, dtype = read_header(buf)
    except (ValueError, SyntaxError, TokenError) as err:  # numpy parses the header and its dtype as Python
        raise CheckpointError(f"{path}: not a readable .npy array: {err}") from err
    if dtype.kind not in "biuf":
        raise CheckpointError(f"{path}: expected one real-valued .npy array, got dtype {dtype}")
    count = math.prod(shape)
    if min(shape, default=0) < 0 or count * dtype.itemsize > len(raw) - buf.tell():
        raise CheckpointError(f"{path}: .npy shape {shape} of {dtype} does not fit the file's {len(raw)} bytes")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=buf.tell())
    try:
        return arr.reshape(shape, order="F" if fortran_order else "C")
    except ValueError as err:  # a shape numpy cannot build: an empty one too large, or over 64 axes
        raise CheckpointError(f"{path}: .npy shape {shape}: {err}") from err


def _read_ppm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if b"" in fields:
        raise CheckpointError(f"{path}: PPM header truncated (needs magic, width, height, maxval)")
    if fields[0] != b"P6":
        raise CheckpointError(f"{path}: only binary P6 PPM is supported")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise CheckpointError(f"{path}: PPM width, height and maxval must be integers") from None
    if min(width, height, maxval) < 1 or maxval > 255:
        raise CheckpointError(f"{path}: PPM header out of range: {width}x{height}, maxval {maxval}")
    pos += 1
    count = width * height * 3
    if len(raw) - pos < count:
        raise CheckpointError(f"{path}: PPM pixel data truncated ({max(len(raw) - pos, 0)} of {count} bytes)")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    if pixels.max() > maxval:
        raise CheckpointError(f"{path}: PPM sample {pixels.max()} above maxval {maxval}")
    img = pixels.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float64)
    return img / maxval
