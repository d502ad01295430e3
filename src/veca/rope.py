"""Axial 2D rotary positional encoding over continuous coordinates.

Tokens carry planar coordinates in [-1, 1]^2 (order x, y). Each attention
head's query/key vectors are split into rotation pairs of adjacent elements
(2t, 2t+1); the first half of the pairs rotate by angles proportional to x,
the second half by angles proportional to y. Angles are coordinate * freq * pi
with per-pair frequencies freq_j = BASE**(-j / (head_dim / 4)), strictly
decreasing from 1; the base is the constant ``BASE`` = 100. The layout depends
only on the head width, which must be a positive multiple of 4 (:func:`freqs`).
This ordering (x pairs first, adjacent-element pairing) is part of the
checkpoint contract.

Also provides the fixed patch coordinate grid and the deterministic
farthest-point initialization of core coordinate states.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .tensor import Tensor, _accumulate, _from_op, _same_dtype, _unbroadcast, as_tensor, cos, sin


BASE = 100.0


def freqs(head_dim: int) -> np.ndarray:
    """The head_dim / 4 per-axis frequencies; the head width must be a positive multiple of 4."""
    if head_dim <= 0 or head_dim % 4 != 0:
        raise ConfigError(f"head_dim must be a positive multiple of 4, got {head_dim}")
    nf = head_dim // 4
    return BASE ** (-np.arange(nf, dtype=np.float64) / nf)


def patch_grid(hp: int, wp: int) -> np.ndarray:
    """Centers of an hp x wp patch grid in [-1, 1]^2, row-major over (row, col).

    Patch (r, c) maps to (x, y) = ((c + 0.5) / wp * 2 - 1, (r + 0.5) / hp * 2 - 1),
    computed as (2c + 1 - wp) / wp so that flipping the column order negates x
    exactly in floating point for every grid width.
    """
    if hp < 1 or wp < 1:
        raise ShapeError(f"patch_grid: grid extents must be >= 1, got ({hp}, {wp})")
    ys = (2.0 * np.arange(hp, dtype=np.float64) + 1.0 - hp) / hp
    xs = (2.0 * np.arange(wp, dtype=np.float64) + 1.0 - wp) / wp
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([gx, gy], axis=-1).reshape(-1, 2)


def angles(head_dim: int, coords) -> Tensor:
    """Rotation angles [..., T, head_dim/2] from coordinates [..., T, 2].

    Columns 0..num_freqs-1 are x * freq_j * pi, the rest are y * freq_j * pi.
    Differentiable in the coordinates; one tape node.
    """
    coords = as_tensor(coords)
    if coords.shape[-1] != 2:
        raise ShapeError(f"angles: coords must end in axis of size 2, got {coords.shape}")
    f = (freqs(head_dim) * np.pi).astype(coords.data.dtype)
    nf = f.size
    data = np.concatenate(
        [coords.data[..., 0:1] * f, coords.data[..., 1:2] * f], axis=-1
    )

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(coords, np.stack([g[..., :nf] @ f, g[..., nf:] @ f], axis=-1))

    return _from_op(data, (coords,), grad_fn, "rope_angles")


def cos_sin(head_dim: int, coords) -> tuple[Tensor, Tensor]:
    """Per-token rotation tables (cos, sin), each [..., T, head_dim/2].

    One angle per rotation pair: x-driven pairs first, then y-driven pairs.
    """
    theta = angles(head_dim, coords)
    return cos(theta), sin(theta)


def _pairs(x: np.ndarray) -> np.ndarray:
    # adjacent (2t, 2t+1) elements as the real and imaginary parts of one
    # complex number: a view when the last axis is contiguous, else a copy
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    return x.view(np.complex64 if x.dtype == np.float32 else np.complex128)


def apply(q_or_k: Tensor, cos_t: Tensor, sin_t: Tensor) -> Tensor:
    """Rotate each adjacent element pair (a, b) = (2t, 2t+1) by its angle.

    (a, b) -> (a cos - b sin, a sin + b cos), computed as one complex multiply
    (a + ib)(cos + i sin) over the pairs viewed as complex numbers (RoFormer's
    formulation); the backward multiplies by the conjugates. Tables must be
    numpy-broadcastable to the input's shape minus its pair axis (the
    deliberate exception to the substrate's no-broadcast rule: attention
    shares one table across heads) and have the input's dtype. Per-token
    vector norms are preserved.
    """
    q_or_k, cos_t, sin_t = as_tensor(q_or_k), as_tensor(cos_t), as_tensor(sin_t)
    _same_dtype("rope.apply", q_or_k, cos_t, sin_t)
    hd = q_or_k.shape[-1]
    if hd % 2 or cos_t.shape[-1] != hd // 2 or cos_t.shape != sin_t.shape:
        raise ShapeError(
            f"apply: tables {cos_t.shape}/{sin_t.shape} do not pair with input {q_or_k.shape}"
        )
    z = _pairs(q_or_k.data)
    table = np.empty(cos_t.shape, dtype=z.dtype)
    table.real, table.imag = cos_t.data, sin_t.data
    out = (z * table).view(q_or_k.dtype)

    def grad_fn(g: np.ndarray) -> None:
        gz = _pairs(g)
        _accumulate(q_or_k, _unbroadcast((gz * table.conj()).view(g.dtype), q_or_k.shape))
        # Re and Im of g * conj(z) are the cos and sin gradients
        dtable = gz * z.conj()
        _accumulate(cos_t, _unbroadcast(dtable.real, cos_t.shape))
        _accumulate(sin_t, _unbroadcast(dtable.imag, sin_t.shape))

    return _from_op(out, (q_or_k, cos_t, sin_t), grad_fn, "rope_apply")


def fps_init(m: int, grid_side: int = 64) -> np.ndarray:
    """Farthest-point sampling over a grid_side^2 lattice; returns atanh states.

    Deterministic: the seed is the lattice point nearest the origin and every
    greedy step picks the candidate maximizing the minimum distance to the
    chosen set, ties broken by lowest row-major index. Points are clamped to
    +-0.999999 before atanh so the returned states are always finite.
    """
    if m < 1:
        raise CapacityError(f"fps_init: need at least one point, got {m}")
    if m > grid_side * grid_side:
        raise CapacityError(
            f"fps_init: {m} points exceed lattice capacity {grid_side * grid_side}"
        )
    lattice = patch_grid(grid_side, grid_side)
    dist_to_origin = np.linalg.norm(lattice, axis=1)
    chosen = [int(np.argmin(dist_to_origin))]
    min_dist = np.linalg.norm(lattice - lattice[chosen[0]], axis=1)
    for _ in range(1, m):
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(lattice - lattice[nxt], axis=1))
    points = np.clip(lattice[chosen], -0.999999, 0.999999)
    return np.arctanh(points)
