"""Axial 2D rotary positional encoding over continuous coordinates.

Tokens carry planar coordinates in [-1, 1]^2 (order x, y). Each attention
head's query/key vectors are split into rotation pairs of adjacent elements
(2t, 2t+1); the first half of the pairs rotate by angles proportional to x,
the second half by angles proportional to y. Angles are coordinate * freq * pi
with per-pair frequencies freq_j = BASE**(-j / (head_dim / 4)), strictly
decreasing from 1; the base is the constant ``BASE`` = 100. The layout depends
only on the head width, which must be a positive multiple of 4 (:func:`check_head_dim`).
This ordering (x pairs first, adjacent-element pairing) is part of the
checkpoint contract. :func:`cos_sin` stores each pair's rotation as the
unit complex number e^{i theta} = (cos theta, sin theta) in that pair's two
slots, and :func:`apply` multiplies every head of an input by that one table.

Also provides the fixed patch coordinate grid and the deterministic
farthest-point initialization of core coordinate states.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .tensor import Tensor, _accumulate, _from_op, _same_dtype


BASE = 100.0


def check_head_dim(head_dim: int) -> None:
    """Refuse a head width that does not form the 2D rotary pairs: it must be a positive multiple of 4.

    Arithmetic only, so a configuration can be validated without building its tables.
    """
    if head_dim <= 0 or head_dim % 4 != 0:
        raise ConfigError(f"head_dim must be a positive multiple of 4, got {head_dim}")


def freqs(head_dim: int) -> np.ndarray:
    """The head_dim / 4 per-axis frequencies (see :func:`check_head_dim`)."""
    check_head_dim(head_dim)
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


def cos_sin(head_dim: int, coords: Tensor) -> Tensor:
    """Rotation table [..., T, head_dim] from coordinates [..., T, 2]; one tape node.

    Pair t = (2t, 2t+1) holds (cos theta_t, sin theta_t): the unit complex
    number e^{i theta_t} that :func:`apply` multiplies it by. Angles
    0..num_freqs-1 are x * freq_j * pi, the rest y * freq_j * pi.
    """
    if coords.shape[-1] != 2:
        raise ShapeError(f"cos_sin: coords must end in axis of size 2, got {coords.shape}")
    f = (freqs(head_dim) * np.pi).astype(coords.data.dtype)
    nf = f.size
    theta = np.concatenate([coords.data[..., 0:1] * f, coords.data[..., 1:2] * f], axis=-1)
    data = np.empty(theta.shape[:-1] + (head_dim,), dtype=theta.dtype)
    data[..., 0::2], data[..., 1::2] = np.cos(theta), np.sin(theta)

    def grad_fn(g: np.ndarray) -> None:
        # d(cos)/dtheta = -sin and d(sin)/dtheta = cos, then each axis's angles back to its coordinate
        dtheta = g[..., 1::2] * data[..., 0::2] - g[..., 0::2] * data[..., 1::2]
        _accumulate(coords, np.stack([dtheta[..., :nf] @ f, dtheta[..., nf:] @ f], axis=-1))

    return _from_op(data, (coords,), grad_fn, "rope_cos_sin")


def _pairs(x: np.ndarray) -> np.ndarray:
    # adjacent (2t, 2t+1) elements as the real and imaginary parts of one
    # complex number: a view when the last axis is contiguous, else a copy
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    return x.view(np.complex64 if x.dtype == np.float32 else np.complex128)


def apply(q_or_k: Tensor, table: Tensor) -> Tensor:
    """Rotate each adjacent element pair (a, b) = (2t, 2t+1) of every head by its angle.

    ``q_or_k`` is [..., H, T, hd] and ``table`` the :func:`cos_sin` table
    [..., T, hd] of the same dtype, shared by all H heads (the substrate's
    one broadcast over an inner axis); the backward sums the table's
    gradient over the heads. (a, b) -> (a cos - b sin, a sin + b cos),
    computed as one complex multiply (a + ib)(cos + i sin) with the pairs of
    the input and of the table viewed as complex numbers (RoFormer's
    formulation); the backward multiplies by the conjugates. Per-token
    vector norms are preserved.
    """
    _same_dtype("rope.apply", q_or_k, table)
    shape = q_or_k.shape
    if len(shape) < 3 or shape[-1] % 2 or table.shape != shape[:-3] + shape[-2:]:
        raise ShapeError(f"apply: table {table.shape} does not pair with input {shape}")
    z, e = _pairs(q_or_k.data), _pairs(table.data)[..., None, :, :]
    out = (z * e).view(q_or_k.dtype)

    def grad_fn(g: np.ndarray) -> None:
        gz = _pairs(g)
        _accumulate(q_or_k, (gz * e.conj()).view(g.dtype))
        # Re and Im of g * conj(z), summed over the heads, are the cos and sin gradients
        _accumulate(table, (gz * z.conj()).sum(axis=-3).view(g.dtype))

    return _from_op(out, (q_or_k, table), grad_fn, "rope_apply")


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
