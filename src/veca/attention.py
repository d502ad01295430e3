"""Core-periphery block-sparse attention and its masked-dense reference.

The token sequence is ordered [cores ; patches]: the first ``active_c`` rows
are learned core tokens, the rest are image patches. Core queries attend to
the whole sequence; patch queries attend only to the active cores (their own
token is excluded too; the residual connection carries patch identity).
Rotary tables are applied to queries and keys after projection, never to
values; their frequency layout follows the weights' head width
(``AttnParams.head_dim``). The contract is 1 <= C <= T; at C = T there are
no patch rows, the patch block is skipped and the block is dense
self-attention, which is how the synthetic teacher runs. A caller that reads
only the first few core rows (the encoder's last block reads core 0) can ask
for just those: the dropped core rows are never scored, merged or projected,
while keys and values still cover all T tokens.

``masked_dense_oracle`` recomputes the same contract as one dense T x T
attention with an additive mask, in plain numpy with no shared scoring code,
and exists purely as an equivalence reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rope as rope_mod
from .errors import BudgetError, ConfigError, DTypeError, ShapeError
from .rng import RngStream
from .tensor import (
    Tensor,
    _accumulate,
    _from_op,
    broadcast_to,
    concat,
    getitem,
    linear,
    matmul,
    softmax_rows,
    transpose,
)


PROJECTIONS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


@dataclass
class AttnParams:
    """Separate q/k/v/out projections (with bias) and the head count."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    heads: int

    def __post_init__(self):
        d = self.wq.shape[0]
        if d % self.heads != 0:
            raise ConfigError(f"model dim {d} not divisible by {self.heads} heads")
        rope_mod.check_head_dim(self.head_dim)

    @property
    def dim(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @staticmethod
    def init(dim: int, heads: int, stream: RngStream) -> "AttnParams":
        """Float64 projections: weights truncated-normal (std 0.02) from ``stream``'s children, zero biases."""

        def affine(name: str) -> tuple[Tensor, Tensor]:
            w = stream.spawn(name).trunc_normal(0.02, size=(dim, dim))
            b = np.zeros(dim)
            return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)

        wq, bq = affine("wq")
        wk, bk = affine("wk")
        wv, bv = affine("wv")
        wo, bo = affine("wo")
        return AttnParams(wq, bq, wk, bk, wv, bv, wo, bo, heads)

    def tensors(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in PROJECTIONS}


def _validate(x: Tensor, active_c: int, params: AttnParams) -> tuple[int, int, int]:
    if x.ndim != 3 or x.shape[-1] != params.dim:
        raise ShapeError(f"attention: x must be [B, T, {params.dim}], got {x.shape}")
    b, t, d = x.shape
    if active_c < 1 or active_c > t:
        raise BudgetError(f"active core count must satisfy 1 <= C <= T, got C={active_c}, T={t}")
    return b, t, d


def _split_heads(t: Tensor, heads: int, scale: float | None = None) -> Tensor:
    # [B, N, D] -> [B, H, N, D/H], times ``scale`` if given, one tape node
    b, n, d = t.shape
    data = t.data.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)
    if scale is not None:
        data = data * scale

    def grad_fn(g: np.ndarray) -> None:
        if scale is not None:
            g = g * scale
        _accumulate(t, g.transpose(0, 2, 1, 3).reshape(b, n, d))

    return _from_op(data, (t,), grad_fn, "split_heads", check=False)


def _merge_heads(t: Tensor) -> Tensor:
    # [B, H, N, D/H] -> [B, N, D], one tape node
    b, h, n, hd = t.shape
    data = t.data.transpose(0, 2, 1, 3).reshape(b, n, h * hd)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(t, g.reshape(b, n, h, hd).transpose(0, 2, 1, 3))

    return _from_op(data, (t,), grad_fn, "merge_heads", check=False)


def _coords_3d(coords: Tensor, batch: int, t: int, dtype) -> Tensor:
    if coords.ndim == 2:
        coords = broadcast_to(coords, (batch,) + coords.shape)
    if coords.shape != (batch, t, 2):
        raise ShapeError(f"coords must be [T,2] or [B,T,2] matching x, got {coords.shape}")
    if coords.dtype != dtype:
        raise DTypeError(f"attention: dtypes differ: x {np.dtype(dtype)} vs coords {coords.dtype}")
    return coords


def core_attention(
    params: AttnParams,
    x: Tensor,
    coords: Tensor,
    active_c: int,
    capture: dict | None = None,
    *,
    core_rows: int | None = None,
) -> Tensor:
    """Block-sparse attention over x = [cores ; patches], shape [B, T, D].

    Rows 0..C-1 (cores) are softmax(Q_R K_X^T / sqrt(d_k)) V_X per head; rows
    C..T-1 (patches) are softmax(Q_Z K_R^T / sqrt(d_k)) V_R. Both are merged
    and output-projected in input order; at C = T there are no patch rows and
    this is dense self-attention. Queries and keys are rotated by the rotary
    tables of ``params.head_dim``.

    ``core_rows`` = k keeps only core query rows 0..k-1 (1 <= k <= C; None
    keeps all C): the output is [B, k + T - C, D], those core rows followed by
    every patch row, each equal to the same row of the full output. Keys and
    values still cover all T tokens. ``capture``, if given, receives detached
    copies of what ran: the kept core rows' probabilities [B, H, k, T], the
    patch rows' [B, H, T - C, C], every token's values and ``wo``.
    """
    b, t, d = _validate(x, active_c, params)
    coords = _coords_3d(coords, b, t, x.data.dtype)
    h, hd = params.heads, params.head_dim
    c = active_c
    kept = c if core_rows is None else core_rows
    if not 1 <= kept <= c:
        raise BudgetError(f"kept core rows must satisfy 1 <= k <= C, got k={kept}, C={c}")

    # rotation commutes with scalar scaling, so 1/sqrt(d_k) is folded into q's head split
    q = _split_heads(linear(x, params.wq, params.bq), h, 1.0 / float(np.sqrt(hd)))
    k = _split_heads(linear(x, params.wk, params.bk), h)
    v = _split_heads(linear(x, params.wv, params.bv), h)

    table = rope_mod.cos_sin(hd, coords)
    q = rope_mod.apply(q, table)
    k = rope_mod.apply(k, table)

    k_t = transpose(k, (0, 1, 3, 2))

    q_core = q if kept == t else getitem(q, (slice(None), slice(None), slice(0, kept)))
    probs_core = softmax_rows(matmul(q_core, k_t))
    out = matmul(probs_core, v)

    # patch rows attend to the C cores; at C = T there are none, and no patch block is built
    if c < t:
        q_patch = getitem(q, (slice(None), slice(None), slice(c, None)))
        k_cores_t = getitem(k_t, (slice(None), slice(None), slice(None), slice(0, c)))
        v_cores = getitem(v, (slice(None), slice(None), slice(0, c)))
        patch = softmax_rows(matmul(q_patch, k_cores_t))
        out = concat([out, matmul(patch, v_cores)], axis=2)
        probs_patch = patch.data
    else:
        probs_patch = np.zeros((b, h, 0, c), x.data.dtype)

    if capture is not None:
        capture["probs_core"] = probs_core.data.copy()
        capture["probs_patch"] = probs_patch.copy()
        capture["values"] = v.data.copy()
        capture["wo"] = params.wo.data.copy()

    return linear(_merge_heads(out), params.wo, params.bo)


def masked_dense_oracle(params: AttnParams, x: Tensor, coords: Tensor, active_c: int) -> np.ndarray:
    """Dense T x T attention with the core-periphery mask, in plain numpy.

    Entries (i, j) with i >= C and j >= C (including the diagonal) get a large
    negative additive mask, so patch rows attend to exactly the C cores.
    Rotary angles are written out from :func:`rope.freqs` of ``params.head_dim``
    and the coordinates, not taken from :func:`rope.cos_sin`, so the
    comparison also checks that table's layout.
    Returns the same values as :func:`core_attention`; used as the
    independent equivalence reference.
    """
    b, t, d = _validate(x, active_c, params)
    coords = _coords_3d(coords, b, t, x.data.dtype)
    h, hd, c = params.heads, params.head_dim, active_c
    xv = x.data
    neg = -1e300 if xv.dtype == np.float64 else np.float32(-1e30)

    def project(w: Tensor, bias: Tensor) -> np.ndarray:
        flat = xv.reshape(b * t, d) @ w.data + bias.data
        return flat.reshape(b, t, h, hd).transpose(0, 2, 1, 3)

    q, k, v = project(params.wq, params.bq), project(params.wk, params.bk), project(params.wv, params.bv)

    # angles from the frequencies alone; flattening [B, T, (x, y), freq] puts the x pairs first
    f = (rope_mod.freqs(hd) * np.pi).astype(xv.dtype)
    theta = (coords.data[..., None] * f).reshape(b, 1, t, hd // 2)
    ct, st = np.cos(theta), np.sin(theta)

    def rotate(z: np.ndarray) -> np.ndarray:
        a, bb = z[..., 0::2], z[..., 1::2]
        out = np.empty_like(z)
        out[..., 0::2] = a * ct - bb * st
        out[..., 1::2] = a * st + bb * ct
        return out

    q, k = rotate(q), rotate(k)

    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) / float(np.sqrt(hd))
    mask = np.zeros((t, t), dtype=xv.dtype)
    mask[c:, c:] = neg
    scores = scores + mask
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, v)
    merged = out.transpose(0, 2, 1, 3).reshape(b, t, d)
    projected = merged.reshape(b * t, d) @ params.wo.data + params.bo.data[None, :]
    return projected.reshape(b, t, d)


def interaction_count(n: int, c: int) -> int:
    """Attention comparisons in core mode: 2NC + C^2."""
    if n < 1 or c < 1:
        raise ShapeError(f"interaction_count: need N >= 1 and C >= 1, got N={n}, C={c}")
    return 2 * n * c + c * c


def dense_count(n: int) -> int:
    """Attention comparisons in dense patch self-attention: N^2."""
    if n < 1:
        raise ShapeError(f"dense_count: need N >= 1, got N={n}")
    return n * n
