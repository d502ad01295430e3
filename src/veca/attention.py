"""Core-periphery block-sparse attention and its masked-dense reference.

The token sequence is ordered [cores ; patches]: the first ``active_c`` rows
are learned core tokens, the rest are image patches. Core queries attend to
the whole sequence; patch queries attend only to the active cores (their own
token is excluded too; the residual connection carries patch identity).
Rotary tables are applied to queries and keys after projection, never to
values; their frequency layout follows the weights' head width
(``AttnParams.head_dim``). The contract is 1 <= C <= T; at C = T there are
no patch rows and the block is dense self-attention, which is how the
synthetic teacher runs.

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
    as_tensor,
    broadcast_to,
    concat,
    getitem,
    linear,
    matmul,
    mul,
    reshape,
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
        rope_mod.freqs(self.head_dim)  # the head width must form 2D rotary pairs

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


def _validate(x: Tensor, active_c: int, heads: int) -> tuple[int, int, int]:
    b, t, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    if active_c < 1 or active_c > t:
        raise BudgetError(f"active core count must satisfy 1 <= C <= T, got C={active_c}, T={t}")
    return b, t, d


def _split_heads(t: Tensor, heads: int) -> Tensor:
    # [B, N, D] -> [B, H, N, D/H], one tape node
    b, n, d = t.shape
    data = t.data.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(t, g.transpose(0, 2, 1, 3).reshape(b, n, d))

    return _from_op(data, (t,), grad_fn, "split_heads", check=False)


def _merge_heads(t: Tensor) -> Tensor:
    # [B, H, N, D/H] -> [B, N, D], one tape node
    b, h, n, hd = t.shape
    data = t.data.transpose(0, 2, 1, 3).reshape(b, n, h * hd)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(t, g.reshape(b, n, h, hd).transpose(0, 2, 1, 3))

    return _from_op(data, (t,), grad_fn, "merge_heads", check=False)


def _coords_3d(coords, batch: int, t: int, dtype) -> Tensor:
    coords = as_tensor(coords)
    if coords.ndim == 2:
        coords = broadcast_to(reshape(coords, (1,) + coords.shape), (batch,) + coords.shape)
    if coords.shape != (batch, t, 2):
        raise ShapeError(f"coords must be [T,2] or [B,T,2] matching x, got {coords.shape}")
    if coords.dtype != dtype:
        raise DTypeError(f"attention: dtypes differ: x {np.dtype(dtype)} vs coords {coords.dtype}")
    return coords


def core_attention(
    params: AttnParams,
    x: Tensor,
    coords,
    active_c: int,
    capture: dict | None = None,
) -> Tensor:
    """Block-sparse attention over x = [cores ; patches], shape [B, T, D].

    Rows 0..C-1 (cores) are softmax(Q_R K_X^T / sqrt(d_k)) V_X per head; rows
    C..T-1 (patches) are softmax(Q_Z K_R^T / sqrt(d_k)) V_R. Both are merged
    and output-projected in input order; at C = T there are no patch rows and
    this is dense self-attention. Queries and keys are rotated by the rotary
    tables of ``params.head_dim``. ``capture``, if given, receives the
    detached per-head probabilities and values for analysis.
    """
    x = as_tensor(x)
    b, t, d = _validate(x, active_c, params.heads)
    coords = _coords_3d(coords, b, t, x.data.dtype)
    h, hd = params.heads, params.head_dim
    c = active_c

    q = _split_heads(linear(x, params.wq, params.bq), h)
    k = _split_heads(linear(x, params.wk, params.bk), h)
    v = _split_heads(linear(x, params.wv, params.bv), h)

    cos_t, sin_t = rope_mod.cos_sin(hd, coords)
    cos_h = reshape(cos_t, (b, 1, t, hd // 2))
    sin_h = reshape(sin_t, (b, 1, t, hd // 2))
    # rotation commutes with scalar scaling, so 1/sqrt(d_k) is folded into q
    q = rope_mod.apply(mul(q, 1.0 / float(np.sqrt(hd))), cos_h, sin_h)
    k = rope_mod.apply(k, cos_h, sin_h)

    k_t = transpose(k, (0, 1, 3, 2))

    q_core = getitem(q, (slice(None), slice(None), slice(0, c)))
    probs_core = softmax_rows(matmul(q_core, k_t))

    q_patch = getitem(q, (slice(None), slice(None), slice(c, None)))
    k_cores_t = getitem(k_t, (slice(None), slice(None), slice(None), slice(0, c)))
    v_cores = getitem(v, (slice(None), slice(None), slice(0, c)))
    probs_patch = softmax_rows(matmul(q_patch, k_cores_t))

    if capture is not None:
        capture["probs_core"] = probs_core.data.copy()
        capture["probs_patch"] = probs_patch.data.copy()
        capture["values"] = v.data.copy()
        capture["wo"] = params.wo.data.copy()
        capture["active_c"] = c

    out_core = matmul(probs_core, v)
    out_patch = matmul(probs_patch, v_cores)
    merged = _merge_heads(concat([out_core, out_patch], axis=2))
    return linear(merged, params.wo, params.bo)


def masked_dense_oracle(params: AttnParams, x, coords, active_c: int) -> np.ndarray:
    """Dense T x T attention with the core-periphery mask, in plain numpy.

    Entries (i, j) with i >= C and j >= C (including the diagonal) get a large
    negative additive mask, so patch rows attend to exactly the C cores.
    Rotary tables come from ``params.head_dim``, as in :func:`core_attention`.
    Returns the same values as :func:`core_attention`; used as the
    independent equivalence reference.
    """
    x = as_tensor(x)
    b, t, d = _validate(x, active_c, params.heads)
    coords = _coords_3d(coords, b, t, x.data.dtype)
    h, hd, c = params.heads, params.head_dim, active_c
    xv = x.data
    neg = -1e300 if xv.dtype == np.float64 else np.float32(-1e30)

    def project(w: Tensor, bias: Tensor) -> np.ndarray:
        flat = xv.reshape(b * t, d) @ w.data + bias.data
        return flat.reshape(b, t, h, hd).transpose(0, 2, 1, 3)

    q, k, v = project(params.wq, params.bq), project(params.wk, params.bk), project(params.wv, params.bv)

    cos_tab, sin_tab = rope_mod.cos_sin(hd, coords)
    cos_np, sin_np = cos_tab.data, sin_tab.data

    def rotate(z: np.ndarray) -> np.ndarray:
        a, bb = z[..., 0::2], z[..., 1::2]
        ct, st = cos_np[:, None, :, :], sin_np[:, None, :, :]
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
