"""The full encoder: patch embedding, core bank, blocks, coordinate updates.

Architecture summary. Images are split into non-overlapping P x P patches and
affinely embedded (no normalization after the projection). The active core
prefix is concatenated in front of the patch tokens; every block applies
pre-norm block-sparse attention followed by a pre-norm SwiGLU feed-forward.
Before each block after the first, the unconstrained core coordinate states
are nudged by a learned per-layer affine head scaled by a learned scalar, and
the bounded coordinates used for the rotary tables are tanh of the states.
The first core token is the global feature and the patch tokens are the
dense features, so the last block computes only those 1 + N query rows
(keys and values still cover every token) and the final LayerNorm is applied
to them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import rope as rope_mod
from .attention import PROJECTIONS, AttnParams, core_attention
from .data import CHANNELS
from .elastic import BUDGETS, CHUNK, MAX_CORES, active_prefix
from .errors import ConfigError, ResolutionError, ShapeError
from .rng import RngStream
from .tensor import (
    Tensor,
    add,
    broadcast_to,
    concat,
    float_type,
    getitem,
    layer_norm,
    linear,
    mul,
    silu,
    tanh,
)


@dataclass(frozen=True)
class ModelConfig:
    """Encoder shape. Design constants are not fields: ``data.CHANNELS`` = 3 input
    channels, a bank of ``elastic.MAX_CORES`` = 64 cores in chunks of
    ``elastic.CHUNK`` = 8, the budget set ``elastic.BUDGETS``, rotary base
    ``rope.BASE`` = 100, and ``tensor.LAYER_NORM_EPS`` = 1e-6. ``budgets`` is
    ``elastic.BUDGETS``, readable here as a class attribute."""

    layers: int
    dim: int
    heads: int
    mlp_ratio: float
    patch_size: int = 16
    budgets: ClassVar[tuple[int, ...]] = BUDGETS

    def __post_init__(self):
        sizes = {k: getattr(self, k) for k in ("layers", "dim", "heads", "patch_size")}
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in sizes.values()):
            raise ConfigError(f"layers, dim, heads and patch_size must be positive integers, got {sizes}")
        r = self.mlp_ratio
        if isinstance(r, bool) or not isinstance(r, (int, float)) or not 0 < r < math.inf:
            raise ConfigError(f"mlp_ratio must be a finite positive number, got {r!r}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        rope_mod.check_head_dim(self.head_dim)
        try:
            self.hidden
        except OverflowError as err:  # dim * mlp_ratio beyond a float
            raise ConfigError(f"dim {self.dim} times mlp_ratio {r!r} is too large: {err}") from err

    @property
    def hidden(self) -> int:
        return int(self.dim * self.mlp_ratio)

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


PRESETS: dict[str, ModelConfig] = {
    "small": ModelConfig(layers=12, dim=384, heads=6, mlp_ratio=2.67),
    "small_plus": ModelConfig(layers=12, dim=384, heads=6, mlp_ratio=4.00),
    "base": ModelConfig(layers=12, dim=768, heads=12, mlp_ratio=2.67),
    "large": ModelConfig(layers=24, dim=1024, heads=16, mlp_ratio=2.67),
    # desk-scale preset used by training, gradient checks, and probes
    "tiny-test": ModelConfig(layers=2, dim=16, heads=2, mlp_ratio=2.67, patch_size=4),
}


def get_preset(name: str) -> ModelConfig:
    key = name.strip().lower().replace("-", "_")
    for preset, cfg in PRESETS.items():
        if preset.replace("-", "_") == key:
            return cfg
    raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")


def param_count(config: ModelConfig) -> int:
    """Exact number of learnable scalars for a configuration (nothing is drawn)."""
    return sum(math.prod(shape) for _, shape, _ in _layout(config, 0))


def patchify(images: np.ndarray, config: ModelConfig, dtype) -> tuple[Tensor, tuple[int, int]]:
    """Split [B, C, H, W] images into flattened P x P patches, [B, N, C*P*P].

    Patches are in row-major grid order; returns them with the (rows, cols)
    grid shape.
    """
    arr = np.asarray(images).astype(dtype, copy=False)
    if arr.ndim != 4 or arr.shape[1] != CHANNELS:
        raise ShapeError(f"images must be [B, {CHANNELS}, H, W], got {arr.shape}")
    p = config.patch_size
    b, ch, himg, wimg = arr.shape
    if himg % p or wimg % p:
        raise ResolutionError(f"resolution {himg}x{wimg} not divisible by patch size {p}")
    hp, wp = himg // p, wimg // p
    if hp == 0 or wp == 0:
        raise ResolutionError(f"resolution {himg}x{wimg} is smaller than one {p}x{p} patch")
    tiles = arr.reshape(b, ch, hp, p, wp, p).transpose(0, 2, 4, 1, 3, 5)
    return Tensor(np.ascontiguousarray(tiles.reshape(b, hp * wp, ch * p * p))), (hp, wp)


def grid_coords(cache: dict, b: int, hp: int, wp: int, dtype) -> Tensor:
    """[B, N, 2] patch-grid coordinates as a constant leaf, built once per shape in ``cache``.

    The leaf records no gradient, so one tensor is safely shared by every
    graph its owner (an encoder or a teacher) builds.
    """
    key = (b, hp, wp)
    if key not in cache:
        grid = rope_mod.patch_grid(hp, wp).astype(dtype)
        cache[key] = Tensor(np.broadcast_to(grid[None], (b, hp * wp, 2)).copy())
    return cache[key]


@dataclass
class BlockParams:
    norm_attn_gamma: Tensor
    norm_attn_beta: Tensor
    attn: AttnParams
    norm_ffn_gamma: Tensor
    norm_ffn_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


def ffn_swiglu(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Gated feed-forward: split w1's output into gate u and value v halves,
    return w2(SiLU(u) * v)."""
    h = linear(x, w1, b1)
    hidden = h.shape[-1] // 2
    u = getitem(h, (..., slice(0, hidden)))
    v = getitem(h, (..., slice(hidden, None)))
    return linear(mul(silu(u), v), w2, b2)


def block_forward(
    x: Tensor,
    coords,
    active_c: int,
    block: BlockParams,
    capture: dict | None = None,
    *,
    core_rows: int | None = None,
) -> Tensor:
    """Pre-norm residual attention, then pre-norm residual SwiGLU.

    The rotary layout is the attention weights' own head width. ``core_rows``
    = k keeps core rows 0..k-1 and the patch rows, as in
    :func:`~veca.attention.core_attention`: the block returns those
    k + T - C rows (None keeps all T).
    """
    normed = layer_norm(x, block.norm_attn_gamma, block.norm_attn_beta)
    attn = core_attention(block.attn, normed, coords, active_c, capture, core_rows=core_rows)
    if attn.shape[1] < x.shape[1]:  # the residual keeps the rows attention kept
        x = getitem(x, (slice(None), np.r_[0:core_rows, active_c : x.shape[1]]))
    x = add(x, attn)
    f = ffn_swiglu(
        layer_norm(x, block.norm_ffn_gamma, block.norm_ffn_beta),
        block.ffn_w1,
        block.ffn_b1,
        block.ffn_w2,
        block.ffn_b2,
    )
    return add(x, f)


_Entry = tuple[str, tuple[int, ...], Callable[[], np.ndarray]]
# names a state mismatch lists, and the missing names after which the walk of a layout stops
LISTED = 4


def _layout(config: ModelConfig, seed: int) -> Iterator[_Entry]:
    """Every parameter in state order: (name, shape, draw of its initial value).

    The entries are made as they are walked, so a caller that stops early
    never builds the rest, and nothing is drawn until a draw is called. Each
    random weight comes from its own named stream under ``init``, so values
    do not depend on draw order.
    """
    d, hidden = config.dim, config.hidden
    root = RngStream(seed, "init")
    fps_states = functools.cache(lambda: rope_mod.fps_init(MAX_CORES))

    def fill(name: str, size: int, value: float) -> _Entry:
        return name, (size,), lambda: np.full(size, value)

    def weight(name: str, shape: tuple[int, int], stream: str) -> _Entry:
        return name, shape, lambda: root.spawn(stream).trunc_normal(0.02, size=shape)

    def affine(name: str, din: int, dout: int) -> tuple[_Entry, _Entry]:
        return weight(f"{name}.w", (din, dout), f"{name}.w"), fill(f"{name}.b", dout, 0.0)

    def norm(name: str) -> tuple[_Entry, _Entry]:
        return fill(f"{name}.gamma", d, 1.0), fill(f"{name}.beta", d, 0.0)

    def core(j: int) -> tuple[_Entry, _Entry]:
        return (
            (f"core.tokens.{j}", (CHUNK, d), lambda: root.spawn(f"core.tokens.{j}").normal(0.02, size=(CHUNK, d))),
            (f"core.coords.{j}", (CHUNK, 2), lambda: fps_states()[j * CHUNK : (j + 1) * CHUNK].copy()),
        )

    yield from affine("patch_embed", config.patch_size * config.patch_size * CHANNELS, d)
    for i in range(config.layers):
        pre = f"blocks.{i}"
        yield from norm(f"{pre}.norm_attn")
        for proj in "qkvo":  # the stream layout of AttnParams.init
            yield weight(f"{pre}.attn.w{proj}", (d, d), f"{pre}.attn/w{proj}")
            yield fill(f"{pre}.attn.b{proj}", d, 0.0)
        yield from norm(f"{pre}.norm_ffn")
        yield from affine(f"{pre}.ffn.fc1", d, 2 * hidden)
        yield from affine(f"{pre}.ffn.fc2", hidden, d)
    yield from norm("final_norm")
    for j in range(MAX_CORES // CHUNK):
        yield from core(j)
    for i in range(config.layers - 1):
        yield from affine(f"coord_head.{i}", d, 2)
        yield fill(f"coord_head.{i}.alpha", 1, 0.01)


def _check_state(state: dict[str, np.ndarray], shapes: Iterable[tuple[str, tuple[int, ...]]]) -> list[str]:
    """The names of ``shapes`` (name, shape pairs in state order), each checked against ``state``.

    The walk stops at the :data:`LISTED`-th name ``state`` lacks, so a layout
    far larger than the state costs at most ``len(state) + LISTED`` steps.
    """
    names: list[str] = []
    missing: list[str] = []
    for name, shape in shapes:
        if name not in state:
            missing.append(name)
            if len(missing) == LISTED:
                raise ConfigError(f"state mismatch: missing={missing}, stopped at the first {LISTED}")
        elif state[name].shape != shape:
            raise ShapeError(f"parameter {name}: shape {state[name].shape} != {shape}")
        else:
            names.append(name)
    extra = sorted(set(state).difference(names))
    if missing or extra:
        more = f" and {len(extra) - LISTED} more" if len(extra) > LISTED else ""
        raise ConfigError(f"state mismatch: missing={missing} extra={extra[:LISTED]}{more}")
    return names


class Encoder:
    """Elastic core-periphery encoder with named parameters.

    Parameters live in ``self.params`` (name -> Tensor). Without a ``state``
    the weights are drawn fresh, each from its own named stream, and are
    trainable (``requires_grad``). With a ``state`` (name -> array, as
    :meth:`state` returns and checkpoints hold) nothing is drawn: the arrays
    are checked by name and shape, wrapped without a copy when they already
    have the encoder's dtype, and frozen, so forwards record no tape.
    :class:`~veca.distill.AdamW` turns ``requires_grad`` on for what it
    optimizes. Weights are immutable during inference; the trainer replaces
    ``.data`` between steps.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        dtype=np.float64,
        state: dict[str, np.ndarray] | None = None,
    ):
        self.config = config
        self.seed = seed
        self.dtype = float_type(dtype)
        self._grid_cache: dict[tuple[int, int, int], Tensor] = {}
        fresh = state is None
        if fresh:  # cast as drawn, so only one float64 draw is alive at a time
            state = {name: np.asarray(draw(), dtype=self.dtype) for name, _, draw in _layout(config, seed)}
            names = list(state)
        else:
            names = _check_state(state, ((name, shape) for name, shape, _ in _layout(config, seed)))
        self.params: dict[str, Tensor] = {
            name: Tensor(np.ascontiguousarray(state[name], dtype=self.dtype), requires_grad=fresh)
            for name in names
        }
        p = self.params
        self.patch_w, self.patch_b = p["patch_embed.w"], p["patch_embed.b"]
        self.blocks: list[BlockParams] = []
        for i in range(config.layers):
            pre = f"blocks.{i}"
            attn = AttnParams(**{k: p[f"{pre}.attn.{k}"] for k in PROJECTIONS}, heads=config.heads)
            self.blocks.append(BlockParams(
                p[f"{pre}.norm_attn.gamma"], p[f"{pre}.norm_attn.beta"], attn,
                p[f"{pre}.norm_ffn.gamma"], p[f"{pre}.norm_ffn.beta"],
                p[f"{pre}.ffn.fc1.w"], p[f"{pre}.ffn.fc1.b"], p[f"{pre}.ffn.fc2.w"], p[f"{pre}.ffn.fc2.b"],
            ))
        self.final_gamma, self.final_beta = p["final_norm.gamma"], p["final_norm.beta"]
        chunks = range(MAX_CORES // CHUNK)
        self.core_tokens = [p[f"core.tokens.{j}"] for j in chunks]
        self.core_coords = [p[f"core.coords.{j}"] for j in chunks]
        self.coord_heads: list[tuple[Tensor, Tensor, Tensor]] = [
            (p[f"coord_head.{i}.w"], p[f"coord_head.{i}.b"], p[f"coord_head.{i}.alpha"])
            for i in range(config.layers - 1)
        ]

    # -- parameter plumbing ---------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        _check_state(state, ((name, t.shape) for name, t in self.params.items()))
        for name, t in self.params.items():
            t.data = np.ascontiguousarray(state[name], dtype=self.dtype)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward passes ---------------------------------------------------------

    def patch_embed(self, images) -> tuple[Tensor, tuple[int, int]]:
        """Affine embedding of flattened patches; row-major patch order."""
        flat, grid = patchify(images, self.config, self.dtype)
        return linear(flat, self.patch_w, self.patch_b), grid

    def encode_tokens(
        self,
        patch_tokens: Tensor,
        hp: int,
        wp: int,
        active_c: int,
        num_blocks: int | None = None,
        *,
        capture: list | None = None,
    ) -> Tensor:
        """Run the block stack over [active cores ; patch_tokens].

        Returns [B, 1 + N, D] after the final LayerNorm: core token 0, then the
        N patch tokens, the only rows the features are read from; the last
        block of the stack computes no other query row. ``capture`` receives
        each layer's attention internals as they ran. ``num_blocks`` truncates
        the stack (used by structural probes).
        """
        cfg = self.config
        c = active_c
        b, n, d = patch_tokens.shape
        if n != hp * wp:
            raise ShapeError(f"got {n} patch tokens for an {hp}x{wp} grid")
        depth = cfg.layers if num_blocks is None else num_blocks
        if not 0 < depth <= cfg.layers:
            raise ConfigError(f"num_blocks must be in [1, {cfg.layers}], got {depth}")

        core_tokens, rho = active_prefix(self.core_tokens, self.core_coords, c)
        cores_b = broadcast_to(core_tokens, (b, c, d))
        rho_b = broadcast_to(rho, (b, c, 2))

        patch_coords = grid_coords(self._grid_cache, b, hp, wp, self.dtype)

        x = concat([cores_b, patch_tokens], axis=1)
        core_u = tanh(rho_b)
        for li in range(depth):
            if li > 0:
                w, bias, alpha = self.coord_heads[li - 1]
                feats = getitem(x, (slice(None), slice(0, c)))
                delta = linear(feats, w, bias)
                rho_b = add(rho_b, mul(alpha, delta))
                core_u = tanh(rho_b)
            coords = concat([core_u, patch_coords], axis=1)
            layer_capture: dict | None = None
            if capture is not None:
                layer_capture = {"coords": coords.data.copy()}
                capture.append(layer_capture)
            last = li == depth - 1
            x = block_forward(x, coords, c, self.blocks[li], layer_capture, core_rows=1 if last else None)
        return layer_norm(x, self.final_gamma, self.final_beta)

    def forward(
        self,
        images,
        active_c: int,
        *,
        capture: list | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Encode images into (global [B, D], dense [B, N, D]) features at budget ``active_c``."""
        c = int(active_c)
        tokens, (hp, wp) = self.patch_embed(images)
        x = self.encode_tokens(tokens, hp, wp, c, capture=capture)
        return getitem(x, (slice(None), 0)), getitem(x, (slice(None), slice(1, None)))

    def __call__(self, images, active_c: int, **kw):
        return self.forward(images, active_c, **kw)
