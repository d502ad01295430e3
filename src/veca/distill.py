"""Distillation objective, synthetic teacher, and the training loop.

The student is trained to match a frozen teacher's global feature (cosine
distance) and dense patch features (cosine distance plus MSE); the objective
is the unweighted sum of the two terms. One active-core budget is
sampled per optimizer step and shared by the whole batch. The optimizer is
a decoupled-weight-decay adaptive-moment method with a linear-warmup cosine
learning-rate schedule.

At desk scale the teacher is a frozen randomly-initialized dense
self-attention encoder on the student's blocks; precomputed target files (see
:func:`save_target_file`) can stand in for a real teacher ingested offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import AttnParams
from .data import CHANNELS, synthetic_images
from .elastic import BudgetDistribution, sample_budget
from .errors import (
    CheckpointError,
    ConfigError,
    DTypeError,
    NonFiniteError,
    ResolutionError,
    ShapeError,
    TrainingDivergedError,
)
from .model import BlockParams, Encoder, ModelConfig, block_forward, patchify
from .rng import RngStream
from .rope import patch_grid
from .tensor import (
    Tensor,
    _accumulate,
    _check_finite,
    _from_op,
    _row_sum,
    _same_dtype,
    add,
    as_tensor,
    float_type,
    layer_norm,
    linear,
)


NORM_FLOOR = 1e-6  # cosine losses floor each feature norm here
TEACHER_SEED = 7001  # default synthetic teacher


@dataclass(frozen=True)
class DistillConfig:
    """The optimizer schedule, batch size and image resolution of one training stage.

    The objective has no settings: it is global + dense (:func:`total_loss`).
    """

    lr: float = 3e-3
    min_lr: float = 3e-4
    warmup_steps: int = 20
    total_steps: int = 500
    weight_decay: float = 0.01
    batch_size: int = 8
    resolution: int = 16

    def __post_init__(self):
        named = ("lr", "min_lr", "weight_decay")
        bad = {k: getattr(self, k) for k in named if not math.isfinite(getattr(self, k))}
        if bad:
            raise ConfigError(f"optimizer settings must be finite, got {bad}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not 0 < self.min_lr <= self.lr:
            raise ConfigError(f"need 0 < min_lr <= lr, got {self.min_lr} and {self.lr}")
        if self.warmup_steps < 0 or self.total_steps < 1:
            raise ConfigError("invalid step counts")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def _operands(op: str, a, b) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ: {a.shape} vs {b.shape}")
    _same_dtype(op, a, b)
    return a, b


def _cosine(a: np.ndarray, b: np.ndarray, op: str):
    """Per-row cosine <a, b> / (|a| |b|) over the last axis (kept, length 1).

    Each norm is floored as |x| = sqrt(max(sum x^2, NORM_FLOOR^2)), so it passes
    gradient only where sum x^2 > NORM_FLOOR^2. The dot products and sums of
    squares are checked finite: an overflowed norm would give a silent cosine
    of 0. Their norm product cannot overflow then, because sqrt(max)^2 rounds
    to a finite value in both dtypes. Returns the cosines and their
    vector-Jacobian product ``vjp(gc, first)``: the gradient of sum(gc * cos)
    w.r.t. ``a`` (or ``b``).
    """
    floor2 = NORM_FLOOR * NORM_FLOOR
    with np.errstate(over="ignore", invalid="ignore"):
        dot, ssa, ssb = _row_sum(a * b), _row_sum(a * a), _row_sum(b * b)
    _check_finite(dot, f"{op} dot product")
    _check_finite(ssa, f"{op} sum of squares")
    _check_finite(ssb, f"{op} sum of squares")
    qa, qb = np.maximum(ssa, floor2), np.maximum(ssb, floor2)
    den = np.sqrt(qa) * np.sqrt(qb)
    cos = dot / den

    def vjp(gc: np.ndarray, first: bool) -> np.ndarray:
        # d cos / dx = other / den - cos x / |x|^2, the second term only above the floor
        x, other, ss, q = (a, b, ssa, qa) if first else (b, a, ssb, qb)
        return (gc / den) * other - (gc * cos * (ss > floor2) / q) * x

    return cos, vjp


def _mean(a: np.ndarray):
    return a.sum() * (1.0 / a.size)


def loss_global(y: Tensor, y_star: Tensor) -> Tensor:
    """Mean cosine distance 1 - <y, y*> / (||y|| ||y*||), norms floored at NORM_FLOOR.

    One tape node; a target that requires grad gets its gradient too.
    """
    y, y_star = _operands("loss_global", y, y_star)
    cos, vjp = _cosine(y.data, y_star.data, "loss_global")
    data = np.asarray(_mean(1.0 - cos))

    def grad_fn(g: np.ndarray) -> None:
        gc = g * (-1.0 / cos.size)
        if y.requires_grad:
            _accumulate(y, vjp(gc, True))
        if y_star.requires_grad:
            _accumulate(y_star, vjp(gc, False))

    return _from_op(data, (y, y_star), grad_fn, "loss_global")


def loss_dense(z: Tensor, z_star: Tensor) -> Tensor:
    """Patch-mean cosine distance plus elementwise-mean squared error; one tape node."""
    z, z_star = _operands("loss_dense", z, z_star)
    cos, vjp = _cosine(z.data, z_star.data, "loss_dense")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = z.data - z_star.data
        sq = diff * diff
        mse = _mean(sq)  # an overflowed sum fails the node's own check
    _check_finite(sq, "loss_dense squared difference")
    data = np.asarray(_mean(1.0 - cos) + mse)

    def grad_fn(g: np.ndarray) -> None:
        gc = g * (-1.0 / cos.size)
        gd = g * (2.0 / diff.size) * diff
        if z.requires_grad:
            _accumulate(z, vjp(gc, True) + gd)
        if z_star.requires_grad:
            _accumulate(z_star, vjp(gc, False) - gd)

    return _from_op(data, (z, z_star), grad_fn, "loss_dense")


def total_loss(
    images: np.ndarray,
    active_c: int,
    student: Encoder,
    teacher,
    cfg: DistillConfig,
    *,
    targets: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Global + dense loss of the student at the given budget.

    ``targets`` overrides the teacher (used for precomputed target files).
    ``cfg`` sets nothing in the objective; callers pass their stage's config.
    """
    if targets is None:
        targets = teacher.targets(images)
    y_star = Tensor(np.asarray(targets[0], dtype=student.dtype))
    z_star = Tensor(np.asarray(targets[1], dtype=student.dtype))
    y, z = student(images, active_c)
    lg = loss_global(y, y_star)
    ld = loss_dense(z, z_star)
    loss = add(lg, ld)
    return loss, {"global": float(lg.data), "dense": float(ld.data)}


class SyntheticTeacher:
    """Frozen randomly-initialized dense self-attention encoder.

    Two pre-norm blocks at the student's width and patch size, run on the
    student's own patchify and blocks with every patch token as a core
    (C = T, so attention is full N x N self-attention) and grid rotary
    coordinates, then a final LayerNorm. Global target is the mean-pooled
    patch feature. Purely deterministic for a fixed seed.
    """

    def __init__(self, config: ModelConfig, seed: int = TEACHER_SEED, dtype=np.float64):
        self.config = config
        self.dtype = float_type(dtype)
        root = RngStream(seed, "teacher")
        d, hidden = config.dim, config.hidden

        def w(name: str, shape) -> Tensor:
            return Tensor(root.spawn(name).trunc_normal(0.02, size=shape).astype(self.dtype))

        def const(value: float, size: int) -> Tensor:
            return Tensor(np.full(size, value, dtype=self.dtype))

        pdim = config.patch_size * config.patch_size * CHANNELS
        self.patch_w, self.patch_b = w("patch.w", (pdim, d)), const(0.0, d)
        self.blocks: list[BlockParams] = []
        for i in range(2):
            attn = AttnParams(
                w(f"b{i}.wq", (d, d)), const(0.0, d), w(f"b{i}.wk", (d, d)), const(0.0, d),
                w(f"b{i}.wv", (d, d)), const(0.0, d), w(f"b{i}.wo", (d, d)), const(0.0, d),
                config.heads,
            )
            self.blocks.append(BlockParams(
                const(1.0, d), const(0.0, d), attn, const(1.0, d), const(0.0, d),
                w(f"b{i}.w1", (d, 2 * hidden)), const(0.0, 2 * hidden), w(f"b{i}.w2", (hidden, d)), const(0.0, d),
            ))
        self.fg, self.fb = const(1.0, d), const(0.0, d)

    def targets(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat, (hp, wp) = patchify(images, self.config, self.dtype)
        x = linear(flat, self.patch_w, self.patch_b)
        b, n, _ = x.shape
        coords = Tensor(np.broadcast_to(patch_grid(hp, wp).astype(self.dtype)[None], (b, n, 2)).copy())
        for blk in self.blocks:
            x = block_forward(x, coords, n, blk)
        dense = layer_norm(x, self.fg, self.fb).data.copy()
        return dense.mean(axis=1), dense


def _check_targets(images: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
    """Require images [B, C, H, W], global targets [B, D] and dense targets [B, N, D], B >= 1."""
    if (
        (images.ndim, y.ndim, z.ndim) != (4, 2, 3)
        or not images.shape[0] == y.shape[0] == z.shape[0] >= 1
        or y.shape[1] != z.shape[2]
    ):
        raise ShapeError(
            "targets need images [B, C, H, W], global [B, D] and dense [B, N, D] with B >= 1; "
            f"got {images.shape}, {y.shape} and {z.shape}"
        )


def save_target_file(path: str | Path, images: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
    """Write a precomputed-teacher target file in the checkpoint container."""
    from .checkpoint import save_container

    images, y, z = np.asarray(images), np.asarray(y), np.asarray(z)
    _check_targets(images, y, z)
    save_container(
        path,
        {"kind": "teacher_targets", "count": int(images.shape[0])},
        {"images": images, "global": y, "dense": z},
    )


class FileTeacher:
    """Fixed (image, target) set loaded from a precomputed target file.

    The images must be ones ``config``'s model takes, and the dense targets
    [B, N, D] must have its patch count N and width D.
    """

    def __init__(self, path: str | Path, config: ModelConfig):
        from .checkpoint import load_container

        meta, tensors = load_container(path)
        if meta.get("kind") != "teacher_targets":
            raise CheckpointError(f"{path}: not a teacher-target container")
        missing = [k for k in ("images", "global", "dense") if k not in tensors]
        if missing:
            raise CheckpointError(f"{path}: teacher-target container has no {missing} tensors")
        self.images = tensors["images"]
        self.global_targets = tensors["global"]
        self.dense_targets = tensors["dense"]
        try:
            _check_targets(self.images, self.global_targets, self.dense_targets)
            n = patchify(self.images[:1], config, self.images.dtype)[0].shape[1]
        except (ShapeError, ResolutionError) as err:
            raise CheckpointError(f"{path}: {err}") from err
        if self.dense_targets.shape[1:] != (n, config.dim):
            raise CheckpointError(
                f"{path}: dense targets {self.dense_targets.shape} do not fit {n} patches of width {config.dim}"
            )

    def batch(self, step: int, batch_size: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        n = self.images.shape[0]
        idx = [((step - 1) * batch_size + i) % n for i in range(batch_size)]
        return self.images[idx], (self.global_targets[idx], self.dense_targets[idx])


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Turns ``requires_grad`` on for every parameter it is given, so a frozen
    (loaded) encoder trains exactly like a fresh one; :meth:`step` skips a
    parameter whose ``grad`` is None, leaving its weights and moments as they
    are. All parameters must share one dtype.

    The first and second moments are two flat float64 arrays, ``m`` and ``v``,
    in parameter order. Parameters are grouped in that order into buckets of
    consecutive tensors of at most BUCKET elements (a larger tensor is a
    bucket of its own), and a step updates each bucket with one pass of
    whole-array numpy calls over its live parameters, so the temporaries of a
    step are bounded by the largest bucket rather than the whole model.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8
    BUCKET = 2**16

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0):
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise DTypeError(f"AdamW needs parameters of one dtype, got {sorted(d.name for d in dtypes)}")
        self.params = params
        for p in params.values():
            p.requires_grad = True
        self.weight_decay = weight_decay
        self.t = 0
        total = sum(p.size for p in params.values())
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._buckets: list[_Bucket] = []
        offset = 0
        for p in params.values():
            if not self._buckets or self._buckets[-1].size + p.size > self.BUCKET:
                self._buckets.append(_Bucket(offset))
            self._buckets[-1].add(p)
            offset += p.size

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for bucket in self._buckets:
            live = bucket.live()
            if live is None:
                continue
            region, sub, tensors, bounds = live
            # in place, so a contiguous pattern updates the moments with no temporary copy of them
            m, v = self.m[region][sub], self.v[region][sub]
            g = np.concatenate([p.grad for p in tensors], axis=None, dtype=np.float64)
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            self.m[region][sub], self.v[region][sub] = m, v  # a gathered copy goes back; a view is left alone
            del g  # freed before the weights are gathered, so the two are never held at once
            w = np.concatenate([p.data for p in tensors], axis=None)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            new = (w.astype(np.float64) - lr * update - lr * self.weight_decay * w).astype(w.dtype)
            for p, lo, hi in zip(tensors, bounds, bounds[1:]):
                p.data = new[lo:hi].reshape(p.shape)


class _Bucket:
    """Consecutive parameters updated together, with one element index per live pattern.

    A pattern is which of its parameters have a gradient. Its index is the
    region of the flat moments from the first live element to the last, and
    within it either everything (the live parameters are contiguous, as when
    all are live) or a boolean mask of the live elements.
    """

    def __init__(self, offset: int):
        self.offset = offset
        self.size = 0
        self.tensors: list[Tensor] = []
        self._patterns: dict[tuple[bool, ...], tuple | None] = {}

    def add(self, p: Tensor) -> None:
        self.tensors.append(p)
        self.size += p.size

    def live(self) -> tuple[slice, slice | np.ndarray, list[Tensor], list[int]] | None:
        """(region, mask in it, live parameters, their bounds in the concatenation), or None if none is live."""
        key = tuple(p.grad is not None for p in self.tensors)
        if key not in self._patterns:
            self._patterns[key] = self._index(key)
        return self._patterns[key]

    def _index(self, key: tuple[bool, ...]):
        tensors, ranges, lo = [], [], self.offset
        for p, on in zip(self.tensors, key):
            if on:
                tensors.append(p)
                ranges.append((lo, lo + p.size))
            lo += p.size
        if not tensors:
            return None
        start, stop = ranges[0][0], ranges[-1][1]
        sub = slice(None)
        if any(a[1] != b[0] for a, b in zip(ranges, ranges[1:])):
            sub = np.zeros(stop - start, dtype=bool)
            for lo, hi in ranges:
                sub[lo - start : hi - start] = True
        bounds = [0] + np.cumsum([p.size for p in tensors]).tolist()
        return slice(start, stop), sub, tensors, bounds


def lr_schedule(step: int, cfg: DistillConfig) -> float:
    """Linear warmup to lr, then cosine decay to min_lr at total_steps. 1-indexed."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = max(cfg.total_steps - cfg.warmup_steps, 1)
    progress = (step - cfg.warmup_steps) / span
    return cfg.min_lr + (cfg.lr - cfg.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class TrainRecord:
    step: int
    budget: int
    loss: float
    lr: float


def train(
    student: Encoder,
    teacher,
    dist: BudgetDistribution,
    cfg: DistillConfig,
    *,
    data_stream: RngStream,
    budget_stream: RngStream,
    file_teacher: FileTeacher | None = None,
    budget_schedule: list[int] | None = None,
) -> list[TrainRecord]:
    """Elastic distillation loop; mutates the student in place.

    One budget per optimizer step shared by the whole batch. A saved
    ``budget_schedule`` replays budgets exactly instead of sampling. Aborts
    with the step index and budget if any step produces a non-finite value.
    """
    if budget_schedule is not None and len(budget_schedule) < cfg.total_steps:
        raise ConfigError(
            f"budget schedule has {len(budget_schedule)} entries for {cfg.total_steps} steps"
        )
    opt = AdamW(student.params, weight_decay=cfg.weight_decay)
    records: list[TrainRecord] = []
    for step in range(1, cfg.total_steps + 1):
        if budget_schedule is not None:
            budget = int(budget_schedule[step - 1])
        else:
            budget = sample_budget(dist, budget_stream)
        if file_teacher is not None:
            images, targets = file_teacher.batch(step, cfg.batch_size)
        else:
            images = synthetic_images(data_stream, cfg.batch_size, cfg.resolution)
            targets = None
        try:
            loss, _ = total_loss(images, budget, student, teacher, cfg, targets=targets)
            value = float(loss.data)
            if not math.isfinite(value):
                raise NonFiniteError("loss value")
            student.zero_grad()
            loss.backward()
        except NonFiniteError as err:
            raise TrainingDivergedError(step, budget, str(err)) from err
        lr = lr_schedule(step, cfg)
        opt.step(lr)
        records.append(TrainRecord(step, budget, value, lr))
    return records
