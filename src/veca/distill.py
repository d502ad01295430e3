"""Distillation objective, synthetic teacher, and the training loop.

The student is trained to match a frozen teacher's global feature (cosine
distance) and dense patch features (cosine distance plus MSE), with the dense
term scaled by lambda. One active-core budget is
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
from .errors import CheckpointError, ConfigError, NonFiniteError, ResolutionError, ShapeError, TrainingDivergedError
from .model import BlockParams, Encoder, ModelConfig, block_forward, patchify
from .rng import RngStream
from .rope import patch_grid
from .tensor import (
    Tensor,
    add,
    clip_min,
    div,
    layer_norm,
    linear,
    mul,
    neg,
    power,
    sub,
    tmean,
    tsum,
)


NORM_FLOOR = 1e-6  # cosine losses floor each feature norm here
TEACHER_SEED = 7001  # default synthetic teacher


@dataclass(frozen=True)
class DistillConfig:
    """Objective weights plus the optimizer schedule for one training stage."""

    lr: float = 3e-3
    min_lr: float = 3e-4
    warmup_steps: int = 20
    total_steps: int = 500
    weight_decay: float = 0.01
    batch_size: int = 8
    lambda_dense: float = 1.0
    resolutions: tuple[int, ...] = (16,)

    def __post_init__(self):
        if self.lambda_dense < 0:
            raise ConfigError(f"lambda_dense must be nonnegative, got {self.lambda_dense}")
        if not 0 < self.min_lr <= self.lr:
            raise ConfigError(f"need 0 < min_lr <= lr, got {self.min_lr} and {self.lr}")
        if self.warmup_steps < 0 or self.total_steps < 1:
            raise ConfigError("invalid step counts")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def _safe_norm(t: Tensor) -> Tensor:
    # max(||t||, NORM_FLOOR) over the last axis, computed as
    # sqrt(max(sum t^2, NORM_FLOOR^2)) so the gradient stays finite at the floor
    sumsq = tsum(mul(t, t), axis=-1)
    return power(clip_min(sumsq, NORM_FLOOR * NORM_FLOOR), 0.5)


def loss_global(y: Tensor, y_star: Tensor) -> Tensor:
    """Mean cosine distance 1 - <y, y*> / (||y|| ||y*||), norms floored at NORM_FLOOR."""
    if y.shape != y_star.shape:
        raise ShapeError(f"loss_global: shapes differ: {y.shape} vs {y_star.shape}")
    dot = tsum(mul(y, y_star), axis=-1)
    cosine = div(dot, mul(_safe_norm(y), _safe_norm(y_star)))
    return tmean(add(neg(cosine), 1.0))


def loss_dense(z: Tensor, z_star: Tensor, beta_mse: float = 1.0) -> Tensor:
    """Patch-mean cosine distance plus beta * elementwise-mean squared error."""
    if z.shape != z_star.shape:
        raise ShapeError(f"loss_dense: shapes differ: {z.shape} vs {z_star.shape}")
    dot = tsum(mul(z, z_star), axis=-1)
    cosine = div(dot, mul(_safe_norm(z), _safe_norm(z_star)))
    cos_term = tmean(add(neg(cosine), 1.0))
    diff = sub(z, z_star)
    return add(cos_term, mul(tmean(mul(diff, diff)), float(beta_mse)))


def total_loss(
    images: np.ndarray,
    active_c: int,
    student: Encoder,
    teacher,
    cfg: DistillConfig,
    *,
    targets: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Global + lambda * dense loss of the student at the given budget.

    ``targets`` overrides the teacher (used for precomputed target files).
    """
    if targets is None:
        targets = teacher.targets(images)
    y_star = Tensor(np.asarray(targets[0], dtype=student.dtype))
    z_star = Tensor(np.asarray(targets[1], dtype=student.dtype))
    y, z = student(images, active_c)
    lg = loss_global(y, y_star)
    ld = loss_dense(z, z_star)
    loss = add(lg, mul(ld, float(cfg.lambda_dense)))
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
        self.dtype = np.dtype(dtype).type
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
    parameter whose ``grad`` is None.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0):
        self.params = params
        for p in params.values():
            p.requires_grad = True
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            update = (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
            new = p.data.astype(np.float64) - lr * update - lr * self.weight_decay * p.data
            p.data = new.astype(p.data.dtype)


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
    res_stream = data_stream.spawn("resolutions") if len(cfg.resolutions) > 1 else None
    records: list[TrainRecord] = []
    for step in range(1, cfg.total_steps + 1):
        if budget_schedule is not None:
            budget = int(budget_schedule[step - 1])
        else:
            budget = sample_budget(dist, budget_stream)
        if file_teacher is not None:
            images, targets = file_teacher.batch(step, cfg.batch_size)
        else:
            res = (
                cfg.resolutions[0]
                if res_stream is None
                else cfg.resolutions[int(res_stream.integers(0, len(cfg.resolutions)))]
            )
            images = synthetic_images(data_stream, cfg.batch_size, res)
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
