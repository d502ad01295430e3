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
from .model import BlockParams, Encoder, ModelConfig, block_forward, grid_coords, patchify
from .rng import RngStream
from .tensor import (
    Tensor,
    _accumulate,
    _check_finite,
    _from_op,
    _row_sum,
    _same_dtype,
    add,
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


def _check_operands(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ: {a.shape} vs {b.shape}")
    _same_dtype(op, a, b)


def _cosine(a: np.ndarray, b: np.ndarray, op: str):
    """Per-row cosine <a, b> / (|a| |b|) over the last axis (kept, length 1).

    Each norm is floored as |x| = sqrt(max(sum x^2, NORM_FLOOR^2)), so it passes
    gradient only where sum x^2 > NORM_FLOOR^2. The dot products and sums of
    squares are checked finite: an overflowed norm would give a silent cosine
    of 0. Their norm product cannot overflow then, because sqrt(max)^2 rounds
    to a finite value in both dtypes. Returns the cosines and their
    vector-Jacobian product ``vjp(gc)``: the gradient of sum(gc * cos) w.r.t.
    ``a``; ``b`` is a constant, whose floored norm enters only the value.
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

    def vjp(gc: np.ndarray) -> np.ndarray:
        # d cos / da = b / den - cos a / |a|^2, the second term only above the floor
        return (gc / den) * b - (gc * cos * (ssa > floor2) / qa) * a

    return cos, vjp


def _mean(a: np.ndarray):
    return a.sum() * (1.0 / a.size)


def loss_global(y: Tensor, y_star: Tensor) -> Tensor:
    """Mean cosine distance 1 - <y, y*> / (||y|| ||y*||), norms floored at NORM_FLOOR.

    One tape node whose only parent is ``y``: the target is a constant, so
    no gradient reaches it, whether or not it requires one.
    """
    _check_operands("loss_global", y, y_star)
    cos, vjp = _cosine(y.data, y_star.data, "loss_global")
    data = np.asarray(_mean(1.0 - cos))

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(y, vjp(g * (-1.0 / cos.size)))

    return _from_op(data, (y,), grad_fn, "loss_global")


def loss_dense(z: Tensor, z_star: Tensor) -> Tensor:
    """Patch-mean cosine distance plus elementwise-mean squared error.

    One tape node whose only parent is ``z``, as in :func:`loss_global`.
    """
    _check_operands("loss_dense", z, z_star)
    cos, vjp = _cosine(z.data, z_star.data, "loss_dense")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = z.data - z_star.data
        sq = diff * diff
        mse = _mean(sq)  # an overflowed sum fails the node's own check
    _check_finite(sq, "loss_dense squared difference")
    data = np.asarray(_mean(1.0 - cos) + mse)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(z, vjp(g * (-1.0 / cos.size)) + g * (2.0 / diff.size) * diff)

    return _from_op(data, (z,), grad_fn, "loss_dense")


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

    ``targets`` overrides the teacher (:func:`train` passes each batch's).
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
        self._grid_cache: dict[tuple[int, int, int], Tensor] = {}
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

    def batch(
        self, step: int, data_stream: RngStream, cfg: DistillConfig
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """A fresh synthetic batch from ``data_stream`` and its targets."""
        images = synthetic_images(data_stream, cfg.batch_size, cfg.resolution)
        return images, self.targets(images)

    def targets(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat, (hp, wp) = patchify(images, self.config, self.dtype)
        x = linear(flat, self.patch_w, self.patch_b)
        b, n, _ = x.shape
        coords = grid_coords(self._grid_cache, b, hp, wp, self.dtype)
        for blk in self.blocks:
            x = block_forward(x, coords, n, blk)
        dense = layer_norm(x, self.fg, self.fb).data.copy()
        return dense.mean(axis=1), dense


def budget_losses(student: Encoder, budgets, *, seed: int, batch: int, resolution: int) -> list[dict[str, float]]:
    """:func:`total_loss`'s parts at each of ``budgets``, in order, on ``batch`` synthetic ``resolution`` px
    images from the ``"eval-data"`` stream of ``seed``, against the synthetic teacher in the student's dtype."""
    teacher = SyntheticTeacher(student.config, dtype=student.dtype)
    images = synthetic_images(RngStream(seed, "eval-data"), batch, resolution)
    targets = teacher.targets(images)
    return [total_loss(images, c, student, None, DistillConfig(), targets=targets)[1] for c in budgets]


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
    [B, N, D] must have its patch count N and width D. Every value must be
    finite.
    """

    def __init__(self, path: str | Path, config: ModelConfig):
        from .checkpoint import load_container

        meta, tensors = load_container(path)
        if meta.get("kind") != "teacher_targets":
            raise CheckpointError(f"{path}: not a teacher-target container")
        missing = [k for k in ("images", "global", "dense") if k not in tensors]
        if missing:
            raise CheckpointError(f"{path}: teacher-target container has no {missing} tensors")
        nonfinite = [k for k in ("images", "global", "dense") if not np.isfinite(tensors[k]).all()]
        if nonfinite:
            raise CheckpointError(f"{path}: teacher-target tensors {nonfinite} hold non-finite values")
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

    def batch(
        self, step: int, data_stream: RngStream, cfg: DistillConfig
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The stored pairs of ``step`` (1-indexed), cycling through the file; draws nothing."""
        n, size = self.images.shape[0], cfg.batch_size
        idx = [((step - 1) * size + i) % n for i in range(size)]
        return self.images[idx], (self.global_targets[idx], self.dense_targets[idx])


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Turns ``requires_grad`` on for every parameter it is given, so a frozen
    (loaded) encoder trains exactly like a fresh one; :meth:`step` skips a
    parameter whose ``grad`` is None (the core chunks beyond a step's budget),
    leaving its weights and moments as they are. All parameters must share
    one dtype.

    The first and second moments are two flat float64 arrays, ``m`` and ``v``,
    in parameter order. A step updates each run of consecutive parameters
    that have a gradient, of at most BUCKET elements (a larger tensor is a
    run of its own), with one pass of whole-array numpy calls over the run's
    slices of ``m`` and ``v``, so the temporaries of a step are bounded by the
    largest run rather than the whole model.
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

    def _runs(self):
        """Yield (start, stop, parameters): each run of consecutive live parameters and its slice of m and v."""
        run: list[Tensor] = []
        start = size = offset = 0
        for p in self.params.values():
            if run and (p.grad is None or size + p.size > self.BUCKET):
                yield start, start + size, run
                run = []
            if p.grad is not None:
                if not run:
                    start, size = offset, 0
                run.append(p)
                size += p.size
            offset += p.size
        if run:
            yield start, start + size, run

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for start, stop, run in self._runs():
            m, v = self.m[start:stop], self.v[start:stop]  # views: updated in place
            g = np.concatenate([p.grad for p in run], axis=None, dtype=np.float64)
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            del g  # freed before the weights are gathered, so the two are never held at once
            w = np.concatenate([p.data for p in run], axis=None)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            new = (w.astype(np.float64) - lr * update - lr * self.weight_decay * w).astype(w.dtype)
            lo = 0
            for p in run:
                p.data = new[lo : lo + p.size].reshape(p.shape)
                lo += p.size


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
) -> list[TrainRecord]:
    """Elastic distillation loop; mutates the student in place.

    One budget per optimizer step, drawn from ``budget_stream`` and shared by
    the whole batch; the records hold every step's budget. ``teacher`` gives
    each step's batch as ``teacher.batch(step, data_stream, cfg)`` ->
    (images, (global, dense) targets): a :class:`SyntheticTeacher` draws it
    from ``data_stream``, a :class:`FileTeacher` reads its stored pairs.
    Aborts with the step index and budget if any step produces a non-finite
    value.
    """
    opt = AdamW(student.params, weight_decay=cfg.weight_decay)
    records: list[TrainRecord] = []
    for step in range(1, cfg.total_steps + 1):
        budget = sample_budget(dist, budget_stream)
        try:
            images, targets = teacher.batch(step, data_stream, cfg)
            loss, _ = total_loss(images, budget, student, None, cfg, targets=targets)
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
