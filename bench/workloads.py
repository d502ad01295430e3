"""The benchmark's workloads: what one operation is, its set-up and its checks.

Each workload drives veca through its public functions as a closed loop: one
client issues the next operation only when the previous one has returned.

* ``prepare`` runs in a child process before anything is timed. It writes the
  checkpoint the workload loads and the reference outputs its checks use.
* ``setup`` is the timed set-up: loading the checkpoint (which builds the
  ``Encoder``) and whatever frozen state the operations need.
* ``inputs`` loads references and makes the seeded inputs; not timed.
* ``cycle`` runs a fixed batch of operations and returns their spans and
  raw outputs; ``judge`` checks those outputs into a :class:`checks.Tally`.

``group`` consecutive cycles always do the same work, so counts averaged over
whole groups repeat exactly. The benchmarked model is always the seed-0 initialisation
(the default of ``veca train-toy``); ``--seed`` chooses the inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from repo import import_veca

import_veca()

from veca import checkpoint, distill  # noqa: E402
from veca import tensor as vtensor  # noqa: E402
from veca.data import synthetic_images  # noqa: E402
from veca.elastic import BudgetDistribution  # noqa: E402
from veca.errors import VecaError  # noqa: E402
from veca.model import Encoder, get_preset  # noqa: E402
from veca.rng import RngStream  # noqa: E402
from veca.tensor import Tensor  # noqa: E402

MODEL_SEED = 0
TEACHER_SEED = 7001

clock = time.perf_counter_ns


def tape_nodes() -> int:
    """Tensors created so far. Read from the counter's repr, which does not advance it."""
    return int(repr(vtensor._counter)[len("count("):-1])


@dataclass
class Op:
    start: int  # perf_counter_ns
    end: int
    nodes: int  # tensors created by the operation
    budget: int


class TrainTiny:
    """One op = one optimizer step inside ``distill.train``.

    A cycle is one training run of ``steps`` steps from the same initial
    weights, on data stream ``cycle % runs``; ``runs`` consecutive cycles are
    the unit over which counts are exact. ``train`` is called whole, so a
    step's boundaries are taken at its call to ``synthetic_images``, the first
    thing each step does.
    """

    name = "train_tiny"
    dtype = "float32"
    runs = 8
    steps = 100
    group = runs

    def prepare(self, seed: int, work: Path) -> None:
        student = Encoder(get_preset("tiny-test"), seed=MODEL_SEED, dtype=np.float32)
        checkpoint.save_model(work / "student.veca", student)

    def setup(self, seed: int, work: Path):
        start = clock()
        student, _ = checkpoint.load_model(work / "student.veca")
        load_s = (clock() - start) / 1e9
        teacher = distill.SyntheticTeacher(student.config, seed=TEACHER_SEED, dtype=student.dtype)
        return SimpleNamespace(student=student, teacher=teacher, load_s=load_s)

    def inputs(self, ctx, seed: int, work: Path) -> None:
        ctx.seed = seed
        ctx.initial = ctx.student.state()
        ctx.dist = BudgetDistribution()
        ctx.cfg = distill.DistillConfig(total_steps=self.steps)
        ctx.cycle = 0
        ctx.final_means: list[float] = []

    def warm(self, ctx) -> None:
        self._train(ctx, 0, distill.DistillConfig(total_steps=5))

    def _train(self, ctx, run: int, cfg):
        ctx.student.load_state({k: v.copy() for k, v in ctx.initial.items()})
        streams = RngStream(ctx.seed, f"bench/train/{run}")
        marks: list[tuple[int, int]] = []
        inner = distill.synthetic_images

        def step_start(*args, **kwargs):
            marks.append((clock(), tape_nodes()))
            return inner(*args, **kwargs)

        distill.synthetic_images = step_start
        try:
            records = distill.train(
                ctx.student, ctx.teacher, ctx.dist, cfg,
                data_stream=streams.spawn("data"), budget_stream=streams.spawn("budgets"),
            )
            error = ""
        except VecaError as err:
            records, error = [], str(err)
        finally:
            distill.synthetic_images = inner
        marks.append((clock(), tape_nodes()))
        return records, error, marks

    def cycle(self, ctx):
        run = ctx.cycle % self.runs
        ctx.cycle += 1
        records, error, marks = self._train(ctx, run, ctx.cfg)
        ops = [
            Op(t0, t1, n1 - n0, r.budget)
            for (t0, n0), (t1, n1), r in zip(marks, marks[1:], records)
        ]
        return ops, ([r.loss for r in records], error)

    def judge(self, ctx, outputs, tally: checks.Tally) -> None:
        losses, error = outputs
        ok, why = (False, error) if error else checks.train_run_ok(losses)
        tally.record(ok, ops=self.steps, reason=why)
        if len(ctx.final_means) < self.runs:
            ctx.final_means.append(float(np.mean(losses[-checks.MA_WINDOW:])) if ok else float("nan"))

    def loss_final(self, ctx) -> float:
        """Final 10-step mean loss, averaged over the ``runs`` data streams."""
        return float(np.mean(ctx.final_means))


class EncodeSmall:
    """One op = one 224 px image encoded by the ``small`` preset in float32.

    Called the way ``veca eval-budgets`` calls it: parameters as loaded, so
    the tape is recorded. A cycle encodes one seeded image per budget, with
    the budgets in a seeded order.
    """

    name = "encode_small"
    dtype = "float32"
    resolution = 224
    group = 1

    def pairs(self, seed: int, budgets) -> list[tuple[np.ndarray, int]]:
        order = np.argsort(RngStream(seed, "bench/encode/order").uniform(size=len(budgets)), kind="stable")
        images = synthetic_images(RngStream(seed, "bench/encode/images"), len(budgets), self.resolution)
        return [(images[i : i + 1], budgets[j]) for i, j in enumerate(order)]

    def prepare(self, seed: int, work: Path) -> None:
        config = get_preset("small")
        model = Encoder(config, seed=MODEL_SEED, dtype=np.float32)
        checkpoint.save_model(work / "model.veca", model)
        state = model.state()
        del model
        # float64 encode of the very same (float32-rounded) weights, tape off
        reference = Encoder(config, seed=MODEL_SEED, dtype=np.float64)
        reference.load_state(state)
        del state
        for p in reference.params.values():
            p.requires_grad = False
        teacher = distill.SyntheticTeacher(config, seed=TEACHER_SEED, dtype=np.float32)
        arrays = {}
        for i, (image, budget) in enumerate(self.pairs(seed, config.budgets)):
            y, z = reference(image, budget)
            ty, tz = teacher.targets(image)
            arrays.update({f"y{i}": y.data, f"z{i}": z.data, f"ty{i}": ty, f"tz{i}": tz})
        np.savez(work / "reference.npz", **arrays)

    def setup(self, seed: int, work: Path):
        start = clock()
        model, _ = checkpoint.load_model(work / "model.veca")
        return SimpleNamespace(model=model, load_s=(clock() - start) / 1e9)

    def inputs(self, ctx, seed: int, work: Path) -> None:
        ctx.pairs = self.pairs(seed, ctx.model.config.budgets)
        with np.load(work / "reference.npz") as ref:
            ctx.ref = [
                (ref[f"y{i}"], ref[f"z{i}"], ref[f"ty{i}"], ref[f"tz{i}"]) for i in range(len(ctx.pairs))
            ]
        ctx.losses: list[float] = []

    def warm(self, ctx) -> None:
        self.cycle(ctx)

    def cycle(self, ctx):
        ops, outputs = [], []
        for image, budget in ctx.pairs:
            n0, t0 = tape_nodes(), clock()
            y, z = ctx.model(image, budget)
            t1, n1 = clock(), tape_nodes()
            ops.append(Op(t0, t1, n1 - n0, budget))
            outputs.append((y.data, z.data))
            del y, z  # drop this op's tape before the next op records one
        return ops, outputs

    def judge(self, ctx, outputs, tally: checks.Tally) -> None:
        first = not ctx.losses
        for (y, z), (ry, rz, ty, tz) in zip(outputs, ctx.ref):
            ok, why = checks.features_ok(y, z, ry, rz)
            tally.record(ok, reason=why)
            if first:
                # the total column of `veca eval-budgets`
                lg = distill.loss_global(Tensor(y), Tensor(ty.astype(y.dtype)))
                ld = distill.loss_dense(Tensor(z), Tensor(tz.astype(z.dtype)))
                ctx.losses.append(float(lg.data) + float(ld.data))

    def loss_final(self, ctx) -> float:
        """Distillation loss against the synthetic teacher, averaged over the cycle."""
        return float(np.mean(ctx.losses))


class GradcheckTiny:
    """One op = one ``distill.total_loss`` evaluation with one coordinate moved.

    The c05 configuration at seed 0: ``tiny-test`` in float64, one 16 px
    image, budget 8, targets precomputed, parameters with ``requires_grad``
    off. Ops come in pairs that move one coordinate by +h and -h in place, as
    ``verify.model_grad_check`` does; coordinates are visited in a seeded
    order. Each pair is checked against the recorded backward gradient.
    """

    name = "gradcheck_tiny"
    dtype = "float64"
    budget = 8
    pairs_per_cycle = 64
    group = 1

    def images(self) -> np.ndarray:
        return synthetic_images(RngStream(MODEL_SEED, "acc5"), 1, 16)

    def prepare(self, seed: int, work: Path) -> None:
        config = get_preset("tiny-test")
        model = Encoder(config, seed=MODEL_SEED)
        checkpoint.save_model(work / "model.veca", model)
        teacher = distill.SyntheticTeacher(config, seed=TEACHER_SEED)
        images = self.images()
        loss, _ = distill.total_loss(
            images, self.budget, model, teacher, distill.DistillConfig(), targets=teacher.targets(images)
        )
        model.zero_grad()
        loss.backward()
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data)) for k, p in model.params.items()}
        np.savez(work / "grad.npz", **grads)

    def setup(self, seed: int, work: Path):
        images = self.images()
        start = clock()
        model, _ = checkpoint.load_model(work / "model.veca")
        load_s = (clock() - start) / 1e9
        teacher = distill.SyntheticTeacher(model.config, seed=TEACHER_SEED, dtype=model.dtype)
        targets = teacher.targets(images)
        for p in model.params.values():
            p.requires_grad = False
        return SimpleNamespace(model=model, images=images, targets=targets, load_s=load_s)

    def inputs(self, ctx, seed: int, work: Path) -> None:
        ctx.cfg = distill.DistillConfig()
        with np.load(work / "grad.npz") as grads:
            ctx.analytic = {k: grads[k].reshape(-1) for k in ctx.model.params}
        ctx.flat = {k: p.data.reshape(-1) for k, p in ctx.model.params.items()}
        names = list(ctx.model.params)
        sizes = np.array([ctx.flat[k].size for k in names])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        order = np.argsort(RngStream(seed, "bench/gradcheck/coords").uniform(size=int(offsets[-1])), kind="stable")
        which = np.searchsorted(offsets, order, side="right") - 1
        ctx.coords = [(names[w], int(k - offsets[w])) for w, k in zip(which, order)]
        ctx.position = 0
        ctx.loss0 = self._loss(ctx)

    def _loss(self, ctx) -> float:
        loss, _ = distill.total_loss(ctx.images, self.budget, ctx.model, None, ctx.cfg, targets=ctx.targets)
        return float(loss.data)

    def warm(self, ctx) -> None:
        self.cycle(ctx)
        ctx.position = 0

    def cycle(self, ctx):
        ops, outputs = [], []
        h = checks.GRAD_H
        for _ in range(self.pairs_per_cycle):
            name, i = ctx.coords[ctx.position % len(ctx.coords)]
            ctx.position += 1
            flat = ctx.flat[name]
            orig = flat[i]
            values = []
            for sign in (1.0, -1.0):
                n0, t0 = tape_nodes(), clock()
                flat[i] = orig + sign * h
                values.append(self._loss(ctx))
                t1, n1 = clock(), tape_nodes()
                ops.append(Op(t0, t1, n1 - n0, self.budget))
            flat[i] = orig
            outputs.append((name, i, values[0], values[1]))
        return ops, outputs

    def judge(self, ctx, outputs, tally: checks.Tally) -> None:
        for name, i, up, down in outputs:
            ok, why = checks.gradient_ok(float(ctx.analytic[name][i]), up, down)
            tally.record(ok, ops=2, reason=f"{name}[{i}]: {why}")

    def loss_final(self, ctx) -> float:
        """Unperturbed total loss of the configuration every op evaluates."""
        return ctx.loss0


WORKLOADS = {w.name: w for w in (TrainTiny(), EncodeSmall(), GradcheckTiny())}
