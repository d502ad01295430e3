#!/usr/bin/env python3
"""SHA-256 over the encoder's outputs, to tell whether a change moved any number.

    PYTHONPATH=src python3 scripts/output_digest.py [--npz PATH] [--against OLD.npz]

Covers ``tiny-test`` in float32 and float64 (seed-0 weights, two 16 px
images): the forward at every budget; one forward at C = 64 with an
analysis capture and every captured array (the capture records the rows
that ran, so its last layer holds core row 0 and the patch rows); the
loss and every gradient at C = 8 against the synthetic teacher, the
teacher's targets, ``core_attention`` at C = T (dense, the teacher's path)
with the gradient of a random projection of its output w.r.t. the input,
the coordinates and all 8 projections, and 30 steps of ``distill.train``
(each step's budget, loss and learning rate, then the final weights) and 8
more from a ``FileTeacher`` target file of the teacher's targets for six
images, written to a temporary directory; and
``small`` float32 forwards of two 64 px images at C = 8 and C = 64; and one
normalized synthetic batch of eight 224 px images, the size the
``encode_small`` benchmark draws (``synthetic_images`` normalizes it in
the buffer it was drawn into); and the bytes of ``train_log.csv`` and
``checkpoint.veca`` that ``veca train-toy --steps 8 --batch 2 --seed 3``
writes, of the CSV ``veca eval-budgets`` writes from that checkpoint and of
the two layer maps ``veca export-maps --layers 0,1`` writes from it (their
stdout is captured, not printed). Every array is hashed with
its name, dtype and shape, in a fixed order. The digest holds only at a
fixed BLAS thread count: OpenBLAS splits some products differently across
threads, so pin it (``OPENBLAS_NUM_THREADS=1``) when comparing two
checkouts. ``--npz PATH`` also saves the arrays;
``--against OLD.npz``, with ``OLD.npz`` saved by ``--npz`` on another
checkout, then prints each covered array that is missing, new, or differs
in dtype, shape or bytes, with max |new - old| / max |old| for a value change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from veca import cli
from veca.attention import AttnParams, core_attention
from veca.data import synthetic_images
from veca.distill import (
    TEACHER_SEED,
    DistillConfig,
    FileTeacher,
    SyntheticTeacher,
    save_target_file,
    total_loss,
    train,
)
from veca.elastic import BUDGETS, DEFAULT_WEIGHTS, BudgetDistribution
from veca.model import Encoder, get_preset
from veca.rng import RngStream
from veca.tensor import Tensor, mul, tsum

TRAIN_STEPS = 30


def outputs() -> dict[str, np.ndarray]:
    """Every covered array by name, in the order they are hashed."""
    arrays: dict[str, np.ndarray] = {}
    tiny = get_preset("tiny-test")
    images = synthetic_images(RngStream(0, "digest-images"), 2, 16)
    for dtype in (np.float32, np.float64):
        tag = f"tiny/{np.dtype(dtype).name}"
        student = Encoder(tiny, seed=0, dtype=dtype)
        teacher = SyntheticTeacher(tiny, seed=TEACHER_SEED, dtype=dtype)
        for c in BUDGETS:
            y, z = student(images, c)
            arrays[f"{tag}/forward/C{c}/global"] = y.data
            arrays[f"{tag}/forward/C{c}/dense"] = z.data
        capture: list[dict] = []
        y, z = student(images, BUDGETS[-1], capture=capture)
        arrays[f"{tag}/capture/C{BUDGETS[-1]}/global"] = y.data
        arrays[f"{tag}/capture/C{BUDGETS[-1]}/dense"] = z.data
        for layer, internals in enumerate(capture):
            for key, value in internals.items():
                arrays[f"{tag}/capture/C{BUDGETS[-1]}/layer{layer}/{key}"] = np.asarray(value)
        loss, _ = total_loss(images, BUDGETS[0], student, teacher, DistillConfig())
        loss.backward()
        arrays[f"{tag}/loss/C{BUDGETS[0]}"] = loss.data
        for name, p in student.params.items():
            if p.grad is not None:
                arrays[f"{tag}/grad/C{BUDGETS[0]}/{name}"] = p.grad
        y, z = teacher.targets(images)
        arrays[f"{tag}/teacher/global"] = y
        arrays[f"{tag}/teacher/dense"] = z
        arrays.update(dense_attention(tiny.dim, tiny.heads, dtype, tag))

        arrays.update(train_run(f"{tag}/train", teacher, DistillConfig(total_steps=TRAIN_STEPS), dtype))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "targets.veca"
            file_images = synthetic_images(RngStream(0, "digest-file"), 6, 16)
            save_target_file(path, file_images, *teacher.targets(file_images))
            cfg = DistillConfig(total_steps=8, batch_size=4)
            arrays.update(train_run(f"{tag}/train-file", FileTeacher(path, tiny), cfg, dtype))

    small = Encoder(get_preset("small"), seed=0, dtype=np.float32)
    images = synthetic_images(RngStream(0, "digest-images"), 2, 64)
    for c in (BUDGETS[0], BUDGETS[-1]):
        y, z = small(images, c)
        arrays[f"small/float32/forward/C{c}/global"] = y.data
        arrays[f"small/float32/forward/C{c}/dense"] = z.data
    arrays["synthetic/8x224"] = synthetic_images(RngStream(0, "digest-batch"), 8, 224)
    arrays.update(cli_files())
    return arrays


# each CLI run, in order, and the files of it that are hashed
CLI_RUNS = (
    (["train-toy", "--steps", "8", "--batch", "2", "--seed", "3", "--out", "run"],
     ["run/train_log.csv", "run/checkpoint.veca"]),
    (["eval-budgets", "--checkpoint", "run/checkpoint.veca", "--out", "eval.csv"], ["eval.csv"]),
    (["export-maps", "--checkpoint", "run/checkpoint.veca", "--layers", "0,1", "--out", "maps"],
     ["maps/layer_00.csv", "maps/layer_01.csv"]),
)


def cli_files() -> dict[str, np.ndarray]:
    """The bytes of the files each of :data:`CLI_RUNS` writes, as uint8 arrays.

    They run in a temporary directory on relative paths, so the checkpoint
    path that the CSV headers echo is the same in every run.
    """
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), contextlib.redirect_stdout(io.StringIO()):
        for argv, names in CLI_RUNS:
            if cli.main(argv) != 0:
                raise RuntimeError(f"veca {' '.join(argv)} failed")
            for name in map(Path, names):
                arrays[f"cli/{argv[0]}/{name.name}"] = np.frombuffer(name.read_bytes(), dtype=np.uint8)
    return arrays


def train_run(prefix: str, teacher, cfg: DistillConfig, dtype) -> dict[str, np.ndarray]:
    """``distill.train`` of the seed-0 ``tiny-test`` student: each step's record, then the weights."""
    student = Encoder(get_preset("tiny-test"), seed=0, dtype=dtype)
    records = train(
        student,
        teacher,
        BudgetDistribution(weights=DEFAULT_WEIGHTS),
        cfg,
        data_stream=RngStream(0, "data"),
        budget_stream=RngStream(0, "budgets"),
    )
    arrays = {f"{prefix}/records": np.array([(r.step, r.budget, r.loss, r.lr) for r in records])}
    for name, value in student.state().items():
        arrays[f"{prefix}/weights/{name}"] = value
    return arrays


def dense_attention(dim: int, heads: int, dtype, tag: str) -> dict[str, np.ndarray]:
    """``core_attention`` at C = T = 12 on seeded inputs: the output and its gradients."""
    rng = np.random.default_rng(0)
    drawn = AttnParams.init(dim, heads, RngStream(0, "digest-attn")).tensors()
    inputs = {name: Tensor(w.data.astype(dtype), requires_grad=True) for name, w in drawn.items()}
    inputs["x"] = Tensor(rng.normal(size=(2, 12, dim)).astype(dtype), requires_grad=True)
    inputs["coords"] = Tensor(rng.uniform(-1, 1, size=(12, 2)).astype(dtype), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 12, dim)).astype(dtype))
    params = AttnParams(*(inputs[name] for name in drawn), heads)
    out = core_attention(params, inputs["x"], inputs["coords"], 12)
    tsum(mul(out, probe)).backward()
    arrays = {f"{tag}/attention/C=T/forward": out.data}
    for name, t in inputs.items():
        arrays[f"{tag}/attention/C=T/grad/{name}"] = t.grad
    return arrays


def digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name, value in arrays.items():
        value = np.ascontiguousarray(value)
        h.update(f"{name} {value.dtype.str} {value.shape}\n".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def differences(old: dict[str, np.ndarray], new: dict[str, np.ndarray]) -> list[str]:
    """One line per array that is missing from ``new``, new in it, or differs in dtype, shape or bytes."""
    lines = [f"missing  {name}" for name in old if name not in new]
    for name, b in new.items():
        if name not in old:
            lines.append(f"new      {name}")
            continue
        a = old[name]
        if a.dtype != b.dtype:
            lines.append(f"dtype    {name}  {a.dtype} -> {b.dtype}")
        elif a.shape != b.shape:
            lines.append(f"shape    {name}  {a.shape} -> {b.shape}")
        elif a.tobytes() != b.tobytes():
            delta, scale = np.abs(b.astype(np.float64) - a).max(), np.abs(a).max()
            ratio = delta / scale if scale else float("inf")
            lines.append(f"values   {name}  max |d| / max |old| = {ratio:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--npz", help="also save every covered array to this .npz file")
    parser.add_argument("--against", metavar="OLD.npz", help="list the arrays that differ from this --npz file")
    args = parser.parse_args(argv)
    arrays = outputs()
    if args.npz:
        np.savez(args.npz, **arrays)
    print(f"{digest(arrays)}  {len(arrays)} arrays")
    if args.against:
        with np.load(args.against) as saved:
            for line in differences({name: saved[name] for name in saved.files}, arrays):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
