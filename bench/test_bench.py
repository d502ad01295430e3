"""The benchmark's own tests: negative controls, exact counts, tracer bindings.

    python3 -m pytest bench/test_bench.py -q

Each correctness check must reject a corrupted result and count it as a failed
operation: a perturbed feature, a NaN loss and a gradient with its sign flipped.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import workloads
from repo import ROOT
from tracer import Tracer


def _context(workload, tmp_path: Path, seed: int = 3):
    workload.prepare(seed, tmp_path)
    ctx = workload.setup(seed, tmp_path)
    workload.inputs(ctx, seed, tmp_path)
    return ctx


def test_train_check_counts_nan_loss_as_failed(tmp_path):
    w = workloads.TrainTiny()
    ctx = _context(w, tmp_path)
    _, (losses, error) = w.cycle(ctx)
    tally = checks.Tally()
    w.judge(ctx, (losses, error), tally)
    assert (tally.attempted, tally.failed) == (w.steps, 0)

    corrupt = list(losses)
    corrupt[w.steps // 2] = math.nan
    w.judge(ctx, (corrupt, error), tally)
    assert tally.failed == w.steps
    assert tally.fail_rate == 0.5


def test_train_check_rejects_a_run_that_does_not_halve_its_loss():
    ok, _ = checks.train_run_ok([1.0] * 50)
    assert not ok


def test_encode_check_counts_perturbed_feature_as_failed():
    w = workloads.EncodeSmall()
    rng = np.random.default_rng(0)
    ref = [
        (rng.normal(size=(1, 16)), rng.normal(size=(1, 4, 16)), rng.normal(size=(1, 16)), rng.normal(size=(1, 4, 16)))
        for _ in range(3)
    ]
    ctx = SimpleNamespace(ref=ref, losses=[])
    good = [(ry.astype(np.float32), rz.astype(np.float32)) for ry, rz, _, _ in ref]
    tally = checks.Tally()
    w.judge(ctx, good, tally)
    assert (tally.attempted, tally.failed) == (3, 0)
    assert len(ctx.losses) == 3 and all(math.isfinite(v) for v in ctx.losses)

    bad = [(y.copy(), z.copy()) for y, z in good]
    bad[1][1][0, 2, 5] += 10 * checks.F32_FEATURE_TOL
    w.judge(ctx, bad, tally)
    assert (tally.attempted, tally.failed) == (6, 1)

    nan = [(y.copy(), z.copy()) for y, z in good]
    nan[2][0][0, 0] = np.nan
    w.judge(ctx, nan, tally)
    assert tally.failed == 2

    wrong_shape = [(y, z[:, :3]) for y, z in good]
    w.judge(ctx, wrong_shape, tally)
    assert tally.failed == 5


def test_gradcheck_counts_sign_flipped_gradient_as_failed(tmp_path):
    w = workloads.GradcheckTiny()
    ctx = _context(w, tmp_path)
    _, outputs = w.cycle(ctx)
    tally = checks.Tally()
    w.judge(ctx, outputs, tally)
    assert (tally.attempted, tally.failed) == (2 * w.pairs_per_cycle, 0)

    material = sum(abs(ctx.analytic[name][i]) > 10 * checks.GRAD_TOL for name, i, _, _ in outputs)
    assert material > 0
    ctx.analytic = {k: -g for k, g in ctx.analytic.items()}
    flipped = checks.Tally()
    w.judge(ctx, outputs, flipped)
    assert flipped.failed >= 2 * material
    assert flipped.fail_rate > 0


def test_tracer_patches_every_binding_and_restores_them():
    import veca.attention
    import veca.distill
    import veca.model
    import veca.tensor

    original = veca.tensor.linear
    tracer = Tracer()
    with tracer:
        for module in (veca.tensor, veca.model, veca.attention, veca.distill):
            assert module.linear is not original
            assert module.linear.__wrapped__ is original
        assert veca.model.core_attention.__wrapped__ is veca.attention.core_attention.__wrapped__
        assert hasattr(veca.tensor.Tensor.backward, "__wrapped__")
    for module in (veca.tensor, veca.model, veca.attention, veca.distill):
        assert module.linear is original
    assert not hasattr(veca.tensor.Tensor.backward, "__wrapped__")


def _traced_counts(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "gradcheck_tiny",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {
        k: v["value"] for k, v in result["metrics"].items()
        if k == "tensor.nodes" or k.endswith((".calls", ".macs", "score_macs"))
    }


def test_exact_counts_repeat_between_runs():
    first, second = _traced_counts(5), _traced_counts(5)
    assert first == second
    assert first["tensor.nodes"] > 0 and first["tensor.linear.macs"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_lists_only_known_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
