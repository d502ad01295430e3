"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with `pytest -s`)
and then asserts, so a plain pytest run also reports per-criterion status via
the test names.
"""

import numpy as np

from veca.analysis import attention_path_flops, contribution_map
from veca.attention import AttnParams, core_attention, dense_count, interaction_count
from veca.checkpoint import load_container, load_model, save_container, save_model
from veca.data import synthetic_images
from veca.distill import DistillConfig, SyntheticTeacher, total_loss, train
from veca.elastic import BudgetDistribution
from veca.model import Encoder, get_preset, param_count
from veca.rng import RngStream
from veca.tensor import Tensor
from veca.verify import (
    budget_sampler_fit,
    graph_diameter,
    model_grad_check,
    oracle_equivalence,
    prefix_invariance,
    rope_properties,
)

from test_analysis import contribution_scalar_oracle


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def report_checks(num: int, label: str, checks) -> None:
    """Report a criterion made of several (name, passed, detail) checks."""
    report(num, label, all(ok for _, ok, _ in checks), "; ".join(f"{name}: {detail}" for name, _, detail in checks))


REFERENCE = {
    ("small", "dense"): 30.67e9,
    ("small", "core"): 5.72e9,
    ("base", "dense"): 71.02e9,
    ("base", "core"): 21.25e9,
    ("large", "dense"): 103.29e9,
    ("large", "core"): 37.06e9,
}


def test_c01_cost_table_reproduction():
    worst = 0.0
    for (preset, mode), want in REFERENCE.items():
        got = attention_path_flops(preset, 1024, mode, budget=64).flops
        worst = max(worst, abs(got - want) / want)
    ratio = attention_path_flops("small", 1024, "core", budget=64).ratio
    ratio_err = abs(ratio - 5.36) / 5.36
    ok = worst <= 0.005 and ratio_err <= 0.01
    report(1, "cost-table reproduction", ok,
           f"max FLOP rel err {worst:.2%} (tol 0.5%), ratio {ratio:.3f} err {ratio_err:.2%} (tol 1%)")


def test_c02_interaction_ratios():
    reduction = (1 - interaction_count(1024, 64) / dense_count(1024)) * 100
    pct_256 = interaction_count(256, 8) / dense_count(256) * 100
    pct_1024 = interaction_count(1024, 8) / dense_count(1024) * 100
    devs = (abs(reduction - 87.1), abs(pct_256 - 6.3), abs(pct_1024 - 1.6))
    ok = all(d <= 0.1 for d in devs)
    report(2, "interaction ratios", ok,
           f"87.1% fewer -> {reduction:.3f}%, 6.3% -> {pct_256:.3f}%, 1.6% -> {pct_1024:.3f}% (tol 0.1pp)")


def test_c03_oracle_equivalence():
    name, ok, detail = oracle_equivalence(2024, lambda i: RngStream(i, "acc3"))
    report(3, "block-sparse vs masked-dense oracle", ok, f"{name}: {detail}")


def test_c04_parameter_counts():
    reference = {"small": 21.63e6, "small_plus": 28.72e6, "base": 85.73e6, "large": 303.20e6}
    worst = 0.0
    for preset, want in reference.items():
        got = param_count(get_preset(preset))
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 0.005
    report(4, "parameter counts vs reference table", ok, f"max rel err {worst:.3%} (tol 0.5%)")


def test_c05_gradient_fidelity():
    cfg = get_preset("tiny-test")
    worst = 0.0
    for seed in range(5):
        enc = Encoder(cfg, seed=seed)
        teacher = SyntheticTeacher(cfg, seed=7001 + seed)
        images = synthetic_images(RngStream(seed, "acc5"), 1, 16)
        worst = max(worst, model_grad_check(enc, teacher, images, budget=8, h=1e-5))
    ok = worst <= 1e-4
    report(5, "full-model gradient vs central differences", ok,
           f"max rel err {worst:.2e} over 5 seeds (tol 1e-4, float64, h=1e-5)")


def test_c06_graph_diameter_property():
    cfg = get_preset("tiny-test")
    cases = [(Encoder(cfg, seed=s), synthetic_images(RngStream(s, "acc6"), 1, 16)[0]) for s in range(10)]
    report_checks(6, "graph diameter two", graph_diameter(cases))


def test_c07_elastic_prefix_invariance():
    images = synthetic_images(RngStream(0, "acc7"), 2, 16)
    checks = [
        (f"{name} ({np.dtype(dtype).name})", ok, detail)
        for dtype in (np.float64, np.float32)
        for name, ok, detail in prefix_invariance(Encoder(get_preset("tiny-test"), seed=0, dtype=dtype), images)
    ]
    report_checks(7, "elastic prefix invariance", checks)


def test_c08_budget_sampler():
    report_checks(8, "budget sampler distribution", budget_sampler_fit([RngStream(100 + s, "acc8") for s in range(5)]))


def test_c09_toy_elastic_distillation():
    cfg = get_preset("tiny-test")
    student = Encoder(cfg, seed=0, dtype=np.float32)
    teacher = SyntheticTeacher(cfg, seed=7001, dtype=np.float32)
    dcfg = DistillConfig(
        lr=3e-3, min_lr=3e-4, warmup_steps=20, total_steps=500,
        weight_decay=0.01, batch_size=8, resolution=16,
    )
    records = train(
        student, teacher, BudgetDistribution(), dcfg,
        data_stream=RngStream(0, "data"), budget_stream=RngStream(0, "budgets"),
    )
    early = float(np.mean([r.loss for r in records[:10]]))
    final = float(np.mean([r.loss for r in records[-10:]]))

    eval_images = synthetic_images(RngStream(0, "eval-data"), 16, 16)
    targets = teacher.targets(eval_images)
    totals = {}
    for budget in cfg.budgets:
        _, parts = total_loss(eval_images, budget, student, None, DistillConfig(), targets=targets)
        totals[budget] = parts["global"] + parts["dense"]
    finite = all(np.isfinite(v) for v in totals.values())
    ok = final <= 0.5 * early and finite and totals[64] <= totals[8]
    report(9, "toy elastic distillation", ok,
           f"final MA {final:.4f} vs early MA {early:.4f} (need <= 50%); all budgets finite: {finite}; "
           f"eval C=64 {totals[64]:.4f} <= C=8 {totals[8]:.4f}")


def test_c10_contribution_maps():
    rng = np.random.default_rng(10)
    params = AttnParams.init(16, 2, RngStream(10, "acc10"))
    x = Tensor(rng.normal(size=(1, 14, 16)))
    coords = Tensor(rng.uniform(-1, 1, size=(14, 2)))
    cap = {}
    core_attention(params, x, coords, 4, capture=cap)
    s = contribution_map(cap)
    stochastic = float(np.abs(s.sum(-1) - 1.0).max()) <= 1e-6
    nonneg = bool(np.all(s >= 0))
    want = contribution_scalar_oracle(cap["probs_core"], cap["probs_patch"], cap["values"], cap["wo"])
    oracle_err = float(np.abs(s - want).max())

    cap1 = {}
    p1 = AttnParams.init(8, 1, RngStream(11, "acc10b"))
    core_attention(p1, Tensor(rng.normal(size=(1, 10, 8))), Tensor(rng.uniform(-1, 1, size=(10, 2))),
                   4, capture=cap1)
    cap1["values"] = np.broadcast_to(np.ones(8) / np.sqrt(8.0), cap1["values"].shape).copy()
    s1 = contribution_map(cap1)
    reduces = (
        float(np.abs(s1[:, :4, :] - cap1["probs_core"][:, 0]).max()) <= 1e-12
        and float(np.abs(s1[:, 4:, :4] - cap1["probs_patch"][:, 0]).max()) <= 1e-12
    )
    ok = stochastic and nonneg and oracle_err <= 1e-12 and reduces
    report(10, "output-contribution maps", ok,
           f"row-stochastic {stochastic}, nonnegative {nonneg}, scalar-loop err {oracle_err:.2e} "
           f"(tol 1e-12), constant-value reduction {reduces}")


def test_c11_rope_properties():
    rngs = [np.random.default_rng(s) for s in range(100)]
    enc = Encoder(get_preset("tiny-test"), seed=1)
    report_checks(11, "rotary-coordinate properties",
                  rope_properties(rngs, enc, synthetic_images(RngStream(1, "acc11"), 1, 16), 32))


def test_c12_checkpoint_roundtrip(tmp_path):
    from dataclasses import asdict

    ok = True
    detail = []
    # tiny-initialized parameter sets, one per preset config, both dtypes
    for name in ("small", "small_plus", "base", "large", "tiny-test"):
        for dtype in (np.float64, np.float32):
            enc = Encoder(get_preset("tiny-test"), seed=12, dtype=dtype)
            path = tmp_path / f"{name}-{np.dtype(dtype).name}.veca"
            save_container(path, {"model": asdict(get_preset(name))}, enc.state())
            _, tensors = load_container(path)
            same = all(
                tensors[p].tobytes() == arr.tobytes() and tensors[p].dtype == arr.dtype
                for p, arr in enc.state().items()
            )
            ok &= same
    detail.append("preset-config containers bitwise")
    # full model checkpoint with reload
    enc = Encoder(get_preset("tiny-test"), seed=3)
    path = tmp_path / "model.veca"
    save_model(path, enc)
    loaded, _ = load_model(path)
    ok &= all(
        loaded.params[p].data.tobytes() == t.data.tobytes() for p, t in enc.params.items()
    )
    detail.append("encoder save/load bitwise")
    report(12, "checkpoint round-trip", ok, "; ".join(detail))
