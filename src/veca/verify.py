"""Named property suites behind the ``verify`` CLI command.

Each suite runs fixed-seed checks of one module's invariants and returns
(name, passed, detail) triples. ``corrupt=True`` injects a deliberate fault
into the first suite check, as a negative control that the harness can fail.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .analysis import influence_probe, score_macs_core
from .attention import AttnParams, core_attention, dense_count, interaction_count, masked_dense_oracle
from .data import synthetic_images
from .distill import DistillConfig, SyntheticTeacher, total_loss
from .elastic import BUDGETS, CHUNK, MAX_CORES, BudgetDistribution, active_prefix, sample_budget
from .errors import ConfigError, VecaError
from .model import Encoder, ModelConfig, get_preset
from .rng import RngStream
from .rope import cos_sin, fps_init, patch_grid
from .rope import apply as rope_apply
from .tensor import Tensor, central_difference_error, grad_check, mul, reshape, silu, softmax_rows, tanh, tsum

Check = tuple[str, bool, str]


def _tiny_encoder(seed: int) -> Encoder:
    return Encoder(get_preset("tiny-test"), seed=seed)


def _attention_config(rng: np.random.Generator) -> tuple[int, int, int, int, int]:
    """A random (C, heads, dim, T, batch) with C < T, drawn in that order."""
    c = int(rng.choice([2, 4, 8]))
    heads = int(rng.choice([1, 2]))
    dim = int(rng.choice([8, 16]))
    return c, heads, dim, int(rng.integers(c + 1, 33)), int(rng.integers(1, 3))


def oracle_equivalence(rng_seed: int, param_stream, cases: int = 50, corrupt: bool = False) -> Check:
    """Block-sparse attention vs the masked-dense oracle on random configs.

    ``rng_seed`` draws shapes, inputs and coordinates; ``param_stream(i)``
    gives the weight stream of case ``i``. ``corrupt`` offsets the first
    output, a negative control. Passes at max |diff| <= 1e-12.
    """
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for i in range(cases):
        c, heads, dim, t, b = _attention_config(rng)
        params = AttnParams.init(dim, heads, param_stream(i))
        x = Tensor(rng.normal(size=(b, t, dim)))
        coords = Tensor(rng.uniform(-1, 1, size=(t, 2)))
        out = core_attention(params, x, coords, c).data
        if corrupt and i == 0:
            out = out + 1e-3
        ref = masked_dense_oracle(params, x, coords, c)
        worst = max(worst, float(np.abs(out - ref).max()))
    return (f"oracle equivalence ({cases} random configs)", worst <= 1e-12,
            f"max |diff| = {worst:.2e} (tol 1e-12)")


F32_ORACLE_EPS = 16  # bound on f32 attention's error, in eps32 x the output's largest magnitude


def oracle_equivalence_f32(rng_seed: int, param_stream, cases: int = 50) -> Check:
    """float32 block-sparse attention vs the float64 masked-dense oracle.

    Configs are drawn as in :func:`oracle_equivalence`, and every fourth case
    runs at C = T (dense, no patch rows). The weights are scaled by 10 (std
    0.2), so scores are of order one and the softmax is far from uniform.
    Weights, inputs and coordinates are rounded to float32 once and the
    oracle runs on exactly those values in float64, so the difference is
    float32 arithmetic alone. Passes at max |diff| <= ``F32_ORACLE_EPS``
    float32 epsilons times max |oracle output| of the case.
    """
    rng = np.random.default_rng(rng_seed)
    eps = float(np.finfo(np.float32).eps)
    worst = 0.0
    for i in range(cases):
        c, heads, dim, t, b = _attention_config(rng)
        c = t if i % 4 == 0 else c
        drawn = AttnParams.init(dim, heads, param_stream(i)).tensors().values()
        weights = [(w.data * 10.0).astype(np.float32) for w in drawn]
        x = rng.normal(size=(b, t, dim)).astype(np.float32)
        coords = rng.uniform(-1, 1, size=(t, 2)).astype(np.float32)
        out = core_attention(AttnParams(*map(Tensor, weights), heads), Tensor(x), Tensor(coords), c).data
        p64 = AttnParams(*(Tensor(w.astype(np.float64)) for w in weights), heads)
        ref = masked_dense_oracle(p64, Tensor(x.astype(np.float64)), Tensor(coords.astype(np.float64)), c)
        worst = max(worst, float(np.abs(out - ref).max() / (eps * np.abs(ref).max())))
    return (f"float32 oracle equivalence ({cases} random configs)", worst <= F32_ORACLE_EPS,
            f"max |diff| = {worst:.2f} eps32 x output scale (tol {F32_ORACLE_EPS})")


def attention_row_sums(params: AttnParams, x: Tensor, coords: Tensor, budgets) -> Check:
    """Every captured probability row, core and patch, sums to 1 (within 1e-6) at each budget."""
    worst = 0.0
    for c in budgets:
        capture: dict = {}
        core_attention(params, x, coords, c, capture=capture)
        sums = np.concatenate([capture["probs_core"].sum(-1).ravel(), capture["probs_patch"].sum(-1).ravel()])
        worst = max(worst, float(np.abs(sums - 1).max()))
    return (f"attention rows sum to 1 (C in {tuple(budgets)})", worst <= 1e-6, f"max |sum-1| = {worst:.2e}")


def budget_sampler_fit(streams: list[RngStream], draws: int = 100_000) -> list[Check]:
    """Empirical budget frequencies vs p_C, one run of ``draws`` per stream.

    Two checks: every frequency within 0.005 of p_C, and the chi^2 statistic
    below its critical value at significance 1e-3, on every stream.
    """
    from scipy import stats as sp_stats  # only this check needs it, and scipy.stats is slow to import

    dist = BudgetDistribution()
    crit = float(sp_stats.chi2.isf(1e-3, df=len(BUDGETS) - 1))
    expected = dist.probs * draws
    max_dev = 0.0
    max_stat = 0.0
    for stream in streams:
        counts = dict.fromkeys(BUDGETS, 0)
        for _ in range(draws):
            counts[sample_budget(dist, stream)] += 1
        observed = np.array([counts[b] for b in BUDGETS])
        max_dev = max(max_dev, float(np.abs(observed / draws - dist.probs).max()))
        max_stat = max(max_stat, float(((observed - expected) ** 2 / expected).sum()))
    n = len(streams)
    return [
        (f"sampler frequencies within 0.005 of p_C ({n} streams)", max_dev <= 0.005, f"max dev = {max_dev:.4f}"),
        (f"chi^2 goodness of fit at 1e-3 ({n} streams)", max_stat < crit, f"max stat {max_stat:.2f} < {crit:.2f}"),
    ]


def rotary_invariances(rngs, corrupt: bool = False) -> list[Check]:
    """Rotary isometry and translation invariance of logits.

    Draw ``i`` takes q, k, coordinates and a shift for 4 tokens from
    ``rngs[i]``; both checks pass at max error <= 1e-6. ``corrupt`` scales
    the first rotated q, a negative control.
    """
    def rotate(z: Tensor, cc: np.ndarray) -> np.ndarray:
        return rope_apply(z, reshape(cos_sin(8, Tensor(cc)), (1, 1, 4, 8))).data

    worst_iso = 0.0
    worst_shift = 0.0
    for i, rng in enumerate(rngs):
        q = Tensor(rng.normal(size=(1, 1, 4, 8)))
        k = Tensor(rng.normal(size=(1, 1, 4, 8)))
        coords = rng.uniform(-1, 1, size=(1, 4, 2))
        shift = rng.uniform(-0.5, 0.5, size=2)
        qr = rotate(q, coords) * (1.001 if corrupt and i == 0 else 1.0)
        iso = np.abs(np.linalg.norm(qr, axis=-1) - np.linalg.norm(q.data, axis=-1)).max()
        worst_iso = max(worst_iso, float(iso))
        dots = [np.einsum("bhtd,bhsd->bhts", rotate(q, cc), rotate(k, cc)) for cc in (coords, coords - shift)]
        worst_shift = max(worst_shift, float(np.abs(dots[0] - dots[1]).max()))
    n = len(rngs)
    return [
        (f"rotation isometry ({n} draws)", worst_iso <= 1e-6, f"max = {worst_iso:.2e} (tol 1e-6)"),
        (f"translation invariance of logits ({n} draws)", worst_shift <= 1e-6, f"max = {worst_shift:.2e} (tol 1e-6)"),
    ]


def cores_bounded(enc: Encoder, images: np.ndarray, budget: int) -> Check:
    """Encoding ``images`` at ``budget`` captures every layer, and every core coordinate is in (-1, 1)."""
    capture: list[dict] = []
    enc(images, budget, capture=capture)
    bounded = len(capture) == enc.config.layers and all(
        np.all(np.abs(layer["coords"][:, :budget]) < 1.0) for layer in capture
    )
    return ("core coordinates in (-1,1) at every layer", bounded, f"{len(capture)} layers at C={budget}")


# (token shift, coordinate-state map) pairs: tokens +123.4 with states -7, then tokens +1e6 with states -42
PERTURBATIONS = ((123.4, lambda r: r - 7.0), (1e6, lambda r: np.full_like(r, -42.0)))


def prefix_invariance(
    enc: Encoder, images: np.ndarray, perturbations=PERTURBATIONS, corrupt: bool = False
) -> list[Check]:
    """Exact core-bank prefix nesting, and bit-identical outputs under
    perturbation of every inactive chunk at each budget below ``MAX_CORES``.

    Each (shift, map) perturbation in turn adds ``shift`` to the chunk's
    tokens and maps its coordinate states. ``corrupt`` also perturbs the first
    active chunk at the smallest budget, a negative control. Parameters are
    restored afterwards.
    """
    bank = (enc.core_tokens, enc.core_coords)
    nested = all(
        np.array_equal(small.data, large.data[:c1])
        for c1, c2 in combinations(BUDGETS, 2)
        for small, large in zip(active_prefix(*bank, c1), active_prefix(*bank, c2))
    )
    saved = enc.state()
    invariant = True
    for c in BUDGETS[:-1]:
        g0, d0 = enc(images, c)
        for shift, move in perturbations:
            for j in range(c // CHUNK, MAX_CORES // CHUNK):
                tokens, coords = enc.params[f"core.tokens.{j}"], enc.params[f"core.coords.{j}"]
                tokens.data, coords.data = tokens.data + shift, move(coords.data)
            if corrupt and c == BUDGETS[0]:
                enc.params["core.tokens.0"].data = enc.params["core.tokens.0"].data + 1e-4
            g1, d1 = enc(images, c)
            enc.load_state(saved)
            invariant &= np.array_equal(g0.data, g1.data) and np.array_equal(d0.data, d1.data)
    detail = f"budgets {BUDGETS[0]}..{BUDGETS[-2]}, {len(perturbations)} perturbations"
    return [
        ("prefix nesting exact", nested, "all budget pairs"),
        ("inactive-core perturbation leaves outputs bit-identical", invariant, detail),
    ]


def graph_diameter(cases, corrupt: bool = False) -> list[Check]:
    """Cross-patch influence through one block is zero, through two present.

    ``cases`` are (encoder, [C, H, W] image) pairs. Off-diagonal one-block
    influence must be <= 1e-12 on every case, with every diagonal entry (the
    residual path) positive; on every case at least 90% of off-diagonal
    two-block entries must exceed 1e-9. ``corrupt`` offsets the first
    one-block probe, a negative control.
    """
    one_max = 0.0
    self_min = np.inf
    frac_min = 1.0
    for i, (enc, img) in enumerate(cases):
        j1 = influence_probe(enc, img, 1) + (1e-6 if corrupt and i == 0 else 0.0)
        j2 = influence_probe(enc, img, 2)
        off = ~np.eye(j1.shape[0], dtype=bool)
        one_max = max(one_max, float(j1[off].max()))
        self_min = min(self_min, float(np.diag(j1).min()))
        frac_min = min(frac_min, float((j2[off] > 1e-9).mean()))
    n = len(cases)
    zero = one_max <= 1e-12 and self_min > 0
    return [
        (f"one-block cross-patch influence is zero ({n} cases)", zero, f"max = {one_max:.2e} (tol 1e-12)"),
        (
            f"two-block cross-patch influence present (>=90% of pairs, {n} cases)",
            frac_min >= 0.9,
            f"min fraction = {frac_min:.3f}",
        ),
    ]


def patch_permutation_equivariance(params: AttnParams, rng: np.random.Generator, c: int, n: int) -> Check:
    """Permuting the N patch rows with their coordinates (all drawn from ``rng``)
    permutes the patch outputs alike and keeps the C core outputs, within 1e-12."""
    x = rng.normal(size=(1, c + n, params.dim))
    coords = rng.uniform(-1, 1, size=(c + n, 2))
    perm = rng.permutation(n)
    x2, coords2 = x.copy(), coords.copy()
    x2[0, c:] = x[0, c + perm]
    coords2[c:] = coords[c + perm]
    out1 = core_attention(params, Tensor(x), Tensor(coords), c).data
    out2 = core_attention(params, Tensor(x2), Tensor(coords2), c).data
    diff = max(
        float(np.abs(out2[0, c:] - out1[0, c + perm]).max()),
        float(np.abs(out2[0, :c] - out1[0, :c]).max()),
    )
    return ("patch permutation equivariance", diff <= 1e-12, f"max |diff| = {diff:.2e}")


def sparse_beats_dense(budgets=(2, 8, 64), multiples=(3, 4, 100)) -> Check:
    """2NC + C^2 < N^2 at N = m C, for every C in ``budgets`` and m (>= 3) in ``multiples``."""
    ok = all(interaction_count(m * c, c) < dense_count(m * c) for c in budgets for m in multiples)
    return ("2NC+C^2 < N^2 whenever N >= 3C", ok, f"checked C in {{{','.join(map(str, budgets))}}}")


def grid_reflection(hp: int, wp: int) -> Check:
    """Flipping an hp x wp patch grid's columns negates every x exactly and keeps every y."""
    grid = patch_grid(hp, wp).reshape(hp, wp, 2)
    flipped = grid[:, ::-1]
    ok = bool(np.array_equal(flipped[..., 0], -grid[..., 0]) and np.array_equal(flipped[..., 1], grid[..., 1]))
    return ("patch grid x-reflection", ok, "column flip negates x exactly")


def farthest_point_spread(rng: np.random.Generator) -> Check:
    """Farthest-point init is deterministic, and its 64 cores on the 64 x 64 lattice have a min pairwise
    distance no smaller than any of 100 random 64-point lattice subsets drawn from ``rng``."""
    same = np.array_equal(fps_init(16, 16), fps_init(16, 16))
    pts = np.tanh(fps_init(64, 64))
    fps_min = min(np.linalg.norm(pts[i] - pts[j]) for i in range(64) for j in range(i + 1, 64))
    lattice = patch_grid(64, 64)
    beats = 0
    for _ in range(100):
        subset = lattice[rng.choice(64 * 64, size=64, replace=False)]
        dmat = np.linalg.norm(subset[:, None] - subset[None, :], axis=-1)
        np.fill_diagonal(dmat, np.inf)
        beats += bool(fps_min >= dmat.min())
    return (
        "farthest-point init deterministic and well-spread",
        same and beats == 100,
        f"min pairwise dist {fps_min:.3f} beats {beats}/100 random subsets",
    )


def score_macs_link() -> Check:
    """The cost model's core-mode score MACs at ``small``'s width D are D times the interaction count 2NC + C^2."""
    dim = get_preset("small").dim
    linked = all(
        score_macs_core(n, c, dim) == dim * interaction_count(n, c) for n in (64, 256, 1024, 4096) for c in (8, 24, 64)
    )
    return ("score MACs equal D*(2NC+C^2)", linked, "cost model matches interaction count")


def suite_attention(seed: int = 0, corrupt: bool = False) -> list[Check]:
    params = AttnParams.init(16, 2, RngStream(seed, "cap"))
    x = Tensor(np.random.default_rng(seed + 1).normal(size=(2, 20, 16)))
    coords = Tensor(np.random.default_rng(seed + 2).uniform(-1, 1, size=(20, 2)))
    return [
        oracle_equivalence(seed, lambda i: RngStream(seed * 1000 + i, "attn"), corrupt=corrupt),
        oracle_equivalence_f32(seed, lambda i: RngStream(seed * 1000 + i, "attn-f32")),
        attention_row_sums(params, x, coords, (4, 20)),
        patch_permutation_equivariance(params, np.random.default_rng(seed + 3), 4, 9),
        sparse_beats_dense(),
    ]


def suite_rope(seed: int = 0, corrupt: bool = False) -> list[Check]:
    img = synthetic_images(RngStream(seed, "rope-img"), 1, 16)
    checks = rotary_invariances([np.random.default_rng(seed)] * 100, corrupt=corrupt)
    checks.append(cores_bounded(_tiny_encoder(seed), img, 16))
    checks.append(grid_reflection(3, 5))
    checks.append(farthest_point_spread(np.random.default_rng(seed)))
    return checks


def suite_gradients(seed: int = 0, corrupt: bool = False) -> list[Check]:
    checks: list[Check] = []
    rng = np.random.default_rng(seed)

    worst = 0.0
    for trial in range(20):
        v = Tensor(rng.normal(size=(3, 4)))

        def f(t: Tensor) -> Tensor:
            return tsum(mul(softmax_rows(mul(t, t)), tanh(silu(t))))

        worst = max(worst, grad_check(f, v, 1e-5))
    if corrupt:
        worst += 1.0
    checks.append(
        ("primitive-op gradients (20 seeds)", worst <= 1e-6, f"max rel err = {worst:.2e}")
    )

    # one-block model: 8 patches on a 2x4 grid, C=8, D=16
    cfg = ModelConfig(layers=1, dim=16, heads=2, mlp_ratio=2.67, patch_size=4)
    enc = Encoder(cfg, seed=seed)
    teacher = SyntheticTeacher(cfg, seed=seed + 500)
    images = synthetic_images(RngStream(seed, "gc-data"), 1, 16)[:, :, :8, :]
    err = model_grad_check(enc, teacher, images, budget=8, h=1e-5)
    checks.append(("one-block forward+loss gradient", err <= 1e-4, f"max rel err = {err:.2e}"))
    return checks


def model_grad_check(
    enc: Encoder, teacher, images: np.ndarray, budget: int, h: float = 1e-5
) -> float:
    """Full-model finite-difference check of d(total loss)/d(every parameter).

    Runs :func:`veca.tensor.grad_check`'s loop,
    :func:`veca.tensor.central_difference_error`, over every encoder parameter.
    """
    cfg = DistillConfig()
    targets = teacher.targets(images)

    def loss() -> Tensor:
        return total_loss(images, budget, enc, teacher, cfg, targets=targets)[0]

    return central_difference_error(enc.params, loss, h)


def suite_elastic(seed: int = 0, corrupt: bool = False) -> list[Check]:
    img = synthetic_images(RngStream(seed, "elastic-img"), 2, 16)
    checks = prefix_invariance(_tiny_encoder(seed), img, corrupt=corrupt)
    checks += budget_sampler_fit([RngStream(seed * 10 + s, "budget-sampler") for s in range(5)])
    return checks


def suite_diameter(seed: int = 0, corrupt: bool = False) -> list[Check]:
    cases = [
        (_tiny_encoder(seed + s), synthetic_images(RngStream(seed + s, "probe"), 1, 16)[0]) for s in range(2)
    ]
    return graph_diameter(cases, corrupt=corrupt) + [score_macs_link()]


SUITES = {
    "attention": suite_attention,
    "rope": suite_rope,
    "gradients": suite_gradients,
    "elastic": suite_elastic,
    "diameter": suite_diameter,
}


def run_suites(names: list[str], seed: int = 0, corrupt: bool = False) -> tuple[bool, list[str]]:
    """Run suites and return (all_passed, printable report lines)."""
    if seed < 0:  # numpy's seeded generators take no negative seed
        raise ConfigError(f"verify needs a non-negative seed, got {seed}")
    lines: list[str] = []
    all_ok = True
    for name in names:
        if name not in SUITES:
            raise VecaError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        for check, ok, detail in SUITES[name](seed=seed, corrupt=corrupt):
            all_ok &= ok
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {check} ({detail})")
    return all_ok, lines
