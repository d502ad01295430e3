"""Analytic attention-path cost model, contribution maps, structural probes.

The cost model counts multiply-accumulates for one projection-attention-
projection residual path: the four dense projections (4 T D^2) plus the
score and value matmuls. In dense-baseline mode the token count is the patch
count plus five (one global token and four registers; this is the count that
reproduces the reference table, and is stated in every report header). In
core mode the token count is patches plus active cores, and the score-matmul
MACs equal D * (2NC + C^2) exactly, tying the cost model to the interaction
count. FLOPs are reported as 2 x MACs throughout.

This module formats and writes no file: the cost table and the contribution
maps come back as CSV lines (:func:`cost_csv_lines`,
:func:`core_map_csv_lines`), which the CLI writes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elastic import BUDGETS
from .errors import BudgetError, ConfigError, ResolutionError
from .model import Encoder, ModelConfig, _layout, get_preset
from .tensor import Tensor

FLOPS_PER_MAC = 2
DENSE_EXTRA_TOKENS = 5  # one global token + four registers in the dense baseline


@dataclass(frozen=True)
class CostReport:
    preset: str
    resolution: int
    mode: str
    tokens: int
    macs: int
    flops: int
    ratio: float  # dense-baseline FLOPs / this mode's FLOPs


def _patch_count(config: ModelConfig, resolution: int) -> int:
    if resolution < config.patch_size:
        raise ResolutionError(f"resolution {resolution} is smaller than one {config.patch_size} px patch")
    if resolution % config.patch_size:
        raise ResolutionError(
            f"resolution {resolution} not divisible by patch size {config.patch_size}"
        )
    side = resolution // config.patch_size
    return side * side


def score_macs_core(n: int, c: int, dim: int) -> int:
    """Score-matmul MACs in core mode: D * (2NC + C^2)."""
    return dim * (2 * n * c + c * c)


def attention_macs(config: ModelConfig, resolution: int, mode: str, budget: int = 64) -> tuple[int, int]:
    """(tokens, MACs) of one attention residual path."""
    n = _patch_count(config, resolution)
    d = config.dim
    if mode == "dense":
        t = n + DENSE_EXTRA_TOKENS
        return t, 4 * t * d * d + 2 * t * t * d
    if mode == "core":
        if budget < 1:
            raise BudgetError(f"core mode needs a budget of at least 1, got {budget}")
        c = budget
        t = n + c
        return t, 4 * t * d * d + 2 * c * t * d + 2 * n * c * d
    raise ConfigError(f"mode must be 'dense' or 'core', got {mode!r}")


def attention_path_flops(preset: str, resolution: int, mode: str, budget: int = 64) -> CostReport:
    """Cost report for one attention path of a named preset; ratio is against the dense baseline."""
    config = get_preset(preset)
    tokens, macs = attention_macs(config, resolution, mode, budget)
    flops = FLOPS_PER_MAC * macs
    _, dense_macs = attention_macs(config, resolution, "dense")
    try:
        ratio = (FLOPS_PER_MAC * dense_macs) / flops
    except OverflowError as err:
        raise ResolutionError(f"resolution {resolution} is too large: its cost ratio overflows a float") from err
    label = "dense_baseline" if mode == "dense" else f"core({budget})"
    return CostReport(preset, resolution, label, tokens, macs, flops, ratio)


def flop_sweep(preset: str, resolutions: list[int], budget: int = 64) -> list[CostReport]:
    """Dense and core reports for each resolution, dense first."""
    reports = []
    for res in resolutions:
        reports.append(attention_path_flops(preset, res, "dense"))
        reports.append(attention_path_flops(preset, res, "core", budget))
    return reports


def cost_csv_lines(reports: list[CostReport]) -> list[str]:
    lines = ["preset,resolution,mode,T,macs,flops,ratio"]
    for r in reports:
        lines.append(
            f"{r.preset},{r.resolution},{r.mode},{r.tokens},{r.macs},{r.flops},{r.ratio:.4f}"
        )
    return lines


# -- output-contribution attention maps -----------------------------------------


def contribution_map(capture_layer: dict) -> np.ndarray:
    """Row-stochastic output-contribution scores [B, k + N, T] for one layer.

    Rows are the queries that ran (k kept core rows, then N patch rows; C and
    k come from the captured shapes). The contribution of key j to query i
    sums, over heads, the attention probability times the output-projected
    value vector; scores are the contribution norms normalized per query row.
    Patch-query rows only have mass on the active core columns.
    """
    probs_core = capture_layer["probs_core"]  # [B, H, k, T]
    probs_patch = capture_layer["probs_patch"]  # [B, H, N, C]
    values = capture_layer["values"]  # [B, H, T, dk]
    wo = capture_layer["wo"]  # [D, D]
    b, h, k, t = probs_core.shape
    c = probs_patch.shape[-1]
    dk = values.shape[-1]
    d = wo.shape[0]
    projected = np.einsum("bhjk,hkd->bhjd", values, wo.reshape(h, dk, d))
    e_core = np.einsum("bhij,bhjd->bijd", probs_core, projected)
    e_patch = np.einsum("bhij,bhjd->bijd", probs_patch, projected[:, :, :c])
    s = np.zeros((b, k + t - c, t), dtype=values.dtype)
    s[:, :k, :] = np.linalg.norm(e_core, axis=-1)
    s[:, k:, :c] = np.linalg.norm(e_patch, axis=-1)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def patch_core_profiles(capture_layer: dict) -> np.ndarray:
    """Per-patch contribution profiles over the active cores, [B, N, C]."""
    k = capture_layer["probs_core"].shape[2]
    c = capture_layer["probs_patch"].shape[-1]
    return contribution_map(capture_layer)[:, k:, :c]


def export_core_maps(
    model: Encoder, image: np.ndarray, active_c: int, layers: list[int] | None = None
) -> dict[int, np.ndarray]:
    """Patch-over-core profile matrices for selected layers of one image.

    Layer 0 is excluded by default (early attention is dominated by
    initialization effects). No dimensionality reduction happens here; the
    matrices are meant for external embedding tools.
    """
    if image.ndim == 3:
        image = image[None]
    capture: list[dict] = []
    model.forward(image, active_c, capture=capture)
    if layers is None:
        layers = list(range(1, model.config.layers))
    out: dict[int, np.ndarray] = {}
    for layer in layers:
        if not 0 <= layer < len(capture):
            raise ConfigError(f"layer {layer} out of range [0, {len(capture) - 1}]")
        out[layer] = patch_core_profiles(capture[layer])[0]
    return out


def core_map_csv_lines(matrix: np.ndarray, image_name: str, layer: int, active_c: int) -> list[str]:
    """One layer's patch-over-core matrix as CSV lines: a map header, then one %.17g row per patch."""
    return [f"# image={image_name} layer={layer} C={active_c}"] + [",".join(f"{v:.17g}" for v in row) for row in matrix]


# -- structural probe: two-hop patch mixing ---------------------------------------


def influence_probe(model: Encoder, image: np.ndarray, layer_count_used: int) -> np.ndarray:
    """Patch-to-patch Jacobian Frobenius norms after a truncated block stack.

    Entry (i, j) is || d(patch j output) / d(patch i input tokens) ||_F,
    measured at the smallest budget by central differences of step 1e-4 in
    each input coordinate; outputs include the final LayerNorm, which acts
    per token and so adds no cross-patch path. With one block, cross-patch
    entries are structurally zero (patch queries see only cores); two blocks
    route influence through the cores.
    """
    budget, h = BUDGETS[0], 1e-4
    if not 0 < layer_count_used <= model.config.layers:
        raise ConfigError(f"layer_count_used must be in [1, {model.config.layers}], got {layer_count_used}")
    if image.ndim == 3:
        image = image[None]
    tokens, (hp, wp) = model.patch_embed(image)
    base = tokens.data.copy()
    _, n, d = base.shape
    # the first blocks as an encoder of their own over the model's arrays; it is frozen, so it records no tape
    config = replace(model.config, layers=layer_count_used)
    state = {name: model.params[name].data for name, _, _ in _layout(config, 0)}
    truncated = Encoder(config, model.seed, model.dtype, state)

    def run(tok: np.ndarray) -> np.ndarray:
        return truncated.encode_tokens(Tensor(tok), hp, wp, budget).data[0, 1:, :]

    sq = np.zeros((n, n))
    for i in range(n):
        for dd in range(d):
            plus = base.copy()
            plus[0, i, dd] += h
            minus = base.copy()
            minus[0, i, dd] -= h
            diff = (run(plus) - run(minus)) / (2.0 * h)
            sq[i] += np.sum(diff * diff, axis=1)
    return np.sqrt(sq)
