"""Elastic core-periphery attention encoder and analysis tooling."""

from .attention import AttnParams, core_attention, dense_count, interaction_count, masked_dense_oracle
from .elastic import BudgetDistribution, active_prefix, sample_budget
from .errors import VecaError
from .model import PRESETS, Encoder, ModelConfig, get_preset, param_count
from .rng import RngStream
from .rope import fps_init, patch_grid
from .tensor import Tensor, grad_check

__version__ = "0.1.0"

__all__ = [
    "AttnParams",
    "BudgetDistribution",
    "Encoder",
    "ModelConfig",
    "PRESETS",
    "RngStream",
    "Tensor",
    "VecaError",
    "active_prefix",
    "core_attention",
    "dense_count",
    "fps_init",
    "get_preset",
    "grad_check",
    "interaction_count",
    "masked_dense_oracle",
    "param_count",
    "patch_grid",
    "sample_budget",
    "__version__",
]
