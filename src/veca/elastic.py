"""Nested core budgets: prefix retrieval from the chunked bank, and sampling.

The budget set is part of the design, not a setting: ``BUDGETS`` = (8, 16,
..., 64) over a bank of ``MAX_CORES`` = 64 learned cores, stored in chunks of
CHUNK = 8 rows. A budget C activates the first C/CHUNK chunks as an ordered
prefix, so prefixes nest exactly: the C1 rows of a C1 budget are the leading
rows of any larger budget. :func:`active_prefix` is where a budget is
checked. Budget sampling uses one uniform draw from an explicit stream
against the cumulative distribution, so a seeded stream gives the same
budgets every run; a training run's per-step budgets are read from its
``train_log.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import RngStream
from .tensor import Tensor, concat

CHUNK = 8
BUDGETS = (8, 16, 24, 32, 40, 48, 56, 64)
MAX_CORES = BUDGETS[-1]
DEFAULT_WEIGHTS = (1, 1, 2, 2, 3, 3, 4, 4)


@dataclass(frozen=True)
class BudgetDistribution:
    """Discrete distribution over :data:`BUDGETS`: one weight per budget."""

    weights: tuple[float, ...] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if len(self.weights) != len(BUDGETS):
            raise ConfigError(f"need one weight per budget {BUDGETS}, got {len(self.weights)}: {self.weights}")
        w = np.asarray(self.weights, dtype=np.float64)
        with np.errstate(over="ignore"):
            total = w.sum()
        if not ((w >= 0).all() and 0 < total < np.inf):  # a non-finite weight makes the sum non-finite
            raise ConfigError(f"weights must be finite and nonnegative with a finite, positive sum: {self.weights}")

    @property
    def probs(self) -> np.ndarray:
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()


def sample_budget(dist: BudgetDistribution, stream: RngStream) -> int:
    """Draw one budget with probability p_C; advances the stream by one draw."""
    u = float(stream.uniform())
    cum = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cum, u, side="right"))
    return BUDGETS[min(idx, len(BUDGETS) - 1)]


def active_prefix(token_chunks: list[Tensor], coord_chunks: list[Tensor], c: int) -> tuple[Tensor, Tensor]:
    """First C core tokens and coordinate states, as chunk concatenations.

    Only the first C/CHUNK chunk tensors enter the returned graph; chunks
    beyond the budget are never touched, which is what makes inactive-core
    invariance exact. This is the one check of a budget: it must be in
    :data:`BUDGETS` and fit the given bank.
    """
    if c not in BUDGETS:
        raise BudgetError(f"budget {c} not in valid budget set {BUDGETS}")
    if c > CHUNK * len(token_chunks):
        raise BudgetError(f"budget {c} exceeds the bank's {CHUNK * len(token_chunks)} cores")
    n = c // CHUNK
    return concat(token_chunks[:n], axis=0), concat(coord_chunks[:n], axis=0)
