"""Nested core budgets: prefix retrieval from the chunked bank, and sampling.

Core tokens and coordinate states are stored in chunks of CHUNK = 8 rows. A
budget C activates the first C/CHUNK chunks as an ordered prefix, so prefixes
nest exactly: the C1 rows of a C1 budget are the leading rows of any larger
budget. Budget sampling uses one uniform draw from an explicit stream against
the cumulative distribution, so a schedule can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import RngStream
from .tensor import Tensor, concat

CHUNK = 8
DEFAULT_BUDGETS = (8, 16, 24, 32, 40, 48, 56, 64)
DEFAULT_WEIGHTS = (1, 1, 2, 2, 3, 3, 4, 4)


@dataclass(frozen=True)
class BudgetDistribution:
    """Discrete distribution over active-core budgets."""

    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    weights: tuple[float, ...] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if len(self.budgets) != len(self.weights) or not self.budgets:
            raise ConfigError("budgets and weights must be non-empty and equal-length")
        if any(b <= 0 or b % CHUNK for b in self.budgets):
            raise ConfigError(f"budgets must be positive multiples of {CHUNK}: {self.budgets}")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ConfigError(f"budgets must be strictly increasing: {self.budgets}")
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
    return dist.budgets[min(idx, len(dist.budgets) - 1)]


def save_schedule(path: str | Path, budgets: list[int]) -> None:
    """Dump a budget sequence as one integer per line for exact replay."""
    Path(path).write_text("".join(f"{b}\n" for b in budgets))


def load_schedule(path: str | Path) -> list[int]:
    return [int(line) for line in Path(path).read_text().split()]


def active_prefix(token_chunks: list[Tensor], coord_chunks: list[Tensor], c: int) -> tuple[Tensor, Tensor]:
    """First C core tokens and coordinate states, as chunk concatenations.

    Only the first C/CHUNK chunk tensors enter the returned graph; chunks
    beyond the budget are never touched, which is what makes inactive-core
    invariance exact.
    """
    capacity = CHUNK * len(token_chunks)
    if c < CHUNK or c > capacity or c % CHUNK:
        raise BudgetError(
            f"budget {c} invalid: must be a multiple of {CHUNK} in [{CHUNK}, {capacity}]"
        )
    n = c // CHUNK
    return concat(token_chunks[:n], axis=0), concat(coord_chunks[:n], axis=0)
