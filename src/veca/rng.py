"""Named, counter-based random streams.

Every stochastic operation in the package draws from an explicit
:class:`RngStream`. A stream is identified by an integer seed plus a name
string; the pair is hashed into a Philox key, so streams with different names
are statistically independent and insensitive to the order in which other
streams are created or consumed. This is what makes weight init, data
generation, and budget sampling individually replayable.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """A seedable counter-based generator (Philox) with a hierarchical name."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{name}".encode(), digest_size=16
        ).digest()
        key = int.from_bytes(digest, "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, name: str) -> "RngStream":
        """Derive an independent child stream; does not advance this stream."""
        return RngStream(self.seed, f"{self.name}/{name}")

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, std: float = 1.0, size=None) -> np.ndarray:
        """Normal(0, std)."""
        return self._gen.normal(0.0, std, size=size)

    def trunc_normal(self, std: float, size=None) -> np.ndarray:
        """Normal(0, std) truncated to +-2 standard deviations (inverse CDF).

        scipy is imported here, its only use in the package outside ``verify``,
        so a process that loads and encodes a checkpoint never imports it.
        """
        from scipy import special as sp_special

        lo, hi = sp_special.ndtr(-2.0), sp_special.ndtr(2.0)
        u = self._gen.uniform(lo, hi, size=size)
        return sp_special.ndtri(u) * std

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, name={self.name!r})"
