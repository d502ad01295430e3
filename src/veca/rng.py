"""Named, counter-based random streams.

Every stochastic operation in the package draws from an explicit
:class:`RngStream`. A stream is identified by an integer seed plus a name
string; the pair is hashed into a Philox key, so streams with different names
are statistically independent and insensitive to the order in which other
streams are created or consumed. This is what makes weight init, data
generation, and budget sampling individually replayable.

Truncated-normal draws (:func:`trunc_normals`) invert the normal CDF with
:func:`ndtri`, a numpy port of the Cephes ``ndtri`` routine (the one
``scipy.special.ndtri`` runs) that keeps its order of operations, so the
package needs numpy alone. On the draws' range the port equals scipy's
routine bitwise wherever numpy's vectorised ``log`` equals the C library's;
elsewhere a float64 value may differ in its last bits (a few ulp, on fewer
than one value in 10^4), which moved no float32 weight in the tests.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Sequence

import numpy as np

# Cephes ndtri: exp(-2), sqrt(2 pi), and the rational approximations on
# |y - 0.5| <= 0.5 - exp(-2) (P0/Q0) and on exp(-32) < y <= exp(-2) (P1/Q1)
EXPM2 = 0.13533528323661269189
S2PI = 2.50662827463100050242e0
P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# the standard normal CDF at -2 and 2: truncated draws are uniform on [LO, HI)
LO, HI = 0.022750131948179195, 0.9772498680518208
# values per ndtri call in trunc_normals, so its temporaries stay bounded
NDTRI_CHUNK = 2**14


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

        :func:`trunc_normals` for this stream alone: uniforms on [LO, HI)
        through :func:`ndtri`, the numpy port of Cephes ``ndtri``, times
        ``std``. A float64 value may differ from ``scipy.special.ndtri``'s in
        its last bits where numpy's ``log`` differs from the C library's.
        """
        return trunc_normals([(self, size)], std)[0]

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, name={self.name!r})"


def trunc_normals(draws: Sequence[tuple[RngStream, object]], std: float) -> list[np.ndarray]:
    """Normal(0, std) truncated to +-2 std for each ``(stream, size)`` of ``draws``, in order.

    Each stream draws its uniforms on [LO, HI) as it would alone, into one
    buffer that :func:`ndtri` transforms in place, ``NDTRI_CHUNK`` values at a
    time, so many small weights cost one call and the temporaries stay
    bounded for any size. The results are views of that buffer; ``size=None``
    gives a scalar, as numpy's ``size`` does.
    """
    shapes = [_shape(size) for _, size in draws]
    starts = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    parts = [slice(start, end) for start, end in zip(starts, starts[1:])]
    if len(draws) == 1:
        # a lone draw is transformed where numpy drew it: one allocation, no copy
        [(stream, size)] = draws
        values = np.ravel(stream.uniform(LO, HI, size=size))
    else:
        values = np.empty(starts[-1])
        for (stream, size), part in zip(draws, parts):
            values[part] = np.ravel(stream.uniform(LO, HI, size=size))
    for start in range(0, values.size, NDTRI_CHUNK):
        chunk = values[start : start + NDTRI_CHUNK]
        chunk[:] = ndtri(chunk) * std
    return [values[part].reshape(shape)[()] for part, shape in zip(parts, shapes)]


def _shape(size) -> tuple[int, ...]:
    """The shape numpy gives an array drawn with ``size``: () for None, (n,) for an integer n."""
    return () if size is None else tuple(int(n) for n in np.atleast_1d(size))


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each value of ``u`` in [LO, HI), as Cephes ``ndtri`` computes it.

    Cephes' order of operations is kept, so only the ``log`` calls can differ
    from scipy's. On [LO, HI) the reflected ``y`` is at least exp(-32), so
    Cephes' third branch (``x >= 8``) never runs, and the central branch
    never negates. The central branch runs on every value, a tail value at
    ``y`` = 0.5 (away from its denominator's zero), and the tail then
    overwrites it, so the central values need no gather.
    """
    upper = u > 1.0 - EXPM2
    y = np.where(upper, 1.0 - u, u)
    tail = np.flatnonzero(y <= EXPM2)
    # central branch: y + y (y^2 P0(y^2) / Q0(y^2)) in y - 0.5, times sqrt(2 pi)
    c = u - 0.5
    c[tail] = 0.0
    c2 = c * c
    x = _polevl(c2, P0)
    x *= c2
    x /= _p1evl(c2, Q0)
    x *= c
    x += c
    x *= S2PI
    # tail branch: t = sqrt(-2 log y), then (t - log(t) / t) - z P1(z) / Q1(z) in z = 1 / t
    t = np.log(y[tail])
    t *= -2.0
    np.sqrt(t, out=t)
    z = 1.0 / t
    r = _polevl(z, P1)
    r *= z
    r /= _p1evl(z, Q1)
    t -= np.log(t) / t
    t -= r
    x[tail] = np.where(upper[tail], t, -t)
    return x


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner's rule, as Cephes ``polevl``."""
    return _horner(x, coef, np.full_like(x, coef[0]))


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """x^(n+1) + coef[0] x^n + ... + coef[n], as Cephes ``p1evl`` (leading coefficient 1)."""
    return _horner(x, coef, x + coef[0])


def _horner(x: np.ndarray, coef: tuple[float, ...], a: np.ndarray) -> np.ndarray:
    """``a = a * x + c`` in place for each c of ``coef[1:]``."""
    for c in coef[1:]:
        a *= x
        a += c
    return a
