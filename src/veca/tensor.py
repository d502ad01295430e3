"""Dense tensors with reverse-mode automatic differentiation.

The substrate for everything else in the package: a row-major float32/float64
array type and the primitive ops the model uses, each recording a tape node:
add, mul, tanh, silu, reshape, transpose, getitem, concat, broadcast_to,
tsum (over every element), matmul, softmax_rows, layer_norm and linear. The
last three sit inside every transformer block, so they are single tape nodes
with hand-written backwards; everything else composes. Rotary's table and
rotation (``rope.cos_sin`` and ``rope.apply``) and the two distillation
losses are nodes of the same kind, built on :func:`_from_op` in their own
modules. :func:`central_difference_error`
(and :func:`grad_check` on top of it) compares recorded gradients with
central finite differences. Design constraints, all deliberate:

* every op validates that its output is finite, with one ``isfinite`` pass
  over it, and raises :class:`~veca.errors.NonFiniteError` otherwise;
* sums over the last axis (softmax's normaliser, layer norm's moments, the
  losses' dot products) and over the leading axes (bias and affine
  gradients) are BLAS matrix-vector products with a cached read-only vector
  of ones, not numpy reductions, which cost several times more on these
  short axes; softmax's row max over rows shorter than :data:`SHORT_ROW` is
  one vectorized max over a transposed copy, for the same reason;
* a backward builds a parent's gradient only when that parent requires one,
  and the backward pass sorts only the nodes that have a backward;
* ops take :class:`Tensor` operands of one float dtype and convert nothing;
  binary elementwise ops require exactly matching shapes, a one-element
  Tensor, or an explicit :func:`broadcast_to` beforehand (no silent
  broadcasting);
* the backward pass visits nodes in reverse creation order, which is a
  topological order of the recorded graph, and always accumulates (sums)
  gradients into parents;
* a graph is backpropagated once and released as the backward runs: each
  interior node drops its gradient, its parent links and the arrays its
  backward saved as soon as that backward has run, so after ``backward()``
  the caller's loss holds no tape and only leaves (parameters, inputs that
  require grad) keep gradients. A gradient that later reaches a released
  node, by a second ``backward()`` or through a new graph built on it,
  raises :class:`~veca.errors.GraphReleasedError`;
* tensors are treated as immutable once created; only optimizers mutate
  ``.data`` in place, outside any recorded graph.

Forward evaluation of disjoint graphs is safe to run concurrently; a single
graph's backward pass is single-writer.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DTypeError, GraphReleasedError, NonFiniteError, ShapeError

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
LAYER_NORM_EPS = 1e-6
# rows shorter than this take their max along the first axis of a transposed copy
SHORT_ROW = 128

_counter = itertools.count()


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


@functools.lru_cache(maxsize=64)
def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    """A read-only vector of ``n`` ones, shared by every caller."""
    ones = np.ones(n, dtype)
    ones.flags.writeable = False
    return ones


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keeping it with length 1."""
    return (a @ _ones(a.shape[-1], a.dtype))[..., None]


def _row_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis, keeping it with length 1."""
    s = _row_sum(a)
    s /= a.shape[-1]
    return s


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last."""
    m = math.prod(a.shape[:-1])
    return _ones(m, a.dtype) @ a.reshape(m, a.shape[-1])


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, keeping it with length 1.

    numpy reduces a short last axis one row at a time. For rows shorter than
    :data:`SHORT_ROW`, a contiguous transposed copy is reduced along its
    first axis instead, one vectorized pass per row element. Longer rows
    keep numpy's reduce; the transposed copy is slower there, and at 128
    elements, a power-of-two stride, it is slower by 1.5-3.5x. The max is
    exact either way. Only where a +0.0 and a
    -0.0 tie for the max may the sign of the zero differ, as it does between
    numpy's own reduces of one row in different layouts.
    """
    d = a.shape[-1]
    if d >= SHORT_ROW:
        return a.max(axis=-1, keepdims=True)
    return a.reshape(-1, d).T.copy().max(axis=0).reshape(a.shape[:-1] + (1,))


class Tensor:
    """N-dimensional float array with optional gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_order")

    def __init__(self, data, *, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in SUPPORTED_DTYPES:
            raise DTypeError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None
        self._order = next(_counter)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})"

    # -- autograd ------------------------------------------------------------

    def backward(self) -> None:
        """Seed d(self)/d(self)=1, propagate to every reachable parent and release the graph.

        Leaves keep the gradients accumulated into them; every interior node
        is released as its backward runs (see the module notes), so a second
        call raises :class:`~veca.errors.GraphReleasedError`.
        """
        if self.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            # leaves and constants have no backward, so they are neither kept nor sorted
            if node._grad_fn is None or id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        # popped from the end, so in reverse creation order
        nodes.sort(key=lambda t: t._order)
        self.grad = np.ones_like(self.data)
        while nodes:
            node = nodes.pop()
            grad, grad_fn = node.grad, node._grad_fn
            # released before its backward runs, so its saved arrays and gradient are
            # freed as soon as the next pop rebinds these names
            node.grad, node._parents, node._grad_fn = None, (), _released
            if grad is not None:
                grad_fn(grad)


def _released(g: np.ndarray) -> None:
    """The backward of a node whose graph has been backpropagated and released."""
    raise GraphReleasedError(
        "a gradient reached a node whose graph was already backpropagated and released; "
        "build the graph again to take another gradient"
    )


def float_type(dtype) -> type:
    """The numpy scalar type of ``dtype``, which must be float32 or float64."""
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise DTypeError(f"unsupported dtype {dt}; use float32 or float64")
    return dt.type


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # constants (leaves without requires_grad) never keep a gradient
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _from_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    grad_fn: Callable[[np.ndarray], None],
    op: str,
    check: bool = True,
) -> Tensor:
    # ops that merely rearrange already-validated values may skip the scan
    if check:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    requires = False
    for p in parents:
        if p.requires_grad:
            requires = True
            break
    out.requires_grad = requires
    if requires:
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    else:
        out._parents = ()
        out._grad_fn = None
    out._order = next(_counter)
    return out


def _same_dtype(op: str, x: Tensor, *others: Tensor) -> None:
    for t in others:
        if t.dtype != x.dtype:
            raise DTypeError(f"{op}: dtypes differ: {x.dtype} vs {t.dtype}")


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    _same_dtype(op, a, b)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: shapes differ: {a.shape} vs {b.shape}")


def _unbroadcast_scalar(t: Tensor, g: np.ndarray) -> np.ndarray:
    # the only implicit broadcast allowed is a single-element operand
    if t.size == 1 and g.size > 1:
        return np.sum(g).reshape(t.shape)
    return g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` back to ``shape`` over the axes numpy broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (ds, dg) in enumerate(zip(shape, g.shape)) if ds == 1 and dg != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


# -- primitive elementwise ops -------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    data = a.data + b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast_scalar(a, g))
        if b.requires_grad:
            _accumulate(b, _unbroadcast_scalar(b, g))

    return _from_op(data, (a, b), grad_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    data = a.data * b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast_scalar(a, g * b.data))
        if b.requires_grad:
            _accumulate(b, _unbroadcast_scalar(b, g * a.data))

    return _from_op(data, (a, b), grad_fn, "mul")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - data * data))

    return _from_op(data, (a,), grad_fn, "tanh")


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), computed as x / (1 + exp(-x)).

    exp(-x) may overflow to inf (x very negative, output -0) or underflow to 0
    (x very positive, output x); both limits are exact, so those warnings are
    silenced. The backward is sigmoid(x) * (1 + x * sigmoid(-x)), written as
    (1 + x / (1 + exp(x))) / (1 + exp(-x)): no 1 - sigmoid(x) cancellation for
    large x and no subnormal sigmoid for very negative x.
    """
    x = a.data
    den = np.negative(x)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(den, out=den)
    den += 1.0
    data = x / den

    def grad_fn(g: np.ndarray) -> None:
        # g * (1 + x * sigmoid(-x)) / den, each step in place on the one fresh array
        with np.errstate(over="ignore", under="ignore"):
            t = np.exp(x)
        t += 1.0
        np.divide(1.0, t, out=t)
        t *= x
        t += 1.0
        t *= g
        t /= den
        _accumulate(a, t)

    return _from_op(data, (a,), grad_fn, "silu")


# -- shape ops -----------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    return _from_op(data, (a,), grad_fn, "reshape", check=False)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    data = a.data.transpose(axes)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, g.transpose(inverse))

    return _from_op(data, (a,), grad_fn, "transpose", check=False)


def getitem(a: Tensor, idx) -> Tensor:
    # slices and integers, plus at most one integer array of distinct indices (the
    # backward scatters with ``buf[idx] = g``, which a repeated index would undercount)
    data = a.data[idx]

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[idx] = g
            _accumulate(a, buf)

    return _from_op(data, (a,), grad_fn, "getitem", check=False)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of zero tensors")
    _same_dtype("concat", *ts)
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = [0]
    for t in ts:
        offsets.append(offsets[-1] + t.shape[axis])

    def grad_fn(g: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _from_op(data, ts, grad_fn, "concat", check=False)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicit numpy-rules broadcast; backward sums over the expanded axes."""
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape).copy()

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))

    return _from_op(data, (a,), grad_fn, "broadcast_to", check=False)


def tsum(a: Tensor) -> Tensor:
    """Sum over every element."""
    data = a.data.sum()

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _from_op(data, (a,), grad_fn, "sum")


# -- matmul ----------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes.

    Leading (batch) axes must match exactly; the only broadcast allowed is the
    matrix product itself. Backward: dA = dC @ B^T, dB = A^T @ dC.
    """
    _same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.matmul(a.data, b.data)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _from_op(data, (a, b), grad_fn, "matmul")


# -- fused neural-net primitives ----------------------------------------------
#
# These three appear in every block, so they are single tape nodes with
# hand-written backwards rather than compositions; each is covered by the
# finite-difference property suite like any other primitive.


def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax over the last axis, stabilized by max subtraction.

    The subtracted row maximum acts as a constant shift, which is exact:
    softmax is invariant to per-row shifts, so the shift contributes zero
    gradient. Output rows sum to 1 for any finite input.
    """
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax_rows: need a non-empty last axis, got {x.shape}")
    # exp and the normalization run in place on the one fresh array
    p = x.data - _row_max(x.data)
    np.exp(p, out=p)
    p /= _row_sum(p)

    def grad_fn(g: np.ndarray) -> None:
        # p * (g - sum(g * p)) in place on the product's array
        t = g * p
        np.subtract(g, _row_sum(t), out=t)
        t *= p
        _accumulate(x, t)

    return _from_op(p, (x,), grad_fn, "softmax_rows")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row standardization over the last axis (epsilon ``LAYER_NORM_EPS``),
    then affine by gamma/beta, which must have x's dtype.

    The gamma/beta broadcast over leading axes is the one sanctioned
    trailing-dimension affine.
    """
    _same_dtype("layer_norm", x, gamma, beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    xn = x.data - _row_mean(x.data)
    with np.errstate(over="ignore"):
        out = xn * xn
        var = _row_mean(out)
    # an overflowed variance would make inv 0 and the output silently beta
    _check_finite(var, "layer_norm variance")
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    # both fresh arrays are reused in place: xn scales the centered rows, and
    # the squared deviations' buffer receives the output
    xn *= inv
    np.multiply(xn, gamma.data, out=out)
    out += beta.data

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(gamma, _col_sum(g * xn))
        _accumulate(beta, _col_sum(g))
        gxn = g * gamma.data
        dx = inv * (gxn - _row_mean(gxn) - xn * _row_mean(gxn * xn))
        _accumulate(x, dx)

    return _from_op(out, (x, gamma, beta), grad_fn, "layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the trailing axis. x: [..., in], w: [in, out], b: [out], all of one dtype."""
    _same_dtype("linear", x, w, b)
    if x.shape[-1] != w.shape[0] or w.ndim != 2:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")
    lead = x.shape[:-1]
    m = math.prod(lead) if lead else 1
    flat = x.data.reshape(m, x.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        out = flat @ w.data
    out += b.data

    def grad_fn(g: np.ndarray) -> None:
        gf = g.reshape(m, w.shape[1])
        if x.requires_grad:
            _accumulate(x, (gf @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, flat.T @ gf)
        if b.requires_grad:
            _accumulate(b, _col_sum(gf))

    return _from_op(out.reshape(lead + (w.shape[1],)), (x, w, b), grad_fn, "linear")


# -- gradient checking --------------------------------------------------------------


def central_difference_error(
    params: dict[str, Tensor], loss: Callable[[], Tensor], h: float
) -> float:
    """Max relative error of the recorded gradient of ``loss`` w.r.t. ``params``.

    The analytic gradient comes from one recorded forward/backward with every
    parameter requiring grad. Then, with the tape off, each coordinate moves
    in place by +h and -h for the central difference (up - down) / 2h. Error
    per coordinate is |analytic - numeric| / max(1, |analytic|). A non-finite
    probe raises :class:`NonFiniteError` naming the parameter and coordinate.
    Every parameter's data and ``requires_grad`` flag are restored.
    """
    flags = {name: p.requires_grad for name, p in params.items()}
    analytic, numeric = [], []
    try:
        for p in params.values():
            p.grad, p.requires_grad = None, True
        loss().backward()
        for p in params.values():
            analytic.append(p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size, p.dtype))
            p.requires_grad = False
        for name, p in params.items():
            flat = p.data.reshape(-1)
            num = np.zeros(flat.size, dtype=np.float64)
            for i in range(flat.size):
                orig, values = flat[i], []
                for step, label in ((h, "+h"), (-h, "-h")):
                    flat[i] = orig + step
                    try:
                        values.append(float(loss().data.reshape(-1)[0]))
                    except NonFiniteError as err:
                        where = f"{name} coordinate {i} ({label})"
                        raise NonFiniteError(f"loss non-finite at {where}: {err}") from err
                    finally:
                        flat[i] = orig
                num[i] = (values[0] - values[1]) / (2.0 * h)
            numeric.append(num)
    finally:
        for name, p in params.items():
            p.requires_grad = flags[name]
    ana, num = np.concatenate(analytic), np.concatenate(numeric)
    rel = np.abs(ana - num) / np.maximum(1.0, np.abs(ana))
    return float(rel.max()) if rel.size else 0.0


def grad_check(f: Callable[[Tensor], Tensor], theta: Tensor, h: float = 1e-5) -> float:
    """:func:`central_difference_error` of a scalar function of one float64 tensor."""
    if theta.dtype != np.float64:
        raise DTypeError("grad_check requires float64 parameters")
    base = Tensor(theta.data.copy())
    return central_difference_error({"theta": base}, lambda: f(base), h)
