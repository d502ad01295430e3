import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veca.errors import DTypeError, NonFiniteError, ShapeError
from veca.tensor import (
    Tensor,
    add,
    broadcast_to,
    clip_min,
    concat,
    cos,
    div,
    getitem,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mul,
    neg,
    power,
    reshape,
    silu,
    sin,
    softmax_rows,
    sub,
    tanh,
    tmean,
    transpose,
    tsum,
)
from veca.rng import RngStream


def matmul_loop_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        m = np.random.default_rng(0).normal(size=(2, 2))
        out = matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_chain_vs_loop_oracle(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - matmul_loop_oracle(a, b)).max() <= 1e-12

    @given(
        m=st.integers(1, 8), k=st.integers(1, 8), n=st.integers(1, 8), seed=st.integers(0, 10_000)
    )
    @settings(max_examples=60, deadline=None)
    def test_all_small_shapes_match_oracle(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - matmul_loop_oracle(a, b)).max() <= 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_dtype_mismatch(self):
        with pytest.raises(DTypeError):
            matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2), dtype=np.float32)))

    def test_batched(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 5, 6))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, atol=1e-15)


def softmax_mp_oracle(row: np.ndarray) -> np.ndarray:
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_rows(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_stability_no_overflow(self):
        out = softmax_rows(Tensor([1000.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_vs_extended_precision_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            row = rng.normal(scale=3.0, size=4)
            got = softmax_rows(Tensor(row)).data
            want = softmax_mp_oracle(row)
            assert np.abs((got - want) / want).max() <= 1e-12

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=9),
        st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_to_one(self, row, rows):
        x = np.tile(np.asarray(row), (rows, 1))
        out = softmax_rows(Tensor(x)).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-6


def layer_norm_two_pass_oracle(x, gamma, beta, eps):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = (x[i] - mu) / np.sqrt(var + eps) * gamma + beta
    return out


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([[5.0] * 6]), Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 6)))

    def test_gamma_zero_broadcasts_beta(self):
        beta = np.array([1.0, -2.0, 0.5])
        out = layer_norm(
            Tensor(np.random.default_rng(0).normal(size=(4, 3))),
            Tensor(np.zeros(3)),
            Tensor(beta),
        )
        np.testing.assert_array_equal(out.data, np.tile(beta, (4, 1)))

    def test_vs_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 8))
        gamma, beta = rng.normal(size=8), rng.normal(size=8)
        got = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-6).data
        want = layer_norm_two_pass_oracle(x, gamma, beta, 1e-6)
        assert np.abs((got - want) / np.maximum(1e-9, np.abs(want))).max() <= 1e-10

    def test_rejects_bad_eps(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((1, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)), 0.0)


class TestGradCheck:
    def test_quadratic(self):
        theta = Tensor(np.random.default_rng(0).normal(size=9))
        err = grad_check(lambda t: mul(tsum(mul(t, t)), 0.5), theta, 1e-5)
        assert err <= 1e-9

    def test_softmax_cross_term(self):
        weights = Tensor(np.array([0.3, -1.2, 2.0]))

        def f(t):
            return tsum(mul(softmax_rows(t), weights))

        err = grad_check(f, Tensor(np.array([0.1, -0.4, 0.9])), 1e-5)
        assert err <= 1e-7

    def test_requires_float64(self):
        with pytest.raises(DTypeError):
            grad_check(lambda t: tsum(t), Tensor(np.zeros(2, dtype=np.float32)), 1e-5)

    def test_non_finite_names_coordinate(self):
        def f(t):
            return tsum(div(Tensor(np.ones(3)), t))

        with pytest.raises(NonFiniteError) as err:
            grad_check(f, Tensor(np.array([1.0, 1e-5, 2.0])), 1e-5)
        assert "coordinate 1" in str(err.value)


SILU_INPUTS = np.concatenate(
    [np.random.default_rng(0).normal(size=10**5), [0.0, 20.0, -20.0, 88.7, -88.7, 1e4, -1e4]]
)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 2.5e-7), (np.float64, 1e-15)])
def test_silu_relative_error(dtype, tol):
    x = SILU_INPUTS.astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = silu(Tensor(x)).data
    assert out.dtype == dtype and np.all(np.isfinite(out))
    if dtype == np.float32:
        x64 = x.astype(np.float64)
        ref = x64 * np.exp(-np.logaddexp(0.0, -x64))  # float64 x * sigmoid(x)
    else:
        with mpmath.workdps(40):
            ref = np.array([float(v / (1 + mpmath.exp(-v))) for v in map(mpmath.mpf, x)])
    zero = ref == 0  # 0 and the underflow at -1e4
    np.testing.assert_array_equal(out[zero], ref[zero])
    assert np.max(np.abs(out[~zero] - ref[~zero]) / np.abs(ref[~zero])) <= tol


UNARY_OPS = [
    ("tanh", tanh, 3.0),
    ("sin", sin, 3.0),
    ("cos", cos, 3.0),
    ("silu", silu, 3.0),
    ("neg", neg, 3.0),
    ("power", lambda t: power(add(mul(t, t), 0.5), 1.7), 1.0),
    ("clip_min", lambda t: clip_min(t, 0.1), 3.0),
    ("reshape", lambda t: reshape(t, (6,)), 3.0),
    ("transpose", lambda t: transpose(t, (1, 0)), 3.0),
    ("getitem", lambda t: getitem(t, (slice(0, 2), slice(0, None, 2))), 3.0),
    ("broadcast", lambda t: broadcast_to(reshape(t, (2, 3, 1)), (2, 3, 4)), 3.0),
    ("sum_axis", lambda t: tsum(t, axis=0, keepdims=True), 3.0),
    ("mean", lambda t: tmean(t, axis=1), 3.0),
]


@pytest.mark.parametrize("name,op,scale", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_op_gradients_20_seeds(name, op, scale):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        theta = Tensor(rng.uniform(-scale, scale, size=(2, 3)))
        probe = Tensor(rng.normal(size=np.asarray(op(theta).data).shape))

        def f(t):
            return tsum(mul(op(t), probe))

        worst = max(worst, grad_check(f, theta, 1e-5))
    assert worst <= 1e-6, f"{name}: {worst}"


BINARY_OPS = [
    ("add", add),
    ("sub", sub),
    ("mul", mul),
    ("div", lambda a, b: div(a, add(mul(b, b), 0.5))),
    ("matmul", lambda a, b: matmul(a, transpose(b, (1, 0)))),
    ("concat", lambda a, b: concat([a, b], axis=0)),
    ("linear-w", lambda a, b: linear(transpose(b, (1, 0)), a)),
]


@pytest.mark.parametrize("name,op", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_binary_op_gradients_20_seeds(name, op):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        other = Tensor(rng.normal(size=(2, 3)))
        theta = Tensor(rng.normal(size=(2, 3)))
        shape = op(theta, other).shape

        def f(t, _probe=Tensor(rng.normal(size=shape))):
            return tsum(mul(op(t, other), _probe))

        worst = max(worst, grad_check(f, theta, 1e-5))
    assert worst <= 1e-6, f"{name}: {worst}"


def test_layer_norm_and_linear_gradients_20_seeds():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 300)
        gamma = Tensor(rng.normal(size=4))
        beta = Tensor(rng.normal(size=4))
        w = Tensor(rng.normal(size=(4, 5)))
        b = Tensor(rng.normal(size=5))
        probe = Tensor(rng.normal(size=(3, 5)))

        def f(t):
            return tsum(mul(linear(layer_norm(t, gamma, beta), w, b), probe))

        worst = max(worst, grad_check(f, Tensor(rng.normal(size=(3, 4))), 1e-5))
    assert worst <= 1e-6


class TestAutogradMechanics:
    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = add(mul(x, x), mul(x, 3.0))  # x^2 + 3x -> grad 2x + 3
        tsum(y).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 3.0)

    def test_constant_operand_keeps_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        tsum(mul(x, c)).backward()
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_backward_needs_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            add(x, 1.0).backward()

    def test_no_graph_without_requires_grad(self):
        x = Tensor(np.ones(3))
        out = mul(x, 2.0)
        assert out._parents == () and not out.requires_grad

    def test_grad_matches_data_shape(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        tsum(mul(x, x)).backward()
        assert x.grad.shape == x.shape


class TestInvariants:
    def test_finite_construction_enforced(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))

    def test_power_overflow_surfaces(self):
        with pytest.raises(NonFiniteError):
            power(Tensor(np.array([1e200])), 2.0)

    def test_layer_norm_variance_overflow_surfaces(self):
        # the squared deviations overflow, so the variance is inf and the output would be just beta
        for dtype, row in ((np.float64, [1e200, -1e200, 0.0, 3e199]), (np.float32, [1e20, -1e20, 0.0, 3e19])):
            with pytest.raises(NonFiniteError, match="layer_norm"):
                layer_norm(Tensor(np.array([row], dtype=dtype)), Tensor(np.ones(4, dtype)), Tensor(np.zeros(4, dtype)))

    def test_div_by_zero_surfaces(self):
        with pytest.raises((NonFiniteError, FloatingPointError)):
            div(Tensor(np.ones(2)), Tensor(np.array([1.0, 0.0])))

    def test_size_matches_shape_product(self):
        t = Tensor(np.zeros((3, 4, 2)))
        assert t.size == 24 and t.shape == (3, 4, 2)

    def test_unsupported_dtype(self):
        with pytest.raises(DTypeError):
            Tensor(np.zeros(2, dtype=np.complex128))

    def test_int_input_promotes(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
