import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veca.data import synthetic_images
from veca.distill import DistillConfig, SyntheticTeacher, total_loss
from veca.errors import DTypeError, GraphReleasedError, NonFiniteError, ShapeError
from veca.model import Encoder, get_preset
from veca.rope import apply as rope_apply
from veca.tensor import (
    SHORT_ROW,
    Tensor,
    _check_finite,
    _col_sum,
    _row_max,
    _row_mean,
    _row_sum,
    add,
    broadcast_to,
    concat,
    getitem,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mul,
    reshape,
    silu,
    softmax_rows,
    tanh,
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
        got = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        want = layer_norm_two_pass_oracle(x, gamma, beta, 1e-6)
        assert np.abs((got - want) / np.maximum(1e-9, np.abs(want))).max() <= 1e-10


class TestGradCheck:
    def test_quadratic(self):
        theta = Tensor(np.random.default_rng(0).normal(size=9))
        err = grad_check(lambda t: mul(tsum(mul(t, t)), Tensor(np.array(0.5))), theta, 1e-5)
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

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    def test_non_finite_names_coordinate(self):
        def f(t):
            return tsum(mul(mul(t, t), t))

        # t^3 is finite at 5e102 (1.25e308) and overflows only at the +h probe of coordinate 1
        with pytest.raises(NonFiniteError) as err:
            grad_check(f, Tensor(np.array([1.0, 5e102, 2.0])), 1e102)
        assert "coordinate 1" in str(err.value)


SILU_EXTREMES = [0.0, 20.0, -20.0, 88.7, -88.7, 1e4, -1e4]
SILU_INPUTS = np.concatenate([np.random.default_rng(0).normal(size=10**5), SILU_EXTREMES])


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_backward_at_extreme_inputs(dtype):
    x = Tensor(np.array(SILU_EXTREMES, dtype=dtype), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tsum(silu(x)).backward()
    grad = x.grad
    assert grad.dtype == dtype and np.all(np.isfinite(grad))
    with mpmath.workdps(40):
        ref = []
        for v in map(mpmath.mpf, x.data.astype(np.float64)):
            sig = 1 / (1 + mpmath.exp(-v))
            ref.append(float(sig * (1 + v * (1 - sig))))
    ref = np.array(ref)
    zero = ref == 0  # the underflow at -1e4
    np.testing.assert_array_equal(grad[zero], 0.0)
    rel = np.abs(grad[~zero] - ref[~zero]) / np.abs(ref[~zero])
    assert rel.max() <= 4 * np.finfo(dtype).eps


UNARY_OPS = [
    ("tanh", tanh, 3.0),
    ("silu", silu, 3.0),
    ("reshape", lambda t: reshape(t, (6,)), 3.0),
    ("transpose", lambda t: transpose(t, (1, 0)), 3.0),
    ("getitem", lambda t: getitem(t, (slice(0, 2), slice(0, None, 2))), 3.0),
    ("getitem-rows", lambda t: getitem(t, (slice(None), np.array([2, 0]))), 3.0),
    ("broadcast", lambda t: broadcast_to(reshape(t, (2, 3, 1)), (2, 3, 4)), 3.0),
    ("sum", tsum, 3.0),
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_getitem_distinct_integer_rows_are_exact(dtype):
    # one integer array of distinct indices: the forward gathers and the backward
    # scatters each gradient row back to its own row, bit for bit
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 6, 3)).astype(dtype), requires_grad=True)
    rows = np.array([0, 3, 4, 5])
    out = getitem(x, (slice(None), rows))
    np.testing.assert_array_equal(out.data, x.data[:, rows])
    g = rng.normal(size=out.shape).astype(dtype)
    tsum(mul(out, Tensor(g))).backward()
    want = np.zeros_like(x.data)
    want[:, rows] = g
    np.testing.assert_array_equal(x.grad, want)


BINARY_OPS = [
    ("add", add),
    ("mul", mul),
    ("matmul", lambda a, b: matmul(a, transpose(b, (1, 0)))),
    ("concat", lambda a, b: concat([a, b], axis=0)),
    ("linear-w", lambda a, b: linear(transpose(b, (1, 0)), a, Tensor(np.array([0.5, -1.0, 2.0])))),
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


def _fused_op_cases(dtype, sliced):
    """(name, op, operand arrays) for each fused primitive and rotary.

    With ``sliced`` every operand is the first half of a larger array's last
    axis, as ``ffn_swiglu``'s getitem halves are.
    """
    rng = np.random.default_rng(5)

    def operand(*shape):
        if sliced:
            return rng.normal(size=shape[:-1] + (2 * shape[-1],)).astype(dtype)[..., : shape[-1]]
        return rng.normal(size=shape).astype(dtype)

    return [
        ("linear", linear, [operand(3, 5, 4), operand(4, 6), operand(6)]),
        ("layer_norm", layer_norm, [operand(3, 5, 8), operand(8), operand(8)]),
        ("softmax_rows", softmax_rows, [operand(2, 3, 7)]),
        ("silu", silu, [operand(3, 5, 8)]),
        ("rope.apply", rope_apply, [operand(2, 3, 5, 8), operand(2, 1, 5, 8)]),
    ]


def written_operands(op, arrays) -> list[int]:
    """Indices of the operands whose bytes (or whose base array's) a forward plus backward changed."""
    owners = [a if a.base is None else a.base for a in arrays]
    before = [o.tobytes() for o in owners]
    operands = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*operands)
    tsum(mul(out, Tensor(np.ones_like(out.data)))).backward()
    assert all(t.data is a for t, a in zip(operands, arrays))
    return [i for i, (o, b) in enumerate(zip(owners, before)) if o.tobytes() != b]


@pytest.mark.parametrize("sliced", [False, True], ids=["own", "sliced"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_primitive_writes_into_its_operands(dtype, sliced):
    for name, op, arrays in _fused_op_cases(dtype, sliced):
        assert written_operands(op, arrays) == [], name


def test_an_op_writing_into_its_operand_is_caught():
    def layer_norm_centering_in_place(x, gamma, beta):
        x.data -= x.data.mean(axis=-1, keepdims=True)
        return layer_norm(x, gamma, beta)

    for sliced in (False, True):
        _, _, arrays = _fused_op_cases(np.float32, sliced)[1]
        assert written_operands(layer_norm_centering_in_place, arrays) == [0]


class TestAutogradMechanics:
    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = add(mul(x, x), mul(x, Tensor(np.full(2, 3.0))))  # x^2 + 3x -> grad 2x + 3
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
            add(x, Tensor(np.ones(3))).backward()

    def test_no_graph_without_requires_grad(self):
        x = Tensor(np.ones(3))
        out = mul(x, Tensor(np.full(3, 2.0)))
        assert out._parents == () and not out.requires_grad

    def test_grad_matches_data_shape(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        tsum(mul(x, x)).backward()
        assert x.grad.shape == x.shape

    def test_second_backward_through_one_graph_raises(self):
        # it would reuse the interior gradients of the first, leaving x.grad at 6x, not 4x
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = tsum(mul(x, x))
        loss.backward()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_new_graph_reaching_a_released_node_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        square = mul(x, x)
        tsum(square).backward()
        with pytest.raises(GraphReleasedError):
            tsum(add(square, x)).backward()

    def test_training_step_holds_only_parameter_gradients_after_backward(self):
        # tiny-test, float32, B = 8, 16 px, C = 64: the whole tape held 6 MB until the caller dropped the loss
        config = get_preset("tiny-test")
        enc = Encoder(config, seed=0, dtype=np.float32)
        images = synthetic_images(RngStream(0, "released-tape"), 8, 16)
        targets = SyntheticTeacher(config, dtype=np.float32).targets(images)

        def step() -> Tensor:
            enc.zero_grad()
            loss, _ = total_loss(images, 64, enc, None, DistillConfig(), targets=targets)
            loss.backward()
            return loss

        step()  # fills the caches a step reads: grid coordinates and vectors of ones
        enc.zero_grad()
        tracemalloc.start()
        try:
            loss = step()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grads = sum(p.grad.nbytes for p in enc.params.values() if p.grad is not None)
        assert loss.size == 1 and grads > 0
        assert held <= grads + 64 * 1024


class TestInvariants:
    def test_finite_construction_enforced(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))

    def test_layer_norm_variance_overflow_surfaces(self):
        # the squared deviations overflow, so the variance is inf and the output would be just beta;
        # the overflow inside the variance's sum is not a warning either
        for dtype, row in ((np.float64, [1e200, -1e200, 0.0, 3e199]), (np.float32, [1e20, -1e20, 0.0, 3e19])):
            with warnings.catch_warnings(), pytest.raises(NonFiniteError, match="layer_norm"):
                warnings.simplefilter("error")
                layer_norm(Tensor(np.array([row], dtype=dtype)), Tensor(np.ones(4, dtype)), Tensor(np.zeros(4, dtype)))

    def test_size_matches_shape_product(self):
        t = Tensor(np.zeros((3, 4, 2)))
        assert t.size == 24 and t.shape == (3, 4, 2)

    def test_unsupported_dtype(self):
        with pytest.raises(DTypeError):
            Tensor(np.zeros(2, dtype=np.complex128))

    def test_int_input_refused(self):
        # an integer or boolean array is no float dtype, so it is refused like any other
        for data in (np.array([1, 2, 3]), [1, 2, 3], np.array([True, False])):
            with pytest.raises(DTypeError):
                Tensor(data)

    def test_requires_grad_is_keyword_only(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2), True)


FLOATS = [np.float32, np.float64]


class TestFiniteCheck:
    # under warnings-as-errors, so a check that warns fails as loudly as one that misses
    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_finite_values_whose_sum_overflows_pass(self, dtype):
        big = np.full(2, 3e38 if dtype == np.float32 else 1.7e308, dtype)  # each over half the max
        _check_finite(big, "probe")
        Tensor(big)

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_empty_array_passes(self, dtype):
        _check_finite(np.empty(0, dtype), "probe")
        assert Tensor(np.empty((2, 0), dtype)).size == 0

    @given(
        size=st.integers(1, 1000),
        data=st.data(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        dtype=st.sampled_from(FLOATS),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_non_finite_value_anywhere_raises(self, size, data, bad, dtype):
        values = np.random.default_rng(size).normal(size=size).astype(dtype)
        values[data.draw(st.integers(0, size - 1))] = bad
        with pytest.raises(NonFiniteError, match="probe"):
            _check_finite(values, "probe")


def _sum_bound(a: np.ndarray, axis) -> np.ndarray:
    """n * eps * sum |x| over ``axis``: a bound on any order of n - 1 rounded additions."""
    n = a.shape[axis] if isinstance(axis, int) else math.prod(a.shape[i] for i in axis)
    return n * np.finfo(a.dtype).eps * np.abs(a.astype(np.float64)).sum(axis=axis)


def _fsum(a: np.ndarray, axis) -> np.ndarray:
    """Correctly rounded float64 sums over ``axis`` (the last axis, or every other one)."""
    a = np.asarray(a, np.float64)
    if axis != -1:
        a = a.reshape(-1, a.shape[-1]).T
    rows = a.reshape(-1, a.shape[-1])
    return np.array([math.fsum(r) for r in rows]).reshape(a.shape[:-1])


def _layouts(values: np.ndarray) -> dict[str, np.ndarray]:
    """The same values stored contiguously, as a transposed view (as a gradient
    that went through ``transpose`` arrives) and as the first half of a wider
    array (as ``ffn_swiglu``'s getitem halves are)."""
    wide = np.zeros(values.shape[:-1] + (2 * values.shape[-1],), values.dtype)
    wide[..., : values.shape[-1]] = values
    out = {"contiguous": np.ascontiguousarray(values), "sliced": wide[..., : values.shape[-1]]}
    if values.ndim > 1:
        out["transposed"] = np.ascontiguousarray(np.swapaxes(values, -1, -2)).swapaxes(-1, -2)
    return out


class TestAxisSums:
    SHAPES = [(3, 5, 7), (2, 2, 16, 20), (6, 1), (4, 3, 1), (1, 9), (9,)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_within_n_eps_of_an_exact_sum(self, dtype, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        # magnitudes over six decades, so cancellation and absorption both happen
        values = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)).astype(dtype)
        lead = tuple(range(values.ndim - 1))
        for name, a in _layouts(values).items():
            rows, cols, means = _row_sum(a), _col_sum(a), _row_mean(a)
            assert rows.shape == a.shape[:-1] + (1,) and rows.dtype == dtype, name
            assert cols.shape == a.shape[-1:] and cols.dtype == dtype, name
            exact_rows, exact_cols = _fsum(a, -1), _fsum(a, lead)
            row_bound, col_bound = _sum_bound(a, -1), _sum_bound(a, lead)
            assert np.all(np.abs(rows[..., 0] - exact_rows) <= row_bound), name
            assert np.all(np.abs(cols - exact_cols) <= col_bound), name
            d = a.shape[-1]
            assert np.all(np.abs(means[..., 0] - exact_rows / d) <= row_bound / d * (1 + 1 / d)), name

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_same_values_at_any_offset_give_the_same_bits(self, dtype):
        rng = np.random.default_rng(4)
        for shape in [(8, 2, 64, 80), (8, 80, 16), (260, 384), (5, 1)]:
            values = rng.normal(size=shape).astype(dtype)
            results = set()
            for offset in range(9):
                buf = np.empty(values.size + 9, dtype)
                a = buf[offset : offset + values.size].reshape(shape)
                a[...] = values
                results.add(b"".join(f(a).tobytes() for f in (_row_sum, _row_mean, _col_sum)))
            assert len(results) == 1, shape

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_softmax_over_zero_rows(self, dtype):
        # the teacher runs attention at C = T, where the patch-row block is (B, H, 0, T)
        x = Tensor(np.zeros((2, 3, 0, 5), dtype), requires_grad=True)
        out = softmax_rows(x)
        assert out.shape == x.shape and out.dtype == dtype
        tsum(out).backward()
        assert x.grad.shape == x.shape


class TestRowMax:
    """``_row_max`` against numpy's own max over the last axis, bit for bit."""

    LENGTHS = [1, 2, 8, 57, SHORT_ROW - 1, SHORT_ROW, SHORT_ROW + 1, 260]

    @staticmethod
    def _same_bits(a: np.ndarray) -> None:
        got, want = _row_max(a), a.max(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", LENGTHS)
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_every_layout_on_both_sides_of_the_cutoff(self, dtype, d):
        rng = np.random.default_rng(d)
        values = (rng.normal(size=(3, 5, d)) * 10.0 ** rng.integers(-3, 4, size=(3, 5, d))).astype(dtype)
        for a in _layouts(values).values():
            self._same_bits(a)

    @pytest.mark.parametrize("d", LENGTHS)
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_special_values(self, dtype, d):
        # zeros of one sign per row, infinities and NaN, mixed with ordinary values
        rng = np.random.default_rng(100 + d)
        for zero in (0.0, -0.0):
            specials = np.array([zero, -1.0, np.inf, -np.inf, np.nan, 2.5], dtype)
            a = rng.choice(specials, size=(7, d))
            a[0] = zero
            a[1] = -np.inf
            a[2, 0] = np.nan
            self._same_bits(a)

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_zero_size_leading_axes(self, dtype):
        for shape in [(0, 5), (2, 0, 7), (0, SHORT_ROW + 3)]:
            self._same_bits(np.zeros(shape, dtype))

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_tied_zeros_of_both_signs_shift_softmax_identically(self, dtype):
        # where +0.0 and -0.0 tie for the max, numpy itself returns either sign depending on
        # the layout it reduces; x - (+0) and x - (-0) have the same exponentials
        rng = np.random.default_rng(7)
        a = rng.choice(np.array([0.0, -0.0, -1.0], dtype), size=(200, 9))
        a[:, :2] = [0.0, -0.0]
        got, want = _row_max(a), a.max(axis=-1, keepdims=True)
        np.testing.assert_array_equal(got, want)
        assert np.exp(a - got).tobytes() == np.exp(a - want).tobytes()


def _operands(dtype_of: dict[str, type]) -> dict[str, Tensor]:
    """Operands of linear, layer_norm and rope.apply; float32 unless ``dtype_of`` names another dtype."""
    shapes = {"x": (2, 4), "w": (4, 3), "b": (3,), "gamma": (4,), "beta": (4,), "table": (2, 4)}
    rng = np.random.default_rng(0)
    return {k: Tensor(rng.normal(size=s).astype(dtype_of.get(k, np.float32))) for k, s in shapes.items()}


MIXED_DTYPE_CALLS = {
    "linear weight": (lambda o: linear(o["x"], o["w"], o["b"]), {"w": np.float64}),
    "linear input": (lambda o: linear(o["x"], o["w"], o["b"]), {"x": np.float64}),
    "linear bias": (lambda o: linear(o["x"], o["w"], o["b"]), {"b": np.float64}),
    "layer_norm gamma": (lambda o: layer_norm(o["x"], o["gamma"], o["beta"]), {"gamma": np.float64}),
    "layer_norm beta": (lambda o: layer_norm(o["x"], o["gamma"], o["beta"]), {"beta": np.float64}),
    "rope.apply tables": (lambda o: rope_apply(o["x"], o["table"]), {"table": np.float64}),
    "rope.apply input": (lambda o: rope_apply(o["x"], o["table"]), {"x": np.float64}),
}


@pytest.mark.parametrize("case", sorted(MIXED_DTYPE_CALLS))
def test_mixed_operand_dtypes_refused(case):
    # as matmul and the binary ops do: no silent promotion of the output, no silent cast into it
    call, dtype_of = MIXED_DTYPE_CALLS[case]
    with pytest.raises(DTypeError, match="dtypes differ"):
        call(_operands(dtype_of))
    assert call(_operands({})).dtype == np.float32
