import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veca.attention import (
    AttnParams,
    core_attention,
    dense_count,
    interaction_count,
    masked_dense_oracle,
)
from veca.errors import BudgetError, ConfigError, DTypeError, ShapeError
from veca.rng import RngStream
from veca.tensor import Tensor, central_difference_error, mul, tsum
from veca.verify import F32_ORACLE_EPS, attention_row_sums, oracle_equivalence_f32


def make_params(dim, heads, seed=0):
    return AttnParams.init(dim, heads, RngStream(seed, "attn-test"))


def random_case(seed, t=12, c=4, dim=8, heads=2, batch=1):
    rng = np.random.default_rng(seed)
    params = make_params(dim, heads, seed)
    x = Tensor(rng.normal(size=(batch, t, dim)))
    coords = Tensor(rng.uniform(-1, 1, size=(t, 2)))
    return params, x, coords


class TestCoreAttention:
    def test_identical_keys_give_value_mean(self):
        # zero key projection -> equal scores -> uniform softmax over allowed keys
        params, x, coords = random_case(0, t=10, c=3, dim=8, heads=1)
        params.wk.data[:] = 0.0
        out = core_attention(params, x, coords, 3).data
        v = x.data.reshape(10, 8) @ params.wv.data + params.bv.data
        core_mean = v.mean(axis=0)  # core rows: uniform over all T values
        patch_mean = v[:3].mean(axis=0)  # patch rows: uniform over the C cores
        want_core = core_mean @ params.wo.data + params.bo.data
        want_patch = patch_mean @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out[0, :3], np.tile(want_core, (3, 1)), atol=1e-12)
        np.testing.assert_allclose(out[0, 3:], np.tile(want_patch, (7, 1)), atol=1e-12)

    def test_singleton_core_softmax_is_one(self):
        params, x, coords = random_case(1, t=2, c=1)
        out = core_attention(params, x, coords, 1).data
        v1 = x.data[0, 0] @ params.wv.data + params.bv.data
        want = v1 @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out[0, 1], want, atol=1e-12)

    def test_matches_oracle_spec_example(self):
        params, x, coords = random_case(2, t=12, c=4, dim=8, heads=2)
        out = core_attention(params, x, coords, 4).data
        ref = masked_dense_oracle(params, x, coords, 4)
        assert np.abs(out - ref).max() <= 1e-12

    def test_budget_errors(self):
        params, x, coords = random_case(3)
        with pytest.raises(BudgetError):
            core_attention(params, x, coords, 13)
        with pytest.raises(BudgetError):
            core_attention(params, x, coords, 0)

    def test_all_cores_matches_oracle(self):
        # C = T: no patch rows, so core attention is dense self-attention
        for seed in range(10):
            t = 2 + seed
            heads, batch = 1 + seed % 2, 1 + seed % 2
            params, x, coords = random_case(100 + seed, t=t, c=t, heads=heads, batch=batch)
            out = core_attention(params, x, coords, t).data
            ref = masked_dense_oracle(params, x, coords, t)
            assert np.abs(out - ref).max() <= 1e-12

    def test_head_divisibility_error(self):
        with pytest.raises(ConfigError):
            AttnParams.init(10, 3, RngStream(0, "bad"))

    def test_head_width_without_rotary_pairs(self):
        # dim 8 over 4 heads is head width 2: too narrow for 2D rotary pairs
        with pytest.raises(ConfigError):
            AttnParams.init(8, 4, RngStream(0, "bad"))

    def test_coords_shape_error(self):
        params, x, _ = random_case(5)
        with pytest.raises(ShapeError):
            core_attention(params, x, Tensor(np.zeros((5, 2))), 4)

    @pytest.mark.parametrize("fn", [core_attention, masked_dense_oracle], ids=["core", "oracle"])
    def test_coords_of_another_dtype_refused(self, fn):
        # float32 x and weights: float32 coordinates run, float64 ones are refused, not cast
        p64, x, coords = random_case(5)
        params = AttnParams(*(Tensor(t.data.astype(np.float32)) for t in p64.tensors().values()), p64.heads)
        x32 = Tensor(x.data.astype(np.float32))
        assert fn(params, x32, Tensor(coords.data.astype(np.float32)), 4).dtype == np.float32
        for requires_grad in (False, True):
            with pytest.raises(DTypeError, match="dtypes differ"):
                fn(params, x32, Tensor(coords.data, requires_grad=requires_grad), 4)

    def test_capture_shapes_and_row_sums(self):
        # at C = T (14) there are no patch rows: the patch block is (B, H, 0, C)
        params, x, coords = random_case(7, t=14, c=4, dim=16, heads=2, batch=2)
        for c in (4, 14):
            cap = {}
            core_attention(params, x, coords, c, capture=cap)
            assert cap["probs_core"].shape == (2, 2, c, 14)
            assert cap["probs_patch"].shape == (2, 2, 14 - c, c)
            assert cap["probs_patch"].dtype == x.dtype
            assert cap["values"].shape == (2, 2, 14, 8)
        _, ok, detail = attention_row_sums(params, x, coords, (4, 14))
        assert ok, detail

    @pytest.mark.parametrize("seed", range(4))
    def test_all_cores_gradients_match_central_differences(self, seed):
        # C = T skips the patch block; the gradient w.r.t. x, the coordinates and all
        # 8 projections must still be dense attention's
        t = 3 + seed
        params, x, coords = random_case(200 + seed, t=t, c=t, heads=1 + seed % 2, batch=1 + seed % 2)
        probe = Tensor(np.random.default_rng(seed).normal(size=x.shape))
        inputs = {"x": x, "coords": coords, **params.tensors()}
        err = central_difference_error(inputs, lambda: tsum(mul(core_attention(params, x, coords, t), probe)), 1e-5)
        assert err <= 1e-5


def kept_rows(full, c, k):
    """Rows 0..k-1 and C..T-1 of a [B, T, D] array, in that order."""
    return np.concatenate([full[:, :k], full[:, c:]], axis=1)


KEPT_CASES = [(t, c, k) for t, c in ((12, 4), (20, 8), (9, 9), (5, 5)) for k in (1, c)]


class TestKeptCoreRows:
    @pytest.mark.parametrize("t,c,k", KEPT_CASES)
    def test_kept_rows_match_oracle_float64(self, t, c, k):
        for seed in range(5):
            params, x, coords = random_case(300 + seed, t=t, c=c, dim=16, heads=2, batch=1 + seed % 2)
            out = core_attention(params, x, coords, c, core_rows=k).data
            assert out.shape == (x.shape[0], k + t - c, 16)
            ref = kept_rows(masked_dense_oracle(params, x, coords, c), c, k)
            assert np.abs(out - ref).max() <= 1e-12

    @pytest.mark.parametrize("t,c,k", KEPT_CASES)
    def test_kept_rows_match_oracle_float32(self, t, c, k):
        # the oracle runs in float64 on the float32-rounded values; weights scaled by 10
        # as in oracle_equivalence_f32, so the softmax is far from uniform
        eps = float(np.finfo(np.float32).eps)
        for seed in range(5):
            p64, x, coords = random_case(400 + seed, t=t, c=c, dim=16, heads=2, batch=1 + seed % 2)
            weights = [(w.data * 10.0).astype(np.float32) for w in p64.tensors().values()]
            x32, coords32 = x.data.astype(np.float32), coords.data.astype(np.float32)
            out = core_attention(AttnParams(*map(Tensor, weights), 2), Tensor(x32), Tensor(coords32), c,
                                 core_rows=k).data
            assert out.dtype == np.float32
            p_ref = AttnParams(*(Tensor(w.astype(np.float64)) for w in weights), 2)
            ref = kept_rows(masked_dense_oracle(p_ref, Tensor(x32.astype(np.float64)),
                                                Tensor(coords32.astype(np.float64)), c), c, k)
            assert np.abs(out - ref).max() <= F32_ORACLE_EPS * eps * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_one_kept_row_gradients_match_central_differences(self, seed):
        # gradients w.r.t. x, the coordinates and all 8 projections through the kept rows only
        t, c = 7 + seed, 3 + seed
        params, x, coords = random_case(500 + seed, t=t, c=c, heads=1 + seed % 2, batch=1 + seed % 2)
        probe = Tensor(np.random.default_rng(seed).normal(size=(x.shape[0], 1 + t - c, x.shape[2])))
        inputs = {"x": x, "coords": coords, **params.tensors()}

        def loss():
            return tsum(mul(core_attention(params, x, coords, c, core_rows=1), probe))

        assert central_difference_error(inputs, loss, 1e-5) <= 1e-5

    def test_kept_row_count_errors(self):
        params, x, coords = random_case(6, t=12, c=4)
        for k in (0, 5):
            with pytest.raises(BudgetError):
                core_attention(params, x, coords, 4, core_rows=k)
        # a capture records the rows that ran: the kept core rows, then every patch row
        for k in (1, 4):
            cap = {}
            core_attention(params, x, coords, 4, capture=cap, core_rows=k)
            assert cap["probs_core"].shape == (x.shape[0], params.heads, k, 12)
            assert np.abs(cap["probs_core"].sum(-1) - 1).max() <= 1e-12
            assert cap["probs_patch"].shape == (x.shape[0], params.heads, 8, 4)


class TestOracle:
    def test_mask_allows_exactly_c_keys_per_patch_row(self):
        # one patch token: its probability row must cover exactly the C cores
        params, x, coords = random_case(8, t=6, c=5)
        cap = {}
        core_attention(params, x, coords, 5, capture=cap)
        assert cap["probs_patch"].shape[-1] == 5
        assert cap["probs_core"].shape[-1] == 6

    @given(
        seed=st.integers(0, 10_000),
        c=st.sampled_from([2, 4, 8]),
        heads=st.sampled_from([1, 2]),
        dim=st.sampled_from([8, 16]),
        batch=st.integers(1, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalence_random_configs(self, seed, c, heads, dim, batch):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(c + 1, 33))
        params, x, coords = random_case(seed, t=t, c=c, dim=dim, heads=heads, batch=batch)
        out = core_attention(params, x, coords, c).data
        ref = masked_dense_oracle(params, x, coords, c)
        assert np.abs(out - ref).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_matches_float64_oracle(self, seed):
        # bound: F32_ORACLE_EPS float32 epsilons of the output's scale, C = T included
        _, ok, detail = oracle_equivalence_f32(seed, lambda i: RngStream(seed * 1000 + i, "attn-f32"))
        assert ok, detail

    def test_per_batch_coords(self):
        rng = np.random.default_rng(9)
        params = make_params(8, 2, 9)
        x = Tensor(rng.normal(size=(2, 10, 8)))
        coords = Tensor(rng.uniform(-1, 1, size=(2, 10, 2)))
        out = core_attention(params, x, coords, 4).data
        ref = masked_dense_oracle(params, x, coords, 4)
        assert np.abs(out - ref).max() <= 1e-12

    def test_float32_uses_smaller_mask(self):
        rng = np.random.default_rng(10)
        params = make_params(8, 2, 10)
        for t in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            getattr(params, t).data = getattr(params, t).data.astype(np.float32)
        x = Tensor(rng.normal(size=(1, 9, 8)).astype(np.float32))
        coords = Tensor(rng.uniform(-1, 1, size=(9, 2)).astype(np.float32))
        out = core_attention(params, x, coords, 4).data
        ref = masked_dense_oracle(params, x, coords, 4)
        assert ref.dtype == np.float32
        assert np.abs(out - ref).max() <= 1e-6


class TestPermutationEquivariance:
    def test_patch_permutation(self):
        rng = np.random.default_rng(12)
        params = make_params(16, 2, 12)
        c, n = 4, 11
        x = rng.normal(size=(1, c + n, 16))
        coords = rng.uniform(-1, 1, size=(c + n, 2))
        perm = rng.permutation(n)
        x2, c2 = x.copy(), coords.copy()
        x2[0, c:] = x[0, c + perm]
        c2[c:] = coords[c + perm]
        out1 = core_attention(params, Tensor(x), Tensor(coords), c).data
        out2 = core_attention(params, Tensor(x2), Tensor(c2), c).data
        assert np.abs(out2[0, c:] - out1[0, c + perm]).max() <= 1e-12
        assert np.abs(out2[0, :c] - out1[0, :c]).max() <= 1e-12


class TestInteractionCount:
    def test_headline_reduction(self):
        ic = interaction_count(1024, 64)
        assert ic == 135_168
        assert dense_count(1024) == 1_048_576
        reduction = (1 - ic / dense_count(1024)) * 100
        assert abs(reduction - 87.1) <= 0.05

    def test_connection_ratios(self):
        assert interaction_count(256, 8) == 4160
        assert abs(interaction_count(256, 8) / dense_count(256) * 100 - 6.3) <= 0.1
        assert interaction_count(1024, 8) == 16448
        assert abs(interaction_count(1024, 8) / dense_count(1024) * 100 - 1.6) <= 0.1

    @given(c=st.integers(1, 64), mult=st.integers(3, 50))
    @settings(max_examples=60, deadline=None)
    def test_sparse_beats_dense_when_n_at_least_3c(self, c, mult):
        n = mult * c
        assert interaction_count(n, c) < dense_count(n)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            interaction_count(0, 4)
        with pytest.raises(ShapeError):
            dense_count(0)
