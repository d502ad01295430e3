import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veca.errors import CapacityError, ConfigError
from veca.rope import angles, apply, cos_sin, fps_init, freqs, patch_grid
from veca.tensor import Tensor, grad_check, mul, reshape, tsum


class TestPatchGrid:
    def test_single_patch_is_center(self):
        np.testing.assert_array_equal(patch_grid(1, 1), [[0.0, 0.0]])

    def test_two_by_two(self):
        want = [[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]]
        np.testing.assert_array_equal(patch_grid(2, 2), want)

    def test_two_by_four_x_values(self):
        grid = patch_grid(2, 4)
        assert grid.shape == (8, 2)
        assert sorted(set(grid[:, 0])) == [-0.75, -0.25, 0.25, 0.75]
        # row-major over (row, col): first wp entries share the first y
        np.testing.assert_array_equal(grid[:4, 1], [-0.5] * 4)

    @given(hp=st.integers(1, 12), wp=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_column_flip_negates_x_exactly(self, hp, wp):
        grid = patch_grid(hp, wp).reshape(hp, wp, 2)
        flipped = grid[:, ::-1]
        np.testing.assert_array_equal(flipped[..., 0], -grid[..., 0])
        np.testing.assert_array_equal(flipped[..., 1], grid[..., 1])

    def test_entries_in_unit_square(self):
        grid = patch_grid(7, 3)
        assert np.all(np.abs(grid) < 1.0)


class TestFreqs:
    def test_head_dim_must_be_multiple_of_four(self):
        with pytest.raises(ConfigError):
            freqs(6)

    def test_freqs_strictly_decreasing_from_one(self):
        f = freqs(16)
        assert f[0] == 1.0
        assert np.all(np.diff(f) < 0)
        np.testing.assert_allclose(f, 100.0 ** (-np.arange(4) / 4))


def _tables(head_dim, coords_arr):
    ct, st_ = cos_sin(head_dim, Tensor(coords_arr))
    t = coords_arr.shape[-2]
    half = head_dim // 2
    return (
        reshape(ct, coords_arr.shape[:-2] + (1, t, half)),
        reshape(st_, coords_arr.shape[:-2] + (1, t, half)),
    )


class TestCosSin:
    def test_zero_coord(self):
        ct, st_ = cos_sin(8, Tensor(np.zeros((1, 2))))
        np.testing.assert_array_equal(ct.data, np.ones((1, 4)))
        np.testing.assert_array_equal(st_.data, np.zeros((1, 4)))

    def test_unit_x_first_pair_angle_is_pi(self):
        theta = angles(8, Tensor(np.array([[1.0, 0.0]]))).data
        # freq_0 = 1 for the x pair; y pairs stay at zero
        assert theta[0, 0] == pytest.approx(np.pi)
        np.testing.assert_array_equal(theta[0, 2:], 0.0)

    def test_equal_coords_give_identical_rows(self):
        coords = np.array([[0.3, -0.7], [0.3, -0.7]])
        ct, st_ = cos_sin(12, Tensor(coords))
        np.testing.assert_array_equal(ct.data[0], ct.data[1])
        np.testing.assert_array_equal(st_.data[0], st_.data[1])


class TestApply:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(1, 1, 3, 8)))
        ct, st_ = _tables(8, np.zeros((1, 3, 2)))
        np.testing.assert_array_equal(apply(q, ct, st_).data, q.data)

    def test_isometry(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = rng.normal(size=(1, 2, 5, 8))
            ct, st_ = _tables(8, rng.uniform(-1, 1, size=(1, 5, 2)))
            out = apply(Tensor(q), ct, st_).data
            worst = max(
                worst,
                float(np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(q, axis=-1)).max()),
            )
        assert worst <= 1e-6

    def test_translation_invariance_of_dots(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed + 1)
            q = Tensor(rng.normal(size=(1, 1, 4, 8)))
            k = Tensor(rng.normal(size=(1, 1, 4, 8)))
            coords = rng.uniform(-1, 1, size=(1, 4, 2))
            shift = rng.uniform(-0.5, 0.5, size=2)

            def dots(cc):
                ct, st_ = _tables(8, cc)
                return np.einsum(
                    "bhtd,bhsd->bhts", apply(q, ct, st_).data, apply(k, ct, st_).data
                )

            worst = max(worst, float(np.abs(dots(coords) - dots(coords - shift)).max()))
        assert worst <= 1e-6

    def test_gradients(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = Tensor(rng.normal(size=(1, 2, 3, 8)))
            probe = Tensor(rng.normal(size=(1, 2, 3, 8)))

            def f_coords(t):
                ct, st_ = cos_sin(8, t)
                ct = reshape(ct, (1, 1, 3, 4))
                st_ = reshape(st_, (1, 1, 3, 4))
                return tsum(mul(apply(q, ct, st_), probe))

            worst = max(
                worst, grad_check(f_coords, Tensor(rng.uniform(-1, 1, size=(1, 3, 2))), 1e-5)
            )

            coords = Tensor(rng.uniform(-1, 1, size=(1, 3, 2)))
            ct0, st0 = cos_sin(8, coords)
            ct0 = reshape(ct0, (1, 1, 3, 4))
            st0 = reshape(st0, (1, 1, 3, 4))

            def f_q(t):
                return tsum(mul(apply(t, ct0, st0), probe))

            worst = max(worst, grad_check(f_q, Tensor(rng.normal(size=(1, 2, 3, 8))), 1e-5))
        assert worst <= 1e-6


def pair_rotation(x, ct, st_):
    """(a, b) -> (a cos - b sin, a sin + b cos) over the (2t, 2t+1) pairs, written out."""
    a, b = x[..., 0::2], x[..., 1::2]
    out = np.empty(np.broadcast_shapes(a.shape, ct.shape) + (2,), dtype=x.dtype)
    out[..., 0] = a * ct - b * st_
    out[..., 1] = a * st_ + b * ct
    return out.reshape(out.shape[:-2] + (x.shape[-1],))


def pair_rotation_grads(x, ct, st_, g):
    """Gradients of sum(g * pair_rotation(x, ct, st_)) for tables [B, 1, T, hd/2]."""
    a, b = x[..., 0::2], x[..., 1::2]
    ge, go = g[..., 0::2], g[..., 1::2]
    dx = np.empty(x.shape[:-1] + (x.shape[-1] // 2, 2), dtype=x.dtype)
    dx[..., 0] = ge * ct + go * st_
    dx[..., 1] = go * ct - ge * st_
    dcos = (ge * a + go * b).sum(axis=1, keepdims=True)
    dsin = (go * a - ge * b).sum(axis=1, keepdims=True)
    return dx.reshape(x.shape), dcos, dsin


def split_heads_view(rng, b, h, t, hd, dtype):
    # the [B, T, H, hd] -> [B, H, T, hd] view attention rotates its keys in
    return rng.normal(size=(b, t, h, hd)).astype(dtype).transpose(0, 2, 1, 3)


class TestApplyAgainstPairRotation:
    """Forward and backward against the pair formula, sharing no code with rope.py."""

    @staticmethod
    def within_bound(got, want):
        scale = np.abs(want).max()
        if want.dtype == np.float64:
            return np.abs(got - want).max() <= 1e-15 * scale
        return np.abs(got - want).max() <= 4 * np.spacing(scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "split-heads view"])
    def test_forward_and_backward(self, dtype, layout):
        b, h, t, hd = 2, 6, 13, 16
        for seed in range(10):
            rng = np.random.default_rng(seed)
            if layout == "contiguous":
                x = rng.normal(size=(b, h, t, hd)).astype(dtype)
            else:
                x = split_heads_view(rng, b, h, t, hd, dtype)
                assert not x.flags.c_contiguous
            theta = rng.uniform(-np.pi, np.pi, size=(b, 1, t, hd // 2))
            ct, st_ = np.cos(theta).astype(dtype), np.sin(theta).astype(dtype)
            g = rng.normal(size=(b, h, t, hd)).astype(dtype)

            q = Tensor(x, requires_grad=True)
            cos_t, sin_t = Tensor(ct, requires_grad=True), Tensor(st_, requires_grad=True)
            out = apply(q, cos_t, sin_t)
            tsum(mul(out, Tensor(g))).backward()

            want = pair_rotation(x, ct, st_)
            assert out.data.dtype == dtype and out.shape == want.shape
            assert self.within_bound(out.data, want), seed
            for got, ref in zip((q.grad, cos_t.grad, sin_t.grad), pair_rotation_grads(x, ct, st_, g)):
                assert got.shape == ref.shape and got.dtype == dtype
                assert self.within_bound(got, ref), seed


class TestFpsInit:
    def test_single_point_is_nearest_origin(self):
        states = fps_init(1, 4)
        np.testing.assert_allclose(np.tanh(states), [[-0.25, -0.25]], atol=1e-12)

    def test_second_point_by_exhaustive_scan(self):
        states = np.tanh(fps_init(2, 4))
        lattice = patch_grid(4, 4)
        seed_pt = lattice[np.argmin(np.linalg.norm(lattice, axis=1))]
        best = lattice[np.argmax(np.linalg.norm(lattice - seed_pt, axis=1))]
        np.testing.assert_allclose(states[0], seed_pt, atol=1e-12)
        np.testing.assert_allclose(states[1], best, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(fps_init(16, 8), fps_init(16, 8))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            fps_init(17, 4)

    def test_states_always_map_into_open_square(self):
        pts = np.tanh(fps_init(64, 64))
        assert np.all(np.abs(pts) < 1.0)

    def test_beats_random_subsets(self):
        pts = np.tanh(fps_init(64, 64))
        dmat = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        np.fill_diagonal(dmat, np.inf)
        fps_min = dmat.min()
        lattice = patch_grid(64, 64)
        rng = np.random.default_rng(11)
        for _ in range(100):
            subset = lattice[rng.choice(lattice.shape[0], size=64, replace=False)]
            sub = np.linalg.norm(subset[:, None] - subset[None, :], axis=-1)
            np.fill_diagonal(sub, np.inf)
            assert fps_min >= sub.min()
