import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veca.errors import CapacityError, ConfigError, ShapeError
from veca.rope import apply, cos_sin, fps_init, freqs, patch_grid
from veca.tensor import Tensor, grad_check, mul, tsum
from veca.verify import farthest_point_spread, grid_reflection, rotary_invariances


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
        _, ok, _ = grid_reflection(hp, wp)
        assert ok

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


def table_formula(head_dim, coords):
    """(cos, sin) of x * freq_j * pi for the first head_dim/4 pairs, then of y, written out."""
    nf = head_dim // 4
    out = np.empty(coords.shape[:-1] + (head_dim,))
    for axis in range(2):
        for j in range(nf):
            angle = coords[..., axis] * 100.0 ** (-j / nf) * np.pi
            pair = axis * nf + j
            out[..., 2 * pair] = np.cos(angle)
            out[..., 2 * pair + 1] = np.sin(angle)
    return out


class TestCosSin:
    def test_zero_coord(self):
        table = cos_sin(8, Tensor(np.zeros((1, 2)))).data
        np.testing.assert_array_equal(table, [[1.0, 0.0] * 4])

    def test_unit_x_first_pair_angle_is_pi(self):
        table = cos_sin(8, Tensor(np.array([[1.0, 0.0]]))).data
        # freq_0 = 1, so the first x pair turns by pi: (cos, sin) = (-1, 0); y pairs stay at (1, 0)
        np.testing.assert_allclose(table[0, :2], [-1.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(table[0, 4:], [1.0, 0.0, 1.0, 0.0])

    def test_equal_coords_give_identical_rows(self):
        coords = np.array([[0.3, -0.7], [0.3, -0.7]])
        table = cos_sin(12, Tensor(coords)).data
        np.testing.assert_array_equal(table[0], table[1])

    @pytest.mark.parametrize("head_dim", [4, 8, 16])
    def test_values_match_the_formula(self, head_dim):
        coords = np.random.default_rng(head_dim).uniform(-1, 1, size=(2, 5, 2))
        table = cos_sin(head_dim, Tensor(coords))
        assert table.shape == (2, 5, head_dim)
        np.testing.assert_allclose(table.data, table_formula(head_dim, coords), rtol=0, atol=1e-15)

    def test_gradients_20_seeds(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            probe = Tensor(rng.normal(size=(2, 3, 8)))
            coords = Tensor(rng.uniform(-1, 1, size=(2, 3, 2)))
            worst = max(worst, grad_check(lambda t: tsum(mul(cos_sin(8, t), probe)), coords, 1e-5))
        assert worst <= 1e-6

    def test_float32_within_4_eps32_of_float64(self):
        # angles reach pi, so one rounding of a float32 angle moves an entry by up to ~pi * eps32 / 2;
        # measured worst: table 1.7 eps32, coordinate gradient 2.0 eps32 of its largest magnitude
        eps = np.finfo(np.float32).eps
        worst_table, worst_grad = 0.0, 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            coords32 = rng.uniform(-1, 1, size=(2, 5, 2)).astype(np.float32)
            g32 = rng.normal(size=(2, 5, 16)).astype(np.float32)
            results = []
            for dtype in (np.float32, np.float64):
                coords = Tensor(coords32.astype(dtype), requires_grad=True)
                table = cos_sin(16, coords)
                tsum(mul(table, Tensor(g32.astype(dtype)))).backward()
                results.append((table.data, coords.grad))
            (t32, d32), (t64, d64) = results
            assert t32.dtype == d32.dtype == np.float32
            worst_table = max(worst_table, float(np.abs(t32 - t64).max()) / eps)
            worst_grad = max(worst_grad, float(np.abs(d32 - d64).max() / np.abs(d64).max()) / eps)
        assert worst_table <= 4 and worst_grad <= 4, (worst_table, worst_grad)


class TestApply:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(1, 1, 3, 8)))
        np.testing.assert_array_equal(apply(q, cos_sin(8, Tensor(np.zeros((1, 3, 2))))).data, q.data)

    def test_table_without_a_pair_per_element_refused(self):
        # a table of one angle per pair (head_dim/2 wide) does not pair with the input
        q = Tensor(np.zeros((1, 1, 3, 8)))
        with pytest.raises(ShapeError, match="does not pair"):
            apply(q, Tensor(np.ones((1, 3, 4))))

    def test_isometry(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = rng.normal(size=(1, 2, 5, 8))
            out = apply(Tensor(q), cos_sin(8, Tensor(rng.uniform(-1, 1, size=(1, 5, 2))))).data
            worst = max(
                worst,
                float(np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(q, axis=-1)).max()),
            )
        assert worst <= 1e-6

    def test_translation_invariance_of_dots(self):
        checks = rotary_invariances([np.random.default_rng(seed + 1) for seed in range(100)])
        assert all(ok for _, ok, _ in checks), checks

    def test_gradients(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = Tensor(rng.normal(size=(1, 2, 3, 8)))
            probe = Tensor(rng.normal(size=(1, 2, 3, 8)))

            def f_coords(t):
                return tsum(mul(apply(q, cos_sin(8, t)), probe))

            worst = max(
                worst, grad_check(f_coords, Tensor(rng.uniform(-1, 1, size=(1, 3, 2))), 1e-5)
            )

            table = cos_sin(8, Tensor(rng.uniform(-1, 1, size=(1, 3, 2))))

            def f_q(t):
                return tsum(mul(apply(t, table), probe))

            worst = max(worst, grad_check(f_q, Tensor(rng.normal(size=(1, 2, 3, 8))), 1e-5))
        assert worst <= 1e-6


def pair_rotation(x, ct, st_):
    """(a, b) -> (a cos - b sin, a sin + b cos) over the (2t, 2t+1) pairs of every head, written out.

    x is [B, H, T, hd]; the cos and sin tables are [B, T, hd/2], shared by the heads.
    """
    a, b = x[..., 0::2], x[..., 1::2]
    ct, st_ = ct[:, None], st_[:, None]
    out = np.empty(a.shape + (2,), dtype=x.dtype)
    out[..., 0] = a * ct - b * st_
    out[..., 1] = a * st_ + b * ct
    return out.reshape(x.shape)


def pair_rotation_grads(x, ct, st_, g):
    """Gradients of sum(g * pair_rotation(x, ct, st_)) for cos and sin tables [B, T, hd/2]."""
    a, b = x[..., 0::2], x[..., 1::2]
    ge, go = g[..., 0::2], g[..., 1::2]
    ct, st_ = ct[:, None], st_[:, None]
    dx = np.empty(x.shape[:-1] + (x.shape[-1] // 2, 2), dtype=x.dtype)
    dx[..., 0] = ge * ct + go * st_
    dx[..., 1] = go * ct - ge * st_
    dcos = (ge * a + go * b).sum(axis=1)
    dsin = (go * a - ge * b).sum(axis=1)
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
            theta = rng.uniform(-np.pi, np.pi, size=(b, t, hd // 2))
            ct, st_ = np.cos(theta).astype(dtype), np.sin(theta).astype(dtype)
            g = rng.normal(size=(b, h, t, hd)).astype(dtype)

            q = Tensor(x, requires_grad=True)
            table = Tensor(np.stack([ct, st_], axis=-1).reshape(b, t, hd), requires_grad=True)
            out = apply(q, table)
            tsum(mul(out, Tensor(g))).backward()

            want = pair_rotation(x, ct, st_)
            assert out.data.dtype == dtype and out.shape == want.shape
            assert self.within_bound(out.data, want), seed
            dx, dcos, dsin = pair_rotation_grads(x, ct, st_, g)
            dtable = np.stack([dcos, dsin], axis=-1).reshape(table.shape)
            for got, ref in ((q.grad, dx), (table.grad, dtable)):
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
        _, ok, detail = farthest_point_spread(np.random.default_rng(11))
        assert ok, detail
