import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from veca import distill, tensor
from veca.checkpoint import MAGIC, VERSION
from veca.data import load_raster, normalize, synthetic_images
from veca.distill import (
    AdamW,
    DistillConfig,
    FileTeacher,
    SyntheticTeacher,
    loss_dense,
    loss_global,
    lr_schedule,
    save_target_file,
    total_loss,
    train,
)
from veca.elastic import BUDGETS, BudgetDistribution
from veca.errors import (
    CheckpointError,
    ConfigError,
    DTypeError,
    NonFiniteError,
    ResolutionError,
    ShapeError,
    TrainingDivergedError,
)
from veca.model import Encoder, ModelConfig, get_preset
from veca.rng import RngStream
from veca.tensor import Tensor, central_difference_error
from veca.verify import model_grad_check


class TestLossGlobal:
    def test_identical_is_zero(self):
        y = Tensor(np.random.default_rng(0).normal(size=(3, 8)))
        assert float(loss_global(y, y).data) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        y = Tensor(np.array([[1.0, 0.0]]))
        ys = Tensor(np.array([[0.0, 1.0]]))
        assert float(loss_global(y, ys).data) == pytest.approx(1.0)

    def test_antipodal_is_two(self):
        y = Tensor(np.array([[0.3, -2.0, 1.0]]))
        ys = Tensor(np.array([[-0.3, 2.0, -1.0]]))
        assert float(loss_global(y, ys).data) == pytest.approx(2.0)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = float(
                loss_global(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6)))).data
            )
            assert 0.0 <= v <= 2.0

    def test_zero_vector_is_safe(self):
        y = Tensor(np.zeros((1, 4)))
        ys = Tensor(np.ones((1, 4)))
        assert math.isfinite(float(loss_global(y, ys).data))


def dense_loss_scalar_oracle(z, z_star, eps=1e-6):
    b, n, d = z.shape
    cos_total = 0.0
    mse_total = 0.0
    for bi in range(b):
        for i in range(n):
            zi, si = z[bi, i], z_star[bi, i]
            cos = zi @ si / (max(np.linalg.norm(zi), eps) * max(np.linalg.norm(si), eps))
            cos_total += 1.0 - cos
            mse_total += ((zi - si) ** 2).sum()
    return cos_total / (b * n) + mse_total / (b * n * d)


class TestLossDense:
    def test_identical_is_zero(self):
        z = Tensor(np.random.default_rng(2).normal(size=(2, 5, 4)))
        assert float(loss_dense(z, z).data) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_targets_leave_only_mse(self):
        z_arr = np.random.default_rng(3).normal(size=(1, 4, 6))
        z = Tensor(z_arr)
        z_star = Tensor(2.0 * z_arr)
        got = float(loss_dense(z, z_star).data)
        assert got == pytest.approx(np.mean(z_arr**2), rel=1e-12)

    def test_vs_scalar_oracle(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2, 3, 4))
        zs = rng.normal(size=(2, 3, 4))
        got = float(loss_dense(Tensor(z), Tensor(zs)).data)
        assert got == pytest.approx(dense_loss_scalar_oracle(z, zs), abs=1e-12)


# each loss with a feature shape: global [B, D], dense [B, N, D]
LOSSES = {"loss_global": (loss_global, (4, 5)), "loss_dense": (loss_dense, (2, 4, 5))}
FLOOR = distill.NORM_FLOOR


def loss_error(loss, y: np.ndarray, ys: np.ndarray, h: float) -> float:
    """Central-difference error w.r.t. the features; the target is a constant."""
    params, target = {"features": Tensor(y)}, Tensor(ys)
    return central_difference_error(params, lambda: loss(params["features"], target), h)


def rows_with_norms(rng, shape, norms) -> np.ndarray:
    v = rng.normal(size=shape)
    want = rng.permutation(np.resize(norms, shape[:-1]).reshape(-1)).reshape(shape[:-1] + (1,))
    return v * (want / np.linalg.norm(v, axis=-1, keepdims=True))


# float32 rows [features, target] whose named intermediate overflows while every earlier one is finite
OVERFLOWS = {
    "dot product": ("dot product", [1e20, 0, 0, 0], [1e20, 0, 0, 0]),
    "features' square": ("sum of squares", [3e19, 0, 0, 0], [0, 1, 0, 0]),
    "target's square": ("sum of squares", [0, 1, 0, 0], [3e19, 0, 0, 0]),
    "features' row sum of finite squares": ("sum of squares", [1.5e19] * 4, [1, 0, 0, 0]),
}
DENSE_OVERFLOWS = {
    "squared difference": ("squared difference", [1e19, 0, 0, 0], [-1e19, 0, 0, 0]),
    "sum of finite squared differences": ("loss_dense", [1.3e19, 0, 1.3e19, 0], [0, -1.3e19, 0, -1.3e19]),
}


class TestLossNodes:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_one_tape_node(self, name):
        loss, shape = LOSSES[name]
        rng = np.random.default_rng(0)
        y, ys = Tensor(rng.normal(size=shape), requires_grad=True), Tensor(rng.normal(size=shape))
        out = loss(y, ys)
        assert out._parents == (y,) and out.size == 1

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_gradients_20_seeds(self, name):
        loss, shape = LOSSES[name]
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed + 500)
            worst = max(worst, loss_error(loss, rng.normal(size=shape), rng.normal(size=shape), 1e-5))
        assert worst <= 1e-6, f"{name}: {worst}"

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_gradients_around_the_norm_floor_20_seeds(self, name):
        # rows below, just below, just above and above the floor, in features and target;
        # the step is small enough that no probe crosses it, and the error is relative
        loss, shape = LOSSES[name]
        norms = FLOOR * np.array([0.5, 0.99, 1.01, 2.0])
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed + 600)
            y, ys = rows_with_norms(rng, shape, norms), rows_with_norms(rng, shape, norms)
            worst = max(worst, loss_error(loss, y, ys, 3e-5 * FLOOR))
        assert worst <= 1e-6, f"{name}: {worst}"

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_gradient_at_the_floor_is_the_floored_side(self, name):
        # a row with sum x^2 == NORM_FLOOR^2 passes no gradient through its norm: the
        # gradient is the one-sided difference into the floor, not out of it
        loss, shape = LOSSES[name]
        rng = np.random.default_rng(7)
        at = np.zeros(shape)
        at[..., 0] = FLOOR
        assert np.all((at * at).sum(axis=-1) == FLOOR * FLOOR)
        other = rng.normal(size=shape)
        other[..., 0] = np.abs(other[..., 0]) + 1.0  # a cosine well away from 0

        def value(x: np.ndarray) -> float:
            return float(loss(Tensor(x), Tensor(other)).data)

        t = Tensor(at, requires_grad=True)
        loss(t, Tensor(other)).backward()
        h = 1e-4 * FLOOR
        step = np.zeros(shape)
        step[(0,) * (len(shape) - 1) + (0,)] = h
        inward = (value(at) - value(at - step)) / h
        outward = (value(at + step) - value(at)) / h
        analytic = t.grad[(0,) * len(shape)]
        assert abs(analytic - inward) <= 1e-6 * abs(analytic)
        assert abs(analytic - outward) >= 0.1 * abs(analytic)

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_float32_within_4_eps_of_float64(self, name):
        # the same float32 inputs in both dtypes: loss within 4 eps32 * max(1, |loss|) and the
        # features' gradient within 4 eps32 of its largest magnitude (measured: 1.3 and 1.9 eps32)
        loss, _ = LOSSES[name]
        shape = (8, 16) if name == "loss_global" else (8, 16, 16)  # tiny-test's outputs at batch 8
        eps = float(np.finfo(np.float32).eps)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = rng.normal(size=shape).astype(np.float32)
            ys = (y + rng.normal(size=shape)).astype(np.float32)
            got = {}
            for dtype in (np.float32, np.float64):
                a = Tensor(y.astype(dtype), requires_grad=True)
                out = loss(a, Tensor(ys.astype(dtype)))
                out.backward()
                assert out.dtype == a.grad.dtype == dtype
                got[dtype] = [np.asarray(v, np.float64) for v in (out.data, a.grad)]
            (l32, g32), (l64, g64) = got[np.float32], got[np.float64]
            assert abs(l32 - l64) <= 4 * eps * max(1.0, abs(l64))
            assert np.abs(g32 - g64).max() <= 4 * eps * np.abs(g64).max()

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_constant_target_gets_no_gradient(self, name):
        # even a target that requires grad is a constant: it is no parent of the loss node
        loss, shape = LOSSES[name]
        rng = np.random.default_rng(1)
        y, ys = Tensor(rng.normal(size=shape), requires_grad=True), Tensor(rng.normal(size=shape), requires_grad=True)
        out = loss(y, ys)
        assert out._parents == (y,)  # backward() releases the node's parent links
        out.backward()
        assert ys.grad is None and y.grad.shape == shape

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_mismatches_refused(self, name):
        loss, shape = LOSSES[name]
        with pytest.raises(ShapeError, match=name):
            loss(Tensor(np.ones(shape)), Tensor(np.ones(shape[:-1] + (shape[-1] + 1,))))
        with pytest.raises(DTypeError, match=name):
            loss(Tensor(np.ones(shape)), Tensor(np.ones(shape, np.float32)))

    @pytest.mark.parametrize(
        "name,case",
        [(n, c) for n in sorted(LOSSES) for c in sorted(OVERFLOWS)] + [("loss_dense", c) for c in sorted(DENSE_OVERFLOWS)],
    )
    def test_intermediate_overflow_raises(self, name, case):
        what, y, ys = {**OVERFLOWS, **DENSE_OVERFLOWS}[case]
        loss, _ = LOSSES[name]
        lead = (1,) if name == "loss_global" else (1, 1)
        y, ys = (Tensor(np.array(v, np.float32).reshape(lead + (4,))) for v in (y, ys))
        with warnings.catch_warnings(), pytest.raises(NonFiniteError, match=what):
            warnings.simplefilter("error")
            loss(y, ys)

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_largest_finite_norms_give_the_exact_cosine(self, name):
        # sqrt(max)^2 rounds to a finite value, so finite sums of squares keep the norm product finite
        loss, _ = LOSSES[name]
        top = np.sqrt(np.finfo(np.float32).max)
        y = Tensor(np.array([top, 0, 0, 0], np.float32).reshape((1,) * (name == "loss_dense") + (1, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert float(loss(y, y).data) == 0.0


class TestTotalLoss:
    def test_zero_when_targets_equal_outputs(self, tiny_encoder, tiny_images):
        y, z = tiny_encoder(tiny_images, 8)
        loss, parts = total_loss(
            tiny_images, 8, tiny_encoder, None, DistillConfig(),
            targets=(y.data.copy(), z.data.copy()),
        )
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_finite_for_every_budget(self, tiny_encoder, tiny_teacher, tiny_images):
        for budget in BUDGETS:
            loss, _ = total_loss(tiny_images, budget, tiny_encoder, tiny_teacher, DistillConfig())
            assert math.isfinite(float(loss.data))

    def test_total_is_global_plus_dense(self, tiny_config, tiny_images):
        # the objective the `total` column of `veca eval-budgets` reports, in value and in gradient
        enc = Encoder(tiny_config, seed=1)
        teacher = SyntheticTeacher(tiny_config, seed=9)
        enc.zero_grad()
        loss, parts = total_loss(tiny_images, 8, enc, teacher, DistillConfig())
        loss.backward()
        assert float(loss.data) == parts["global"] + parts["dense"]
        total_grads = {k: p.grad.copy() for k, p in enc.params.items() if p.grad is not None}

        y_star, z_star = (Tensor(np.asarray(t, dtype=enc.dtype)) for t in teacher.targets(tiny_images))
        want: dict[str, np.ndarray] = {}
        for term in (lambda y, z: loss_global(y, y_star), lambda y, z: loss_dense(z, z_star)):
            enc.zero_grad()
            term(*enc(tiny_images, 8)).backward()
            for k, p in enc.params.items():
                if p.grad is not None:
                    want[k] = want[k] + p.grad if k in want else p.grad
        assert total_grads.keys() == want.keys()
        for name, got in total_grads.items():
            np.testing.assert_allclose(got, want[name], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradients_equal_with_and_without_capture(self, tiny_config, tiny_teacher, tiny_images, dtype):
        # a capture only observes the forward it runs in, so every parameter's gradient
        # is bitwise the one without it
        enc = Encoder(tiny_config, seed=0, dtype=dtype)
        y_star, z_star = (Tensor(np.asarray(t, dtype=dtype)) for t in tiny_teacher.targets(tiny_images))
        for budget in BUDGETS:
            enc.zero_grad()
            loss, _ = total_loss(tiny_images, budget, enc, None, DistillConfig(), targets=(y_star.data, z_star.data))
            loss.backward()
            plain = {k: p.grad for k, p in enc.params.items() if p.grad is not None}
            enc.zero_grad()
            y, z = enc(tiny_images, budget, capture=[])
            tensor.add(loss_global(y, y_star), loss_dense(z, z_star)).backward()
            captured = {k: p.grad for k, p in enc.params.items() if p.grad is not None}
            assert plain.keys() == captured.keys()
            for name, got in plain.items():
                assert got.tobytes() == captured[name].tobytes(), (budget, name)


class TestSyntheticTeacher:
    def test_frozen_bitwise(self, tiny_teacher, tiny_images):
        y1, z1 = tiny_teacher.targets(tiny_images)
        y2, z2 = tiny_teacher.targets(tiny_images)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(z1, z2)

    def test_distinct_images_give_distinct_targets(self, tiny_config, tiny_teacher):
        stream = RngStream(42, "pairs")
        for _ in range(20):
            imgs = synthetic_images(stream, 2, 16)
            _, z = tiny_teacher.targets(imgs)
            assert np.abs(z[0] - z[1]).max() > 0.0

    def test_targets_bounded(self, tiny_teacher, tiny_images):
        y, z = tiny_teacher.targets(tiny_images)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(z))
        assert np.linalg.norm(z, axis=-1).max() <= 1e3

    # Values recorded from the earlier teacher, which had its own patchify and
    # dense attention: sampled entries of y and z plus mean |z|, images from
    # RngStream(11, "teacher-pin"), teacher seed 7001, float64.
    PINNED = {
        ("tiny-test", 16, 2): (
            [-0.2735501735566478, -0.3858790571865963, 0.5728678858733647, 0.26893444394623245],
            [-0.3628701230686133, 1.8975168859560987, 1.011378727715157, 0.44486540606912645],
            0.8488755922820593,
        ),
        ("tiny-test", 32, 2): (
            [-0.8307952004533816, -0.934688995324539, 0.5639203814453297, -1.5410726779424935],
            [-0.0584926221287417, -1.206720548827455, 0.5212175761976939, -1.7051038848929096],
            0.8212563161824773,
        ),
        ("small", 64, 1): (
            [-0.24280488371524034, -0.6604866809100007, -0.36099886831141265, 0.23137633449238357],
            [0.2199184752461009, 1.0379235115262182, -0.4763995671232059, -0.6663160469440119],
            0.807797324243229,
        ),
    }

    @pytest.mark.parametrize("preset,res,batch", sorted(PINNED))
    def test_targets_match_recorded_values(self, preset, res, batch):
        want_y, want_z, want_abs = self.PINNED[(preset, res, batch)]
        teacher = SyntheticTeacher(get_preset(preset), seed=7001)
        y, z = teacher.targets(synthetic_images(RngStream(11, "teacher-pin"), batch, res))
        y, z = y.reshape(-1), z.reshape(-1)
        yi = np.linspace(0, y.size - 1, 4).astype(int)
        zi = np.linspace(0, z.size - 1, 4).astype(int)
        np.testing.assert_allclose(y[yi], want_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(z[zi], want_z, rtol=0, atol=1e-12)
        assert abs(float(np.abs(z).mean()) - want_abs) <= 1e-12

    def test_zero_patch_image_is_resolution_error(self, tiny_teacher):
        with pytest.raises(ResolutionError):
            tiny_teacher.targets(np.zeros((1, 3, 0, 0)))


class TestSchedule:
    def test_warmup_ramp(self):
        cfg = DistillConfig(lr=1e-2, min_lr=1e-3, warmup_steps=20, total_steps=100)
        assert lr_schedule(1, cfg) == pytest.approx(1e-2 / 20)
        assert lr_schedule(20, cfg) == pytest.approx(1e-2)

    def test_ends_at_min_lr(self):
        cfg = DistillConfig(lr=1e-2, min_lr=1e-3, warmup_steps=20, total_steps=100)
        assert abs(lr_schedule(100, cfg) - 1e-3) <= 1e-12

    def test_monotone_after_warmup(self):
        cfg = DistillConfig(lr=1e-2, min_lr=1e-3, warmup_steps=5, total_steps=50)
        values = [lr_schedule(s, cfg) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DistillConfig(lr=1e-3, min_lr=1e-2)
        with pytest.raises(ConfigError):
            DistillConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["lr", "min_lr", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DistillConfig(**{field: value})

    def test_negative_weight_decay_rejected(self):
        with pytest.raises(ConfigError):
            DistillConfig(weight_decay=-1e-3)


class TestTrain:
    def _run(self, seed=0, steps=25, tiny_config=None):
        enc = Encoder(tiny_config, seed=seed, dtype=np.float32)
        teacher = SyntheticTeacher(tiny_config, seed=7001, dtype=np.float32)
        cfg = DistillConfig(total_steps=steps, warmup_steps=5, batch_size=4)
        records = train(
            enc,
            teacher,
            BudgetDistribution(),
            cfg,
            data_stream=RngStream(seed, "data"),
            budget_stream=RngStream(seed, "budgets"),
        )
        return enc, records

    def test_bit_reproducible(self, tiny_config):
        enc1, recs1 = self._run(seed=11, tiny_config=tiny_config)
        enc2, recs2 = self._run(seed=11, tiny_config=tiny_config)
        assert [(r.step, r.budget, r.loss, r.lr) for r in recs1] == [
            (r.step, r.budget, r.loss, r.lr) for r in recs2
        ]
        for name in enc1.params:
            np.testing.assert_array_equal(enc1.params[name].data, enc2.params[name].data)

    @pytest.mark.parametrize("budget", [BUDGETS[0], BUDGETS[-1]])
    def test_tape_nodes_per_step_are_pinned(self, monkeypatch, tiny_config, budget):
        # tensors created by one float32 train step (batch 8): teacher, student, objective,
        # backward and update; a change that adds nodes has to edit this number on purpose
        enc = Encoder(tiny_config, seed=0, dtype=np.float32)
        teacher = SyntheticTeacher(tiny_config, seed=7001, dtype=np.float32)
        monkeypatch.setattr(distill, "sample_budget", lambda dist, stream: budget)
        before = next(tensor._counter)
        train(enc, teacher, BudgetDistribution(), DistillConfig(total_steps=1),
              data_stream=RngStream(0, "data"), budget_stream=RngStream(0, "budgets"))
        assert next(tensor._counter) - before - 1 == 149

    def test_constant_patch_grid_keeps_no_gradient(self, tiny_config):
        # the cached grids are shared across steps; a gradient on one would grow forever
        enc = Encoder(tiny_config, seed=0, dtype=np.float32)
        teacher = SyntheticTeacher(tiny_config, seed=7001, dtype=np.float32)
        train(enc, teacher, BudgetDistribution(), DistillConfig(total_steps=5, batch_size=4),
              data_stream=RngStream(0, "data"), budget_stream=RngStream(0, "budgets"))
        for cache in (enc._grid_cache, teacher._grid_cache):
            assert cache and all(t.grad is None for t in cache.values())

    def test_loss_decreases(self, tiny_config):
        _, recs = self._run(seed=0, steps=60, tiny_config=tiny_config)
        assert np.mean([r.loss for r in recs[-10:]]) < np.mean([r.loss for r in recs[:10]])

    def test_divergence_aborts_with_context(self, tiny_config):
        enc = Encoder(tiny_config, seed=0, dtype=np.float64)
        enc.params["patch_embed.w"].data[:] = 1e308  # forces overflow in the forward
        teacher = SyntheticTeacher(tiny_config, seed=7001)
        with pytest.raises(TrainingDivergedError) as err:
            train(
                enc,
                teacher,
                BudgetDistribution(),
                DistillConfig(total_steps=3, warmup_steps=1, batch_size=2),
                data_stream=RngStream(0, "data"),
                budget_stream=RngStream(0, "budgets"),
            )
        assert err.value.step == 1 and err.value.budget in BUDGETS

    def test_two_stage_multi_resolution(self, tiny_config):
        # stage 1 at 16 px, stage 2 continues the same weights at 32 px
        enc = Encoder(tiny_config, seed=2, dtype=np.float32)
        teacher = SyntheticTeacher(tiny_config, seed=7001, dtype=np.float32)
        stage1 = DistillConfig(total_steps=6, warmup_steps=2, batch_size=2, resolution=16)
        stage2 = DistillConfig(
            total_steps=6, warmup_steps=1, batch_size=2, lr=1e-3, min_lr=1e-4,
            resolution=32,
        )
        recs1 = train(
            enc, teacher, BudgetDistribution(), stage1,
            data_stream=RngStream(2, "data"), budget_stream=RngStream(2, "budgets"),
        )
        recs2 = train(
            enc, teacher, BudgetDistribution(), stage2,
            data_stream=RngStream(2, "data-stage2"), budget_stream=RngStream(2, "budgets-stage2"),
        )
        assert len(recs1) == 6 and len(recs2) == 6
        assert all(math.isfinite(r.loss) for r in recs1 + recs2)

    def test_file_teacher_roundtrip(self, tmp_path, tiny_config, tiny_teacher):
        imgs = synthetic_images(RngStream(3, "file"), 6, 16)
        y, z = tiny_teacher.targets(imgs)
        path = tmp_path / "targets.veca"
        save_target_file(path, imgs, y, z)
        ft = FileTeacher(path, tiny_config)
        np.testing.assert_array_equal(ft.images, imgs)
        batch, (by, bz) = ft.batch(2, RngStream(0, "data"), DistillConfig(batch_size=4))
        assert batch.shape[0] == 4 and by.shape[0] == 4 and bz.shape[0] == 4
        np.testing.assert_array_equal(batch, imgs[[4, 5, 0, 1]])  # step 2 of 4 cycles past the end

        enc = Encoder(tiny_config, seed=0, dtype=np.float32)
        records = train(
            enc,
            ft,
            BudgetDistribution(),
            DistillConfig(total_steps=4, warmup_steps=1, batch_size=3),
            data_stream=RngStream(0, "data"),
            budget_stream=RngStream(0, "budgets"),
        )
        assert len(records) == 4 and all(math.isfinite(r.loss) for r in records)


class TestFileTeacherFuzz:
    """Any target file either loads as finite, consistent targets or raises CheckpointError."""

    @staticmethod
    def loads_or_refuses(path, raw: bytes, config: ModelConfig) -> None:
        path.write_bytes(raw)
        try:
            ft = FileTeacher(path, config)
        except CheckpointError:
            return
        arrays = (ft.images, ft.global_targets, ft.dense_targets)
        assert all(np.isfinite(a).all() for a in arrays)
        assert ft.images.shape[0] == ft.global_targets.shape[0] == ft.dense_targets.shape[0] >= 1
        assert ft.images.shape[1] == 3 and ft.dense_targets.shape[2] == config.dim

    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: MAGIC + struct.pack("<I", VERSION) + b),
    ))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_load_or_raise_checkpoint_error(self, tmp_path, tiny_config, raw):
        self.loads_or_refuses(tmp_path / "fuzz.veca", raw, tiny_config)

    @given(
        batch=st.integers(1, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
        poison=st.tuples(st.sampled_from([None, 0, 1, 2]), st.sampled_from([np.nan, np.inf, -np.inf])),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_flipped_or_truncated_targets_load_or_raise_checkpoint_error(
        self, tmp_path, tiny_config, batch, dtype, poison, flips, cut,
    ):
        # ``poison`` puts one non-finite value into images, global or dense before the bytes are damaged
        path = tmp_path / "flip.veca"
        rng = np.random.default_rng(batch)
        arrays = [
            synthetic_images(RngStream(batch, "fuzz"), batch, 8).astype(dtype),
            rng.normal(size=(batch, tiny_config.dim)).astype(dtype),
            rng.normal(size=(batch, 4, tiny_config.dim)).astype(dtype),
        ]
        which, value = poison
        if which is not None:
            arrays[which].flat[-1] = value
        save_target_file(path, *arrays)
        raw = bytearray(path.read_bytes())
        for pos, mask in flips:
            raw[pos % len(raw)] ^= mask
        self.loads_or_refuses(path, bytes(raw if cut is None else raw[: cut % len(raw)]), tiny_config)


class TestModelGradCheck:
    CONFIG = ModelConfig(layers=1, dim=8, heads=2, mlp_ratio=1.0, patch_size=2)

    def case(self):
        enc = Encoder(self.CONFIG, seed=0)
        return enc, SyntheticTeacher(self.CONFIG, seed=1), synthetic_images(RngStream(0, "gc"), 1, 4)

    def test_restores_requires_grad(self):
        enc, teacher, images = self.case()
        enc.params["patch_embed.b"].requires_grad = False
        assert model_grad_check(enc, teacher, images, budget=8) <= 1e-4
        assert [name for name, p in enc.params.items() if not p.requires_grad] == ["patch_embed.b"]

    def test_non_finite_probe_names_parameter_and_coordinate(self):
        enc, teacher, images = self.case()
        before = enc.state()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as err:
            model_grad_check(enc, teacher, images, budget=8, h=1e300)
        where = re.search(r"at (\S+) coordinate (\d+) \(\+h\)", str(err.value))
        assert where and where.group(1) in enc.params
        for name, value in before.items():
            np.testing.assert_array_equal(enc.params[name].data, value)


class TestAdamW:
    def test_decoupled_decay_shrinks_without_gradient_signal(self):
        p = Tensor(np.full(3, 2.0), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.1)
        p.grad = np.zeros(3)
        opt.step(lr=0.5)
        np.testing.assert_allclose(p.data, 2.0 - 0.5 * 0.1 * 2.0)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.1)
        opt.step(lr=0.5)
        np.testing.assert_array_equal(p.data, np.ones(2))

    @staticmethod
    def params(dtype, seed=0):
        """Many small tensors around one larger than a bucket, plus scalars and an empty one."""
        rng = np.random.default_rng(seed)
        shapes = [(3, 5), (7,), (), (AdamW.BUCKET + 17,), (0, 4)] + [(40, 41)] * 60 + [(8, 2), (5,)]
        return {f"p{i}": Tensor(rng.normal(size=s).astype(dtype)) for i, s in enumerate(shapes)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_per_parameter_reference(self, dtype):
        ours, ref = self.params(dtype), self.params(dtype)
        opt, ref_opt = AdamW(ours, weight_decay=0.05), ReferenceAdamW(ref, weight_decay=0.05)
        rng = np.random.default_rng(1)
        names = list(ours)
        for step in range(12):
            # a changing subset without gradients, like the core chunks beyond a budget
            skipped = set(rng.choice(names, size=int(rng.integers(0, len(names))), replace=False))
            if step % 4 == 3:
                skipped = {"p3"}  # the tensor larger than a bucket alone
            for name in names:
                g = None if name in skipped else rng.normal(size=ours[name].shape).astype(dtype)
                ours[name].grad, ref[name].grad = g, g
            lr = 0.1 / (step + 1)
            opt.step(lr)
            ref_opt.step(lr)
            for name in names:
                assert ours[name].data.dtype == ref[name].data.dtype
                assert ours[name].data.shape == ref[name].data.shape
                assert ours[name].data.tobytes() == ref[name].data.tobytes(), (step, name)

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        sizes=st.lists(
            st.one_of(
                st.integers(0, 40),
                st.integers(AdamW.BUCKET // 2 - 20, AdamW.BUCKET // 2 + 20),
                st.integers(AdamW.BUCKET - 20, AdamW.BUCKET + 20),
            ),
            min_size=1, max_size=8,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_live_subsets_match_the_reference_bitwise(self, dtype, sizes, data):
        # weights and moments after each step, with a drawn subset of parameters given gradients
        rng = np.random.default_rng(len(sizes))
        ours = {f"p{i}": Tensor(rng.normal(size=n).astype(dtype)) for i, n in enumerate(sizes)}
        ref = {name: Tensor(p.data.copy()) for name, p in ours.items()}
        opt, ref_opt = AdamW(ours, weight_decay=0.05), ReferenceAdamW(ref, weight_decay=0.05)
        for step in range(data.draw(st.integers(1, 4), label="steps")):
            live = data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)), label="live")
            for name, on in zip(ours, live):
                g = rng.normal(size=ours[name].shape).astype(dtype) if on else None
                ours[name].grad, ref[name].grad = g, g
            opt.step(0.1 / (step + 1))
            ref_opt.step(0.1 / (step + 1))
            for name in ours:
                assert ours[name].data.dtype == ref[name].data.dtype
                assert ours[name].data.tobytes() == ref[name].data.tobytes(), (step, name)
            for mine, theirs in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
                flat = np.concatenate([theirs[name] for name in ours], axis=None, dtype=np.float64)
                assert mine.tobytes() == flat.tobytes(), step

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_is_bitwise_equal_with_the_reference(self, monkeypatch, tiny_config, dtype):
        # 30 steps of batch 4 that visit every budget
        schedule = [8, 64, 16, 56, 24, 48, 32, 40] * 4
        cfg = DistillConfig(total_steps=30, batch_size=4, weight_decay=0.05)

        def run():
            budgets = iter(schedule)
            monkeypatch.setattr(distill, "sample_budget", lambda dist, stream: next(budgets))
            enc = Encoder(tiny_config, seed=0, dtype=dtype)
            records = train(enc, SyntheticTeacher(tiny_config, dtype=dtype), BudgetDistribution(), cfg,
                            data_stream=RngStream(3, "data"), budget_stream=RngStream(3, "budgets"))
            assert [r.budget for r in records] == schedule[:30]
            return [r.loss for r in records], enc.state()

        losses, state = run()
        monkeypatch.setattr(distill, "AdamW", ReferenceAdamW)
        ref_losses, ref_state = run()
        assert losses == ref_losses
        assert all(state[k].tobytes() == ref_state[k].tobytes() for k in state)

    def test_mixed_dtypes_refused(self):
        params = {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(2, dtype=np.float32))}
        with pytest.raises(DTypeError):
            AdamW(params)

    def test_peak_memory_of_a_step_on_small_is_no_more_than_the_reference(self):
        # small's initial weights and random gradients; the second step is measured, once both
        # optimizers hold float64 moments
        rng = np.random.default_rng(0)
        peaks = []
        tracemalloc.start()
        try:
            for cls in (ReferenceAdamW, AdamW):
                params = Encoder(get_preset("small"), dtype=np.float32).params
                for p in params.values():
                    p.grad = rng.normal(size=p.shape).astype(np.float32)
                opt = cls(params, weight_decay=0.01)
                opt.step(1e-3)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                opt.step(1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del params, opt
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class ReferenceAdamW:
    """Per-parameter AdamW, the reference the bucketed optimizer must equal bitwise."""

    def __init__(self, params, weight_decay=0.0):
        self.params, self.weight_decay, self.t = params, weight_decay, 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        for p in params.values():
            p.requires_grad = True

    def step(self, lr):
        self.t += 1
        c1, c2 = 1.0 - 0.9**self.t, 1.0 - 0.999**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            self.m[k] = 0.9 * self.m[k] + (1.0 - 0.9) * g
            self.v[k] = 0.999 * self.v[k] + (1.0 - 0.999) * g * g
            update = (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + 1e-8)
            p.data = (p.data.astype(np.float64) - lr * update - lr * self.weight_decay * p.data).astype(p.data.dtype)


class TestData:
    def test_synthetic_deterministic(self):
        a = synthetic_images(RngStream(0, "img"), 3, 16)
        b = synthetic_images(RngStream(0, "img"), 3, 16)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("res", [1, 16, 33])
    def test_one_at_a_time_matches_one_batch(self, res):
        # export-maps draws synth:<index> this way, keeping only the last image
        batch = synthetic_images(RngStream(5, "img"), 6, res)
        stream = RngStream(5, "img")
        for i in range(6):
            assert synthetic_images(stream, 1, res)[0].tobytes() == batch[i].tobytes()

    def test_normalization_constants(self):
        raw = np.zeros((1, 3, 4, 4))
        out = normalize(raw)
        np.testing.assert_allclose(
            out[0, :, 0, 0], -np.array([0.485, 0.456, 0.406]) / np.array([0.229, 0.224, 0.225])
        )

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.uniform(size=(5, 7, 3)) * 255).astype(np.uint8)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n7 5\n255\n" + img.tobytes())
        arr = load_raster(path)
        assert arr.shape == (3, 5, 7)
        np.testing.assert_allclose(arr, img.transpose(2, 0, 1) / 255.0)

    def test_npy_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(3, 8, 8))
        path = tmp_path / "img.npy"
        np.save(path, img)
        np.testing.assert_allclose(load_raster(path), img)
