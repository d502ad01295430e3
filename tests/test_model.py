import numpy as np
import pytest

from veca import tensor
from veca.attention import AttnParams
from veca.data import synthetic_images
from veca.distill import SyntheticTeacher
from veca.elastic import BUDGETS, CHUNK, MAX_CORES
from veca.errors import BudgetError, ConfigError, DTypeError, ResolutionError, ShapeError
from veca.model import (
    PRESETS,
    BlockParams,
    Encoder,
    ModelConfig,
    block_forward,
    ffn_swiglu,
    get_preset,
    param_count,
)
from veca.rng import RngStream
from veca.tensor import Tensor, grad_check, mul, silu, tsum


class TestConfig:
    def test_presets_exist(self):
        assert set(PRESETS) == {"small", "small_plus", "base", "large", "tiny-test"}

    def test_preset_lookup_normalizes(self):
        assert get_preset("tiny_test") is get_preset("tiny-test")
        assert get_preset("SMALL_PLUS") is PRESETS["small_plus"]
        with pytest.raises(ConfigError):
            get_preset("medium")

    def test_table_shapes(self):
        small = get_preset("small")
        assert (small.layers, small.dim, small.heads, small.mlp_ratio) == (12, 384, 6, 2.67)
        large = get_preset("large")
        assert (large.layers, large.dim, large.heads) == (24, 1024, 16)
        assert small.patch_size == 16
        assert small.budgets == ModelConfig.budgets == BUDGETS

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, dim=10, heads=3, mlp_ratio=2.0)  # dim % heads
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, dim=12, heads=2, mlp_ratio=2.0)  # head_dim % 4

    def test_hidden_floor(self):
        assert get_preset("small").hidden == 1025
        assert get_preset("base").hidden == 2050
        assert get_preset("large").hidden == 2734
        assert get_preset("small_plus").hidden == 1536


class TestParamCount:
    def test_matches_constructed_tiny(self, tiny_encoder):
        assert sum(t.size for t in tiny_encoder.params.values()) == param_count(tiny_encoder.config)

    def test_matches_constructed_one_block(self):
        cfg = ModelConfig(layers=1, dim=16, heads=2, mlp_ratio=2.67, patch_size=4)
        assert sum(t.size for t in Encoder(cfg, seed=1).params.values()) == param_count(cfg)

    @pytest.mark.parametrize(
        "preset,reference_millions",
        [("small", 21.63), ("small_plus", 28.72), ("base", 85.73), ("large", 303.20)],
    )
    def test_reference_counts_within_half_percent(self, preset, reference_millions):
        got = param_count(get_preset(preset))
        assert abs(got / 1e6 - reference_millions) / reference_millions <= 0.005


class TestPatchEmbed:
    def test_shapes_256(self):
        enc = Encoder(get_preset("tiny-test"), seed=0)
        imgs = np.zeros((2, 3, 32, 32))
        tokens, (hp, wp) = enc.patch_embed(imgs)
        assert tokens.shape == (2, 64, 16) and (hp, wp) == (8, 8)

    def test_resolution_error_names_patch_size(self):
        enc = Encoder(get_preset("tiny-test"), seed=0)
        with pytest.raises(ResolutionError) as err:
            enc.patch_embed(np.zeros((1, 3, 18, 16)))
        assert "4" in str(err.value)

    def test_uniform_image_gives_identical_embeddings(self):
        enc = Encoder(get_preset("tiny-test"), seed=0)
        tokens, _ = enc.patch_embed(np.full((1, 3, 16, 16), 0.42))
        np.testing.assert_array_equal(
            tokens.data, np.tile(tokens.data[:, :1], (1, 16, 1))
        )

    def test_rectangular(self):
        enc = Encoder(get_preset("tiny-test"), seed=0)
        tokens, (hp, wp) = enc.patch_embed(np.zeros((1, 3, 8, 16)))
        assert tokens.shape == (1, 8, 16) and (hp, wp) == (2, 4)

    def test_patch16_counts(self):
        cfg = ModelConfig(layers=1, dim=16, heads=2, mlp_ratio=2.0, patch_size=16)
        enc = Encoder(cfg, seed=0)
        _, (hp, wp) = enc.patch_embed(np.zeros((1, 3, 32, 32)))
        assert hp * wp == 4
        _, (hp, wp) = enc.patch_embed(np.zeros((1, 3, 256, 256)))
        assert hp * wp == 256

    def test_smaller_than_one_patch(self):
        enc = Encoder(get_preset("tiny-test"), seed=0)
        for shape in ((1, 3, 0, 0), (1, 3, 0, 16), (1, 3, 16, 0)):
            with pytest.raises(ResolutionError):
                enc.patch_embed(np.zeros(shape))


def ffn_scalar_oracle(x, w1, b1, w2, b2):
    hidden = w2.shape[0]
    out = np.zeros((x.shape[0], w2.shape[1]))
    for r in range(x.shape[0]):
        h = x[r] @ w1 + b1
        u, v = h[:hidden], h[hidden:]
        gated = u / (1.0 + np.exp(-u)) * v
        out[r] = gated @ w2 + b2
    return out


class TestFfnSwiglu:
    def test_zero_w1_leaves_w2_bias(self):
        rng = np.random.default_rng(0)
        w2 = Tensor(rng.normal(size=(5, 4)))
        b2 = Tensor(rng.normal(size=4))
        out = ffn_swiglu(
            Tensor(rng.normal(size=(3, 4))),
            Tensor(np.zeros((4, 10))),
            Tensor(np.zeros(10)),
            w2,
            b2,
        )
        np.testing.assert_array_equal(out.data, np.tile(b2.data, (3, 1)))

    def test_silu_asymptote(self):
        u = Tensor(np.array([30.0]))
        assert abs(float(silu(u).data[0]) - 30.0) <= 1e-9

    def test_vs_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        w1, b1 = rng.normal(size=(6, 10)), rng.normal(size=10)
        w2, b2 = rng.normal(size=(5, 6)), rng.normal(size=6)
        got = ffn_swiglu(Tensor(x), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2)).data
        assert np.abs(got - ffn_scalar_oracle(x, w1, b1, w2, b2)).max() <= 1e-12


def make_block(dim, heads, hidden, seed, zero_out=False):
    stream = RngStream(seed, "block")
    attn = AttnParams.init(dim, heads, stream.spawn("attn"))
    ones = lambda n: Tensor(np.ones(n), requires_grad=True)
    zeros = lambda n: Tensor(np.zeros(n), requires_grad=True)
    w = lambda name, shape: Tensor(
        stream.spawn(name).trunc_normal(0.2, size=shape), requires_grad=True
    )
    block = BlockParams(
        ones(dim), zeros(dim), attn, ones(dim), zeros(dim),
        w("w1", (dim, 2 * hidden)), zeros(2 * hidden), w("w2", (hidden, dim)), zeros(dim),
    )
    if zero_out:
        block.attn.wo.data[:] = 0.0
        block.attn.bo.data[:] = 0.0
        block.ffn_w2.data[:] = 0.0
    return block


class TestBlockForward:
    def test_zero_output_projections_make_identity(self):
        block = make_block(8, 2, 12, seed=0, zero_out=True)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 6, 8)))
        coords = Tensor(rng.uniform(-1, 1, size=(6, 2)))
        out = block_forward(x, coords, 2, block)
        np.testing.assert_array_equal(out.data, x.data)

    def test_gradient_wrt_input(self):
        block = make_block(8, 2, 12, seed=2)
        rng = np.random.default_rng(3)
        coords = Tensor(rng.uniform(-1, 1, size=(6, 2)))
        probe = Tensor(rng.normal(size=(1, 6, 8)))

        def f(t):
            return tsum(mul(block_forward(t, coords, 2, block), probe))

        err = grad_check(f, Tensor(rng.normal(size=(1, 6, 8))), 1e-5)
        assert err <= 1e-5

    def test_one_kept_core_row_returns_those_rows_of_the_full_block(self):
        # C = 3 of T = 8: the kept block is rows 0 and 3..7 of the full block's output
        block = make_block(8, 2, 12, seed=4)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 8, 8)))
        coords = Tensor(rng.uniform(-1, 1, size=(8, 2)))
        full = block_forward(x, coords, 3, block).data
        kept = block_forward(x, coords, 3, block, core_rows=1).data
        assert kept.shape == (2, 6, 8)
        assert np.abs(kept - full[:, [0, 3, 4, 5, 6, 7]]).max() <= 1e-12 * np.abs(full).max()

    def test_gradient_wrt_input_with_one_kept_core_row(self):
        block = make_block(8, 2, 12, seed=6)
        rng = np.random.default_rng(7)
        coords = Tensor(rng.uniform(-1, 1, size=(7, 2)))
        probe = Tensor(rng.normal(size=(1, 5, 8)))  # core row 0 and the 4 patch rows

        def f(t):
            return tsum(mul(block_forward(t, coords, 3, block, core_rows=1), probe))

        err = grad_check(f, Tensor(rng.normal(size=(1, 7, 8))), 1e-5)
        assert err <= 1e-5


class TestEncoder:
    def test_tiny_shapes(self, tiny_encoder, tiny_images):
        g, d = tiny_encoder(tiny_images, 8)
        assert g.shape == (2, 16) and d.shape == (2, 16, 16)

    def test_base_shapes_at_256(self):
        enc = Encoder(get_preset("base"), seed=0, dtype=np.float32)
        img = np.zeros((1, 3, 256, 256), dtype=np.float32)
        g, d = enc(img, 64)
        assert g.shape == (1, 768) and d.shape == (1, 256, 768)

    def test_invalid_budget_lists_valid_set(self, tiny_encoder, tiny_images):
        with pytest.raises(BudgetError) as err:
            tiny_encoder(tiny_images, 12)
        assert "(8, 16, 24, 32, 40, 48, 56, 64)" in str(err.value)

    def test_inactive_chunk_invariance_bitwise(self, tiny_encoder, tiny_images):
        enc = tiny_encoder
        for budget in BUDGETS[:-1]:
            g0, d0 = enc(tiny_images, budget)
            saved = enc.state()
            for j in range(budget // CHUNK, MAX_CORES // CHUNK):
                enc.params[f"core.tokens.{j}"].data += 999.0
                enc.params[f"core.coords.{j}"].data *= -3.0
            g1, d1 = enc(tiny_images, budget)
            enc.load_state(saved)
            np.testing.assert_array_equal(g0.data, g1.data)
            np.testing.assert_array_equal(d0.data, d1.data)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float16, np.complex128])
    def test_non_float_dtype_refused(self, tiny_config, dtype):
        # an integer dtype used to round every drawn weight to 0 and train on silently
        with pytest.raises(DTypeError):
            Encoder(tiny_config, dtype=dtype)
        with pytest.raises(DTypeError):
            SyntheticTeacher(tiny_config, dtype=dtype)

    def test_determinism_across_instances(self, tiny_config, tiny_images):
        a = Encoder(tiny_config, seed=3)
        b = Encoder(tiny_config, seed=3)
        ga, da = a(tiny_images, 16)
        gb, db = b(tiny_images, 16)
        np.testing.assert_array_equal(ga.data, gb.data)
        np.testing.assert_array_equal(da.data, db.data)

    @pytest.mark.parametrize("budget", [BUDGETS[0], BUDGETS[-1]])
    def test_tape_nodes_per_frozen_forward_are_pinned(self, tiny_config, tiny_images, budget):
        # tensors created by one float32 forward with no parameter requiring grad, after a
        # warm-up call has cached the patch grid; a change that adds nodes has to edit this number
        enc = Encoder(tiny_config, seed=0, dtype=np.float32)
        for t in enc.params.values():
            t.requires_grad = False
        images = tiny_images.astype(np.float32)
        enc(images, budget)
        before = next(tensor._counter)
        enc(images, budget)
        assert next(tensor._counter) - before - 1 == 87

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_features_equal_with_and_without_capture(self, tiny_config, tiny_images, dtype):
        # a capture only observes: the same rows run, so the features are bitwise equal
        enc = Encoder(tiny_config, seed=0, dtype=dtype)
        n = 16  # 16 px images, 4 px patches
        for budget in BUDGETS:
            tokens, (hp, wp) = enc.patch_embed(tiny_images)
            assert enc.encode_tokens(tokens, hp, wp, budget).shape == (2, 1 + n, 16)
            assert enc.encode_tokens(tokens, hp, wp, budget, capture=[]).shape == (2, 1 + n, 16)
            for plain, captured in zip(enc(tiny_images, budget), enc(tiny_images, budget, capture=[])):
                assert plain.shape == captured.shape
                assert plain.data.tobytes() == captured.data.tobytes()

    def test_core_coordinates_stay_bounded(self, tiny_encoder, tiny_images):
        capture = []
        tiny_encoder(tiny_images, 32, capture=capture)
        assert len(capture) == tiny_encoder.config.layers
        for layer in capture:
            assert np.all(np.abs(layer["coords"][:, :32]) < 1.0)

    def test_token_count_scales_with_resolution(self, tiny_encoder):
        imgs16 = synthetic_images(RngStream(1, "r"), 1, 16)
        imgs32 = synthetic_images(RngStream(1, "r"), 1, 32)
        _, d16 = tiny_encoder(imgs16, 8)
        _, d32 = tiny_encoder(imgs32, 8)
        assert d32.shape[1] == 4 * d16.shape[1]

    def test_state_roundtrip(self, tiny_config, tiny_images):
        a = Encoder(tiny_config, seed=5)
        b = Encoder(tiny_config, seed=6)
        b.load_state(a.state())
        ga, _ = a(tiny_images, 8)
        gb, _ = b(tiny_images, 8)
        np.testing.assert_array_equal(ga.data, gb.data)

    def test_attention_weights_come_from_the_attn_params_streams(self, tiny_config):
        enc = Encoder(tiny_config, seed=3, dtype=np.float32)
        for i, block in enumerate(enc.blocks):
            want = AttnParams.init(tiny_config.dim, tiny_config.heads, RngStream(3, "init").spawn(f"blocks.{i}.attn"))
            for name, t in block.attn.tensors().items():
                assert t is enc.params[f"blocks.{i}.attn.{name}"]
                assert t.data.tobytes() == getattr(want, name).data.astype(np.float32).tobytes()

    def test_given_state_is_wrapped_frozen_without_a_copy(self, tiny_config, tiny_images):
        fresh = Encoder(tiny_config, seed=5)
        state = fresh.state()
        enc = Encoder(tiny_config, seed=5, state=state)
        for name, t in enc.params.items():
            assert t.data is state[name] and not t.requires_grad
        assert enc(tiny_images, 8)[1].data.tobytes() == fresh(tiny_images, 8)[1].data.tobytes()

    def test_given_state_is_checked_like_load_state(self, tiny_config):
        state = Encoder(tiny_config, seed=5).state()
        del state["final_norm.beta"]
        state["stray"] = np.zeros(2)
        with pytest.raises(ConfigError, match="missing=\\['final_norm.beta'\\] extra=\\['stray'\\]"):
            Encoder(tiny_config, state=state)
        state = Encoder(tiny_config, seed=5).state()
        state["patch_embed.b"] = np.zeros(3)
        with pytest.raises(ShapeError, match="patch_embed.b"):
            Encoder(tiny_config, state=state)
        with pytest.raises(ShapeError, match="patch_embed.b"):
            Encoder(tiny_config).load_state(state)
