import numpy as np
import pytest

from veca.analysis import (
    attention_macs,
    attention_path_flops,
    contribution_map,
    core_map_csv_lines,
    cost_csv_lines,
    export_core_maps,
    flop_sweep,
    patch_core_profiles,
)
from veca.attention import AttnParams, core_attention
from veca.data import synthetic_images
from veca.errors import ConfigError, ResolutionError
from veca.model import Encoder, get_preset
from veca.rng import RngStream
from veca.tensor import Tensor
from veca.verify import graph_diameter, score_macs_link

from test_acceptance import (
    COST_GFLOPS,
    COST_RTOL,
    RATIO_RTOL,
    contribution_scalar_oracle,
    cost_rel_err,
    ratio_rel_err,
)

# one case per row of the reference cost table, named preset-mode-gflops
COST_ROWS = [pytest.param(p, m, id=f"{p}-{m}-{g}") for (p, m), g in COST_GFLOPS.items()]


class TestCostModel:
    @pytest.mark.parametrize("preset,mode", COST_ROWS)
    def test_reference_values_within_half_percent(self, preset, mode):
        assert cost_rel_err(preset, mode) <= COST_RTOL

    def test_small_reduction_ratio(self):
        assert ratio_rel_err()[1] <= RATIO_RTOL

    def test_flops_are_twice_macs(self):
        report = attention_path_flops("base", 256, "core")
        assert report.flops == 2 * report.macs

    def test_dense_token_count_includes_registers(self):
        tokens, _ = attention_macs(get_preset("small"), 1024, "dense")
        assert tokens == 4096 + 5

    def test_score_macs_link_interaction_count(self):
        _, ok, _ = score_macs_link()
        assert ok

    def test_invalid_resolution(self):
        with pytest.raises(ResolutionError):
            attention_path_flops("small", 1000, "dense")

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            attention_path_flops("small", 1024, "quantum")


class TestFlopSweep:
    def test_cardinality_and_monotonicity(self):
        reports = flop_sweep("small", [256, 512, 1024], 64)
        assert len(reports) == 6
        core = [r for r in reports if r.mode.startswith("core")]
        dense = [r for r in reports if r.mode == "dense_baseline"]
        assert all(a.flops < b.flops for a, b in zip(core, core[1:]))
        assert all(a.flops < b.flops for a, b in zip(dense, dense[1:]))

    def test_attention_term_scaling_is_exact(self):
        # patch-involving attention interactions: core 2NC scales x4, dense N^2 x16
        for n in (256, 1024):
            assert 2 * (4 * n) * 64 == 4 * (2 * n * 64)
            assert (4 * n) ** 2 == 16 * n**2

    def test_full_path_ratios_approach_limits(self):
        small = get_preset("small")
        _, core_lo = attention_macs(small, 512, "core")
        _, core_hi = attention_macs(small, 1024, "core")
        assert 3.5 <= core_hi / core_lo <= 4.05
        # dense attention term (score+value matmuls only) approaches x16
        def dense_attn_term(res):
            t = (res // 16) ** 2 + 5
            return 2 * t * t * small.dim

        ratio = dense_attn_term(1024) / dense_attn_term(512)
        assert abs(ratio - 16.0) <= 0.2

    def test_csv_lines(self):
        lines = cost_csv_lines(flop_sweep("small", [256], 64))
        assert lines[0] == "preset,resolution,mode,T,macs,flops,ratio"
        assert len(lines) == 3
        assert lines[1].startswith("small,256,dense_baseline,")


class TestContributionMap:
    def _capture(self, seed=0, heads=2, dim=16, t=12, c=4, batch=1, core_rows=None):
        rng = np.random.default_rng(seed)
        params = AttnParams.init(dim, heads, RngStream(seed, "cm"))
        x = Tensor(rng.normal(size=(batch, t, dim)))
        coords = Tensor(rng.uniform(-1, 1, size=(t, 2)))
        cap = {}
        core_attention(params, x, coords, c, capture=cap, core_rows=core_rows)
        return cap

    def test_rows_stochastic_and_nonnegative(self):
        s = contribution_map(self._capture())
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(-1), 1.0, atol=1e-6)

    def test_vs_scalar_oracle(self):
        cap = self._capture(seed=3, heads=2, dim=8, t=9, c=4)
        got = contribution_map(cap)
        want = contribution_scalar_oracle(
            cap["probs_core"], cap["probs_patch"], cap["values"], cap["wo"]
        )
        assert np.abs(got - want).max() <= 1e-12

    def test_constant_values_reduce_to_attention_probs(self):
        cap = self._capture(seed=4, heads=1, dim=8, t=10, c=4)
        unit = np.ones(8) / np.sqrt(8.0)
        cap["values"] = np.broadcast_to(unit, cap["values"].shape).copy()
        s = contribution_map(cap)
        np.testing.assert_allclose(s[:, :4, :], cap["probs_core"][:, 0], atol=1e-12)
        np.testing.assert_allclose(s[:, 4:, :4], cap["probs_patch"][:, 0], atol=1e-12)

    def test_patch_profiles_shape(self):
        profiles = patch_core_profiles(self._capture(c=8, t=20))
        assert profiles.shape == (1, 12, 8)
        np.testing.assert_allclose(profiles.sum(-1), 1.0, atol=1e-6)

    def test_patch_profiles_equal_from_one_kept_core_row(self):
        # the patch rows read only their own probabilities, the core values and wo,
        # so a capture that ran core row 0 alone gives the same profiles, bitwise
        for c, t in ((4, 12), (8, 20)):
            kept = self._capture(seed=5, c=c, t=t, batch=2, core_rows=1)
            assert contribution_map(kept).shape == (2, 1 + t - c, t)
            full = patch_core_profiles(self._capture(seed=5, c=c, t=t, batch=2))
            assert patch_core_profiles(kept).tobytes() == full.tobytes()


class TestExportMaps:
    def test_layers_default_excludes_first(self, tiny_encoder):
        img = synthetic_images(RngStream(0, "exp"), 1, 16)[0]
        maps = export_core_maps(tiny_encoder, img, 8)
        assert sorted(maps) == [1]
        assert maps[1].shape == (16, 8)
        np.testing.assert_allclose(maps[1].sum(-1), 1.0, atol=1e-6)

    def test_deterministic_export(self, tiny_encoder):
        img = synthetic_images(RngStream(0, "exp"), 1, 16)[0]
        m1 = export_core_maps(tiny_encoder, img, 8)[1]
        m2 = export_core_maps(tiny_encoder, img, 8)[1]
        np.testing.assert_array_equal(m1, m2)
        assert core_map_csv_lines(m1, "img", 1, 8) == core_map_csv_lines(m2, "img", 1, 8)

    def test_layer_out_of_range(self, tiny_encoder):
        img = synthetic_images(RngStream(0, "exp"), 1, 16)[0]
        with pytest.raises(ConfigError):
            export_core_maps(tiny_encoder, img, 8, layers=[5])


class TestInfluenceProbe:
    def test_one_block_cross_patch_zero(self, tiny_encoder):
        img = synthetic_images(RngStream(0, "probe"), 1, 16)[0]
        _, ok, detail = graph_diameter([(tiny_encoder, img)])[0]
        assert ok, detail

    def test_two_blocks_mix(self, tiny_config):
        cases = [(Encoder(tiny_config, seed=s), synthetic_images(RngStream(s, "probe"), 1, 16)[0]) for s in range(2)]
        _, ok, detail = graph_diameter(cases)[1]
        assert ok, detail
