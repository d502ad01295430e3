import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veca.elastic import (
    BUDGETS,
    CHUNK,
    DEFAULT_WEIGHTS,
    MAX_CORES,
    BudgetDistribution,
    active_prefix,
    sample_budget,
)
from veca.errors import BudgetError, ConfigError
from veca.rng import RngStream
from veca.tensor import Tensor


class TestBudgetDistribution:
    def test_default_distribution(self):
        dist = BudgetDistribution()
        assert BUDGETS == (8, 16, 24, 32, 40, 48, 56, 64) and MAX_CORES == 64
        assert dist.weights == DEFAULT_WEIGHTS == (1, 1, 2, 2, 3, 3, 4, 4)
        np.testing.assert_allclose(dist.probs.sum(), 1.0)
        assert dist.probs[0] == pytest.approx(0.05)
        assert dist.probs[-1] == pytest.approx(0.20)

    def test_validation(self):
        # one weight per budget, with a positive sum
        for weights in ((), (1,), (1,) * 7, (1,) * 9, (0,) * 8):
            with pytest.raises(ConfigError):
                BudgetDistribution(weights=weights)

    @pytest.mark.parametrize("weights", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1.0, -float("inf")), (1e308, 1e308), (-1.0, 2.0),
    ])
    def test_non_finite_weights_or_sum_rejected(self, weights):
        with pytest.raises(ConfigError):
            BudgetDistribution(weights=weights + (1.0,) * (len(BUDGETS) - len(weights)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=8, max_size=8))
    def test_accepted_weights_give_finite_probs_summing_to_one(self, weights):
        try:
            dist = BudgetDistribution(weights=tuple(weights))
        except ConfigError:
            return
        assert np.isfinite(dist.probs).all()
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestSampler:
    def test_degenerate_weights(self):
        dist = BudgetDistribution(weights=(0, 0, 0, 0, 0, 0, 0, 1))
        stream = RngStream(0, "deg")
        assert all(sample_budget(dist, stream) == 64 for _ in range(200))

    def test_empirical_frequencies_100k(self):
        dist = BudgetDistribution()
        stream = RngStream(0, "freq")
        counts = dict.fromkeys(BUDGETS, 0)
        n = 100_000
        for _ in range(n):
            counts[sample_budget(dist, stream)] += 1
        assert abs(counts[64] / n - 0.20) <= 0.005
        assert abs(counts[8] / n - 0.05) <= 0.005

    def test_replayable(self):
        dist = BudgetDistribution()
        a = [sample_budget(dist, RngStream(5, "s")) for _ in range(1)]
        draws1 = []
        draws2 = []
        s1, s2 = RngStream(5, "s"), RngStream(5, "s")
        for _ in range(50):
            draws1.append(sample_budget(dist, s1))
            draws2.append(sample_budget(dist, s2))
        assert draws1 == draws2 and draws1[0] == a[0]


def make_bank(chunks=4, dim=16, seed=0):
    """Token and coordinate-state chunk lists of ``chunks`` chunks of CHUNK rows."""
    stream = RngStream(seed, "bank")
    tokens = [Tensor(stream.spawn(f"t{j}").normal(size=(CHUNK, dim))) for j in range(chunks)]
    coords = [Tensor(stream.spawn(f"c{j}").normal(size=(CHUNK, 2))) for j in range(chunks)]
    return tokens, coords


class TestActivePrefix:
    def test_full_bank(self):
        token_chunks, coord_chunks = make_bank()
        tokens, coords = active_prefix(token_chunks, coord_chunks, 32)
        np.testing.assert_array_equal(
            tokens.data, np.concatenate([c.data for c in token_chunks])
        )
        assert coords.shape == (32, 2)

    def test_single_chunk(self):
        token_chunks, coord_chunks = make_bank()
        tokens, _ = active_prefix(token_chunks, coord_chunks, 8)
        np.testing.assert_array_equal(tokens.data, token_chunks[0].data)

    def test_prefix_identity(self):
        bank = make_bank()
        t16, _ = active_prefix(*bank, 16)
        t8, _ = active_prefix(*bank, 8)
        np.testing.assert_array_equal(t16.data[:8], t8.data)

    @given(
        c1=st.sampled_from([8, 16, 24, 32]),
        c2=st.sampled_from([8, 16, 24, 32]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_nesting_exact(self, c1, c2, seed):
        if c1 >= c2:
            return
        bank = make_bank(seed=seed)
        small_t, small_c = active_prefix(*bank, c1)
        big_t, big_c = active_prefix(*bank, c2)
        np.testing.assert_array_equal(small_t.data, big_t.data[:c1])
        np.testing.assert_array_equal(small_c.data, big_c.data[:c1])

    def test_invalid_budgets(self):
        bank = make_bank()
        for bad in (0, 4, 12, 40):
            with pytest.raises(BudgetError):
                active_prefix(*bank, bad)
