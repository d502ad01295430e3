import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

LOWER = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(name, values):
    return [{name: v} for v in values]


def row(metric, a, b):
    (out,) = ab_pairs.summarize([metric], runs(metric["name"], a), runs(metric["name"], b))
    return out


def test_gain_needs_nine_of_ten_pairs_and_the_ratio_quartiles_beyond_one():
    a = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    r = row(LOWER, a, [v - 2.0 for v in a])
    assert (r["wins_a"], r["wins_b"], r["gain"]) == (0, 10, True)
    assert r["a"] == pytest.approx((10.9, 10.45, 11.35))
    assert r["b"] == pytest.approx((8.9, 8.45, 9.35))
    assert r["ratio"][2] < 1.0

    b = [v - 2.0 for v in a]
    b[0], b[1] = 10.5, 10.3  # two pairs lost: 8 of 10 is not enough
    r = row(LOWER, a, b)
    assert (r["wins_a"], r["wins_b"], r["gain"]) == (2, 8, False)


def test_winning_every_pair_by_less_than_the_parents_spread_is_a_gain():
    # the gap of the medians (0.5) is smaller than A's quartile spread (2.0); the ratio
    # (0.95-0.96 in every pair) decides
    a = [10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]
    r = row(LOWER, a, [v - 0.5 for v in a])
    assert r["a"][2] - r["a"][1] == pytest.approx(2.0)
    assert r["wins_b"] == 10 and r["gain"]


def test_the_absolute_bar_is_the_parents_quartile_distance():
    # the per-pair rule reads gain; the medians differ by 0.5 < A's quartile distance 2.0
    a = [10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]
    r = row(LOWER, a, [v - 0.5 for v in a])
    assert r["gain"] and not r["beyond_spread"]
    assert ab_pairs.report([r], 10).splitlines()[1].endswith("no             gain")
    # a gap of 2.5 clears it; a better median on the worse side of the metric never does
    assert row(LOWER, a, [v - 2.5 for v in a])["beyond_spread"]
    assert not row(HIGHER, a, [v - 2.5 for v in a])["beyond_spread"]
    assert row(HIGHER, a, [v + 2.5 for v in a])["beyond_spread"]


def test_a_ratio_that_is_not_finite_is_no_gain():
    # a parent that read 0 gives an infinite ratio: wins alone do not make a gain
    r = row(HIGHER, [0.0] * 10, [1.0] * 10)
    assert r["wins_b"] == 10 and not r["gain"]


def test_ties_count_for_neither_side_and_direction_follows_better():
    a = [100.0] * 10
    r = row(HIGHER, a, [100.0] * 9 + [130.0])
    assert (r["wins_a"], r["wins_b"], r["gain"]) == (0, 1, False)
    r = row(HIGHER, a, [110.0] * 10)
    assert (r["wins_a"], r["wins_b"], r["gain"]) == (0, 10, True)
    r = row(LOWER, a, [110.0] * 10)
    assert (r["wins_a"], r["wins_b"], r["gain"]) == (10, 0, False)


def test_worse_beyond_bound_is_relative_to_the_parents_median():
    a = [10.0] * 10
    assert not row(LOWER, a, [12.4] * 10)["beyond_bound"]
    assert row(LOWER, a, [12.6] * 10)["beyond_bound"]
    assert row(HIGHER, a, [7.4] * 10)["beyond_bound"]


def test_report_names_each_metric_and_verdict():
    a = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    rows = ab_pairs.summarize([LOWER, HIGHER], [{"latency_p50_ms": v, "throughput_ops_per_s": v} for v in a],
                              [{"latency_p50_ms": v - 2, "throughput_ops_per_s": v - 5} for v in a])
    text = ab_pairs.report(rows, 10)
    assert "latency_p50_ms" in text.splitlines()[1] and text.splitlines()[1].endswith("gain")
    assert text.splitlines()[2].endswith("worse beyond bound")


def test_per_pair_ratio_cancels_phases_that_span_a_pair():
    # the host swings between phases 1.5x apart; B is 0.8x A inside every pair
    a = [10.0, 15.0, 10.0, 15.0, 10.0, 15.0, 10.0, 15.0, 10.0, 15.0]
    r = row(LOWER, a, [0.8 * v for v in a])
    assert r["ratio"] == pytest.approx((0.8, 0.8, 0.8))
    assert r["wins_b"] == 10 and r["gain"]  # A's own spread (5.0) does not hide it


def test_per_pair_ratio_quartiles():
    a = [10.0] * 5
    r = row(HIGHER, a, [9.0, 10.0, 11.0, 12.0, 13.0])
    assert r["ratio"] == pytest.approx((1.1, 1.0, 1.2))
    text = ab_pairs.report([r], 5)
    assert "B/A per pair" in text.splitlines()[0]
    assert "1.1000 [1.0000, 1.2000]" in text.splitlines()[1]
