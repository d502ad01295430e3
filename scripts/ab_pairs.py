#!/usr/bin/env python3
"""Compare two checkouts with alternating pairs of benchmark runs.

    python3 scripts/ab_pairs.py --a PARENT --b CHANGE --workload train_tiny --pairs 10 --seconds 45

Pair i runs ``bench/run.py --trace 0`` in both checkouts with seed
``first_seed + i``; even pairs run A first and odd pairs B first. Each
checkout runs its own ``bench/``, which this script only invokes. For every
end-to-end metric in A's ``BENCHMARK.json`` it prints each side's median
[q1, q3], the median [q1, q3] of the per-pair ratio B/A (a slow or fast
phase of the host that spans a pair cancels in its ratio), the pairs each
side won (ties count for neither), and whether B gained or is worse than A
by more than the metric's bound. B gains when it wins at least nine tenths
of all pairs and the per-pair ratio's quartiles both lie on B's better side
of 1. The rule reads the ratio, not the absolute medians: a slow or fast
phase of the host that spans a pair moves both of its runs, so it widens
A's own spread but not the ratio's, and a consistent saving smaller than
A's spread still counts. For positive metrics nine wins in ten already put
the ratio's quartiles on B's side; the quartile test also refuses a ratio
that is not finite. Beside the verdict, the ``beats A's IQR`` column reads
``yes`` when B's median is better than A's by more than the distance
between A's quartiles, the bar of the absolute medians: a saving that
clears only the per-pair rule shows there as ``no`` before it is claimed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one untraced run, read from the run's last output line."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(spec: list[dict], a_runs: list[dict], b_runs: list[dict]) -> list[dict]:
    """One row per end-to-end metric of ``spec`` (BENCHMARK.json's ``end_to_end``).

    ``a_runs[i]`` and ``b_runs[i]`` are pair i's metrics from A and from B.
    """
    rows = []
    for metric in spec:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        a = np.array([run[name] for run in a_runs], dtype=np.float64)
        b = np.array([run[name] for run in b_runs], dtype=np.float64)
        qa, qb = np.percentile(a, [50, 25, 75]), np.percentile(b, [50, 25, 75])
        gap = sign * (qb[0] - qa[0])  # positive when B's median is better
        wins_b = int((sign * (b - a) > 0).sum())
        wins_a = int((sign * (a - b) > 0).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.percentile(b / a, [50, 25, 75])
        # the ratio's quartile nearer 1 must still be on B's better side
        edge = ratio[2] if sign < 0 else ratio[1]
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "a": tuple(qa),
            "b": tuple(qb),
            "ratio": tuple(ratio),
            "wins_a": wins_a,
            "wins_b": wins_b,
            "gain": wins_b >= WIN_SHARE * len(a) and bool(np.isfinite(edge) and sign * (edge - 1.0) > 0),
            "beyond_bound": -gap > metric["bound"] * abs(qa[0]),
            "beyond_spread": bool(gap > qa[2] - qa[1]),
        })
    return rows


def report(rows: list[dict], pairs: int) -> str:
    lines = [f"{'metric':<22} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
             f"{'B/A per pair [q1, q3]':>26}  wins A/B  beats A's IQR  verdict"]
    for r in rows:
        verdict = "gain" if r["gain"] else "worse beyond bound" if r["beyond_bound"] else "no gain"
        a = "{:.4g} [{:.4g}, {:.4g}]".format(*r["a"])
        b = "{:.4g} [{:.4g}, {:.4g}]".format(*r["b"])
        ratio = "{:.4f} [{:.4f}, {:.4f}]".format(*r["ratio"])
        lines.append(f"{r['name']:<22} {a:>30} {b:>30} {ratio:>26}  "
                     f"{r['wins_a']:>2}/{r['wins_b']:<2} of {pairs}  "
                     f"{'yes' if r['beyond_spread'] else 'no':<13}  {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--b", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", dest="first_seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.a / "BENCHMARK.json").read_text())["end_to_end"]
    a_runs, b_runs = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("A", args.a, a_runs), ("B", args.b, b_runs)]
        for side, checkout, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run_bench(checkout, args.workload, seed, args.seconds))
            shown = " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items())
            print(f"pair {i + 1} seed {seed} {side}: {shown}", flush=True)
    print(report(summarize(spec, a_runs, b_runs), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
