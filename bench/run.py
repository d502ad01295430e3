"""Benchmark of veca's encoder, training step and gradient check.

Usage, from the root of the repository:

    python3 bench/run.py --workload {train_tiny,encode_small,gradcheck_tiny,all} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced blocks of cycles and reports the
per-layer metrics, averaged per operation, plus the tracing overhead; the
spans are written to ``bench-out/``. Metric names and units come from
``BENCHMARK.json``. Human-readable lines come first; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client, one BLAS thread. On a small shared machine, BLAS threads that
# spin between calls make every timing depend on the load of the other CPUs:
# on a 2-vCPU host, two threads made the run-to-run spread of the smallest ops
# (gradcheck_tiny) about 5x wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repo import OUT, ROOT, SourceMissing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
# p90 needs at least 10 samples beyond it
MIN_OPS = 110
PREPARE_TIMEOUT_S = 120


def _metric_units() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and of the per-layer metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _prepare(workload, seed: int, work: Path) -> None:
    # a child process, so its peak memory is not the measured process's
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "prepare.py"), workload.name, str(seed), str(work)],
        check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )


def _setup(workload, seed: int, work: Path):
    # set-up is short next to the host's slow and fast phases, so it is repeated
    # over a few seconds and the median reported
    times, loads, ctx = [], [], None
    start_all = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - start_all < SETUP_MIN_SECONDS:
        ctx = None  # never hold two models at once
        gc.collect()
        start = time.perf_counter()
        ctx = workload.setup(seed, work)
        times.append(time.perf_counter() - start)
        loads.append(ctx.load_s)
    workload.inputs(ctx, seed, work)
    return ctx, float(np.median(times)), float(np.median(loads))


def _run_cycles(workload, ctx, tally, count: int, tracer=None) -> list:
    # outputs are judged after the cycles, outside any traced region
    ops, outputs = [], []
    with tracer or contextlib.nullcontext():
        for _ in range(count):
            batch, out = workload.cycle(ctx)
            ops += batch
            outputs.append(out)
    for out in outputs:
        workload.judge(ctx, out, tally)
    return ops


def _latencies_ms(ops) -> np.ndarray:
    return np.array([(op.end - op.start) / 1e6 for op in ops])


def measure(workload, ctx, tally, seconds: float) -> dict:
    ops: list = []
    cycles = 0
    start = time.perf_counter()
    while True:
        ops += _run_cycles(workload, ctx, tally, 1)
        cycles += 1
        if time.perf_counter() - start >= seconds and cycles >= workload.group and len(ops) >= MIN_OPS:
            break
    lat = _latencies_ms(ops)
    p50, p90 = np.percentile(lat, [50, 90])
    return {
        "throughput_ops_per_s": len(ops) / (lat.sum() / 1e3),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "ops": len(ops),
        "beyond_p90": int((lat > p90).sum()),
    }


def measure_traced(workload, ctx, tally, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer, aggregate

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain += _run_cycles(workload, ctx, tally, workload.group)
        traced += _run_cycles(workload, ctx, tally, workload.group, tracer)
        if time.perf_counter() - start >= seconds:
            break
    intervals = [(op.start, op.end) for op in traced]
    totals, summary = aggregate(tracer.spans, intervals)
    _write_spans(spans_path, tracer.spans)

    n = len(traced)
    plain_ms = float(_latencies_ms(plain).mean())
    traced_ms = float(_latencies_ms(traced).mean())
    layer: dict = {}
    for name, t in totals.items():
        layer[f"{name}.calls"] = t["calls"] / n
        if not t["calls"]:
            continue
        layer[f"{name}.ms"] = t["ms"] / n
        layer[f"{name}.self_ms"] = t["self_ms"] / n
        if t["macs"]:
            layer[f"{name}.macs"] = t["macs"] / n
            layer[f"{name}.gmacs_per_s"] = t["macs"] / (t["self_ms"] / 1e3) / 1e9
    # the MACs counted on core_attention are its score matmuls, D * (2NC + C^2)
    layer["attention.score_macs"] = layer.pop("attention.core_attention.macs")
    del layer["attention.core_attention.gmacs_per_s"]
    layer["tensor.nodes"] = sum(op.nodes for op in traced) / n
    lat = _latencies_ms(plain)
    for budget in sorted({op.budget for op in plain}):
        sel = np.array([op.budget == budget for op in plain])
        layer[f"budget.c{budget}.latency_p50_ms"] = float(np.median(lat[sel]))
    layer.update({
        "op.untraced_ms": plain_ms,
        "op.traced_ms": traced_ms,
        "trace.overhead_ms": traced_ms - plain_ms,
        "trace.span_ms": summary["span_ms"] / n,
        "trace.coverage": summary["span_ms"] / n / plain_ms,
        "trace.unattributed_spans": summary["unattributed"],
        "ops.untraced": len(plain),
        "ops.traced": n,
    })
    return layer


def _unit(key: str) -> str:
    """Unit of a reported value that BENCHMARK.json does not list, from its name."""
    for suffix, unit in (("gmacs_per_s", "GMAC/s"), ("ms", "ms"), (".s", "s"), ("macs", "MAC"),
                         ("rate", "ratio"), ("coverage", "ratio")):
        if key.endswith(suffix):
            return unit
    return "count"


def _write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("index,parent,name,start_ns,end_ns,macs\n")
        for i, (name, parent, start, end, macs) in enumerate(spans):
            f.write(f"{i},{parent},{name},{start},{end},{macs}\n")


def run_all(names: list[str], args) -> int:
    """Each workload in its own process, one after another; one combined last line."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *rest],
            stdout=subprocess.PIPE, text=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from envinfo import environment

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from workloads import WORKLOADS
    except SourceMissing as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    e2e_units, layer_units = _metric_units()

    env = environment(workload.name, args.seed, workload.dtype)
    print("# env " + json.dumps(env, sort_keys=True))

    from checks import Tally

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        _prepare(workload, args.seed, work)
        ctx, setup_s, load_s = _setup(workload, args.seed, work)
    workload.warm(ctx)
    gc.collect()

    tally = Tally()
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        values = measure_traced(workload, ctx, tally, args.seconds, spans_path)
        values["checkpoint.load_model.s"] = load_s
        units = layer_units
    else:
        values = measure(workload, ctx, tally, args.seconds)
        values.update({
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": 1.0 - tally.fail_rate,
            "fail_rate": tally.fail_rate,
            "loss_final": workload.loss_final(ctx),
        })
        units = e2e_units

    mode = "traced" if args.trace else "untraced"
    print(f"# workload={workload.name} seed={args.seed} dtype={workload.dtype} mode={mode} "
          f"attempted={tally.attempted} failed={tally.failed} fail_rate={tally.fail_rate:.6g}")
    for reason in tally.reasons:
        print(f"# failure: {reason}")
    for key in sorted(values):
        print(f"{key} {values[key]:.6g} {units.get(key) or _unit(key)}")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"bench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
