"""Command-line interface.

Subcommands: verify, bench-flops, train-toy, eval-budgets, export-maps,
param-count. Every value of a run comes from its flags, and every command
echoes its fully-resolved configuration as a '#' comment header into its
output. The modules compute and format; the CLI writes: every text file
(CSV tables, maps, the training log) goes through :func:`_emit`, and the
checkpoint through :mod:`veca.checkpoint`. Exit codes: 0 success,
1 verification/runtime failure, 2 usage error, 3 I/O error (a malformed
checkpoint, or an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, checkpoint, verify
from .data import load_raster, normalize, synthetic_images
from .distill import TEACHER_SEED, DistillConfig, FileTeacher, SyntheticTeacher, budget_losses, train
from .elastic import BUDGETS, DEFAULT_WEIGHTS, BudgetDistribution
from .errors import (
    BudgetError,
    CheckpointError,
    ConfigError,
    DTypeError,
    ResolutionError,
    ShapeError,
    VecaError,
)
from .model import PRESETS, Encoder, get_preset, param_count
from .rng import RngStream


def _config_header(command: str, resolved: dict) -> str:
    return f"# {command} config: {json.dumps(resolved, sort_keys=True)}"


def _emit(lines: list[str], out: str | Path | None) -> None:
    """Write ``lines``, each newline-terminated, to the file ``out``, or to stdout when ``out`` is empty.

    This is the one place the CLI writes a text file.
    """
    text = "".join(line + "\n" for line in lines)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _ints(raw: str) -> list[int]:
    try:
        values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as err:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from err
    if not values:
        raise ConfigError(f"expected at least one integer, got {raw!r}")
    return values


# -- subcommands --------------------------------------------------------------


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    resolved = {"suite": args.suite, "seed": args.seed, "corrupt": args.corrupt}
    print(_config_header("verify", resolved))
    ok, lines = verify.run_suites(names, seed=args.seed, corrupt=args.corrupt)
    for line in lines:
        print(line)
    if not ok:
        failing = [line for line in lines if line.startswith("[FAIL]")]
        print(f"verification FAILED ({len(failing)} properties)")
        return 1
    print("verification passed")
    return 0


def cmd_bench_flops(args) -> int:
    resolutions = _ints(args.res)
    resolved = {
        "preset": args.preset,
        "resolutions": resolutions,
        "budget": args.budget,
        "flops_convention": "2 MACs per FLOP pair; dense baseline tokens = patches + 5 (global + 4 registers)",
    }
    reports = analysis.flop_sweep(args.preset, resolutions, args.budget)
    lines = [_config_header("bench-flops", resolved)]
    lines.extend(analysis.cost_csv_lines(reports))
    _emit(lines, args.out)
    return 0


# every train-toy flag, as the config header and the checkpoint's ``train`` section record it
TRAIN_KEYS = (
    "preset", "steps", "batch", "res", "lr", "min_lr", "warmup", "weight_decay",
    "seed", "budget_weights", "dtype", "targets_file",
)


def cmd_train_toy(args) -> int:
    resolved = {k: getattr(args, k) for k in TRAIN_KEYS}
    config = get_preset(args.preset)
    try:
        weights = tuple(float(w) for w in args.budget_weights.split(","))
    except ValueError as err:
        raise ConfigError(f"--budget-weights must be comma-separated numbers, got {args.budget_weights!r}") from err
    dcfg = DistillConfig(
        lr=args.lr,
        min_lr=args.min_lr,
        warmup_steps=args.warmup,
        total_steps=args.steps,
        weight_decay=args.weight_decay,
        batch_size=args.batch,
        resolution=args.res,
    )
    dist = BudgetDistribution(weights=weights)
    student = Encoder(config, seed=args.seed, dtype=args.dtype)
    teacher = (
        FileTeacher(args.targets_file, config)
        if args.targets_file
        else SyntheticTeacher(config, seed=TEACHER_SEED, dtype=student.dtype)
    )

    records = train(
        student,
        teacher,
        dist,
        dcfg,
        data_stream=RngStream(args.seed, "data"),
        budget_stream=RngStream(args.seed, "budgets"),
    )

    out_dir = Path(args.out or "toy-run")
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _config_header("train-toy", resolved)
    log_lines = [header, "step,budget,loss,lr"]
    log_lines += [f"{r.step},{r.budget},{r.loss:.10g},{r.lr:.10g}" for r in records]
    _emit(log_lines, out_dir / "train_log.csv")
    checkpoint.save_model(
        out_dir / "checkpoint.veca",
        student,
        extra_config={"train": {k: resolved[k] for k in sorted(resolved) if k != "targets_file"}},
    )
    early = float(np.mean([r.loss for r in records[:10]]))
    final = float(np.mean([r.loss for r in records[-10:]]))
    print(header)
    print(f"trained {len(records)} steps; loss {records[0].loss:.4f} -> {records[-1].loss:.4f}")
    print(f"early 10-step mean {early:.4f}; final 10-step mean {final:.4f}")
    print(f"artifacts in {out_dir}/: checkpoint.veca, train_log.csv (every step's budget, loss and lr)")
    return 0


def cmd_eval_budgets(args) -> int:
    if args.eval_batch < 1:
        raise ConfigError(f"--eval-batch must be at least 1, got {args.eval_batch}")
    student, config = checkpoint.load_model(args.checkpoint)
    train_cfg = config.get("train", {})
    if not isinstance(train_cfg, dict):
        raise CheckpointError(f"{args.checkpoint}: 'train' section is not a JSON object")
    # older checkpoints record the teacher seed, which is now the constant TEACHER_SEED
    if train_cfg.get("teacher_seed", TEACHER_SEED) != TEACHER_SEED:
        raise CheckpointError(f"{args.checkpoint}: 'train' section records a teacher seed other than {TEACHER_SEED}")
    try:
        seed = args.seed if args.seed is not None else checkpoint.json_integer(train_cfg.get("seed", 0), "seed")
        res = checkpoint.json_integer(train_cfg.get("res", DistillConfig().resolution), "res")
    except ValueError as err:
        raise CheckpointError(f"{args.checkpoint}: 'train' section value is not an integer: {err}") from err
    patch = student.config.patch_size
    if res < 1 or res % patch:
        raise CheckpointError(
            f"{args.checkpoint}: 'train' section resolution {res} is not a positive multiple of the patch size {patch}"
        )
    budgets = _ints(args.budgets) if args.budgets is not None else list(BUDGETS)
    resolved = {
        "checkpoint": str(args.checkpoint),
        "budgets": budgets,
        "eval_batch": args.eval_batch,
        "seed": seed,
        "res": res,
    }
    losses = budget_losses(student, budgets, seed=seed, batch=args.eval_batch, resolution=res)
    lines = [_config_header("eval-budgets", resolved), "budget,global_loss,dense_loss,total"]
    for budget, parts in zip(budgets, losses):
        lg, ld = parts["global"], parts["dense"]
        lines.append(f"{budget},{lg:.10g},{ld:.10g},{lg + ld:.10g}")
    _emit(lines, args.out)
    return 0


def cmd_export_maps(args) -> int:
    student, _ = checkpoint.load_model(args.checkpoint)
    if args.image.startswith("synth:"):
        digits = args.image[len("synth:"):]
        if not digits.isdecimal():
            raise ConfigError(f"--image synth:<index> needs a non-negative integer, got {args.image!r}")
        # image `index` of one batch drawn from the stream, drawn one image at a
        # time: memory stays at one image, time still grows with the index
        stream = RngStream(args.seed, "export-data")
        for _ in range(int(digits) + 1):
            image = synthetic_images(stream, 1, args.res)[0]
        image_name = args.image
    else:
        image = normalize(load_raster(args.image))
        image_name = Path(args.image).name
    layers = _ints(args.layers) if args.layers is not None else None
    resolved = {
        "checkpoint": str(args.checkpoint),
        "image": image_name,
        "budget": args.budget,
        "layers": layers if layers is not None else f"1..{student.config.layers - 1} (layer 0 excluded)",
        "seed": args.seed,
        "res": args.res,
    }
    maps = analysis.export_core_maps(student, image, args.budget, layers)
    out_dir = Path(args.out or "core-maps")
    header = _config_header("export-maps", resolved)
    out_dir.mkdir(parents=True, exist_ok=True)
    for layer, matrix in sorted(maps.items()):
        lines = analysis.core_map_csv_lines(matrix, image_name, layer, args.budget)
        _emit([header, *lines], out_dir / f"layer_{layer:02d}.csv")
    print(header)
    print(f"wrote {len(maps)} layer map(s) to {out_dir}/")
    return 0


def cmd_param_count(args) -> int:
    names = list(PRESETS) if args.preset == "all" else [args.preset]
    lines = [_config_header("param-count", {"preset": args.preset}), "preset,params"]
    for name in names:
        lines.append(f"{name},{param_count(get_preset(name))}")
    _emit(lines, args.out)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veca",
        description="Elastic core-periphery attention encoder: training, verification, and cost analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true", help="negative control: inject a fault")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench-flops", help="analytic attention-path cost table")
    p.add_argument("--preset", default="small")
    p.add_argument("--res", default="1024", help="comma-separated resolutions")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_flops)

    p = sub.add_parser("train-toy", help="desk-scale elastic distillation run")
    distill = DistillConfig()
    p.add_argument("--preset", default="tiny-test")
    p.add_argument("--steps", type=int, default=distill.total_steps)
    p.add_argument("--batch", type=int, default=distill.batch_size)
    p.add_argument("--res", type=int, default=distill.resolution)
    p.add_argument("--lr", type=float, default=distill.lr)
    p.add_argument("--min-lr", dest="min_lr", type=float, default=distill.min_lr)
    p.add_argument("--warmup", type=int, default=distill.warmup_steps)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=distill.weight_decay)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-weights", dest="budget_weights", default=",".join(map(str, DEFAULT_WEIGHTS)))
    p.add_argument("--dtype", default="float32", choices=["float32", "float64"])
    p.add_argument("--targets-file", dest="targets_file", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval-budgets", help="per-budget distillation loss of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--budgets", default=None, help="comma-separated; default: the budget set")
    p.add_argument("--eval-batch", dest="eval_batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=None, help="default: the checkpoint's recorded seed, else 0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_budgets)

    p = sub.add_parser("export-maps", help="patch-over-core contribution maps as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", default="synth:0", help="raster path or synth:<index>")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--layers", default=None, help="comma-separated; default: all but layer 0")
    p.add_argument("--res", type=int, default=16, help="resolution for synthetic images")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_maps)

    p = sub.add_parser("param-count", help="learnable parameter counts")
    p.add_argument("--preset", default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_param_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BudgetError, ResolutionError, ShapeError, DTypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    except VecaError as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
