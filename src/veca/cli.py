"""Command-line interface.

Subcommands: verify, bench-flops, train-toy, eval-budgets, export-maps,
param-count. Every command echoes its fully-resolved configuration as a '#'
comment header into its output; train-toy resolves it from built-in defaults,
then an optional --config JSON file, then explicit flags (flags win). Exit
codes: 0 success, 1 verification/runtime failure, 2 usage error, 3 I/O error.
The VECA_SEED environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, checkpoint, verify
from .data import load_raster, normalize, synthetic_images
from .distill import TEACHER_SEED, DistillConfig, FileTeacher, SyntheticTeacher, total_loss, train
from .elastic import BUDGETS, DEFAULT_WEIGHTS, BudgetDistribution, save_schedule
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


def _default_seed() -> int:
    env = os.environ.get("VECA_SEED")
    try:
        return int(env) if env else 0
    except ValueError as err:
        raise ConfigError(f"VECA_SEED must be an integer, got {env!r}") from err


def _resolve_config(defaults: dict, config_path: str | None, overrides: dict) -> dict:
    resolved = dict(defaults)
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except OSError as err:
            raise CheckpointError(f"cannot read config file: {err}") from err
        except (ValueError, RecursionError) as err:  # RecursionError: nesting too deep to parse
            raise ConfigError(f"config file {config_path} is not valid JSON: {err}") from err
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys in {config_path}: {sorted(unknown)}")
        resolved.update(file_values)
    resolved.update({k: v for k, v in overrides.items() if v is not None})
    return resolved


def _config_header(command: str, resolved: dict) -> str:
    return f"# {command} config: {json.dumps(resolved, sort_keys=True)}"


def _emit(lines: list[str], out: str | None) -> None:
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
    seed = args.seed if args.seed is not None else _default_seed()
    resolved = {"suite": args.suite, "seed": seed, "corrupt": args.corrupt}
    print(_config_header("verify", resolved))
    ok, lines = verify.run_suites(names, seed=seed, corrupt=args.corrupt)
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


_DISTILL = DistillConfig()
_TRAIN_DEFAULTS = {
    "preset": "tiny-test",
    "steps": _DISTILL.total_steps,
    "batch": _DISTILL.batch_size,
    "res": _DISTILL.resolution,
    "lr": _DISTILL.lr,
    "min_lr": _DISTILL.min_lr,
    "warmup": _DISTILL.warmup_steps,
    "weight_decay": _DISTILL.weight_decay,
    "seed": None,  # filled from --seed / VECA_SEED
    "budget_weights": ",".join(str(w) for w in DEFAULT_WEIGHTS),
    "dtype": "float32",
    "teacher_seed": TEACHER_SEED,
    "targets_file": None,
}


def _integer(value, key: str) -> int:
    # int() would turn 2.7 into 2 and true into 1 while the header and checkpoint record 2.7 or true
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def cmd_train_toy(args) -> int:
    # teacher_seed has no flag: getattr gives None, which _resolve_config skips
    overrides = {k: getattr(args, k, None) for k in _TRAIN_DEFAULTS}
    resolved = _resolve_config(_TRAIN_DEFAULTS, args.config, overrides)
    if resolved["seed"] is None:
        resolved["seed"] = _default_seed()

    config = get_preset(str(resolved["preset"]))
    try:
        seed = _integer(resolved["seed"], "seed")
        weights = tuple(float(w) for w in str(resolved["budget_weights"]).split(","))
        dcfg = DistillConfig(
            lr=float(resolved["lr"]),
            min_lr=float(resolved["min_lr"]),
            warmup_steps=_integer(resolved["warmup"], "warmup"),
            total_steps=_integer(resolved["steps"], "steps"),
            weight_decay=float(resolved["weight_decay"]),
            batch_size=_integer(resolved["batch"], "batch"),
            resolution=_integer(resolved["res"], "res"),
        )
        dtype = np.dtype(resolved["dtype"])
        teacher_seed = _integer(resolved["teacher_seed"], "teacher_seed")
    except (TypeError, ValueError) as err:
        raise ConfigError(f"train-toy config value has the wrong type: {err}") from err
    dist = BudgetDistribution(weights=weights)
    student = Encoder(config, seed=seed, dtype=dtype)
    file_teacher = FileTeacher(resolved["targets_file"], config) if resolved["targets_file"] else None
    teacher = None
    if file_teacher is None:
        teacher = SyntheticTeacher(config, seed=teacher_seed, dtype=student.dtype)

    records = train(
        student,
        teacher,
        dist,
        dcfg,
        data_stream=RngStream(seed, "data"),
        budget_stream=RngStream(seed, "budgets"),
        file_teacher=file_teacher,
    )

    out_dir = Path(args.out or "toy-run")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        header = _config_header("train-toy", resolved)
        log_lines = [header, "step,budget,loss,lr"]
        log_lines += [f"{r.step},{r.budget},{r.loss:.10g},{r.lr:.10g}" for r in records]
        (out_dir / "train_log.csv").write_text("".join(l + "\n" for l in log_lines))
        save_schedule(out_dir / "budget_schedule.txt", [r.budget for r in records])
        checkpoint.save_model(
            out_dir / "checkpoint.veca",
            student,
            extra_config={"train": {k: resolved[k] for k in sorted(resolved) if k != "targets_file"}},
        )
    except OSError as err:
        raise CheckpointError(f"cannot write outputs to {out_dir}: {err}") from err
    early = float(np.mean([r.loss for r in records[:10]]))
    final = float(np.mean([r.loss for r in records[-10:]]))
    print(header)
    print(f"trained {len(records)} steps; loss {records[0].loss:.4f} -> {records[-1].loss:.4f}")
    print(f"early 10-step mean {early:.4f}; final 10-step mean {final:.4f}")
    print(f"artifacts in {out_dir}/: checkpoint.veca, train_log.csv, budget_schedule.txt")
    return 0


def cmd_eval_budgets(args) -> int:
    if args.eval_batch < 1:
        raise ConfigError(f"--eval-batch must be at least 1, got {args.eval_batch}")
    student, config = checkpoint.load_model(args.checkpoint)
    train_cfg = config.get("train", {})
    if not isinstance(train_cfg, dict):
        raise CheckpointError(f"{args.checkpoint}: 'train' section is not a JSON object")
    try:
        seed = args.seed if args.seed is not None else _integer(train_cfg.get("seed", _default_seed()), "seed")
        res = _integer(train_cfg.get("res", _DISTILL.resolution), "res")
        teacher_seed = _integer(train_cfg.get("teacher_seed", TEACHER_SEED), "teacher_seed")
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{args.checkpoint}: 'train' section value is not an integer: {err}") from err
    budgets = _ints(args.budgets) if args.budgets else list(BUDGETS)
    resolved = {
        "checkpoint": str(args.checkpoint),
        "budgets": budgets,
        "eval_batch": args.eval_batch,
        "seed": seed,
        "res": res,
        "teacher_seed": teacher_seed,
    }
    teacher = SyntheticTeacher(
        student.config, seed=resolved["teacher_seed"], dtype=student.dtype
    )
    images = synthetic_images(RngStream(seed, "eval-data"), args.eval_batch, res)
    targets = teacher.targets(images)

    lines = [_config_header("eval-budgets", resolved), "budget,global_loss,dense_loss,total"]
    for budget in budgets:
        _, parts = total_loss(images, budget, student, None, DistillConfig(), targets=targets)
        lg, ld = parts["global"], parts["dense"]
        lines.append(f"{budget},{lg:.10g},{ld:.10g},{lg + ld:.10g}")
    _emit(lines, args.out)
    return 0


def cmd_export_maps(args) -> int:
    student, _ = checkpoint.load_model(args.checkpoint)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.image.startswith("synth:"):
        digits = args.image[len("synth:"):]
        if not digits.isdecimal():
            raise ConfigError(f"--image synth:<index> needs a non-negative integer, got {args.image!r}")
        # image `index` of one batch drawn from the stream, drawn one image at a
        # time: memory stays at one image, time still grows with the index
        stream = RngStream(seed, "export-data")
        for _ in range(int(digits) + 1):
            image = synthetic_images(stream, 1, args.res)[0]
        image_name = args.image
    else:
        image = normalize(load_raster(args.image))
        image_name = Path(args.image).name
    layers = _ints(args.layers) if args.layers else None
    resolved = {
        "checkpoint": str(args.checkpoint),
        "image": image_name,
        "budget": args.budget,
        "layers": layers if layers else f"1..{student.config.layers - 1} (layer 0 excluded)",
        "seed": seed,
        "res": args.res,
    }
    maps = analysis.export_core_maps(student, image, args.budget, layers)
    out_dir = Path(args.out or "core-maps")
    header = _config_header("export-maps", resolved)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for layer, matrix in sorted(maps.items()):
            path = out_dir / f"layer_{layer:02d}.csv"
            analysis.write_core_map_csv(path, matrix, image_name, layer, args.budget, header)
    except OSError as err:
        raise CheckpointError(f"cannot write maps to {out_dir}: {err}") from err
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corrupt", action="store_true", help="negative control: inject a fault")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench-flops", help="analytic attention-path cost table")
    p.add_argument("--preset", default="small")
    p.add_argument("--res", default="1024", help="comma-separated resolutions")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_flops)

    p = sub.add_parser("train-toy", help="desk-scale elastic distillation run")
    p.add_argument("--config", default=None, help="JSON file with defaults; flags override")
    p.add_argument("--preset", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--min-lr", dest="min_lr", type=float, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-weights", dest="budget_weights", default=None)
    p.add_argument("--dtype", default=None, choices=["float32", "float64"])
    p.add_argument("--targets-file", dest="targets_file", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval-budgets", help="per-budget distillation loss of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--budgets", default=None, help="comma-separated; default: the budget set")
    p.add_argument("--eval-batch", dest="eval_batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_budgets)

    p = sub.add_parser("export-maps", help="patch-over-core contribution maps as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", default="synth:0", help="raster path or synth:<index>")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--layers", default=None, help="comma-separated; default: all but layer 0")
    p.add_argument("--res", type=int, default=16, help="resolution for synthetic images")
    p.add_argument("--seed", type=int, default=None)
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
