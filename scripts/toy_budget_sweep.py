#!/usr/bin/env python3
"""End-to-end desk-scale experiment: elastic distillation plus budget sweep.

Runs ``veca train-toy`` (tiny preset, float32, frozen synthetic teacher,
nested budget sampling) and then ``veca eval-budgets`` on the saved
checkpoint, which reports the distillation loss at every budget on a held-out
synthetic batch. Artifacts land in --out: checkpoint.veca, train_log.csv
(every step's budget, loss and learning rate) and budget_sweep.csv.
"""

import argparse

from veca.cli import main as veca


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-batch", type=int, default=16)
    parser.add_argument("--out", default="toy-sweep")
    args = parser.parse_args()

    train = ["--steps", str(args.steps), "--batch", str(args.batch), "--seed", str(args.seed)]
    code = veca(["train-toy", *train, "--out", args.out])
    if code:
        return code
    code = veca([
        "eval-budgets", "--checkpoint", f"{args.out}/checkpoint.veca",
        "--eval-batch", str(args.eval_batch), "--out", f"{args.out}/budget_sweep.csv",
    ])
    if not code:
        print(f"budget sweep in {args.out}/budget_sweep.csv")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
