"""Writes one workload's checkpoint and reference outputs into a directory.

    python3 bench/prepare.py <workload> <seed> <work-dir>

``run.py`` starts this as a child process before it times anything, so the
memory this needs (a float64 copy of the model, the serialized checkpoint)
does not count toward the measured process's peak RSS.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    name, seed, work = argv[1], int(argv[2]), Path(argv[3])
    from workloads import WORKLOADS

    WORKLOADS[name].prepare(seed, work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
