"""Finds the source tree the benchmark measures and imports ``veca`` from it.

The benchmark always measures the checkout it sits in: ``<root>/src/veca``,
where ``<root>`` is the parent of this directory. It refuses to fall back on
any other ``veca`` the interpreter could find, so a directory holding only the
benchmark fails instead of measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"


class SourceMissing(RuntimeError):
    """The checkout has no importable veca source tree."""


def import_veca():
    package = SRC / "veca"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no veca source tree at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import veca

    if Path(veca.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"veca imported from {veca.__file__}, not from {package}")
    return veca
