import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def run_digest(*args: str) -> str:
    # one BLAS thread in both runs: the digest is only stable at a fixed thread count
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *args], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    return out.stdout.strip()


def test_two_processes_print_the_same_digest(tmp_path):
    npz = tmp_path / "outputs.npz"
    first, second = run_digest("--npz", str(npz)), run_digest()
    assert first == second
    hexdigest, count, _ = first.split()
    assert len(hexdigest) == 64 and int(count) > 0
    with np.load(npz) as saved:
        arrays = {name: saved[name] for name in saved.files}
    assert len(arrays) == int(count) and output_digest.digest(arrays) == hexdigest


def test_differences_name_every_moved_array():
    old = {
        "same": np.arange(3.0),
        "gone": np.zeros(1),
        "dtype": np.zeros(2),
        "shape": np.zeros((2, 2)),
        "values": np.array([1.0, -4.0]),
        "scalar": np.array(2),
    }
    new = {
        "same": np.arange(3.0),
        "dtype": np.zeros(2, np.float32),
        "shape": np.zeros((2, 1)),
        "values": np.array([1.0, -3.0]),
        "scalar": np.array(2),
        "added": np.ones(1),
    }
    assert output_digest.differences(old, new) == [
        "missing  gone",
        "dtype    dtype  float64 -> float32",
        "shape    shape  (2, 2) -> (2, 1)",
        "values   values  max |d| / max |old| = 0.25",
        "new      added",
    ]
    assert output_digest.differences(new, new) == []
