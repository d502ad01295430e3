"""Correctness checks applied to every operation the benchmark times.

Each check is a pure function of an operation's output and its reference, so
the benchmark's own tests can feed it a corrupted result. :class:`Tally`
counts attempted and failed operations; ``fail_rate`` is failed / attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# c09's rule: a training run must at least halve its loss
HALVING = 0.5
MA_WINDOW = 10
# c05's finite-difference step and tolerance
GRAD_H = 1e-5
GRAD_TOL = 1e-4
# float32 encode against a float64 encode of the same weights. Final features
# are layer-normed (entries up to ~4); on the seed the largest difference over
# 16 encodes at two seeds was 4e-6, so this leaves 25x headroom
F32_FEATURE_TOL = 1e-4


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, ops: int = 1, reason: str = "") -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def train_run_ok(losses: list[float]) -> tuple[bool, str]:
    """Every step's loss is finite and the last 10-step mean is at most half the first."""
    if len(losses) < 2 * MA_WINDOW:
        return False, f"only {len(losses)} steps"
    if not all(math.isfinite(v) for v in losses):
        return False, "non-finite step loss"
    early = float(np.mean(losses[:MA_WINDOW]))
    final = float(np.mean(losses[-MA_WINDOW:]))
    if not final <= HALVING * early:
        return False, f"final mean {final:.4g} > {HALVING} x early mean {early:.4g}"
    return True, ""


def features_ok(
    y: np.ndarray, z: np.ndarray, ref_y: np.ndarray, ref_z: np.ndarray
) -> tuple[bool, str]:
    """Finite features of the reference's shapes, within F32_FEATURE_TOL of it."""
    if y.shape != ref_y.shape or z.shape != ref_z.shape:
        return False, f"shapes {y.shape}/{z.shape} != {ref_y.shape}/{ref_z.shape}"
    if not (np.isfinite(y).all() and np.isfinite(z).all()):
        return False, "non-finite feature"
    diff = max(float(np.abs(y - ref_y).max()), float(np.abs(z - ref_z).max()))
    if not diff <= F32_FEATURE_TOL:
        return False, f"max |f32 - f64| = {diff:.3g} > {F32_FEATURE_TOL}"
    return True, ""


def gradient_ok(analytic: float, up: float, down: float, h: float = GRAD_H) -> tuple[bool, str]:
    """Central difference of two loss values against the recorded backward gradient."""
    if not (math.isfinite(up) and math.isfinite(down)):
        return False, "non-finite perturbed loss"
    numeric = (up - down) / (2.0 * h)
    err = abs(analytic - numeric) / max(1.0, abs(analytic))
    if not err <= GRAD_TOL:
        return False, f"rel err {err:.3g} > {GRAD_TOL} (analytic {analytic:.6g}, numeric {numeric:.6g})"
    return True, ""
