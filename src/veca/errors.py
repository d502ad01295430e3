"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`VecaError` so the CLI
can map failures onto its stable exit-code contract.
"""


class VecaError(Exception):
    """Base class for all package errors."""


class ShapeError(VecaError):
    """Operand shapes are incompatible for the requested operation."""


class DTypeError(VecaError):
    """Operand dtypes disagree or are unsupported."""


class NonFiniteError(VecaError):
    """A NaN or Inf appeared where only finite values are allowed."""


class GraphReleasedError(VecaError):
    """A gradient reached a tape node whose graph was already backpropagated and released."""


class ConfigError(VecaError):
    """A model or run configuration violates its invariants."""


class BudgetError(VecaError):
    """An active-core budget is outside the valid budget set."""


class ResolutionError(VecaError):
    """An image resolution is not divisible by the patch size."""


class CapacityError(VecaError):
    """A request exceeds a fixed capacity (e.g. more seeds than lattice points)."""


class CheckpointError(VecaError):
    """A checkpoint or input file is malformed or truncated."""


class UnsupportedVersionError(CheckpointError):
    """A checkpoint declares a container version this build cannot read."""


class TrainingDivergedError(VecaError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, budget: int, message: str = ""):
        self.step = step
        self.budget = budget
        detail = f" ({message})" if message else ""
        super().__init__(f"non-finite loss at step {step}, budget {budget}{detail}")
