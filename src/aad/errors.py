"""Exception hierarchy shared by all aad modules.

Every error the library raises deliberately derives from AadError so the
CLI can map pipeline failures to a single exit code.
"""


class AadError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(AadError):
    """A file (WAV, feature cache, checkpoint) is malformed or truncated."""


class UnsupportedFormatError(FormatError):
    """A file is well-formed but uses an encoding we do not read."""


class DatasetEmptyError(AadError):
    """A dataset scan produced no entries."""


class ShapeError(AadError):
    """Tensor or matrix shapes do not agree."""


class SpecError(AadError):
    """A model spec is internally inconsistent."""


class SpecMismatchError(AadError):
    """A setting differs from the feature contract a checkpoint was trained with."""


class ConfigError(AadError):
    """A configuration value violates its invariants."""


class TooShortError(AadError):
    """Input has too few samples or frames for the requested operation."""


class ContractError(AadError):
    """A caller violated an API precondition."""


class SemiSupervisionError(ContractError):
    """An anomaly-labeled clip reached the training set."""


class DivergenceError(AadError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class DegenerateEvalError(AadError):
    """Metric computation needs both normal and anomaly scores."""


class NumericError(AadError):
    """A numerical routine failed to converge or produced non-finite values."""
