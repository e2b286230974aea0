"""Exception hierarchy shared across the package, and the config field
checks that raise ``ConfigError`` naming the field.

The CLI maps ``CrossmilError`` and ``MemoryError`` to exit code 2
(configuration/contract problems, or sizes larger than memory) and
``OSError`` to exit code 3 (I/O problems).
"""

import math
from pathlib import Path


class CrossmilError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CrossmilError):
    """A numeric operation left its valid domain (log of non-positive,
    overflow to inf, NaN)."""


class ContractError(CrossmilError):
    """A caller violated an operation's precondition."""


class ConfigError(CrossmilError):
    """An invalid configuration value or mismatched config/params pair."""


class IntegrityError(CrossmilError):
    """A dataset on disk is internally inconsistent or incomplete."""


class FormatError(CrossmilError):
    """A file does not parse as the expected format."""


class MetricError(CrossmilError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class TrainingError(CrossmilError):
    """Training diverged. Carries the split and epoch at which it happened."""

    def __init__(self, message: str, split_id: int, epoch: int):
        super().__init__(f"{message} (split {split_id}, epoch {epoch})")
        self.message = message
        self.split_id = split_id
        self.epoch = epoch

    def __reduce__(self):
        # a training worker sends its error to the parent process pickled
        return type(self), (self.message, self.split_id, self.epoch)


class GeometryError(CrossmilError):
    """A location's coordinates fall outside the rendering grid."""


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """An int, not a bool, that is >= low and, given high, <= high."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be an integer {bounds}, got {value!r}")


def check_real(
    name: str, value, low: float, high: float = math.inf, *, open_low=False, open_high=False
) -> None:
    """A finite int or float, not a bool, between low and high; each bound
    is inclusive unless it is open."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    above = real and math.isfinite(value) and (value > low if open_low else value >= low)
    if not (above and (value < high if open_high else value <= high)):
        bounds = f"{'>' if open_low else '>='} {low}"
        if high != math.inf:
            bounds = f"in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        raise ConfigError(f"{name} must be a finite number {bounds}, got {value!r}")


def read_text(path: Path, error: type[CrossmilError] = FormatError) -> str:
    """The UTF-8 text of the file at ``path``; bytes that are not UTF-8
    raise ``error`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from None


def check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")


def check_bool(name: str, value) -> None:
    if type(value) is not bool:
        raise ConfigError(f"{name} must be true or false, got {value!r}")
