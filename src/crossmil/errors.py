"""Exception hierarchy shared across the package.

The CLI maps ``CrossmilError`` to exit code 2 (configuration/contract
problems) and ``OSError`` to exit code 3 (I/O problems).
"""


class CrossmilError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CrossmilError):
    """Tensor shapes or axes do not fit the requested operation."""


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
        self.split_id = split_id
        self.epoch = epoch


class GeometryError(CrossmilError):
    """A record's coordinates fall outside the rendering grid."""
