"""Exception taxonomy shared by all volalign modules. Each class carries the
category and the exit code of the CLI's error line; a subclass names its own
category and inherits its base's exit code."""


class VolalignError(Exception):
    """Base class for every error raised by this package."""

    category = "error"
    exit_code = 1


class DimensionError(VolalignError):
    """Array shapes do not satisfy an operation's contract."""

    category = "dimension"
    exit_code = 8


class ConfigurationError(VolalignError):
    """A configuration value is out of range or inconsistent."""

    category = "config"
    exit_code = 3


class InputError(VolalignError):
    """An input value violates a precondition."""

    category = "input"
    exit_code = 5


class CapacityError(InputError):
    """A slice stack exceeds the positional-encoding capacity."""

    category = "capacity"


class BatchError(InputError):
    """A batch is too small for the contrastive objective."""

    category = "batch"


class ContractError(VolalignError):
    """An API contract was violated (non-scalar loss, reused tape, ...)."""

    category = "contract"
    exit_code = 9


class LoadError(VolalignError):
    """A manifest or data file could not be loaded."""

    category = "load"
    exit_code = 5


class FormatError(LoadError):
    """A binary container is malformed or truncated."""

    category = "format"


class CheckpointError(LoadError):
    """A checkpoint file is corrupt or has an unknown version."""

    category = "checkpoint"


class CompatibilityError(VolalignError):
    """A checkpoint does not match the requested configuration."""

    category = "compat"
    exit_code = 6


class DependencyError(VolalignError):
    """A prerequisite artifact (e.g. an earlier checkpoint) is missing."""

    category = "dependency"
    exit_code = 4


class NonFiniteError(VolalignError):
    """Training produced a non-finite loss or gradient."""

    category = "nonfinite"
    exit_code = 7


class EvaluationError(VolalignError):
    """An evaluation cannot be carried out on the given data."""

    category = "evaluation"
    exit_code = 6


class StratificationError(EvaluationError):
    """A class is too small to stratify into the requested folds."""

    category = "stratification"


class AmbiguityError(InputError):
    """Candidate captions collide after tokenization."""

    category = "ambiguity"


class WriteError(VolalignError):
    """An output file or directory could not be written."""

    category = "write"
    exit_code = 10
