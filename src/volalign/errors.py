"""Exception taxonomy shared by all volalign modules."""


class VolalignError(Exception):
    """Base class for every error raised by this package."""

    category = "error"


class DimensionError(VolalignError):
    """Tensor shapes do not satisfy an operation's contract."""

    category = "dimension"


class ConfigurationError(VolalignError):
    """A configuration value is out of range or inconsistent."""

    category = "config"


class InputError(VolalignError):
    """An input value violates a precondition."""

    category = "input"


class CapacityError(InputError):
    """A slice stack exceeds the positional-encoding capacity."""

    category = "capacity"


class BatchError(InputError):
    """A batch is too small for the contrastive objective."""

    category = "batch"


class ContractError(VolalignError):
    """An API contract was violated (non-scalar loss, reused tape, ...)."""

    category = "contract"


class LoadError(VolalignError):
    """A manifest or data file could not be loaded."""

    category = "load"


class FormatError(LoadError):
    """A binary container is malformed or truncated."""

    category = "format"


class CheckpointError(LoadError):
    """A checkpoint file is corrupt or has an unknown version."""

    category = "checkpoint"


class CompatibilityError(VolalignError):
    """A checkpoint does not match the requested configuration."""

    category = "compat"


class DependencyError(VolalignError):
    """A prerequisite artifact (e.g. an earlier checkpoint) is missing."""

    category = "dependency"


class NonFiniteError(VolalignError):
    """Training produced a non-finite loss or gradient."""

    category = "nonfinite"


class EvaluationError(VolalignError):
    """An evaluation cannot be carried out on the given data."""

    category = "evaluation"


class StratificationError(EvaluationError):
    """A class is too small to stratify into the requested folds."""

    category = "stratification"


class AmbiguityError(InputError):
    """Candidate captions collide after tokenization."""

    category = "ambiguity"
