"""Exception hierarchy shared by all windec modules.

Every error raised on a contract violation derives from :class:`WindecError`
so callers (and the CLI) can separate library failures from genuine bugs.
"""


class WindecError(Exception):
    """Base class for all windec errors."""


class ConfigError(WindecError):
    """Invalid or unparsable configuration input."""


class ShapeMismatchError(WindecError):
    """Tensor shapes are inconsistent for the requested operation."""


class RankError(WindecError):
    """Spatial rank of an argument does not match the operation."""


class DivisibilityError(WindecError):
    """An axis extent is not divisible into the requested number of parts."""


class DomainError(WindecError):
    """A scalar argument lies outside its mathematical domain."""


class PredictorContractError(WindecError):
    """A predictor returned output violating the window-to-center contract."""


class ProbeDomainTooSmall(WindecError):
    """The probe grid cannot contain the requested stencil footprint."""


class StabilityError(WindecError):
    """An explicit update cannot be sub-stepped into its stability region."""


class UnsupportedBoundary(WindecError):
    """The boundary convention is not supported by this operation."""


class FormatError(WindecError):
    """A serialized file is corrupt, truncated, or has the wrong version."""


class DegenerateSignal(WindecError):
    """A signal carries no spectral energy to analyze."""


class DegenerateTruth(WindecError):
    """Reference data has zero variance, so the metric is undefined."""


class SingularSystem(WindecError):
    """The least-squares normal equations are rank deficient."""


class WindowTooSmall(WindecError):
    """The window cannot contain the dependence region of the predictor."""


class WindowTooLarge(WindecError):
    """The window exceeds what the grid can support for this operation."""
