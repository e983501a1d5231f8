"""Exception types shared across the package.

Three families, one per exit code of the command line, whose ``main``
reads the family's ``exit_code``: ``ParameterError`` (2) for configuration and
parameter problems, ``StabilityError`` (3) for stability and physicality
violations and ``NumericalError`` (4) for numerical failures.  Every other
type here belongs to one of them.
"""


class ParameterError(ValueError):
    """A model parameter set violates its constraints; ``key`` names the one at fault."""

    exit_code = 2

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConfigError(ParameterError):
    """A run configuration (file or derived settings) is invalid."""


class StaleSteadyStateError(ParameterError):
    """An operating point no longer satisfies the stationarity equations."""


class StabilityError(RuntimeError):
    """A computation requires a stable operating point and none was given."""

    exit_code = 3

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class PhysicalityError(StabilityError):
    """A matrix that must be (near) positive semidefinite is not."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its stated accuracy."""

    exit_code = 4


class BasisConsistencyError(NumericalError):
    """A basis change left a residue larger than the numerical budget."""


class StepSizeError(NumericalError):
    """An integrator step size violates its stability precondition."""


# The families ``cli.main`` turns into an exit code.
_FAMILIES = (ParameterError, StabilityError, NumericalError)
