"""Exception types shared across the package.

The command line driver maps these onto exit codes: configuration and
parameter problems exit with 2, stability and physicality violations with 3,
and numerical failures with 4.
"""


class ParameterError(ValueError):
    """A model parameter set violates its constraints; ``key`` names the one at fault."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConfigError(ParameterError):
    """A run configuration (file or derived settings) is invalid."""


class StaleSteadyStateError(ValueError):
    """An operating point no longer satisfies the stationarity equations."""


class StabilityError(RuntimeError):
    """A computation requires a stable operating point and none was given."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class PhysicalityError(RuntimeError):
    """A matrix that must be (near) positive semidefinite is not."""


class BasisConsistencyError(RuntimeError):
    """A basis change left a residue larger than the numerical budget."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its stated accuracy."""


class StepSizeError(ValueError):
    """An integrator step size violates its stability precondition."""
