"""Six-mode entanglement analysis of a cascaded four-wave-mixing cavity.

Three chained four-wave-mixing processes inside one driven cavity couple a
pair of pump modes to two signal/idler pairs.  This package computes the
classical steady states of that cascade (pump thresholds, branch
amplitudes, relaxation basins), linearizes the quantum fluctuations around
them (drift and diffusion matrices of the equivalent Ornstein-Uhlenbeck
process), propagates the intracavity spectra to the measurable output
fields, and optimizes van Loock-Furusawa combination inequalities whose
violations certify full six-partite inseparability (for a mixed state, not
genuine multipartite entanglement) of the continuous-variable output.

A Monte-Carlo oracle (Takagi noise factorization plus Euler-Maruyama
ensembles) cross-checks the analytic spectra and covariances, and a small
CLI turns the standard parameter sets into CSV data files.

Importing the package, its CLI included, loads numpy alone.  The relaxation
oracle (``relax_to_steady_state``, ``RelaxationResult``,
``sample_initial_conditions``, ``basin_statistics``) needs scipy; the module
``__getattr__`` (PEP 562) imports it with ``relaxation`` on first access.
"""

from .errors import (
    BasisConsistencyError,
    ConfigError,
    NumericalError,
    ParameterError,
    PhysicalityError,
    StabilityError,
    StaleSteadyStateError,
    StepSizeError,
)
from .linearization import (
    FluctuationModel,
    StabilityReport,
    build_diffusion_matrix,
    build_drift_matrix,
    build_fluctuation_model,
    jacobian_blocks,
    stability,
    stationary_covariance,
)
from .monte_carlo import (
    NoiseFactor,
    SpectrumEstimate,
    TrajectoryEnsemble,
    default_step,
    estimate_spectrum,
    factor_diffusion,
    mc_stationary_covariance,
    simulate_ou,
    takagi,
)
from .params import (
    MODE_LABELS,
    SWAP_PERMUTATION,
    Mode,
    Regime,
    SystemParams,
    Thresholds,
    classify_regime,
    compute_thresholds,
    resolve_epsilon,
)
from .spectra import (
    QUADRATURE_LABELS,
    QuadratureSpectrum,
    integrated_spectrum,
    output_spectra,
    output_spectrum,
    quadrature_transform,
    spectral_matrix,
)
from .steady_state import (
    _RELAXATION_NAMES,
    Branch,
    SteadyState,
    analytic_steady_states,
    drift,
    state_for_branch,
)
from .vlf import (
    INEQUALITIES,
    SYMMETRY_CLASSES,
    VlfInequality,
    VlfResult,
    build_branch_model,
    class_members,
    evaluate_inequality,
    inequality_by_label,
    min_over_frequency,
    minima_over_models,
    optimize_gains,
    sweep_frequency,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _RELAXATION_NAMES:
        from . import relaxation

        return getattr(relaxation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BasisConsistencyError",
    "Branch",
    "ConfigError",
    "FluctuationModel",
    "INEQUALITIES",
    "MODE_LABELS",
    "Mode",
    "NoiseFactor",
    "NumericalError",
    "ParameterError",
    "PhysicalityError",
    "QUADRATURE_LABELS",
    "QuadratureSpectrum",
    "Regime",
    "RelaxationResult",
    "SWAP_PERMUTATION",
    "SYMMETRY_CLASSES",
    "SpectrumEstimate",
    "StabilityError",
    "StabilityReport",
    "StaleSteadyStateError",
    "SteadyState",
    "StepSizeError",
    "SystemParams",
    "Thresholds",
    "TrajectoryEnsemble",
    "VlfInequality",
    "VlfResult",
    "analytic_steady_states",
    "basin_statistics",
    "build_branch_model",
    "build_diffusion_matrix",
    "build_drift_matrix",
    "build_fluctuation_model",
    "class_members",
    "classify_regime",
    "compute_thresholds",
    "drift",
    "default_step",
    "estimate_spectrum",
    "evaluate_inequality",
    "factor_diffusion",
    "inequality_by_label",
    "integrated_spectrum",
    "jacobian_blocks",
    "mc_stationary_covariance",
    "min_over_frequency",
    "minima_over_models",
    "optimize_gains",
    "output_spectra",
    "output_spectrum",
    "quadrature_transform",
    "relax_to_steady_state",
    "resolve_epsilon",
    "sample_initial_conditions",
    "simulate_ou",
    "spectral_matrix",
    "stability",
    "state_for_branch",
    "stationary_covariance",
    "sweep_frequency",
    "takagi",
    "__version__",
]
