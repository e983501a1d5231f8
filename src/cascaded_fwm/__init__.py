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

The package, its CLI and its relaxation oracle (``relax_to_steady_state``,
a numpy port of scipy's DOP853) need numpy alone.
"""

from types import ModuleType as _ModuleType

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
    hopf_epsilon,
    resolve_epsilon,
)
from .relaxation import (
    RelaxationResult,
    basin_statistics,
    relax_to_steady_state,
    sample_initial_conditions,
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

# Every public name imported above and the version.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += ["__version__"]
