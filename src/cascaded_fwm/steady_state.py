"""Classical stationary amplitudes in closed form.

The mean-field equations of motion for the six intracavity amplitudes
follow from the cascaded interaction Hamiltonian in the P representation.
On the symmetric manifold (equal pumps, k2 == k3) the stationary solutions
are known in closed form:

* a trivial branch with only the pumps occupied, A_a = eps / gamma_a;
* between the thresholds, one converted branch pinned at A_a = eps_th / gamma_a;
* above the upper threshold, a second branch at A_a = eps_th_prime / gamma_a.

For the converted branches the daughter amplitudes follow from

    A_b = sqrt((eps - gamma_a A_a) / (k1 A_a)),
    A_c = k2 A_a**2 A_b / gamma_c.

``Branch`` is the one list of branch names, which the CLI's ``branch`` key
reads, and ``state_for_branch`` the one refusal of a branch a regime lacks.

``drift`` evaluates one scalar drift kernel in Python ``complex``
arithmetic, built once per call.  It does the same IEEE operations as
numpy's complex128 scalars, so it equals an ndarray drift bit for bit
without its per-operation dispatch; the relaxation oracle shares it.

The relaxation oracle (``relax_to_steady_state``, ``RelaxationResult``,
``sample_initial_conditions`` and ``basin_statistics``) lives in
``relaxation``, which imports this module.  Those four names are still
readable here: the module ``__getattr__`` (PEP 562) loads ``relaxation`` on
first access, since importing it at the top would be circular.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .params import Regime, SystemParams, classify_regime, compute_thresholds

# Read from ``relaxation`` on first access.
_RELAXATION_NAMES = frozenset(
    ("RelaxationResult", "basin_statistics", "relax_to_steady_state",
     "sample_initial_conditions"))


def __getattr__(name):
    if name in _RELAXATION_NAMES:
        from . import relaxation

        return getattr(relaxation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Branch(enum.Enum):
    TRIVIAL = "trivial"
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class SteadyState:
    """A symmetric stationary solution with real, non-negative amplitudes.

    ``amplitudes`` holds (A_p2, A_p1, A_i1, A_s1, A_i2, A_s2) in canonical
    mode order as float64; on the symmetric manifold A_p2 = A_p1 = A_a and
    so on.  A nonzero imaginary part raises ``ParameterError``.
    """

    amplitudes: np.ndarray
    branch: Branch
    regime: Regime

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if np.iscomplexobj(amps) and np.any(amps.imag != 0.0):
            raise ParameterError("amplitudes must be real (nonzero imaginary part)")
        amps = np.asarray(amps.real, dtype=float)
        if amps.shape != (6,):
            raise ParameterError(f"amplitudes must have shape (6,), got {amps.shape}")
        if np.any(amps < 0.0) or not np.all(np.isfinite(amps)):
            raise ParameterError("amplitudes must be finite and >= 0")
        object.__setattr__(self, "amplitudes", amps)


def _drift_kernel(params: SystemParams):
    """The drift as a function of six Python ``complex`` amplitudes.

    Returns ``kernel(p2, p1, i1, s1, i2, s2) -> tuple of 6 complex``.  Each
    component keeps the left-to-right operand order of the numpy drift it
    replaced, which is what keeps the two equal bit for bit.
    """
    eps = float(params.epsilon)
    k1, k2, k3 = float(params.k1), float(params.k2), float(params.k3)
    ga, gb, gc = float(params.gamma_a), float(params.gamma_b), float(params.gamma_c)

    def kernel(p2, p1, i1, s1, i2, s2):
        cp2, cp1, ci1, cs1, ci2, cs2 = (
            p2.conjugate(), p1.conjugate(), i1.conjugate(),
            s1.conjugate(), i2.conjugate(), s2.conjugate())
        return (
            eps - ga * p2 - k1 * cp1 * s1 * i1 - k2 * ci1 * p1 * i2 + k3 * cs2 * s1 * p1,
            eps - ga * p1 - k1 * cp2 * s1 * i1 - k3 * cs1 * p2 * s2 + k2 * ci2 * i1 * p2,
            -gb * i1 + k1 * cs1 * p1 * p2 - k2 * cp2 * p1 * i2,
            -gb * s1 + k1 * ci1 * p1 * p2 - k3 * cp1 * p2 * s2,
            -gc * i2 + k2 * cp1 * p2 * i1,
            -gc * s2 + k3 * cp2 * p1 * s1,
        )

    return kernel


def drift(params: SystemParams, alpha: np.ndarray) -> np.ndarray:
    """Deterministic part of the equations of motion, d(alpha)/dt.

    Parameters
    ----------
    params : SystemParams
    alpha : array_like, shape (6,), complex
        Intracavity amplitudes in canonical mode order (p2, p1, i1, s1, i2, s2).

    Returns
    -------
    numpy.ndarray, shape (6,), complex
        The right-hand side of the six amplitude equations.  Both pumps are
        driven by the same real amplitude ``params.epsilon``.
    """
    a = np.asarray(alpha, dtype=complex)
    if a.shape != (6,):
        raise ParameterError(f"alpha must have shape (6,), got {a.shape}")
    return np.array(_drift_kernel(params)(*a.tolist()))


def _converted_state(params: SystemParams, a_a: float, branch: Branch,
                     regime: Regime) -> SteadyState:
    # Radicand is non-negative whenever eps exceeds the branch threshold;
    # tolerate rounding dust, anything beyond that is an internal error.
    radicand = (params.epsilon - params.gamma_a * a_a) / (params.k1 * a_a)
    if radicand < 0.0:
        if radicand > -1e-12 * (1.0 + abs(params.epsilon)):
            radicand = 0.0
        else:
            raise NumericalError(
                f"negative radicand {radicand!r} for branch {branch.value}; "
                "operating point inconsistent with its regime"
            )
    a_b = math.sqrt(radicand)
    a_c = params.k2 * a_a**2 * a_b / params.gamma_c
    amps = np.array([a_a, a_a, a_b, a_b, a_c, a_c])
    return SteadyState(amplitudes=amps, branch=branch, regime=regime)


def analytic_steady_states(params: SystemParams) -> list[SteadyState]:
    """All closed-form stationary solutions for the current regime.

    Returns
    -------
    list of SteadyState
        Below threshold (or without one): the trivial pumps-only solution.
        Between the thresholds: the single converted branch.
        Above the upper threshold: the lower and upper branches, in that
        order, which is ascending A_a.  Each branch computes A_b, A_c from
        its own A_a.
    """
    thresholds = compute_thresholds(params)
    regime = classify_regime(params, thresholds)
    if regime in (Regime.NO_THRESHOLD, Regime.BELOW_THRESHOLD):
        a_a = params.epsilon / params.gamma_a
        amps = np.array([a_a, a_a, 0.0, 0.0, 0.0, 0.0])
        return [SteadyState(amplitudes=amps, branch=Branch.TRIVIAL, regime=regime)]
    lower = _converted_state(params, thresholds.eps_th / params.gamma_a,
                             Branch.LOWER, regime)
    if regime is Regime.BETWEEN_THRESHOLDS:
        return [lower]
    upper = _converted_state(params, thresholds.eps_th_prime / params.gamma_a,
                             Branch.UPPER, regime)
    return [lower, upper]


def state_for_branch(params: SystemParams, branch: Branch | str) -> SteadyState:
    """The analytic steady state of one branch, if the regime provides it.

    ``branch`` is a ``Branch`` or its value; anything else, like a branch
    the regime lacks, raises ``ParameterError``.
    """
    try:
        want = Branch(branch)
    except ValueError:
        valid = ", ".join(b.value for b in Branch)
        raise ParameterError(f"unknown branch {branch!r} (valid: {valid})") from None
    states = analytic_steady_states(params)
    for state in states:
        if state.branch is want:
            return state
    available = ", ".join(s.branch.value for s in states)
    raise ParameterError(
        f"branch {want.value!r} does not exist in regime {states[0].regime.value} "
        f"(available: {available})"
    )


def _match_branch(params: SystemParams, endpoint: np.ndarray, match_radius: float):
    """The analytic branch nearest ``endpoint`` in amplitude moduli, and the distance.

    The branch is None unless the distance is within ``match_radius``.
    """
    moduli = np.abs(endpoint)
    best = None
    best_dist = math.inf
    # The branches come in ascending A_a, so ties resolve to the smaller.
    for cand in analytic_steady_states(params):
        dist = float(np.max(np.abs(moduli - cand.amplitudes)))
        if dist < best_dist:
            best, best_dist = cand, dist
    if best is not None and best_dist <= match_radius:
        return best, best_dist
    return None, best_dist
