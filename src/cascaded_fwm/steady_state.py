"""Classical stationary amplitudes: closed forms and a relaxation oracle.

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

``relax_to_steady_state`` provides an independent numeric check: it
integrates the full (phase-unrestricted) equations from an arbitrary complex
initial condition and reports which analytic branch, if any, the endpoint
matches.  The equations carry a free relative phase between the generated
pairs, so matching compares moduli.  It rejects a non-finite start, a
non-finite or non-positive ``tol`` or ``t_max`` and a negative or NaN
``match_radius`` before integrating.

``drift``, the integrator's right-hand side and its convergence event share
one scalar drift kernel in Python ``complex`` arithmetic, built once per
call.  It does the same IEEE operations as numpy's complex128 scalars, so it
equals the ndarray drift bit for bit without its per-operation dispatch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NumericalError, ParameterError
from .params import (
    Mode,
    Regime,
    SystemParams,
    classify_regime,
    compute_thresholds,
)

_DIVERGENCE_BOUND = 1e4  # an amplitude modulus above this ends a relaxation as diverged


class Branch(enum.Enum):
    TRIVIAL = "trivial"
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class SteadyState:
    """A symmetric stationary solution with real, non-negative amplitudes.

    ``amplitudes`` holds (A_p2, A_p1, A_i1, A_s1, A_i2, A_s2) in canonical
    mode order; on the symmetric manifold A_p2 = A_p1 = A_a and so on.
    """

    amplitudes: np.ndarray
    branch: Branch
    regime: Regime

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != (6,):
            raise ParameterError(f"amplitudes must have shape (6,), got {amps.shape}")
        if np.any(amps < 0.0) or not np.all(np.isfinite(amps)):
            raise ParameterError("amplitudes must be finite and >= 0")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def a_a(self) -> float:
        return float(self.amplitudes[Mode.P1])

    @property
    def a_b(self) -> float:
        return float(self.amplitudes[Mode.S1])

    @property
    def a_c(self) -> float:
        return float(self.amplitudes[Mode.S2])

    def alpha(self) -> np.ndarray:
        """Amplitudes as a complex state vector usable by ``drift``."""
        return self.amplitudes.astype(complex)


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
        order.  Each branch computes A_b, A_c from its own A_a.
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
    """The analytic steady state of one branch, if the regime provides it."""
    want = Branch(branch) if not isinstance(branch, Branch) else branch
    states = analytic_steady_states(params)
    for state in states:
        if state.branch is want:
            return state
    available = ", ".join(s.branch.value for s in states)
    raise ParameterError(
        f"branch {want.value!r} does not exist in regime {states[0].regime.value} "
        f"(available: {available})"
    )


@dataclass(frozen=True)
class RelaxationResult:
    """Outcome of one relaxation run.

    ``status`` is "converged", "timeout" or "diverged".  ``matched`` holds the
    analytic branch whose amplitude moduli lie nearest the endpoint, provided
    the distance falls within the match radius; None otherwise.
    """

    status: str
    amplitudes: np.ndarray
    residual: float
    elapsed: float
    matched: SteadyState | None
    distance: float


def _match_branch(params: SystemParams, endpoint: np.ndarray, match_radius: float):
    candidates = sorted(analytic_steady_states(params), key=lambda s: s.a_a)
    moduli = np.abs(endpoint)
    best = None
    best_dist = math.inf
    for cand in candidates:  # sorted by A_a, so ties resolve to the smaller
        dist = float(np.max(np.abs(moduli - cand.amplitudes)))
        if dist < best_dist:
            best, best_dist = cand, dist
    if best is not None and best_dist <= match_radius:
        return best, best_dist
    return None, best_dist


def relax_to_steady_state(
    params: SystemParams,
    initial: np.ndarray,
    t_max: float = 1e5,
    tol: float = 1e-9,
    match_radius: float = 1e-6,
) -> RelaxationResult:
    """Integrate the amplitude equations until they stop moving.

    Runs an adaptive high-order Runge-Kutta integration (DOP853) of the full
    complex equations from ``initial`` until the drift infinity-norm falls
    below ``tol`` (converged), an amplitude modulus exceeds 1e4 (diverged),
    or ``t_max`` is reached (timeout; reported, not raised).
    The right-hand side and the convergence event evaluate one scalar drift
    kernel on the six amplitudes; its values equal ``drift``'s bit for bit.

    The generated pairs carry a free relative phase, so branch matching
    compares amplitude moduli against the closed-form branches; an endpoint
    counts as matched when the moduli agree within ``match_radius``.

    Raises ``ParameterError`` before integrating unless ``initial`` holds
    six finite amplitudes, ``tol`` and ``t_max`` are finite and > 0, and
    ``match_radius`` is >= 0 (NaN is rejected).
    """
    a0 = np.asarray(initial, dtype=complex)
    if a0.shape != (6,):
        raise ParameterError(f"initial must have shape (6,), got {a0.shape}")
    if not np.all(np.isfinite(a0)):
        raise ParameterError(f"initial must be finite, got {a0!r}")
    for name, value in (("tol", tol), ("t_max", t_max)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
    if not match_radius >= 0.0:
        raise ParameterError(f"match_radius must be >= 0, got {match_radius!r}")

    kernel = _drift_kernel(params)

    # Integrate the 12 real components u = (Re alpha, Im alpha) rather than
    # relying on complex support in the stepper.
    def rhs(t, u):
        v = u.tolist()
        f0, f1, f2, f3, f4, f5 = kernel(*map(complex, v[:6], v[6:]))
        return np.array([f0.real, f1.real, f2.real, f3.real, f4.real, f5.real,
                         f0.imag, f1.imag, f2.imag, f3.imag, f4.imag, f5.imag])

    # numpy's complex abs, not Python's abs: the two may differ in the last bit.
    def converged(t, u):
        v = u.tolist()
        f = np.array(kernel(*map(complex, v[:6], v[6:])))
        return float(np.max(np.abs(f))) - tol

    converged.terminal = True
    converged.direction = -1

    def diverged(t, u):
        a = u[:6] + 1j * u[6:]
        return float(np.max(np.abs(a))) - _DIVERGENCE_BOUND

    diverged.terminal = True
    diverged.direction = 1

    u0 = np.concatenate([a0.real, a0.imag])
    sol = solve_ivp(rhs, (0.0, t_max), u0, method="DOP853",
                    rtol=1e-9, atol=1e-12, events=(converged, diverged))
    if not sol.success:
        raise NumericalError(f"relaxation integrator failed: {sol.message}")
    u_end = sol.y[:, -1]
    a_end = u_end[:6] + 1j * u_end[6:]
    residual = float(np.max(np.abs(drift(params, a_end))))
    elapsed = float(sol.t[-1])

    if sol.t_events[1].size > 0:
        return RelaxationResult("diverged", a_end, residual, elapsed, None, math.inf)
    if sol.t_events[0].size == 0 and residual >= tol:
        return RelaxationResult("timeout", a_end, residual, elapsed, None, math.inf)
    matched, distance = _match_branch(params, a_end, match_radius)
    return RelaxationResult("converged", a_end, residual, elapsed, matched, distance)


def sample_initial_conditions(params: SystemParams, count: int, seed: int) -> np.ndarray:
    """Complex Gaussian initial conditions sized to the stationary amplitudes.

    Real and imaginary parts have standard deviation twice the largest
    analytic amplitude of the regime, or 1 when every amplitude is zero.
    """
    scale = 2.0 * max(float(np.max(s.amplitudes)) for s in analytic_steady_states(params))
    if scale == 0.0:
        scale = 1.0
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((count, 6)) + 1j * rng.standard_normal((count, 6)))


def basin_statistics(params: SystemParams, count: int, seed: int) -> dict:
    """Relax ``count`` random initial conditions and tally the endpoints.

    Each run relaxes with ``tol`` = 1e-10 and the default ``t_max`` and
    ``match_radius``.  Returns a dict with one entry per branch name plus
    "unmatched", "timeout" and "diverged".  The tallies are empirical
    properties of this ensemble only; nothing here claims a physical
    branch-selection law.
    """
    tallies = {b.value: 0 for b in Branch}
    tallies.update(unmatched=0, timeout=0, diverged=0)
    for a0 in sample_initial_conditions(params, count, seed):
        result = relax_to_steady_state(params, a0, tol=1e-10)
        if result.status != "converged":
            tallies[result.status] += 1
        elif result.matched is None:
            tallies["unmatched"] += 1
        else:
            tallies[result.matched.branch.value] += 1
    return tallies
