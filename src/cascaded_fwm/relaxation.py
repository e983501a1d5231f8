"""Relaxation oracle: integrate the amplitude equations to a stationary point.

``relax_to_steady_state`` provides an independent numeric check of the
closed-form branches of ``steady_state``: it integrates the full
(phase-unrestricted) equations from an arbitrary complex initial condition
with scipy's DOP853 and reports which analytic branch, if any, the endpoint
matches.  The equations carry a free relative phase between the generated
pairs, so matching compares moduli.  It rejects a non-finite start, a
non-finite or non-positive ``tol`` or ``t_max`` and a negative or NaN
``match_radius`` before integrating.  ``sample_initial_conditions`` draws
seeded starts sized to the regime, and ``basin_statistics`` tallies where
they end.

The integrator's right-hand side and its convergence event share the scalar
drift kernel of ``steady_state.drift``, so they equal the ndarray drift bit
for bit.

This is the one module of the package that imports scipy at its top, so a
caller pays for scipy when it first reaches relaxation (``steady_state`` and
the package forward these names on first access), never in the middle of a
relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NumericalError, ParameterError
from .monte_carlo import _require_count
from .params import SystemParams
from .steady_state import (
    Branch,
    SteadyState,
    _drift_kernel,
    _match_branch,
    analytic_steady_states,
    drift,
)

_DIVERGENCE_BOUND = 1e4  # an amplitude modulus above this ends a relaxation as diverged


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
    The event reuses the values the right-hand side just computed at the
    same state.

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

    # The last right-hand side input (as a list) and its kernel values.
    last = [None, None]

    # Integrate the 12 real components u = (Re alpha, Im alpha) rather than
    # relying on complex support in the stepper.
    def rhs(t, u):
        v = u.tolist()
        f = kernel(*map(complex, v[:6], v[6:]))
        last[:] = v, f
        f0, f1, f2, f3, f4, f5 = f
        return np.array([f0.real, f1.real, f2.real, f3.real, f4.real, f5.real,
                         f0.imag, f1.imag, f2.imag, f3.imag, f4.imag, f5.imag])

    # DOP853 hands each accepted state to the events right after its FSAL
    # right-hand side, so the kernel runs here only inside root finding.
    # numpy's complex abs, not Python's abs: the two may differ in the last bit.
    def converged(t, u):
        v = u.tolist()
        f = last[1] if v == last[0] else kernel(*map(complex, v[:6], v[6:]))
        return float(np.max(np.abs(np.array(f)))) - tol

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
    ``count`` and ``seed`` must be integers >= 0 (``ParameterError``
    otherwise).
    """
    count = _require_count("count", count, 0)
    seed = _require_count("seed", seed, 0)
    scale = 2.0 * max(float(np.max(s.amplitudes)) for s in analytic_steady_states(params))
    if scale == 0.0:
        scale = 1.0
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((count, 6)) + 1j * rng.standard_normal((count, 6)))


def basin_statistics(params: SystemParams, count: int, seed: int) -> dict:
    """Relax ``count`` random initial conditions and tally the endpoints.

    Each run relaxes with ``tol`` = 1e-10 and the default ``t_max`` and
    ``match_radius``; ``count`` and ``seed`` are checked as in
    ``sample_initial_conditions``.  Returns a dict with one entry per
    branch name plus "unmatched", "timeout" and "diverged".  The tallies
    are empirical properties of this ensemble only; nothing here claims a
    physical branch-selection law.
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
