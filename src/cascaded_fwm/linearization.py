"""Linearized fluctuation dynamics around a stationary point.

Writing alpha = A + delta_alpha and keeping first order gives a linear
Langevin system for the stacked fluctuation vector
(delta_alpha, delta_alpha*):

    d(delta)/dt = -M delta + B eta,   B B^T = D,

with M the negative Jacobian of the doubled drift and D the diffusion
matrix of the P-representation Fokker-Planck equation.  At the real
amplitudes of a ``SteadyState`` both are real, and
``build_fluctuation_model`` builds them as float64, behind one check that
the state is stationary:

    M = [[m1, m2], [m2, m1]],    D = [[d, 0], [0, d]].

``jacobian_blocks`` stays complex: it differentiates the drift at any
alpha, where the lower blocks are m2* and m1*.  ``d`` comes straight from
the second-derivative terms of the Fokker-Planck equation; it is symmetric
but in general indefinite, which is why B may be complex.

``stationary_covariance`` solves the Lyapunov equation M Sigma + Sigma M^T
= D as the linear system (M (x) I + I (x) M) vec Sigma = vec D, of size 144
for the 12 stacked fluctuations, with one numpy solve; the module imports
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StabilityError, StaleSteadyStateError
from .params import Mode, SystemParams
from .steady_state import SteadyState, drift

P2, P1, I1, S1, I2, S2 = (int(m) for m in Mode)

_STALE_RESIDUAL = 1e-8
_MARGIN_INDETERMINATE = 1e-10


@dataclass(frozen=True)
class FluctuationModel:
    """Drift matrix, diffusion matrix and the operating point they describe."""

    params: SystemParams
    steady_state: SteadyState
    m: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    """Spectral stability of the fluctuation drift matrix.

    ``margin`` is min(Re eig(M)).  ``indeterminate`` flags margins within
    1e-10 of zero, where roundoff decides the sign, and ``stable`` (the
    linearized dynamics decay) needs a positive margin outside that band.
    """

    eigenvalues: np.ndarray
    stable: bool
    margin: float
    indeterminate: bool


def jacobian_blocks(params: SystemParams, alpha: np.ndarray):
    """Blocks m1 = -df/dalpha and m2 = -df/dalpha* at arbitrary amplitudes.

    Entry (i, j) of m1 is minus the derivative of drift row i with respect
    to alpha_j; m2 differentiates with respect to alpha_j*.  Valid at any
    complex alpha, not only stationary points.
    """
    a = np.asarray(alpha, dtype=complex)
    p2, p1, i1, s1, i2, s2 = a
    k1, k2, k3 = params.k1, params.k2, params.k3
    ga, gb, gc = params.gamma_a, params.gamma_b, params.gamma_c
    c = np.conj

    m1 = np.zeros((6, 6), dtype=complex)
    m2 = np.zeros((6, 6), dtype=complex)

    m1[P2, P2] = ga
    m1[P2, P1] = k2 * c(i1) * i2 - k3 * c(s2) * s1
    m1[P2, I1] = k1 * c(p1) * s1
    m1[P2, S1] = k1 * c(p1) * i1 - k3 * c(s2) * p1
    m1[P2, I2] = k2 * c(i1) * p1
    m2[P2, P1] = k1 * s1 * i1
    m2[P2, I1] = k2 * p1 * i2
    m2[P2, S2] = -k3 * s1 * p1

    m1[P1, P2] = k3 * c(s1) * s2 - k2 * c(i2) * i1
    m1[P1, P1] = ga
    m1[P1, I1] = k1 * c(p2) * s1 - k2 * c(i2) * p2
    m1[P1, S1] = k1 * c(p2) * i1
    m1[P1, S2] = k3 * c(s1) * p2
    m2[P1, P2] = k1 * s1 * i1
    m2[P1, S1] = k3 * p2 * s2
    m2[P1, I2] = -k2 * i1 * p2

    m1[I1, P2] = -k1 * c(s1) * p1
    m1[I1, P1] = -k1 * c(s1) * p2 + k2 * c(p2) * i2
    m1[I1, I1] = gb
    m1[I1, I2] = k2 * c(p2) * p1
    m2[I1, P2] = k2 * p1 * i2
    m2[I1, S1] = -k1 * p1 * p2

    m1[S1, P2] = -k1 * c(i1) * p1 + k3 * c(p1) * s2
    m1[S1, P1] = -k1 * c(i1) * p2
    m1[S1, S1] = gb
    m1[S1, S2] = k3 * c(p1) * p2
    m2[S1, P1] = k3 * p2 * s2
    m2[S1, I1] = -k1 * p1 * p2

    m1[I2, P2] = -k2 * c(p1) * i1
    m1[I2, I1] = -k2 * c(p1) * p2
    m1[I2, I2] = gc
    m2[I2, P1] = -k2 * p2 * i1

    m1[S2, P1] = -k3 * c(p2) * s1
    m1[S2, S1] = -k3 * c(p2) * p1
    m1[S2, S2] = gc
    m2[S2, P2] = -k3 * p1 * s1

    return m1, m2


def _require_stationary(params: SystemParams, ss: SteadyState):
    """Refuse a state whose drift residual exceeds 1e-8 of the drift's largest term.

    With a = max|alpha|, no term of the drift exceeds max(epsilon,
    gamma_max a, k_max a^3), and every term scales with the rates, so the
    verdict does not depend on their unit.
    """
    a_max = float(np.max(np.abs(ss.amplitudes)))
    budget = _STALE_RESIDUAL * max(params.epsilon,
                                   max(params.gamma_a, params.gamma_b, params.gamma_c) * a_max,
                                   max(params.k1, params.k2, params.k3) * a_max * a_max * a_max)
    residual = float(np.max(np.abs(drift(params, ss.amplitudes))))
    if not residual <= budget < np.inf:  # NaN fails, and so does an overflowed budget
        raise StaleSteadyStateError(
            f"state is not stationary for these parameters "
            f"(drift residual {residual:.3e} > {budget:.3e}); "
            "rebuild the steady state after changing params"
        )


def build_fluctuation_model(params: SystemParams, ss: SteadyState) -> FluctuationModel:
    """M and D at one stationary point, float64 as the amplitudes are real.

    Raises ``StaleSteadyStateError`` unless ``ss`` is stationary for
    ``params``.  M = [[m1, m2], [m2, m1]] holds the analytic Jacobian
    blocks.  D = [[d, 0], [0, d]], where the 6x6 block d collects the
    second-derivative coefficients of the Fokker-Planck equation; its only
    nonzero entries sit on the mode pairs created or annihilated together
    by one of the three processes.
    """
    _require_stationary(params, ss)
    m1, m2 = (block.real for block in jacobian_blocks(params, ss.amplitudes))
    p2, p1, i1, s1, i2, s2 = ss.amplitudes
    k1, k2, k3 = params.k1, params.k2, params.k3

    d = np.zeros((6, 6))
    d[P2, P1] = -k1 * s1 * i1
    d[P2, I1] = -k2 * i2 * p1
    d[P2, S2] = k3 * s1 * p1
    d[P1, S1] = -k3 * s2 * p2
    d[P1, I2] = k2 * i1 * p2
    d[I1, S1] = k1 * p1 * p2
    d = d + d.T

    zero = np.zeros((6, 6))
    return FluctuationModel(params=params, steady_state=ss,
                            m=np.block([[m1, m2], [m2, m1]]),
                            d=np.block([[d, zero], [zero, d]]))


def stability(m: np.ndarray) -> StabilityReport:
    """Eigenvalue stability of the drift matrix (decay iff margin >= 1e-10)."""
    eigenvalues = np.linalg.eigvals(np.asarray(m))
    margin = float(np.min(eigenvalues.real))
    indeterminate = abs(margin) < _MARGIN_INDETERMINATE
    return StabilityReport(
        eigenvalues=eigenvalues,
        stable=margin > 0.0 and not indeterminate,
        margin=margin,
        indeterminate=indeterminate,
    )


def _require_decaying(m: np.ndarray, needs: str) -> StabilityReport:
    """The stability report of ``m``, which must be stable.

    The one gate in front of everything that assumes the fluctuations decay
    (stationary moments, the spectral integral, the simulators); ``needs``
    opens the ``StabilityError`` message, which carries the margin.
    """
    report = stability(m)
    if not report.stable:
        raise StabilityError(
            f"{needs} a decisively decaying drift (margin {report.margin:.3e})",
            margin=report.margin,
        )
    return report


def stationary_covariance(model: FluctuationModel) -> np.ndarray:
    """Stationary second moments Sigma with M Sigma + Sigma M^T = D.

    Solves the continuous Lyapunov equation for the unconjugated moments
    <delta delta^T> of the stacked fluctuation vector, float64 for the real
    M and D of ``build_fluctuation_model``.  Raises
    ``StabilityError`` unless the drift decisively decays (``stability``
    neither unstable nor indeterminate); the residual of the returned
    solution is verified.  With the row-major vec, M Sigma is
    (M (x) I) vec Sigma and Sigma M^T is (I (x) M) vec Sigma, so one LU
    solve of the n^2 x n^2 Kronecker sum gives Sigma.
    """
    _require_decaying(model.m, "stationary covariance needs")
    n = model.m.shape[0]
    eye = np.eye(n)
    kron_sum = np.kron(model.m, eye) + np.kron(eye, model.m)
    sigma = np.linalg.solve(kron_sum, model.d.reshape(n * n)).reshape(n, n)
    residual = np.max(np.abs(model.m @ sigma + sigma @ model.m.T - model.d))
    budget = 1e-10 * max(np.max(np.abs(model.d)), 1e-300)
    if not residual <= max(budget, 1e-14):  # NaN fails
        raise NumericalError(
            f"Lyapunov solve residual {residual:.3e} exceeds budget {budget:.3e}"
        )
    return sigma
