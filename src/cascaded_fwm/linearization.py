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
alpha, where the lower blocks are m2* and m1*.  It reads both blocks off
``_JACOBIAN_PLAN``, the write plan that ``steady_state._DRIFT_TERMS``
gives once, at import, and the order of its terms and factors matters:
fig2's witnesses turn a last-bit change of M into moves of about 1e-7.
``d`` comes straight from the second-derivative terms of the
Fokker-Planck equation; it is symmetric but in general indefinite, which
is why B may be complex.  Its six entries stay written out, because
two of them multiply their factors in the reverse of the table's order;
tests hold d equal to -m2 on the table's pairs.

``stationary_covariance`` solves the Lyapunov equation M Sigma + Sigma M^T
= D as the linear system (M (x) I + I (x) M) vec Sigma = vec D, of size 144
for the 12 stacked fluctuations, with one numpy solve; the module imports
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, StabilityError, StaleSteadyStateError
from .params import SystemParams
from .steady_state import _DRIFT_TERMS, I1, I2, P1, P2, S1, S2, SteadyState, drift

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


def _jacobian_plan() -> tuple:
    """The writes of ``jacobian_blocks``, three per drift term, in table order.

    Each entry is (block, row, col, coupling, sign, u, v, first): write
    -sign * k * z[u] * z[v] into entry (row, col) of m1 (block 0) or m2
    (block 1), where z = (alpha, alpha*) and k is the coupling.  The term
    sign * k * conj(alpha_c) * alpha_x * alpha_y contributes to m1[row, x]
    and m1[row, y] its derivatives by alpha_x and alpha_y, and to m2[row,
    c] the one by alpha_c*.  ``first`` marks an entry's first write, which
    is assigned rather than added onto a zero (0.0 + -0.0 is +0.0).
    """
    plan, written = [], set()
    for row, sign, coupling, c, x, y in _DRIFT_TERMS:
        for block, col, u, v in ((0, x, 6 + c, y), (0, y, 6 + c, x), (1, c, x, y)):
            plan.append((block, row, col, coupling, sign, u, v, (block, row, col) not in written))
            written.add((block, row, col))
    return tuple(plan)


_JACOBIAN_PLAN = _jacobian_plan()


def jacobian_blocks(params: SystemParams, alpha: np.ndarray):
    """Blocks m1 = -df/dalpha and m2 = -df/dalpha* at any alpha of shape (6,).

    m1 holds the damping on its diagonal, and both blocks then take the
    writes of ``_JACOBIAN_PLAN``: minus the derivatives of the
    ``_DRIFT_TERMS``, in table order with their factors as listed, each
    entry's first term assigned and the later ones added or subtracted onto
    it; see the module note for why the order matters.
    """
    a = np.asarray(alpha, dtype=complex)
    if a.shape != (6,):
        raise ParameterError(f"alpha must have shape (6,), got {a.shape}")
    z = np.concatenate((a, a.conj()))
    blocks = (np.diag(params.damping_rates()).astype(complex), np.zeros((6, 6), dtype=complex))
    for block, row, col, coupling, sign, u, v, first in _JACOBIAN_PLAN:
        k = getattr(params, coupling)
        if first:
            blocks[block][row, col] = -sign * k * z[u] * z[v]
        elif sign < 0:
            blocks[block][row, col] += k * z[u] * z[v]
        else:
            blocks[block][row, col] -= k * z[u] * z[v]
    return blocks


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
