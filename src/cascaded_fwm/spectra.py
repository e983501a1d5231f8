"""Fluctuation spectra in the amplitude and quadrature bases.

The linear Langevin system has the two-sided spectral matrix

    S(omega) = (M + i omega I)^-1 D (M^T - i omega I)^-1,

computed here with linear solves rather than explicit inverses.  The
amplitude quadratures X = a + a*, Y = -i (a - a*) (so [X, Y] = 2i and the
vacuum variance is 1) are reached through the fixed block transform

    T = [[I, I], [-i I, i I]],    V(omega) = T S(omega) T^T,

and the measurable output spectra follow from the input-output relation

    v_out(omega) = I + 2 G^(1/2) V(omega) G^(1/2),

with G the diagonal matrix of mode damping rates (each repeated for X and
Y).  ``integrated_spectrum`` closes the loop back to the stationary
covariance: (1/2pi) Integral S d omega over the real line equals the
Lyapunov solution, which the tests use as a cross-module identity.

``output_spectra`` evaluates a whole frequency grid with stacked solves;
the single-frequency functions are its one-point views, so both routes
share one implementation and agree bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec

from .errors import BasisConsistencyError, NumericalError, ParameterError, StabilityError
from .linearization import FluctuationModel, stability
from .params import MODE_LABELS, SystemParams

logger = logging.getLogger(__name__)

QUADRATURE_LABELS = tuple(f"X{m}" for m in MODE_LABELS) + tuple(
    f"Y{m}" for m in MODE_LABELS
)

_RESIDUE_BUDGET = 1e-9
_SOLVE_BUDGET = 1e-8
# Frequencies per stacked solve in ``output_spectra``: bounds the complex
# temporaries of a long grid without giving up the batched LAPACK calls.
_GRID_CHUNK = 64

_EYE6 = np.eye(6)
_T = np.block([[_EYE6, _EYE6], [-1j * _EYE6, 1j * _EYE6]])
_T.flags.writeable = False


def quadrature_basis_matrix() -> np.ndarray:
    """The 12x12 block transform T mapping (alpha, alpha*) to (X, Y).

    Returns the read-only module constant.
    """
    return _T


@dataclass(frozen=True)
class QuadratureSpectrum:
    """Output quadrature spectral matrix at one analysis frequency.

    ``omega`` is absolute (same inverse-time unit as the damping rates);
    ``omega_norm`` is the externally reported omega / gamma_a.  ``v_out``
    is real symmetric in the (X_p2..X_s2, Y_p2..Y_s2) basis with vacuum
    normalized to the identity.
    """

    omega: float
    omega_norm: float
    v_out: np.ndarray


def _spectral_stack(m: np.ndarray, d: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """S(omega) for every entry of the 1-D array ``omegas``, shape (n, N, N).

    ``m`` and ``d`` are one (N, N) matrix each, or a stack of n with one
    drift and diffusion matrix per frequency.  Each of the two solves is
    one stacked LAPACK call, which solves slice by slice; the residual
    guard of ``spectral_matrix`` is applied to every frequency separately,
    with the budget scaled by its own 1 + max|D|, and names the first one
    that fails it.
    """
    shift = (1j * omegas)[:, None, None] * np.eye(m.shape[-1])
    lhs = m + shift
    x = np.linalg.solve(lhs, d)
    residual = np.abs(lhs @ x - d).max(axis=(1, 2))
    scale = 1.0 + np.abs(d).max(axis=(-2, -1))
    failed = residual > _SOLVE_BUDGET * scale * (1.0 + np.abs(x).max(axis=(1, 2)))
    if failed.any():
        k = int(failed.argmax())
        raise NumericalError(
            f"ill-conditioned spectral solve at omega={float(omegas[k])!r}: "
            f"residual {residual[k]:.3e}")
    return np.linalg.solve(m - shift, x.transpose(0, 2, 1)).transpose(0, 2, 1)


def _quadrature_stack(s: np.ndarray, omegas=None) -> np.ndarray:
    """Real symmetric part of T s T^T for a stack s of shape (n, 12, 12).

    The Hermitian-residue guard of ``quadrature_transform`` is applied to
    every matrix separately; when ``omegas`` is given, the error names the
    first frequency that fails it.
    """
    v = _T @ s @ _T.T
    scale = 1.0 + np.abs(v).max(axis=(1, 2))
    residue = np.abs(v - v.conj().transpose(0, 2, 1)).max(axis=(1, 2)) / 2.0
    failed = residue > _RESIDUE_BUDGET * scale
    if failed.any():
        k = int(failed.argmax())
        where = "" if omegas is None else f" at omega={float(omegas[k])!r}"
        raise BasisConsistencyError(
            f"quadrature spectrum not Hermitian{where}: residue "
            f"{residue[k]:.3e} exceeds {_RESIDUE_BUDGET:.0e} * {scale[k]:.3e}"
        )
    if logger.isEnabledFor(logging.DEBUG):
        k = int(np.argmax(residue / scale))
        logger.debug("quadrature transform residue %.3e (scale %.3e)",
                     residue[k], scale[k])
    sym = (v + v.transpose(0, 2, 1)) / 2.0
    return sym.real.copy()


def _input_output(v_intra: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """v_out = I + 2 G^(1/2) V G^(1/2) for one matrix or a stack.

    ``rates`` holds the six mode damping rates, once or once per matrix.
    """
    gains = np.sqrt(np.tile(rates, 2))
    return np.eye(12) + 2.0 * gains[..., :, None] * v_intra * gains[..., None, :]


def _output_stack(m: np.ndarray, d: np.ndarray, rates: np.ndarray,
                  omegas: np.ndarray) -> np.ndarray:
    """v_out row by row: row k on drift m[k], diffusion d[k], rates[k] at omegas[k].

    ``m`` and ``d`` have shape (n, 12, 12), ``rates`` (n, 6) and ``omegas``
    (n,); rows may come from different models.  Every row runs the
    per-slice solves, guards and transforms of ``output_spectra``, in
    stacks of at most 64 rows, so it equals that model's own evaluation at
    that frequency bit for bit.  A guard names the first row that fails
    it; when both guards fail inside one stack, the solve guard is
    reported.
    """
    v_out = np.empty((omegas.size, 12, 12))
    for start in range(0, omegas.size, _GRID_CHUNK):
        rows = slice(start, start + _GRID_CHUNK)
        chunk = omegas[rows]
        v_intra = _quadrature_stack(_spectral_stack(m[rows], d[rows], chunk), chunk)
        v_out[rows] = _input_output(v_intra, rates[rows])
    return v_out


def output_spectra(model: FluctuationModel, omegas) -> np.ndarray:
    """Output quadrature spectra v_out over a grid of absolute omega.

    Returns an array of shape (n, 12, 12) whose k-th entry equals
    ``output_spectrum_at(model, omegas[k]).v_out`` exactly: the same
    solves, guards and transforms, evaluated in stacks of at most 64
    frequencies.  Each guard is applied per frequency and names the first
    frequency that fails it; when both guards fail inside one stack, the
    solve guard is reported.  ``omegas`` must be 1-D and finite.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ParameterError(f"omegas must be 1-D, got shape {omegas.shape}")
    if not np.isfinite(omegas).all():
        raise ParameterError("omegas must be finite")
    n = omegas.size
    return _output_stack(np.broadcast_to(model.m, (n, 12, 12)),
                         np.broadcast_to(model.d, (n, 12, 12)),
                         np.broadcast_to(model.params.damping_rates(), (n, 6)), omegas)


def spectral_matrix(model: FluctuationModel, omega: float) -> np.ndarray:
    """Two-sided spectral matrix S(omega) of the stacked fluctuations.

    Evaluated by solving (M + i omega) X = D and then (M - i omega) S^T =
    X^T; never by explicit inversion.  For a strictly decaying drift matrix
    this is the stationary spectrum of the fluctuation process.  Every
    converted operating point carries an exactly neutral mode (the free
    phase shared by the converted pairs), and the branches kept above the
    upper threshold have growing directions as well, so there the formula
    is evaluated in the same formal sense in which those spectra are
    usually reported; solve quality is guarded by a residual check instead
    of a stability gate.
    """
    return _spectral_stack(model.m, model.d, np.array([omega], dtype=float))[0]


def quadrature_transform(s: np.ndarray) -> np.ndarray:
    """Map an amplitude-basis spectral matrix into quadrature variances.

    Returns the real symmetric part of T s T^T.  At a real operating point
    the transform is Hermitian up to roundoff; the discarded residue is
    checked against a 1e-9 budget and reported at debug level.  The odd
    (imaginary antisymmetric) component carries cross-quadrature phase
    information that never enters a variance and is dropped by convention.
    """
    return _quadrature_stack(np.asarray(s, dtype=complex)[None])[0]


def output_spectrum(v_intra: np.ndarray, params: SystemParams, omega: float) -> QuadratureSpectrum:
    """Input-output transformed spectrum, vacuum (shot noise) at identity."""
    return QuadratureSpectrum(
        omega=float(omega),
        omega_norm=float(omega) / params.gamma_a,
        v_out=_input_output(np.asarray(v_intra), params.damping_rates()),
    )


def output_spectrum_at(model: FluctuationModel, omega: float) -> QuadratureSpectrum:
    """Convenience chain: spectral matrix -> quadratures -> output."""
    s = spectral_matrix(model, omega)
    return output_spectrum(quadrature_transform(s), model.params, omega)


def integrated_spectrum(model: FluctuationModel, half_width: float | None = None) -> np.ndarray:
    """(1/2pi) Integral of S(omega) over the real line, by quadrature.

    Integrates adaptively over [-W, W] (folded onto [0, W] since
    S(-omega) = S(omega)* at a real operating point) and adds the leading
    asymptotic tail D / (pi W); the remaining truncation error is O(W^-3).
    With the default W = 1e3 gamma_a this reproduces the Lyapunov
    stationary covariance to well below 1e-6.
    """
    report = stability(model.m)
    if not report.stable or report.indeterminate:
        # A marginal drift mode with nonzero diffusion makes S ~ 1/omega^2
        # near zero; the quadrature would silently miss the divergence.
        raise StabilityError(
            f"spectral integral needs a decisively decaying drift "
            f"(margin {report.margin:.3e})",
            margin=report.margin,
        )
    if half_width is None:
        half_width = 1e3 * model.params.gamma_a
    if half_width <= 0.0:
        raise NumericalError(f"half_width must be > 0, got {half_width!r}")
    if np.max(np.abs(model.d.imag)) > 1e-12 * (1.0 + np.max(np.abs(model.d))):
        raise NumericalError("integrated_spectrum assumes a real diffusion matrix")

    def integrand(w):
        return spectral_matrix(model, w).real

    value, err = quad_vec(integrand, 0.0, half_width,
                          epsabs=1e-10, epsrel=1e-10, norm="max")
    logger.debug("spectral integral quadrature error estimate %.3e", err)
    tail = model.d.real / (np.pi * half_width)
    return value / np.pi + tail
