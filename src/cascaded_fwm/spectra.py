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
Lyapunov solution, which the tests use as a cross-module identity.  Its
adaptive quadrature is a numpy port of the part of
``scipy.integrate.quad_vec`` it needs (finite interval, max norm, the
Gauss-Kronrod 21-point rule of QUADPACK; Piessens et al., 1983).  The port
keeps that routine's sum order and interval schedule, so it returns the same
floats, and it evaluates the nodes of all intervals it subdivides in one
round with stacked solves.  The module imports numpy alone.

``output_spectra`` evaluates a whole frequency grid with stacked solves;
``spectral_matrix``, ``quadrature_transform`` and ``output_spectrum`` form
the one-point chain of the same implementation, so both routes agree bit
for bit.  The stacked stages write their temporaries into a ``_Workspace``
that the caller owns, so a search that evaluates thousands of stacks
allocates those buffers once.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import BasisConsistencyError, NumericalError, ParameterError
from .linearization import FluctuationModel, _require_decaying
from .params import MODE_LABELS, SystemParams

QUADRATURE_LABELS = tuple(f"X{m}" for m in MODE_LABELS) + tuple(
    f"Y{m}" for m in MODE_LABELS
)

_RESIDUE_BUDGET = 1e-9
_SOLVE_BUDGET = 1e-8
# Frequencies per stacked solve in ``output_spectra``: bounds the complex
# temporaries of a long grid without giving up the batched LAPACK calls.
_GRID_CHUNK = 64

_EYE6 = np.eye(6)
_EYE12 = np.eye(12)
_T = np.block([[_EYE6, _EYE6], [-1j * _EYE6, 1j * _EYE6]])
_T.flags.writeable = False
_EYE12.flags.writeable = False

# The Gauss-Kronrod 21-point rule on [-1, 1] as scipy's quad_vec spells it:
# the Kronrod nodes, the 10-point Gauss weights of the odd-indexed nodes and
# the 21-point Kronrod weights.
_GK21_NODES = np.array((
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003))
_GAUSS10_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332)
_KRONROD21_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192)
_QUAD_LIMIT = 10000  # subintervals at which the adaptive quadrature gives up
_QUAD_BATCH = 128  # most intervals subdivided in one round


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


class _Workspace:
    """Scratch stacks of the stacked spectral chain, for up to ``rows`` N x N matrices.

    Five complex stacks and two real ones.  A caller that runs many stacked
    evaluations makes one workspace and passes it to each of them, so the
    stages write every temporary into the same memory instead of allocating
    fresh (≤ 64, 12, 12) stacks on each call, which the allocator hands back
    to the system on return and takes again, page by page, on the next call.
    Each stage names the stacks it uses.  No result a public function returns
    points into a workspace that outlives the call.
    """

    def __init__(self, dim: int = 12, rows: int = _GRID_CHUNK):
        self.eye = np.eye(dim)
        self.complex = np.empty((5, rows, dim, dim), dtype=complex)
        self.real = np.empty((2, rows, dim, dim))

    def take(self, n: int) -> tuple:
        """The first ``n`` rows of every stack: five complex views, then two real."""
        return (*self.complex[:, :n], *self.real[:, :n])


# The LinAlgError message of the numpy wrapper of each gufunc called here.
_LINALG_ERRORS = {"solve": "Singular matrix",
                  "lstsq": "SVD did not converge in Linear Least Squares"}


def _linalg(name: str, *args, **kwargs):
    """Call the gufunc ``name`` of ``numpy.linalg._umath_linalg`` as numpy's wrapper does.

    ``np.linalg.solve`` and ``np.linalg.lstsq`` run these gufuncs under this
    error state: a failed LAPACK call sets the invalid flag, which raises
    ``LinAlgError`` with the wrapper's message, and the other flags are
    ignored.  So the floats and errors are the wrapper's, without its
    per-call checks and copies; ``out=`` and ``signature=`` pass through.
    The one place in the package that calls numpy's private LAPACK module.
    """
    def fail(err, flag):
        raise LinAlgError(_LINALG_ERRORS[name])

    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return getattr(_umath_linalg, name)(*args, **kwargs)


def _spectral_stack(m: np.ndarray, d: np.ndarray, omegas: np.ndarray,
                    work: _Workspace | None = None) -> np.ndarray:
    """S(omega) for every entry of the 1-D array ``omegas``, shape (n, N, N).

    ``m`` and ``d`` are one (N, N) matrix each, or a stack of n with one
    drift and diffusion matrix per frequency.  Each of the two solves is
    one stacked LAPACK call, which solves slice by slice; the residual
    guard of ``spectral_matrix`` is applied to every frequency separately,
    with the budget scaled by its own 1 + max|D|, and names the first one
    that fails it.  D is copied into a complex stack once, the values the
    cast inside ``np.linalg.solve`` would give.  Writes the complex stacks
    and the first real stack of ``work`` (one of n rows when it is None);
    the result is a view of its third complex stack.
    """
    n = omegas.size
    if work is None:
        work = _Workspace(m.shape[-1], n)
    shift, lhs, dc, x, prod, absval, _ = work.take(n)
    np.multiply((1j * omegas)[:, None, None], work.eye, out=shift)
    np.add(m, shift, out=lhs)
    np.copyto(dc, d)
    _linalg("solve", lhs, dc, signature="DD->D", out=x)
    np.subtract(np.matmul(lhs, x, out=prod), dc, out=prod)
    residual = np.abs(prod, out=absval).max(axis=(1, 2))
    scale = 1.0 + np.abs(d, out=absval).max(axis=(-2, -1))
    # Written so that a NaN fails it too.
    failed = ~(residual <= _SOLVE_BUDGET * scale * (1.0 + np.abs(x, out=absval).max(axis=(1, 2))))
    if failed.any():
        k = int(failed.argmax())
        raise NumericalError(
            f"ill-conditioned spectral solve at omega={float(omegas[k])!r}: "
            f"residual {residual[k]:.3e}")
    np.subtract(m, shift, out=lhs)
    return _linalg("solve", lhs, x.transpose(0, 2, 1), signature="DD->D",
                   out=dc).transpose(0, 2, 1)


def _quadrature_stack(s: np.ndarray, omegas=None, work: _Workspace | None = None) -> np.ndarray:
    """Real symmetric part of T s T^T for a stack s of shape (n, 12, 12).

    The Hermitian-residue guard of ``quadrature_transform`` is applied to
    every matrix separately; when ``omegas`` is given, the error names the
    first frequency that fails it.  Writes every stack of ``work`` (one of
    n rows when it is None) except the third complex one, which may hold
    ``s``; the result is a view of its second real stack.
    """
    if work is None:
        work = _Workspace(12, len(s))
    left, v, _, conj, diff, absval, v_intra = work.take(len(s))
    np.matmul(np.matmul(_T, s, out=left), _T.T, out=v)
    scale = 1.0 + np.abs(v, out=absval).max(axis=(1, 2))
    np.subtract(v, np.conjugate(v, out=conj).transpose(0, 2, 1), out=diff)
    residue = np.abs(diff, out=absval).max(axis=(1, 2)) / 2.0
    failed = ~(residue <= _RESIDUE_BUDGET * scale)  # NaN fails
    if failed.any():
        k = int(failed.argmax())
        where = "" if omegas is None else f" at omega={float(omegas[k])!r}"
        raise BasisConsistencyError(
            f"quadrature spectrum not Hermitian{where}: residue "
            f"{residue[k]:.3e} exceeds {_RESIDUE_BUDGET:.0e} * {scale[k]:.3e}"
        )
    sym = np.divide(np.add(v, v.transpose(0, 2, 1), out=left), 2.0, out=left)
    np.copyto(v_intra, sym.real)
    return v_intra


def _input_output(v_intra: np.ndarray, rates: np.ndarray, out=None) -> np.ndarray:
    """v_out = I + 2 G^(1/2) V G^(1/2) for one matrix or a stack, into ``out``.

    ``rates`` holds the six mode damping rates, once or once per matrix.
    ``out`` may be None (a new array) but not ``v_intra``.
    """
    gains = np.sqrt(np.tile(rates, 2))
    out = np.multiply(2.0 * gains[..., :, None], v_intra, out=out)
    np.multiply(out, gains[..., None, :], out=out)
    return np.add(_EYE12, out, out=out)


def _output_stack(m: np.ndarray, d: np.ndarray, rates: np.ndarray,
                  omegas: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
    """v_out row by row: row k on drift m[k], diffusion d[k], rates[k] at omegas[k].

    ``m`` and ``d`` have shape (n, 12, 12), ``rates`` (n, 6) and ``omegas``
    (n,); rows may come from different models.  Every row runs the
    per-slice solves, guards and transforms of ``output_spectra``, in
    stacks of at most 64 rows, so it equals that model's own evaluation at
    that frequency bit for bit.  A guard names the first row that fails
    it; when both guards fail inside one stack, the solve guard is
    reported.  The stages take their temporaries from ``work``, which the
    caller owns and may pass to call after call (a new one is made when it
    is None); the returned array is new and never shares memory with it.
    """
    # The result first: a workspace made here and freed on return then
    # rejoins the free top of the heap instead of leaving a hole below
    # v_out, which grows the heap past glibc's trim threshold on a
    # 400-point sweep and costs ~630 page faults per call.
    v_out = np.empty((omegas.size, 12, 12))
    if work is None:
        work = _Workspace(12, min(omegas.size, _GRID_CHUNK))
    for start in range(0, omegas.size, _GRID_CHUNK):
        rows = slice(start, start + _GRID_CHUNK)
        chunk = omegas[rows]
        s = _spectral_stack(m[rows], d[rows], chunk, work)
        _input_output(_quadrature_stack(s, chunk, work), rates[rows], out=v_out[rows])
    return v_out


def _checked_omegas(m: np.ndarray, omegas) -> np.ndarray:
    """``omegas`` as a float array, checked for spectra on the drift ``m``.

    Raises ``ParameterError`` unless ``omegas`` is 1-D and finite, and
    ``StabilityError`` if it holds 0 and ``m`` does not decay: S(0) =
    M^-1 D M^-T diverges on a neutral mode, which every converted branch
    has, and the solve then returns the rounding noise of a pole.  Away
    from omega = 0 the spectra keep their formal evaluation (see
    ``spectral_matrix``).
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ParameterError(f"omegas must be 1-D, got shape {omegas.shape}")
    if not np.isfinite(omegas).all():
        raise ParameterError("omegas must be finite")
    if (omegas == 0.0).any():
        _require_decaying(m, "a spectrum at omega = 0 needs")
    return omegas


def output_spectra(model: FluctuationModel, omegas) -> np.ndarray:
    """Output quadrature spectra v_out over a grid of absolute omega.

    Returns an array of shape (n, 12, 12) whose k-th entry equals the v_out
    of the one-point chain ``spectral_matrix`` -> ``quadrature_transform``
    -> ``output_spectrum`` at omegas[k] exactly: the same solves, guards
    and transforms, evaluated in stacks of at most 64 frequencies.  Each
    guard is applied per frequency and names the first frequency that fails
    it; when both guards fail inside one stack, the solve guard is reported.
    ``omegas`` must be 1-D and finite, and a grid that holds omega = 0
    needs a decaying drift (see ``_checked_omegas``).  One workspace serves
    the whole grid.
    """
    omegas = _checked_omegas(model.m, omegas)
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
    of a stability gate.  ``omega`` is checked as ``output_spectra`` checks
    its grid (see ``_checked_omegas``): it must be finite, and at omega = 0
    alone the drift must decay.
    """
    return _spectral_stack(model.m, model.d, _checked_omegas(model.m, [omega]))[0]


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


def _max_norms(values: np.ndarray) -> list:
    """max|v| of every entry of a stack, as Python floats."""
    return np.abs(values).reshape(len(values), -1).max(axis=1).tolist()


def _gk21(f, a: np.ndarray, b: np.ndarray):
    """The GK21 rule on every interval [a[k], b[k]] of two 1-D arrays.

    ``f`` maps a 1-D array of nodes to the stack of its values and is called
    once, on all 21 nodes of every interval.  Returns the integrals (one per
    interval) and the lists of their error and rounding estimates.  Each sum
    runs node by node in the order of quad_vec's ``_quadrature_gk``, so
    every interval gets that routine's floats.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = c[:, None] + h[:, None] * _GK21_NODES
    fv = f(nodes.ravel())
    fv = fv.reshape(a.size, _GK21_NODES.size, *fv.shape[1:])
    h = h.reshape(-1, *(1,) * (fv.ndim - 2))
    s_k = s_k_abs = s_g = s_k_dabs = 0.0
    for i, weight in enumerate(_KRONROD21_WEIGHTS):
        s_k += weight * fv[:, i]
        s_k_abs += weight * abs(fv[:, i])
    for i, weight in enumerate(_GAUSS10_WEIGHTS):
        s_g += weight * fv[:, 2 * i + 1]
    y0 = s_k / 2.0
    for i, weight in enumerate(_KRONROD21_WEIGHTS):
        s_k_dabs += weight * abs(fv[:, i] - y0)
    errors = []
    roundings = _max_norms(50 * sys.float_info.epsilon * h * s_k_abs)
    for err, dabs, rnd in zip(_max_norms((s_k - s_g) * h), _max_norms(s_k_dabs * h),
                              roundings):
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs)**1.5)
        if rnd > sys.float_info.min:
            err = max(err, rnd)
        errors.append(err)
    return h * s_k, errors, roundings


def _quad_gk21(f, a: float, b: float, epsabs: float, epsrel: float):
    """Adaptive integral of a stacked integrand over [a, b]: (value, error).

    A port of the subset of ``scipy.integrate.quad_vec`` used here: finite
    interval, ``norm="max"``, GK21, one worker, at most 10000 intervals.
    Each round subdivides the intervals of largest error (at most 128, and
    no more than the error excess needs), updates the totals in quad_vec's
    order, and stops once the error estimate falls below max(epsabs,
    epsrel * max|value|) / 8 or below the rounding estimate.  The nodes of
    a whole round go to ``f`` in one call (see ``_gk21``).  Raises
    ``NumericalError`` when the interval limit is reached first or an
    estimate stops being finite, where quad_vec would return silently.
    """
    value, (error,), (rounding,) = _gk21(f, np.array([a]), np.array([b]))
    # Heap entries are (-error, start, end, integral), so the largest error
    # pops first and ties go by the interval, as in quad_vec; no two
    # intervals share (start, end), so the integrals are never compared.
    heap = [(-error, a, b, value[0].copy())]
    value = value[0]
    while len(heap) < _QUAD_LIMIT:
        tol = max(epsabs, epsrel * np.max(np.abs(value)))
        batch = []
        err_sum = 0.0
        while heap and len(batch) < _QUAD_BATCH and not (
                batch and err_sum > error - tol / 8):
            batch.append(heapq.heappop(heap))
            err_sum += -batch[-1][0]
        lo, hi = (np.array([interval[k] for interval in batch]) for k in (1, 2))
        mid = 0.5 * (lo + hi)
        halves, errs, rnds = _gk21(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        n = len(batch)
        for k, ((neg_err, x1, x2, old_int), c) in enumerate(zip(batch, mid.tolist())):
            value += halves[k] + halves[n + k] - old_int
            error += errs[k] + errs[n + k] - (-neg_err)
            rounding += rnds[k] + rnds[n + k]
            heapq.heappush(heap, (-errs[k], x1, c, halves[k]))
            heapq.heappush(heap, (-errs[n + k], c, x2, halves[n + k]))
        if not (math.isfinite(error) and math.isfinite(rounding)):
            raise NumericalError(
                f"quadrature estimates not finite (error {error!r}, "
                f"rounding {rounding!r})")
        tol = max(epsabs, epsrel * np.max(np.abs(value)))
        if error < tol / 8 or error < rounding:
            return value, error + rounding
    raise NumericalError(
        f"quadrature did not converge within {_QUAD_LIMIT} intervals "
        f"(error estimate {error + rounding:.3e})")


def integrated_spectrum(model: FluctuationModel) -> np.ndarray:
    """(1/2pi) Integral of S(omega) over the real line, by quadrature.

    Integrates adaptively over [-W, W] (folded onto [0, W] since
    S(-omega) = S(omega)* for real M and D, which it requires, raising
    ``NumericalError`` otherwise) and adds the leading
    asymptotic tail D / (pi W); the remaining truncation error is O(W^-3).
    With W = 1e3 gamma_a this reproduces the Lyapunov stationary covariance
    to well below 1e-6.  The quadrature is ``_quad_gk21`` with absolute and
    relative tolerance 1e-10; it raises ``NumericalError`` if it does not
    converge.  Every node value equals ``spectral_matrix`` there bit for
    bit.
    """
    # A marginal drift mode with nonzero diffusion makes S ~ 1/omega^2
    # near zero; the quadrature would silently miss the divergence.
    _require_decaying(model.m, "spectral integral needs")
    half_width = 1e3 * model.params.gamma_a
    for name, a in (("diffusion", model.d), ("drift", model.m)):
        if np.max(np.abs(a.imag)) > 1e-12 * (1.0 + np.max(np.abs(a))):
            raise NumericalError(f"integrated_spectrum assumes a real {name} matrix")

    work = _Workspace(model.m.shape[-1])

    def integrand(omegas):
        values = np.empty((omegas.size, *model.m.shape))
        for k in range(0, omegas.size, _GRID_CHUNK):
            chunk = omegas[k:k + _GRID_CHUNK]
            values[k:k + chunk.size] = _spectral_stack(model.m, model.d, chunk, work).real
        return values

    value, _ = _quad_gk21(integrand, 0.0, half_width, epsabs=1e-10, epsrel=1e-10)
    tail = model.d.real / (np.pi * half_width)
    return value / np.pi + tail
