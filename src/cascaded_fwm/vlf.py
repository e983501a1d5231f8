"""Multipartite entanglement witnesses on the output spectra.

Five combination inequalities witness six-partite inseparability: each
bounds the sum of an X-difference (or sum) variance and a gain-dressed
Y-combination variance by 4 for any separable state,

    V(X_i +- X_j) + V(sum_k h_k Y_k) >= 4,

with two of the Y coefficients fixed at +-1 and the remaining four free
gains minimized over.  A violation at some analysis frequency certifies
inseparability across the partitions it tests; together, violations certify
full inseparability, not genuine multipartite entanglement (Teh & Reid 2014).

The five inequalities fall into three symmetry classes (A, B, C) that are
exactly degenerate at the symmetric working point; the sweep helpers
evaluate every requested inequality so that degeneracy can be verified
rather than assumed.  Gain optimization is a linear-algebra problem: the
variance is a convex quadratic in the gains, so the optimum solves a 4x4
normal system, with the minimum-norm solution taken when that system is
singular.

Internally every step passes stacked arrays: the checked spectra of
``_grid_spectra``, the gain problems of ``_problem_arrays`` and the values
and gains of ``_gain_solves``, one row per (spectrum, inequality) pair.
``_sweep_arrays`` is the one frequency scan, in a (frequency, witness)
layout, for ``sweep_frequency``, the CLI and the coarse grid of
``minima_over_models``; each of them resolves its witnesses and builds
their gain problems once, before the scan.  VlfResult objects are made
only where a public function returns them.  ``_check_window`` is the one
check of a frequency window and its scale.  The ``_OMEGA_*`` constants
state the default grid, and ``_COARSE_POINTS`` and ``_XTOL`` the coarse
grid and golden-section tolerance of every minimum search, which no
argument overrides.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ParameterError, PhysicalityError
from .linearization import FluctuationModel, build_fluctuation_model
from .params import MODE_LABELS, SystemParams
from .spectra import (
    QuadratureSpectrum,
    _checked_omegas,
    _diagonals,
    _linalg,
    _output_stack,
    _Workspace,
)
from .steady_state import Branch, state_for_branch

_PSD_TOLERANCE = -1e-9
_SINGULAR_RCOND = 1e-12
# The default analysis window in omega / gamma_a, and the default points and
# scale of a grid on it.
_OMEGA_WINDOW = (0.01, 100.0)
_OMEGA_POINTS = 400
_OMEGA_SCALE = "log"
_SCALES = ("log", "linear")
# The coarse grid of every minimum search and its golden-section tolerance
# in omega / gamma_a.
_COARSE_POINTS = 64
_XTOL = 1e-6


def _check_window(lo: float, hi: float, scale: str) -> None:
    """Raise ``ParameterError``, keyed by the config key at fault, unless ``scale``
    is in ``_SCALES`` and 0 <= lo < hi < inf, with lo > 0 on a log scale.  An
    empty window is keyed by both of its keys."""
    if scale not in _SCALES:
        raise ParameterError(f"omega_scale must be one of {', '.join(_SCALES)}; "
                             f"got {scale!r}", key="omega_scale")
    for key, value in (("omega_min", lo), ("omega_max", hi)):
        if not math.isfinite(value):
            raise ParameterError(f"{key} must be finite, got {value!r}", key=key)
    if not (lo > 0.0 or (lo == 0.0 and scale == "linear")):
        floor = "> 0 on a log grid" if scale == "log" else ">= 0"
        raise ParameterError(f"omega_min must be {floor}, got {lo!r}", key="omega_min")
    if not lo < hi:
        raise ParameterError(f"omega_min must be smaller than omega_max, got {lo!r} >= {hi!r}",
                             key=("omega_min", "omega_max"))


def _omega_grid(lo: float, hi: float, points: int, scale: str) -> np.ndarray:
    """``points`` frequencies from ``lo`` to ``hi``; ``_check_window`` passes the window."""
    return (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)


@dataclass(frozen=True)
class VlfInequality:
    """One combination inequality: coefficients and its symmetry class.

    ``x_coeffs`` holds the +-1 coefficients of the X combination,
    ``y_fixed`` the +-1 coefficients pinned in the Y combination.  The four
    remaining modes carry optimizable gains; ``free_modes`` is derived from
    the X pair and lists them in ascending order.
    """

    label: str
    symmetry_class: str
    x_coeffs: tuple
    y_fixed: tuple
    free_modes: tuple = field(init=False)

    def __post_init__(self):
        x = np.array(self.x_coeffs, dtype=float)
        y = np.array(self.y_fixed, dtype=float)
        if x.shape != (6,) or y.shape != (6,):
            raise ParameterError("coefficient vectors must have length 6")
        # The separable bound 4 holds only for unit coefficients.
        if not np.isin(np.concatenate((x, y)), (-1.0, 0.0, 1.0)).all():
            raise ParameterError(f"{self.label}: nonzero coefficients must be +-1")
        x_support = set(np.flatnonzero(x).tolist())
        y_support = set(np.flatnonzero(y).tolist())
        if len(x_support) != 2 or x_support != y_support:
            raise ParameterError(
                f"{self.label}: fixed Y coefficients must sit on the X pair"
            )
        object.__setattr__(self, "free_modes", tuple(np.flatnonzero(x == 0.0).tolist()))

    def free_mode_labels(self) -> tuple:
        return tuple(MODE_LABELS[i] for i in self.free_modes)


# Note the fourth inequality fixes -Y_p2 while the fifth fixes +Y_p2.
INEQUALITIES = (
    VlfInequality("i2-p1", "C", (0, -1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0)),
    VlfInequality("p1+s1", "B", (0, 1, 0, 1, 0, 0), (0, 1, 0, -1, 0, 0)),
    VlfInequality("s1-i1", "A", (0, 0, -1, 1, 0, 0), (0, 0, 1, 1, 0, 0)),
    VlfInequality("i1+p2", "B", (1, 0, 1, 0, 0, 0), (-1, 0, 1, 0, 0, 0)),
    VlfInequality("p2-s2", "C", (1, 0, 0, 0, 0, -1), (1, 0, 0, 0, 0, 1)),
)

# Sorted, so the CSV columns read V_A, V_B, V_C.
SYMMETRY_CLASSES = tuple(sorted({i.symmetry_class for i in INEQUALITIES}))


def inequality_by_label(label: str) -> VlfInequality:
    for ineq in INEQUALITIES:
        if ineq.label == label:
            return ineq
    known = ", ".join(i.label for i in INEQUALITIES)
    raise ParameterError(f"unknown inequality {label!r} (known: {known})")


def class_members(symmetry_class: str) -> tuple:
    members = tuple(i for i in INEQUALITIES if i.symmetry_class == symmetry_class)
    if not members:
        raise ParameterError(f"unknown symmetry class {symmetry_class!r}")
    return members


@dataclass(frozen=True)
class VlfResult:
    """An inequality value (optimized or not) at one analysis frequency."""

    label: str
    symmetry_class: str
    omega: float
    omega_norm: float
    value: float
    gains: np.ndarray
    free_modes: tuple

    @property
    def violated(self) -> bool:
        """True when the separability bound 4 is beaten."""
        return self.value < 4.0


def _result(ineq: VlfInequality, omega, omega_norm, value, gains) -> VlfResult:
    return VlfResult(label=ineq.label, symmetry_class=ineq.symmetry_class,
                     omega=omega, omega_norm=omega_norm, value=value, gains=gains,
                     free_modes=ineq.free_modes)


def _problem_arrays(ineqs) -> tuple:
    """The constant vectors of each inequality's gain problem, stacked.

    Row p belongs to ``ineqs[p]``: ``a`` (P, 12) is its X combination,
    ``b0`` (P, 12) its Y combination with every gain zero, and ``free``
    (P, 4) indexes its free Y gains in the stacked 12-vector.
    """
    a = np.zeros((len(ineqs), 12))
    b0 = np.zeros((len(ineqs), 12))
    a[:, :6] = np.reshape([ineq.x_coeffs for ineq in ineqs], (-1, 6))
    b0[:, 6:] = np.reshape([ineq.y_fixed for ineq in ineqs], (-1, 6))
    return a, b0, 6 + np.reshape([ineq.free_modes for ineq in ineqs], (-1, 4)).astype(int)


def _values(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V(a_k . q) + V(b_k . q) on spectrum v_k for every row k.

    ``a`` and ``b`` have shape (K, 12) and ``v`` (K, 12, 12).  Each row
    runs the same vector-matrix product and dot product as
    ``a_k @ v_k @ a_k + b_k @ v_k @ b_k``, so it equals that value bit for
    bit.
    """
    return (np.vecdot((a[:, None, :] @ v)[:, 0, :], a)
            + np.vecdot((b[:, None, :] @ v)[:, 0, :], b))


def evaluate_inequality(ineq: VlfInequality, spectrum: QuadratureSpectrum,
                        gains: np.ndarray) -> float:
    """Left-hand side V(X combo) + V(Y combo) for explicit gains.

    Both variances are full quadratic forms over the stacked 12-component
    quadrature vector, so any X-Y cross correlations would contribute;
    nothing here assumes the block structure of v_out.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (len(ineq.free_modes),):
        raise ParameterError(
            f"{ineq.label}: expected {len(ineq.free_modes)} gains, got {gains.shape}"
        )
    a, b, free = _problem_arrays((ineq,))
    b[0, free[0]] = gains
    return float(_values(a, b, np.asarray(spectrum.v_out)[None])[0])


def _require_physical(v: np.ndarray):
    """Raise PhysicalityError unless every matrix of the stack v is finite and PSD.

    Entry k may dip below zero by tau_k = 1e-9 * (1 + max|v_k|): rounding in
    a spectrum with entries of 1e8 alone reaches ~1e-8.  A Cholesky screen of
    the stack shifted by tau_k passes it at once; ``eigvalsh`` runs, decides
    and names the minimum only if that fails.  The two verdicts differ only
    within the Cholesky rounding band, ~12 eps max|v_k| (~3e-6 tau_k).  The
    shift is subtracted from the diagonal of a copy of the symmetrized stack,
    which gives the diagonal of sym - floor * I exactly; off the diagonal
    only a zero's sign can differ, which no Cholesky pivot sees.  The
    factorization is numpy's ``cholesky_lo`` gufunc through
    ``spectra._linalg``, the call ``np.linalg.cholesky`` makes.
    """
    finite = np.isfinite(v).all(axis=(1, 2))
    if not finite.all():
        raise PhysicalityError(
            f"output spectrum is not finite (entry {int(finite.argmin())} of the stack)"
        )
    sym = (v + v.transpose(0, 2, 1)) / 2.0
    floor = _PSD_TOLERANCE * (1.0 + np.abs(v).max(axis=(1, 2)))
    shifted = sym.copy()
    diagonal = _diagonals(shifted)
    np.subtract(diagonal, floor[:, None], out=diagonal)
    try:
        _linalg("cholesky_lo", shifted, signature="d->d")
    except LinAlgError:
        min_eig = np.linalg.eigvalsh(sym).min(axis=1)
        failed = min_eig < floor
        if failed.any():
            raise PhysicalityError(
                f"output spectrum is not positive semidefinite "
                f"(min eigenvalue {min_eig[failed.argmax()]:.3e})"
            ) from None


def _gain_solves(a: np.ndarray, b0: np.ndarray, free: np.ndarray,
                 v: np.ndarray) -> tuple:
    """Optimized values (S) and gains (S, 4) of gain problems on checked spectra.

    ``a``, ``b0``, ``free`` are rows of ``_problem_arrays`` and ``v`` a
    stack of spectra; their leading axes broadcast to the shape S, and one
    call of the gufunc ``lstsq`` that ``np.linalg.lstsq`` wraps (through
    ``spectra._linalg``) solves every row.  It runs the same ``dgelsd`` per
    slice with the same rcond, so every gain and value is bitwise what the
    per-slice ``lstsq`` gives.  Rows that already line up, one problem per
    spectrum as in a refine step, are used as they are.
    """
    shape = np.broadcast_shapes(a.shape[:-1], v.shape[:-2])
    if a.shape[:-1] != v.shape[:-2] or len(shape) != 1:
        a, b0, free = (np.broadcast_to(x, (*shape, x.shape[-1])).reshape(-1, x.shape[-1])
                       for x in (a, b0, free))
        v = np.broadcast_to(v, (*shape, 12, 12)).reshape(-1, 12, 12)
    rows = np.arange(len(v))[:, None]
    rhs = -(v @ b0[:, :, None])[rows, free, 0]
    blocks = v[rows[:, :, None], free[:, :, None], free[:, None, :]]
    gains = _linalg("lstsq", blocks, rhs[:, :, None], _SINGULAR_RCOND,
                    signature="ddd->ddid")[0][:, :, 0]
    b = b0.copy()
    b[rows, free] = gains
    return _values(a, b, v).reshape(shape), gains.reshape(*shape, 4)


def optimize_gains(ineq: VlfInequality, spectrum: QuadratureSpectrum) -> VlfResult:
    """Minimize the inequality value over its four free gains.

    The Y variance is convex quadratic in the gains, so the optimum solves
    (E^T V E) g = -E^T V b0 with E the embedding of the free positions.
    ``lstsq`` provides the minimum-norm solution when the normal matrix is
    singular to within 1e-12 relative.  The spectrum must be finite and PSD to
    within 1e-9 * (1 + max|v_out|), which a shifted Cholesky screen checks.
    """
    v = np.array([spectrum.v_out])
    _require_physical(v)
    values, gains = _gain_solves(*_problem_arrays((ineq,)), v)
    return _result(ineq, spectrum.omega, spectrum.omega_norm, float(values[0]), gains[0])


def _resolve_inequalities(inequalities):
    if inequalities is None:
        return INEQUALITIES
    if isinstance(inequalities, str):
        raise ParameterError(f"inequalities must be a sequence of labels, got the string "
                             f"{inequalities!r}; write ({inequalities!r},) for one")
    return tuple(item if isinstance(item, VlfInequality) else inequality_by_label(item)
                 for item in inequalities)


def build_branch_model(params: SystemParams, branch: Branch | str,
                       zero_diffusion: bool = False) -> FluctuationModel:
    """Fluctuation model at one analytic branch.

    ``zero_diffusion`` substitutes D = 0, which turns every output spectrum
    into plain shot noise; useful as a pipeline null test.
    """
    model = build_fluctuation_model(params, state_for_branch(params, branch))
    if zero_diffusion:
        model = replace(model, d=np.zeros_like(model.d))
    return model


def _model_rows(models) -> tuple:
    """Drift, diffusion and damping rates of each model, stacked.

    Row k holds ``models[k]``; ``_grid_spectra`` broadcasts a single row
    over a whole grid.  Column 0 of the rates is gamma_a.
    """
    return (np.array([model.m for model in models]),
            np.array([model.d for model in models]),
            np.array([model.params.damping_rates() for model in models]))


def _grid_spectra(rows: tuple, omega_norms, work: _Workspace | None = None) -> tuple:
    """Checked output spectra, row k at omega_norms[k] of its own model.

    ``rows`` comes from ``_model_rows``, with one row per entry of
    ``omega_norms`` or one row for all of them.  One stacked evaluation and
    one physicality check per spectrum.  Returns ``(omega, omega_norm,
    v_out)`` with omega_norm = omega / gamma_a; entry k equals
    ``output_spectra(model_k, [omega_norms[k] * gamma_a])[0]`` exactly.
    ``work`` is the caller's workspace, passed down to ``_output_stack``
    (which makes one when it is None); the returned arrays are new.
    """
    omega_norms = np.asarray(omega_norms, dtype=float)
    n = omega_norms.size
    m, d, rates = (np.broadcast_to(a, (n, *a.shape[1:])) for a in rows)
    omegas = omega_norms * rates[:, 0]
    v_out = _output_stack(m, d, rates, omegas, work)
    _require_physical(v_out)
    return omegas, omegas / rates[:, 0], v_out


def _sweep_arrays(model: FluctuationModel, problems: tuple, omega_grid,
                  work: _Workspace | None = None) -> tuple:
    """``sweep_frequency`` as arrays omega, omega_norm (N,), values (N, P), gains (N, P, 4).

    Every frequency scan runs here, on the P gain problems ``problems``
    (the rows of ``_problem_arrays``), which the caller builds once.  One
    workspace serves the whole grid: the caller's ``work``, or one
    ``_output_stack`` makes when it is None.
    """
    if omega_grid is None:
        omega_grid = _omega_grid(*_OMEGA_WINDOW, _OMEGA_POINTS, _OMEGA_SCALE)
    omega_grid = _checked_omegas(model, omega_grid)
    if (omega_grid < 0.0).any():
        raise ParameterError("omega_grid values must be >= 0")
    omega, omega_norm, v_out = _grid_spectra(_model_rows([model]), omega_grid, work)
    return (omega, omega_norm, *_gain_solves(*problems, v_out[:, None]))


def sweep_frequency(
    params: SystemParams,
    branch: Branch | str,
    inequalities=None,
    omega_grid=None,
    model: FluctuationModel | None = None,
) -> list:
    """Optimize each inequality over a grid of omega / gamma_a.

    Returns a flat list of VlfResult ordered by frequency, then by the
    declaration order of INEQUALITIES.  ``omega_grid`` defaults to 400
    logarithmic points on [0.01, 100]; it must be 1-D, finite and >= 0.
    The model is built from ``params`` and ``branch`` unless given.
    """
    ineqs = _resolve_inequalities(inequalities)
    if model is None:
        model = build_branch_model(params, branch)
    omega, omega_norm, values, gains = _sweep_arrays(model, _problem_arrays(ineqs), omega_grid)
    return [_result(ineq, w, w_norm, value, ineq_gains)
            for w, w_norm, w_values, w_gains in zip(omega.tolist(), omega_norm.tolist(),
                                                    values.tolist(), gains)
            for ineq, value, ineq_gains in zip(ineqs, w_values, w_gains)]


def _golden_section(lo, hi, xtol):
    """Golden-section descent on [lo, hi] as a generator.

    Yields each abscissa, receives the function value there, and returns
    ``(x, f)`` at the better of the two interior points.  The search ends
    once the bracket is within ``xtol`` or stops shrinking, which it does
    when it is a few ulps wide.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = yield c
    fd = yield d
    width = math.inf
    while xtol < hi - lo < width:
        width = hi - lo
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = yield c
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = yield d
    return (c, fc) if fc <= fd else (d, fd)


def _gather(sources: tuple, index: np.ndarray, buffers: list) -> tuple:
    """Rows ``index`` of every array of ``sources``, into the leading rows of ``buffers``.

    ``mode="clip"`` (the indices are always valid) lets ``np.take`` write
    straight into the buffer; its default mode stages a copy first.
    """
    return tuple(np.take(a, index, axis=0, out=buffer[:index.size], mode="clip")
                 for a, buffer in zip(sources, buffers))


def _refine_minima(rows: tuple, problems: tuple, grid: np.ndarray,
                   coarse: list, work: _Workspace) -> list:
    """Golden-section refine of every search's best coarse bracket, to ``_XTOL``.

    With P rows in ``problems``, search k minimizes row k % P of them on
    the model in row k // P of ``rows``; ``coarse[k]`` holds its best index
    on ``grid`` and the point ``(omega, omega_norm, value, gains)`` there.
    The searches run in lockstep, one stacked spectral call per step, so
    every search sees exactly the values it would see alone.  Each step
    gathers the rows of its searches into buffers made once per call and
    evaluates them in the caller's workspace ``work``.  Each search records
    the points it evaluates, keyed by abscissa, and takes the one at the
    abscissa its ``_golden_section`` returns, so the tie rule lives there
    alone.  Returns one point per search.
    """
    model_rows, problem_rows = ([np.empty((len(coarse), *a.shape[1:]), a.dtype) for a in arrays]
                                for arrays in (rows, problems))
    minima, running = [], []
    for k, (best, point) in enumerate(coarse):
        minima.append(point)
        search = _golden_section(float(grid[max(best - 1, 0)]),
                                 float(grid[min(best + 1, grid.size - 1)]), _XTOL)
        running.append((k, search, next(search), {}))
    while running:
        model_of, problem_of = divmod(np.array([k for k, _, _, _ in running]), len(problems[0]))
        abscissae = [x for _, _, x, _ in running]
        omega, omega_norm, v_out = _grid_spectra(_gather(rows, model_of, model_rows),
                                                 abscissae, work)
        values, gains = _gain_solves(*_gather(problems, problem_of, problem_rows), v_out)
        points = zip(omega.tolist(), omega_norm.tolist(), values.tolist(), gains)
        still_running = []
        for (k, search, x, seen), point in zip(running, points):
            seen[x] = point
            try:
                still_running.append((k, search, search.send(point[2]), seen))
            except StopIteration as stop:
                x_min, f_min = stop.value
                if f_min <= minima[k][2]:
                    minima[k] = seen[x_min]
        running = still_running
    return minima


def minima_over_models(models, inequalities=None, omega_range=_OMEGA_WINDOW,
                       scale: str = _OMEGA_SCALE) -> list:
    """Global minimum of each optimized inequality over a frequency window, per model.

    Scans one coarse grid of ``_COARSE_POINTS`` per model with
    ``_sweep_arrays``, shared by all inequalities (all inequalities by
    default), and keeps each inequality's best coarse point.  Then it
    refines every (model, inequality) bracket by golden section to
    ``_XTOL`` in omega / gamma_a, all of them in one lockstep with one
    stacked spectral evaluation per step.  A minimum on the window edge is
    refined within the outermost cell and can land on the edge itself.  The
    window ``omega_range`` must be a pair of numbers (lo, hi) that passes
    ``_check_window`` with lo > 0.  ``models`` is any iterable of
    FluctuationModels, taken one at a time after the arguments are checked.
    Returns one list per model with one VlfResult per inequality, in the
    order given; each equals what the same call returns for that model and
    inequality alone.
    The call owns one spectral workspace, which every coarse scan and every
    refine step writes its temporaries into; no returned value or gain
    vector shares memory with it, or with another call's results.
    """
    ineqs = _resolve_inequalities(inequalities)
    problems = _problem_arrays(ineqs)
    try:
        lo, hi = omega_range
    except (TypeError, ValueError):
        lo = hi = None
    if not all(isinstance(x, numbers.Real) for x in (lo, hi)):
        raise ParameterError(f"omega_range must be a pair of numbers, got {omega_range!r}")
    lo, hi = float(lo), float(hi)
    _check_window(lo, hi, scale)
    if lo == 0.0:
        raise ParameterError("a minimum search needs omega_min > 0", key="omega_min")
    grid = _omega_grid(lo, hi, _COARSE_POINTS, scale)
    work = _Workspace()
    scanned, coarse = [], []
    for model in models:
        omega, omega_norm, values, gains = _sweep_arrays(model, problems, grid, work)
        scanned.append(model)
        for p, best in enumerate(values.argmin(axis=0).tolist()):
            coarse.append((best, (float(omega[best]), float(omega_norm[best]),
                                  float(values[best, p]), gains[best, p])))
    minima = _refine_minima(_model_rows(scanned), problems, grid, coarse, work)
    n = len(ineqs)
    return [[_result(ineq, *point) for ineq, point in zip(ineqs, minima[i * n:(i + 1) * n])]
            for i in range(len(scanned))]


def min_over_frequency(params: SystemParams, branch: Branch | str, inequality) -> VlfResult:
    """Global minimum of one optimized inequality over the default window.

    The one-model, one-inequality case of ``minima_over_models``, on the
    model of ``branch`` at ``params``.
    """
    return minima_over_models([build_branch_model(params, branch)], (inequality,))[0][0]
