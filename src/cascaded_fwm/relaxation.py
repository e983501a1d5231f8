"""Relaxation oracle: integrate the amplitude equations to a stationary point.

``relax_to_steady_state`` provides an independent numeric check of the
closed-form branches of ``steady_state``: it integrates the full
(phase-unrestricted) equations from an arbitrary complex initial condition
with DOP853 and reports which analytic branch, if any, the endpoint
matches.  The equations carry a free relative phase between the generated
pairs, so matching compares moduli.  It rejects a non-finite start, a
non-finite or non-positive ``tol`` or ``t_max`` and a negative or NaN
``match_radius`` before integrating, with the scalar checks that
``params`` owns.  ``sample_initial_conditions`` draws
seeded starts sized to the regime, and ``basin_statistics`` tallies where
they end.

The integrator's right-hand side and its convergence event share the scalar
drift kernel of ``steady_state.drift``, so they equal the ndarray drift bit
for bit.

The integrator is a numpy port of the part of scipy 1.17.1's
``solve_ivp(method="DOP853")`` that the oracle uses: the Runge-Kutta pair
of Hairer, Norsett & Wanner (*Solving ODEs I*, II.10) with its step-size
control, dense output and terminal events, whose roots Brent's method
(1973) finds as scipy's C ``brentq`` does.  It makes the same numpy calls
in the same order on arrays of the same layout, so its floats are scipy's
bit for bit; it keeps only the last step, not every step, and unlike
scipy it stops after a fixed budget of accepted steps.  The module imports
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .params import SystemParams, _require_count, _require_positive
from .steady_state import (
    Branch,
    SteadyState,
    _drift_kernel,
    _match_branch,
    analytic_steady_states,
    drift,
)

_DIVERGENCE_BOUND = 1e4  # an amplitude modulus above this ends a relaxation as diverged
# With both parts of a_k inside +-7e3, |a_k| <= sqrt(2) 7e3 is below the bound.
_SAFE_PART = 7e3

# solve_ivp's arguments and DOP853's step-size control.
_RTOL = 1e-9
_ATOL = np.asarray(1e-12)  # as scipy's validate_tol leaves it
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
# Accepted steps after which a run ends as if at t_max: over 160 times the
# most that any relaxation of the tests or the benchmark takes (1237).
_MAX_STEPS = 200_000


@dataclass(frozen=True)
class RelaxationResult:
    """Outcome of one relaxation run.

    ``status`` is "converged", "timeout" or "diverged"; a run that reaches
    ``t_max`` or spends the step budget without converging timed out, and
    ``elapsed`` is the time it reached.  ``matched`` holds the
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
    or ``t_max`` is reached or the budget of ``_MAX_STEPS`` accepted steps
    is spent (timeout; reported, not raised).  The budget ends the runs an
    explicit method cannot finish, such as large starts at a stiff
    NoThreshold point.
    The right-hand side and the convergence event evaluate one scalar drift
    kernel on the six amplitudes; its values equal ``drift``'s bit for bit.
    At each accepted step the events reuse the values the right-hand side
    just computed at the same state.

    The generated pairs carry a free relative phase, so branch matching
    compares amplitude moduli against the closed-form branches; an endpoint
    counts as matched when the moduli agree within ``match_radius``.

    Raises ``ParameterError`` before integrating unless ``initial`` holds
    six finite amplitudes, ``tol`` and ``t_max`` are finite and > 0, and
    ``match_radius`` is >= 0 (NaN is rejected).  Raises ``NumericalError``
    if the step size falls below the spacing of floats or an event root
    cannot be bracketed or found.
    """
    a0 = np.asarray(initial, dtype=complex)
    if a0.shape != (6,):
        raise ParameterError(f"initial must have shape (6,), got {a0.shape}")
    if not np.all(np.isfinite(a0)):
        raise ParameterError(f"initial must be finite, got {a0!r}")
    _require_positive("tol", tol)
    _require_positive("t_max", t_max)
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

    # numpy's complex abs, not Python's abs: the two may differ in the last bit.
    def residual_event(f):
        return float(np.max(np.abs(np.array(f)))) - tol

    def converged(t, u):
        v = u.tolist()
        return residual_event(kernel(*map(complex, v[:6], v[6:])))

    def diverged(t, u):
        a = u[:6] + 1j * u[6:]
        return float(np.max(np.abs(a))) - _DIVERGENCE_BOUND

    # An accepted state is the one DOP853 evaluated the right-hand side at
    # last (its FSAL stage), so its kernel values are at hand; the divergence
    # event's sign needs its modulus only near the bound.
    def at_step(t, u):
        v, f = last
        if all(-_SAFE_PART < x < _SAFE_PART for x in v):
            return residual_event(f), -1.0
        return residual_event(f), diverged(t, u)

    u0 = np.concatenate([a0.real, a0.imag])
    elapsed, u_end, event = _dop853(rhs, u0, float(t_max),
                                    ((converged, -1), (diverged, 1)), at_step)
    a_end = u_end[:6] + 1j * u_end[6:]
    residual = float(np.max(np.abs(drift(params, a_end))))

    if event == 1:
        return RelaxationResult("diverged", a_end, residual, elapsed, None, math.inf)
    if event is None and residual >= tol:
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


def _dop853(fun, y0, t_bound, events, at_step):
    """Integrate y' = fun(t, y) from t = 0 to ``t_bound`` or a terminal event.

    The floats of ``solve_ivp(fun, (0.0, t_bound), y0, method="DOP853",
    rtol=1e-9, atol=1e-12, events=...)`` in scipy 1.17.1, where every event
    is terminal.  ``events`` holds (g, direction) pairs, direction +1 or
    -1, as ``solve_ivp`` takes them; g(t, y) is evaluated at the start and
    inside root finding.  ``at_step(t, y)`` returns, for an accepted state,
    the events' values or values of the same signs (negative, zero or
    positive); it runs right after ``fun(t, y)``.  Returns ``(t, y, event)``:
    the end time and state, and the index of the event that ended the run,
    or None at ``t_bound`` or after ``_MAX_STEPS`` accepted steps, where
    scipy has no budget.  A step below the spacing of floats or a failed
    root search raises ``NumericalError``.  t runs forward, so scipy's
    ``direction`` (1) is left out, as are its unbounded ``max_step`` and its
    record of steps.
    """
    t, y = 0.0, y0
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_bound)
    k_extended = np.empty((_N_STAGES_EXTENDED, y.size), dtype=y.dtype)
    k = k_extended[:_N_STAGES + 1]
    g = [event(t, y) for event, _ in events]
    for _ in range(_MAX_STEPS):
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError("relaxation integrator failed: Required step "
                                     "size is less than spacing between numbers.")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, k)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            error_norm = _error_norm(k, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new

        g_new = at_step(t, y)
        active = [i for i, ((_, direction), before, after)
                  in enumerate(zip(events, g, g_new))
                  if (before <= 0 <= after if direction > 0 else before >= 0 >= after)]
        if active:
            sol = _dense_output(fun, k_extended, h, t_old, y_old, t, y, f)
            roots = [_brentq(lambda s, event=events[i][0]: event(s, sol(s)), t_old, t)
                     for i in active]
            # The earliest root ends the run; equal roots go to the lower index.
            first = min(range(len(roots)), key=roots.__getitem__)
            return roots[first], sol(roots[first]), active[first]
        if t - t_bound >= 0:
            return t, y, None
        g = g_new
    return t, y, None


def _initial_step(fun, y0, f0, t_bound):
    """scipy's ``select_initial_step`` from t = 0 for the order-7 estimator."""
    scale = _ATOL + np.abs(y0) * _RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    y1 = y0 + h0 * f0
    f1 = fun(0.0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _rk_step(fun, t, y, f, h, k):
    """One step of the 12-stage pair; fills the rows of ``k`` and returns
    (y_new, f_new), f_new being the last row (first same as last)."""
    k[0] = f
    for s, (a, c) in enumerate(zip(_A_STEP[1:], _C_STEP[1:]), start=1):
        dy = np.dot(k[:s].T, a[:s]) * h
        k[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(k[:-1].T, _B)
    f_new = fun(t + h, y_new)
    k[-1] = f_new
    return y_new, f_new


def _error_norm(k, h, scale):
    """The RMS error of the step, the 5th-order estimate with the 3rd-order
    one as a filter."""
    err5 = np.dot(k.T, _E5) / scale
    err3 = np.dot(k.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_output(fun, k_extended, h, t_old, y_old, t, y, f):
    """The 7th-degree interpolant of the step from t_old to t, as a function
    of time; it costs three more right-hand sides."""
    k = k_extended
    for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1):
        dy = np.dot(k[:s].T, a[:s]) * h
        k[s] = fun(t_old + c * h, y_old + dy)

    coeffs = np.empty((_INTERPOLATOR_POWER, y_old.size), dtype=y_old.dtype)
    f_old = k[0]
    delta_y = y - y_old
    coeffs[0] = delta_y
    coeffs[1] = h * f_old - delta_y
    coeffs[2] = 2 * delta_y - h * (f + f_old)
    coeffs[3:] = h * np.dot(_D, k)
    step = t - t_old

    def sol(time):
        x = (time - t_old) / step
        out = np.zeros_like(y_old)
        for i, row in enumerate(reversed(coeffs)):
            out += row
            if i % 2 == 0:
                out *= x
            else:
                out *= 1 - x
        out += y_old
        return out

    return sol


def _brentq(f, xa, xb):
    """A root of f in [xa, xb], as scipy's C ``brentq`` finds it with
    xtol = rtol = 4 eps and at most 100 iterations (Brent 1973, ch. 4).

    Raises ``NumericalError`` where f(xa) and f(xb) have the same sign, or
    where 100 iterations do not converge.
    """
    xtol = rtol = 4 * float(np.finfo(float).eps)
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalError("relaxation integrator failed: "
                             "event values at the step ends have the same sign")
    for _ in range(100):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero its inf fails the test below
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericalError("relaxation integrator failed: "
                         "event root not found in 100 iterations")


# The DOP853 tables: the literals of scipy 1.17.1's
# integrate/_ivp/dop853_coefficients.py, so that every coefficient is scipy's.
_N_STAGES = 12
_N_STAGES_EXTENDED = 16
_INTERPOLATOR_POWER = 7
_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])
_A = np.zeros((_N_STAGES_EXTENDED, _N_STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2
_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2
_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1
_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1
_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2
_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3
_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1
_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2
_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022
_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1
_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2
_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3
_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1
_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138
_B = _A[_N_STAGES, :_N_STAGES]
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(_N_STAGES + 1)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1
_D = np.zeros((_INTERPOLATOR_POWER - 3, _N_STAGES_EXTENDED))
_D[0, 0] = -0.84289382761090128651353491142e+1
_D[0, 5] = 0.56671495351937776962531783590
_D[0, 6] = -0.30689499459498916912797304727e+1
_D[0, 7] = 0.23846676565120698287728149680e+1
_D[0, 8] = 0.21170345824450282767155149946e+1
_D[0, 9] = -0.87139158377797299206789907490
_D[0, 10] = 0.22404374302607882758541771650e+1
_D[0, 11] = 0.63157877876946881815570249290
_D[0, 12] = -0.88990336451333310820698117400e-1
_D[0, 13] = 0.18148505520854727256656404962e+2
_D[0, 14] = -0.91946323924783554000451984436e+1
_D[0, 15] = -0.44360363875948939664310572000e+1
_D[1, 0] = 0.10427508642579134603413151009e+2
_D[1, 5] = 0.24228349177525818288430175319e+3
_D[1, 6] = 0.16520045171727028198505394887e+3
_D[1, 7] = -0.37454675472269020279518312152e+3
_D[1, 8] = -0.22113666853125306036270938578e+2
_D[1, 9] = 0.77334326684722638389603898808e+1
_D[1, 10] = -0.30674084731089398182061213626e+2
_D[1, 11] = -0.93321305264302278729567221706e+1
_D[1, 12] = 0.15697238121770843886131091075e+2
_D[1, 13] = -0.31139403219565177677282850411e+2
_D[1, 14] = -0.93529243588444783865713862664e+1
_D[1, 15] = 0.35816841486394083752465898540e+2
_D[2, 0] = 0.19985053242002433820987653617e+2
_D[2, 5] = -0.38703730874935176555105901742e+3
_D[2, 6] = -0.18917813819516756882830838328e+3
_D[2, 7] = 0.52780815920542364900561016686e+3
_D[2, 8] = -0.11573902539959630126141871134e+2
_D[2, 9] = 0.68812326946963000169666922661e+1
_D[2, 10] = -0.10006050966910838403183860980e+1
_D[2, 11] = 0.77771377980534432092869265740
_D[2, 12] = -0.27782057523535084065932004339e+1
_D[2, 13] = -0.60196695231264120758267380846e+2
_D[2, 14] = 0.84320405506677161018159903784e+2
_D[2, 15] = 0.11992291136182789328035130030e+2
_D[3, 0] = -0.25693933462703749003312586129e+2
_D[3, 5] = -0.15418974869023643374053993627e+3
_D[3, 6] = -0.23152937917604549567536039109e+3
_D[3, 7] = 0.35763911791061412378285349910e+3
_D[3, 8] = 0.93405324183624310003907691704e+2
_D[3, 9] = -0.37458323136451633156875139351e+2
_D[3, 10] = 0.10409964950896230045147246184e+3
_D[3, 11] = 0.29840293426660503123344363579e+2
_D[3, 12] = -0.43533456590011143754432175058e+2
_D[3, 13] = 0.96324553959188282948394950600e+2
_D[3, 14] = -0.39177261675615439165231486172e+2
_D[3, 15] = -0.14972683625798562581422125276e+3
_A_STEP = _A[:_N_STAGES, :_N_STAGES]
_C_STEP = _C[:_N_STAGES]
_A_EXTRA = _A[_N_STAGES + 1:]  # the dense output's three extra stages
_C_EXTRA = _C[_N_STAGES + 1:]
