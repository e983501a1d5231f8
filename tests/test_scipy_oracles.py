"""scipy as a test oracle for the numpy-only quadrature, Lyapunov solve and ODE solver.

``integrated_spectrum`` runs a port of ``scipy.integrate.quad_vec`` and
``stationary_covariance`` a Kronecker-sum solve; both are checked here
against the scipy routines they replace, on the decaying models of every
regime that has one and on the criterion-12 Monte-Carlo point.  The
relaxation oracle's port of ``solve_ivp``'s DOP853 is checked here by its
coefficient tables and its ``brentq``; ``tests/test_steady_state.py``
checks whole relaxations against ``solve_ivp``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.integrate._ivp import dop853_coefficients
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import brentq

from cascaded_fwm import (
    NumericalError,
    analytic_steady_states,
    build_fluctuation_model,
    integrated_spectrum,
    mc_stationary_covariance,
    spectral_matrix,
    stability,
    stationary_covariance,
)
from cascaded_fwm import relaxation
from cascaded_fwm.cli import parse_config
from cascaded_fwm.spectra import _quad_gk21, _spectral_stack
from cascaded_fwm.vlf import build_branch_model
from helpers import random_params

REGIMES = ("NoThreshold", "BelowThreshold", "BetweenThresholds",
           "AboveUpperThreshold")

CRITERION_12 = (
    "gamma_a = 0.03\ngamma_b = 0.03\ngamma_c = 0.03\n"
    "k1 = 1.0\nk2 = 0.4\nk3 = 0.4\n"
    "epsilon_mode = rel_eps_th\nepsilon_ratio = 0.8\nbranch = trivial\n")


def criterion_12_model():
    return build_branch_model(parse_config(CRITERION_12).system(), "trivial")


def decaying_models(per_regime=4, seed=2024):
    """Every decisively decaying branch of a few random parameter sets per
    regime, then the criterion-12 model."""
    rng = np.random.default_rng(seed)
    models = []
    for regime in REGIMES:
        for _ in range(per_regime):
            params = random_params(rng, regime)
            for state in analytic_steady_states(params):
                model = build_fluctuation_model(params, state)
                report = stability(model.m)
                if report.stable and not report.indeterminate:
                    models.append(model)
    return models + [criterion_12_model()]


def test_quadrature_port_equals_quad_vec():
    models = decaying_models()
    assert len(models) >= 5
    for model in models:
        half_width = 1e3 * model.params.gamma_a
        want, want_err = quad_vec(lambda w: spectral_matrix(model, w).real,
                                  0.0, half_width, epsabs=1e-10, epsrel=1e-10,
                                  norm="max")
        got, got_err = _quad_gk21(
            lambda w: _spectral_stack(model.m, model.d, w).real,
            0.0, half_width, 1e-10, 1e-10)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale
        assert abs(got_err - want_err) <= 1e-14 * scale
        tail = model.d.real / (np.pi * half_width)
        assert np.array_equal(integrated_spectrum(model), got / np.pi + tail)


def test_kronecker_covariance_equals_scipy_lyapunov():
    # scipy pairs the real Schur form of a real A with the complex
    # Sylvester solver when Q is complex, which is wrong for complex
    # eigenvalues of A; a complex A takes its complex Schur path, which
    # solves A X + X A^H = X M^T + M X here since M is real.
    models = decaying_models()
    assert any(np.iscomplex(np.linalg.eigvals(model.m)).any() for model in models)
    for model in models:
        sigma = stationary_covariance(model)
        want = solve_continuous_lyapunov(model.m.astype(complex), model.d)
        assert np.max(np.abs(sigma - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("ratio", ["0.999999", "0.9999999"])
def test_covariance_near_threshold_equals_scipy_lyapunov(ratio):
    # Sigma grows as 1 / margin here; a residual budget of 1e-10 max|D|
    # refused these solves (6.2e-12 against 3.75e-12 at 0.999999 eps_th),
    # which agree with scipy to the conditioning of the problem.
    config = CRITERION_12.replace("epsilon_ratio = 0.8", f"epsilon_ratio = {ratio}")
    model = build_branch_model(parse_config(config).system(), "trivial")
    sigma = stationary_covariance(model)
    want = solve_continuous_lyapunov(model.m.astype(complex), model.d)
    assert np.max(np.abs(sigma - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("unit", [1e-6, 1.0, 1e6])
def test_a_corrupted_covariance_is_refused_in_any_time_unit(unit, monkeypatch):
    # A time unit scales M and D alike and leaves Sigma as it is; an
    # absolute floor on the budget once let a Sigma off by 1e-8 of its size
    # through at unit 1e-6.
    model = criterion_12_model()
    model = replace(model, m=model.m * unit, d=model.d * unit)
    stationary_covariance(model)
    solve = np.linalg.solve

    def corrupted(a, b):
        x = solve(a, b)
        x[0] += 1e-8 * np.max(np.abs(x))
        return x

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(NumericalError, match="Lyapunov solve residual"):
        stationary_covariance(model)


def test_covariance_is_exactly_zero_where_the_ensemble_is():
    model = criterion_12_model()
    sigma = stationary_covariance(model)
    sigma_mc, stderr = mc_stationary_covariance(model, n_paths=4, seed=12345)
    silent = stderr == 0.0
    assert np.count_nonzero(silent) == 80
    assert np.all(sigma_mc[silent] == 0.0)
    assert np.all(sigma[silent] == 0.0)


def test_quadrature_refuses_a_nan_integrand():
    with pytest.raises(NumericalError, match="not finite"):
        _quad_gk21(lambda w: np.full((w.size, 2), np.nan), 0.0, 1.0, 1e-10, 1e-10)


def test_quadrature_refuses_to_return_before_converging():
    # A square wave of period ~6e-8 on [0, 1] leaves every one of 10000
    # intervals with an error estimate far above the tolerance.
    def square_wave(w):
        return np.sign(np.sin(1e8 * w))[:, None] * np.ones(2)

    with pytest.raises(NumericalError, match="10000 intervals"):
        _quad_gk21(square_wave, 0.0, 1.0, 1e-10, 1e-10)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E3", "E5"])
def test_dop853_tables_equal_scipy(name):
    ported, table = getattr(relaxation, f"_{name}"), getattr(dop853_coefficients, name)
    assert ported.shape == table.shape
    assert np.array_equal(ported, table)


EPS4 = 4 * np.finfo(float).eps


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: math.exp(x) - 1e4, 0.0, 20.0),
    (lambda x: x**9 - 1e-3, 0.0, 1.0),
    (lambda x: math.sin(x) - 0.5, 0.0, 2.0),
    (lambda x: 1e-12 * (x - 1.0 / 3.0), 0.0, 1.0),
    (lambda x: x, -1.0, 1.0),
    (lambda x: 1.0 - x, 0.0, 1.0),
], ids=["cubic", "cos", "tanh", "exp", "ninth", "sin", "small", "zero-midpoint",
        "zero-end"])
def test_brentq_port_equals_scipy(f, a, b):
    # solve_ivp's settings: xtol = rtol = 4 eps, 100 iterations.
    got_calls, want_calls = [], []
    got = relaxation._brentq(_logged(f, got_calls), a, b)
    want = brentq(_logged(f, want_calls), a, b, xtol=EPS4, rtol=EPS4)
    assert got == want
    assert got_calls == want_calls


def _logged(f, calls):
    def g(x):
        calls.append(x)
        return f(x)
    return g


def test_brentq_port_stops_where_scipy_does():
    # A fifth-order root defeats a relative tolerance of 4 eps: both search
    # the same 102 points, and scipy's RuntimeError is a NumericalError here.
    def quintic(x):
        return (x - 0.7)**5

    got_calls, want_calls = [], []
    with pytest.raises(NumericalError, match="100 iterations"):
        relaxation._brentq(_logged(quintic, got_calls), 0.0, 1.0)
    brentq(_logged(quintic, want_calls), 0.0, 1.0, xtol=EPS4, rtol=EPS4, disp=False)
    assert len(want_calls) == 102
    assert got_calls == want_calls


def test_brentq_port_refuses_an_unbracketed_root():
    with pytest.raises(NumericalError, match="same sign"):
        relaxation._brentq(lambda x: x + 1.0, 0.0, 1.0)
