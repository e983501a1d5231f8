"""scipy as a test oracle for the numpy-only quadrature and Lyapunov solve.

``integrated_spectrum`` runs a port of ``scipy.integrate.quad_vec`` and
``stationary_covariance`` a Kronecker-sum solve; both are checked here
against the scipy routines they replace, on the decaying models of every
regime that has one and on the criterion-12 Monte-Carlo point.
"""

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import solve_continuous_lyapunov

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
