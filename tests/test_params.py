import math

import numpy as np
import pytest

from cascaded_fwm import (
    MODE_LABELS,
    SWAP_PERMUTATION,
    ConfigError,
    ParameterError,
    Regime,
    Thresholds,
    classify_regime,
    compute_thresholds,
    resolve_epsilon,
)
from helpers import make_params, random_params

# Frozen from direct evaluation of the closed form (cross-checked below
# against the quadratic-root oracle).
EPS_TH_K2_04 = 0.0058094750193111245
EPS_TH_PRIME_K2_04 = 0.011618950038622249
EPS_COINCIDENT_K2_05 = 0.0073484692283495336


def test_has_threshold_follows_eps_th():
    # A property of eps_th, not a field stored beside it.
    for k2 in (0.4, 0.5, 0.6):
        th = compute_thresholds(make_params(k2))
        assert th.has_threshold is (th.eps_th is not None)
    assert compute_thresholds(make_params(0.6)).eps_th is None
    assert Thresholds(eps_th=None, eps_th_prime=None).has_threshold is False
    assert Thresholds(eps_th=0.1, eps_th_prime=0.2).has_threshold is True
    with pytest.raises(TypeError):
        Thresholds(eps_th=None, eps_th_prime=None, has_threshold=True)


def test_threshold_frozen_values():
    th = compute_thresholds(make_params(0.4))
    assert th.has_threshold
    assert abs(th.eps_th - EPS_TH_K2_04) < 1e-17
    assert abs(th.eps_th_prime - EPS_TH_PRIME_K2_04) < 1e-17
    assert th.eps_th_prime / th.eps_th == 2.0


def test_threshold_coincidence_k1_equals_2k2():
    th = compute_thresholds(make_params(0.5))
    assert th.has_threshold
    assert th.eps_th == th.eps_th_prime
    assert abs(th.eps_th - EPS_COINCIDENT_K2_05) < 1e-17


def test_no_threshold_when_coupling_too_weak():
    th = compute_thresholds(make_params(0.6))  # k1 = 1 < 2 * 0.6
    assert not th.has_threshold
    assert th.eps_th is None and th.eps_th_prime is None


def test_threshold_against_quadratic_root_oracle():
    # A_a^2 solves k2^2 x^2 - k1 gamma_c x + gamma_b gamma_c = 0; the
    # thresholds are gamma_a * sqrt(root).
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        params = random_params(rng)
        th = compute_thresholds(params)
        roots = np.roots([params.k2**2, -params.k1 * params.gamma_c,
                          params.gamma_b * params.gamma_c])
        if np.max(np.abs(roots.imag)) > 1e-12 * np.max(np.abs(roots)):
            assert not th.has_threshold
            continue
        assert th.has_threshold
        expected = np.sort(params.gamma_a * np.sqrt(roots.real))
        assert abs(th.eps_th - expected[0]) < 1e-12 * expected[1]
        assert abs(th.eps_th_prime - expected[1]) < 1e-12 * expected[1]
        assert 0.0 < th.eps_th <= th.eps_th_prime


def test_coincidence_manifold_random():
    # k1 engineered onto 2 k2 sqrt(gamma_b / gamma_c): the clamp must report
    # exactly coincident thresholds, not sqrt(rounding noise) splitting.
    rng = np.random.default_rng(7)
    for _ in range(25):
        gb, gc = 10.0 ** rng.uniform(-2.5, -0.5, size=2)
        k2 = 10.0 ** rng.uniform(-1.0, 0.3)
        params = make_params(0.5).__class__(
            gamma_a=0.03, gamma_b=gb, gamma_c=gc,
            k1=2.0 * k2 * math.sqrt(gb / gc), k2=k2, k3=k2)
        th = compute_thresholds(params)
        assert th.has_threshold
        assert abs(th.eps_th - th.eps_th_prime) <= 1e-12 * th.eps_th_prime


def test_threshold_monotonic_in_k1():
    k1_grid = np.linspace(0.9, 2.0, 12)
    lows, highs = [], []
    for k1 in k1_grid:
        th = compute_thresholds(make_params(0.4, k1=k1))
        lows.append(th.eps_th)
        highs.append(th.eps_th_prime)
    assert np.all(np.diff(lows) < 0)
    assert np.all(np.diff(highs) > 0)


def test_regime_boundaries():
    params = make_params(0.4)
    th = compute_thresholds(params)
    assert classify_regime(params.with_epsilon(0.0)) is Regime.BELOW_THRESHOLD
    assert classify_regime(params.with_epsilon(th.eps_th)) is Regime.BELOW_THRESHOLD
    assert (classify_regime(params.with_epsilon(th.eps_th * (1 + 1e-9)))
            is Regime.BETWEEN_THRESHOLDS)
    assert (classify_regime(params.with_epsilon(th.eps_th_prime))
            is Regime.BETWEEN_THRESHOLDS)
    assert (classify_regime(params.with_epsilon(th.eps_th_prime * 1.01))
            is Regime.ABOVE_UPPER_THRESHOLD)
    assert classify_regime(make_params(0.6, epsilon=1.0)) is Regime.NO_THRESHOLD


def test_regime_total_over_random_params():
    rng = np.random.default_rng(11)
    for _ in range(60):
        regime = classify_regime(random_params(rng))
        assert regime in Regime


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_params(0.4, gamma=-0.1)
    with pytest.raises(ParameterError):
        make_params(0.0)
    with pytest.raises(ParameterError):
        make_params(0.4, epsilon=-1e-9)
    with pytest.raises(ParameterError):
        make_params(0.4).__class__(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,
                                   k1=1.0, k2=0.4, k3=0.41)
    with pytest.raises(ParameterError):
        make_params(0.4, gamma=float("nan"))


def test_resolve_epsilon_modes():
    params = make_params(0.4)
    th = compute_thresholds(params)
    assert resolve_epsilon(params, "absolute", absolute=0.25) == 0.25
    assert resolve_epsilon(params, "rel_eps_th", ratio=1.2) == 1.2 * th.eps_th
    assert (resolve_epsilon(params, "rel_eps_th_prime", ratio=2.0)
            == 2.0 * th.eps_th_prime)
    with pytest.raises(ConfigError):
        resolve_epsilon(params, "absolute")
    with pytest.raises(ConfigError):
        resolve_epsilon(params, "rel_eps_th")
    with pytest.raises(ConfigError):
        resolve_epsilon(params, "nonsense", ratio=1.0)
    with pytest.raises(ConfigError):
        resolve_epsilon(make_params(0.6), "rel_eps_th", ratio=1.2)


@pytest.mark.parametrize("mode, ratio, absolute, error, key", [
    # The refused value used to be ignored: 0.1 came back.
    ("absolute", 1.0, 0.1, ConfigError, "epsilon_ratio"),
    ("rel_eps_th", 1.2, 0.1, ConfigError, "epsilon_abs"),
    ("rel_eps_th", -0.5, None, ParameterError, "epsilon_ratio"),
    ("absolute", None, float("inf"), ParameterError, "epsilon_abs"),
    ("squared", 1.0, None, ConfigError, "epsilon_mode"),
])
def test_resolve_epsilon_names_the_key_at_fault(mode, ratio, absolute, error, key):
    with pytest.raises(error) as info:
        resolve_epsilon(make_params(0.4), mode, ratio=ratio, absolute=absolute)
    assert info.value.key == key


def test_parameter_errors_name_the_parameter_at_fault():
    with pytest.raises(ParameterError) as info:
        make_params(0.4, gamma=0.0)
    assert info.value.key == "gamma_a"
    assert str(info.value) == "gamma_a must be finite and > 0, got 0.0"
    with pytest.raises(ParameterError) as info:
        make_params(0.4, epsilon=math.nan)
    assert info.value.key == "epsilon"
    assert str(info.value) == "epsilon must be finite and >= 0, got nan"
    with pytest.raises(ParameterError) as info:
        make_params(0.4).__class__(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,
                                   k1=1.0, k2=0.4, k3=0.41)
    assert info.value.key == "k3"


def test_mode_bookkeeping():
    assert MODE_LABELS == ("p2", "p1", "i1", "s1", "i2", "s2")
    perm = np.array(SWAP_PERMUTATION)
    # the swap p1<->p2, i1<->s1, i2<->s2 is an involution
    assert np.array_equal(perm[perm], np.arange(6))
    assert tuple(MODE_LABELS[i] for i in perm) == ("p1", "p2", "s1", "i1", "s2", "i2")


def test_damping_rates_vector():
    params = make_params(0.4).__class__(gamma_a=0.01, gamma_b=0.02, gamma_c=0.03,
                                        k1=1.0, k2=0.4, k3=0.4)
    assert np.array_equal(params.damping_rates(),
                          [0.01, 0.01, 0.02, 0.02, 0.03, 0.03])
