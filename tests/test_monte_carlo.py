"""Stochastic cross-checks of the linearized model.

Every random test here uses a frozen seed and a tolerance of three standard
errors measured from the ensemble itself, so the suite is deterministic.
"""

import threading
import time
import warnings

import numpy as np
import pytest

from cascaded_fwm import (
    NumericalError,
    ParameterError,
    StabilityError,
    StepSizeError,
    analytic_steady_states,
    build_fluctuation_model,
    default_step,
    estimate_spectrum,
    factor_diffusion,
    mc_stationary_covariance,
    simulate_ou,
    spectral_matrix,
    stability,
    state_for_branch,
    stationary_covariance,
    takagi,
)
from cascaded_fwm import monte_carlo
from cascaded_fwm.monte_carlo import _CHUNK, _euler_maruyama
from helpers import (
    pumped,
    random_params,
    reference_mc_covariance,
    reference_simulate_ou,
    toy_model,
)


def check_takagi(a, sigma, u):
    a = np.asarray(a, dtype=complex)
    rebuilt = u @ np.diag(sigma) @ u.T
    assert np.max(np.abs(rebuilt - a)) < 1e-10 * max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(sigma)))) < 1e-10
    assert np.all(sigma >= 0.0)
    assert np.all(np.diff(sigma) <= 1e-12)


def test_takagi_real_indefinite():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    a = (g + g.T) / 2.0  # indefinite almost surely
    sigma, u = takagi(a)
    assert np.any(np.linalg.eigvalsh(a) < 0)
    check_takagi(a, sigma, u)


def test_takagi_rejects_bad_input():
    for shape in ((2, 3), (), (0, 0), (2,), (2, 2, 2)):
        with pytest.raises(ParameterError, match="square"):
            takagi(np.zeros(shape))
    with pytest.raises(ParameterError, match="symmetric"):
        takagi(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ParameterError, match="real"):
        takagi((0.8 - 0.6j) * np.eye(2))
    # max(nan, 1.0) is NaN, so a NaN entry slips past the symmetry test.
    for nan in (np.nan, complex(np.nan, 0.0)):
        with pytest.raises(ParameterError, match="finite"):
            takagi(np.array([[1.0, 0.0], [0.0, nan]]))


def test_factor_diffusion_cases():
    zero = factor_diffusion(np.zeros((4, 4)))
    assert np.max(np.abs(zero.b)) == 0.0

    ident = factor_diffusion(np.eye(3))
    assert np.max(np.abs(ident.b @ ident.b.T - np.eye(3))) < 1e-12

    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    noise = factor_diffusion(model.d)
    assert noise.residual < 1e-10
    assert np.max(np.abs(noise.b @ noise.b.T - model.d)) < 1e-10


@pytest.mark.parametrize("regime", ["NoThreshold", "BelowThreshold",
                                    "BetweenThresholds", "AboveUpperThreshold"])
def test_every_model_is_real_and_factors_within_budget(regime):
    # takagi factors real matrices only; real amplitudes must give a
    # float64 M and D on every branch of every regime.
    rng = np.random.default_rng(31)
    for _ in range(4):
        params = random_params(rng, regime)
        for state in analytic_steady_states(params):
            model = build_fluctuation_model(params, state)
            assert model.m.dtype == model.d.dtype == np.float64
            noise = factor_diffusion(model.d)
            assert noise.residual <= 1e-10 * (1.0 + np.max(np.abs(model.d)))


def below_threshold_model():
    params = pumped(0.4, 0.8)
    return build_fluctuation_model(params, state_for_branch(params, "trivial"))


def test_simulation_is_deterministic():
    model = below_threshold_model()
    a = simulate_ou(model, steps=64, n_paths=3, seed=11)
    b = simulate_ou(model, steps=64, n_paths=3, seed=11)
    c = simulate_ou(model, steps=64, n_paths=3, seed=12)
    assert np.array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)
    assert a.paths.shape == (3, 65, 12)


def test_noiseless_path_decays_exponentially():
    gamma = 0.5
    model = toy_model([[gamma]], [[0.0]])
    dt = 0.01
    ens = simulate_ou(model, steps=200, n_paths=1, seed=0, dt=dt,
                      initial=np.array([2.0]))
    expected = 2.0 * (1.0 - dt * gamma) ** 200
    assert ens.paths[0, -1, 0] == pytest.approx(expected, rel=1e-12)


def test_step_size_guard():
    model = below_threshold_model()
    with pytest.raises(StepSizeError, match="too large"):
        simulate_ou(model, steps=8, n_paths=1, seed=0, dt=1e3)
    with pytest.raises(StepSizeError, match="dt = nan too large"):
        simulate_ou(model, steps=8, n_paths=2, seed=0, dt=float("nan"))
    dt = default_step(model)
    assert dt * np.max(np.abs(np.linalg.eigvals(model.m))) < 0.1 + 1e-12


def test_refuses_marginal_and_unstable_drift():
    marginal = pumped(0.4, 1.2)
    model = build_fluctuation_model(marginal, state_for_branch(marginal, "lower"))
    with pytest.raises(StabilityError, match="decisively decaying"):
        simulate_ou(model, steps=8, n_paths=1, seed=0)

    runaway = pumped(0.4, 2.2, reference="eps_th_prime")
    model = build_fluctuation_model(runaway, state_for_branch(runaway, "lower"))
    with pytest.raises(StabilityError):
        mc_stationary_covariance(model, n_paths=1, seed=0)


@pytest.mark.parametrize("m", [[[0.0, 0.0], [0.0, 0.0]],   # no decay at all
                               [[0.0, 1.0], [-1.0, 0.0]],  # a pure rotation
                               [[-1.0, 0.0], [0.0, -1.0]]])  # growth
def test_default_step_refuses_a_drift_without_decay(m):
    # The first two divided by max|Re eig| = 0; the growing drift got a
    # step, 0.01, that no simulation of it accepts.
    with pytest.raises(StabilityError, match="decisively decaying"):
        default_step(toy_model(m, np.eye(2)))


def test_scalar_ou_variance():
    # d x = -x dt + sqrt(2) dW has unit stationary variance.
    model = toy_model([[1.0]], [[2.0]])
    sigma_hat, stderr = mc_stationary_covariance(model, n_paths=16, seed=99)
    assert abs(sigma_hat[0, 0].real - 1.0) <= 3.0 * stderr[0, 0]


def test_cascade_covariance_matches_lyapunov():
    model = below_threshold_model()
    sigma = stationary_covariance(model)
    sigma_hat, stderr = mc_stationary_covariance(model, n_paths=16, seed=4242)
    mask = stderr > 0
    z = np.max(np.abs(sigma_hat - sigma)[mask] / stderr[mask])
    assert z <= 3.0


def test_estimated_spectrum_matches_analytic():
    model = below_threshold_model()
    gamma_a = model.params.gamma_a
    length = 4096
    ens = simulate_ou(model, steps=6 * length, n_paths=8, seed=777)
    omegas = np.array([0.2, 0.5, 1.0, 2.0]) * gamma_a
    est = estimate_spectrum(ens, omegas, segment_length=length, skip=length)
    assert est.n_segments == 40
    bin_width = 2.0 * np.pi / (length * ens.dt)
    assert np.max(np.abs(est.omega_used - est.omega)) <= bin_width / 2 + 1e-12
    worst = 0.0
    for i, w in enumerate(est.omega_used):
        target = spectral_matrix(model, w)
        mask = est.stderr[i] > 0
        z = np.max(np.abs(est.values[i] - target)[mask] / est.stderr[i][mask])
        worst = max(worst, z)
    assert worst <= 3.0


def test_estimate_spectrum_validation():
    model = below_threshold_model()
    ens = simulate_ou(model, steps=256, n_paths=1, seed=3)
    nyquist = np.pi / ens.dt
    with pytest.raises(ParameterError, match="Nyquist"):
        estimate_spectrum(ens, [2.0 * nyquist], segment_length=128)
    with pytest.raises(ParameterError, match="incompatible"):
        estimate_spectrum(ens, [0.1], segment_length=512)
    with pytest.raises(ParameterError, match="two segments"):
        estimate_spectrum(ens, [0.1], segment_length=256)


@pytest.mark.parametrize("name, value", [
    ("segment_length", 256.0), ("segment_length", 4), ("segment_length", True),
    ("skip", 1.5), ("skip", -1),
])
def test_estimate_spectrum_refuses_non_integral_lengths(name, value):
    # A float length or skip used to fail inside numpy with a bare TypeError.
    ens = simulate_ou(below_threshold_model(), steps=1024, n_paths=2, seed=3)
    args = {"segment_length": 256, "skip": 0, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        estimate_spectrum(ens, [0.1], **args)


def test_estimate_spectrum_rejects_a_nan_frequency():
    # Cast to an FFT bin, NaN became bin 0 and returned the DC estimate.
    ens = simulate_ou(below_threshold_model(), steps=1024, n_paths=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="NaN"):
            estimate_spectrum(ens, [0.1, np.nan], segment_length=256)


def test_estimate_spectrum_takes_a_scalar_or_a_vector_of_frequencies():
    # [[0.1]] used to come back as values of shape (1, 1, 12, 12).
    ens = simulate_ou(below_threshold_model(), steps=1024, n_paths=2, seed=3)
    for bad in ([[0.1]], np.zeros((2, 1))):
        with pytest.raises(ParameterError, match="scalar or 1-D"):
            estimate_spectrum(ens, bad, segment_length=256)
    scalar = estimate_spectrum(ens, 0.1, segment_length=256)
    vector = estimate_spectrum(ens, [0.1], segment_length=256)
    assert scalar.values.shape == (1, 12, 12)
    assert np.array_equal(scalar.values, vector.values)


def test_estimate_spectrum_rejects_a_negative_skip():
    # As a slice start, skip=-512 kept only the last 512 samples of each path.
    ens = simulate_ou(below_threshold_model(), steps=1024, n_paths=2, seed=3)
    with pytest.raises(ParameterError, match="skip"):
        estimate_spectrum(ens, [0.1], segment_length=256, skip=-512)


def test_simulation_input_validation():
    model = below_threshold_model()
    with pytest.raises(ParameterError, match=">= 1"):
        simulate_ou(model, steps=0, n_paths=1, seed=0)
    # A NaN start ran to all-NaN paths; a wrong shape failed to broadcast.
    with pytest.raises(ParameterError, match="finite"):
        simulate_ou(model, steps=8, n_paths=2, seed=0, initial=np.full(12, np.nan))
    for bad in (np.zeros(6), np.zeros((2, 12))):
        with pytest.raises(ParameterError, match=r"shape \(12,\)"):
            simulate_ou(model, steps=8, n_paths=2, seed=0, initial=bad)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", -1), ("seed", 2.0), ("seed", True),
    ("steps", 10.5), ("steps", 2.0), ("steps", True),
    ("n_paths", 10.5), ("n_paths", 2.0), ("n_paths", True),
])
def test_simulate_ou_refuses_non_integral_or_negative_counts(name, value):
    # Before these checks seed=1.5 ran silently as seed 1, a negative seed
    # failed inside numpy, and a float or bool count raised a bare TypeError.
    model = below_threshold_model()
    args = {"steps": 8, "n_paths": 2, "seed": 0, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        simulate_ou(model, **args)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", -1), ("seed", True), ("n_paths", 2.0), ("n_paths", 10.5),
    ("n_paths", True),
])
def test_mc_covariance_refuses_non_integral_or_negative_counts(name, value):
    model = toy_model([[1.0]], [[2.0]])
    args = {"n_paths": 2, "seed": 0, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        mc_stationary_covariance(model, **args)


def test_counts_accept_numpy_integers():
    model = below_threshold_model()
    ens = simulate_ou(model, steps=np.int64(8), n_paths=np.int32(2), seed=np.uint8(3))
    ref = simulate_ou(model, steps=8, n_paths=2, seed=3)
    assert np.array_equal(ens.paths, ref.paths)
    assert type(ens.seed) is int and type(ens.count) is int


def test_simulate_ou_matches_sequential_reference():
    model = below_threshold_model()
    steps = 3 * _CHUNK + 37
    initial = np.linspace(-1.0, 1.0, 12) + 0.5j
    for start in (None, initial):
        ens = simulate_ou(model, steps=steps, n_paths=3, seed=21, initial=start)
        ref = reference_simulate_ou(model, steps, n_paths=3, seed=21, initial=start)
        assert np.array_equal(ens.paths, ref)


@pytest.mark.parametrize("n_paths", [1, 2, 3, 8, 64])
def test_simulate_ou_matches_sequential_reference_at_any_path_count(n_paths):
    # At one path numpy sends each per-step (1, dim) product through a
    # vector kernel; the stepper keeps the reference's operand layouts, so
    # it is exact there too.
    model = below_threshold_model()
    steps = 3 * _CHUNK + 37
    initial = np.linspace(-1.0, 1.0, 12) * (0.3 - 0.2j)
    for start in (None, initial):
        ens = simulate_ou(model, steps=steps, n_paths=n_paths, seed=4, initial=start)
        ref = reference_simulate_ou(model, steps, n_paths=n_paths, seed=4, initial=start)
        assert np.array_equal(ens.paths, ref)


def test_yielded_chunks_stay_valid_until_the_stepper_ends():
    # Every chunk is kept until the generator is exhausted, so a buffer
    # reused across yields, or a start state written to, would show here.
    model = below_threshold_model()
    steps = 3 * _CHUNK + 37
    start = np.tile(np.linspace(-1.0, 1.0, 12) + 0.5j, (4, 1))
    kept = start.copy()
    chunks = list(_euler_maruyama(model, default_step(model), steps, 13, start))
    assert [c.shape for c in chunks] == [(4, _CHUNK, 12)] * 3 + [(4, 37, 12)]
    ref = reference_simulate_ou(model, steps, n_paths=4, seed=13, initial=kept[0])
    assert np.array_equal(np.concatenate(chunks, axis=1), ref[:, 1:, :])
    assert np.array_equal(start, kept)


def fast_relaxing_model():
    # Margin 1 and max|eig| about 3: the default step is ~1/300, so the
    # burn-in takes ~2400 steps and the average ~15000.
    m = np.array([[1.0, 0.0, 0.0],
                  [0.4, 2.0, 0.0],
                  [0.0, 0.7, 3.0]])
    d = np.array([[2.0, 0.3, 0.0],
                  [0.3, -1.0, 0.5],
                  [0.0, 0.5, 1.5]])
    return toy_model(m, d)


def test_mc_covariance_matches_sequential_reference():
    model = fast_relaxing_model()
    relax_time = 1.0 / stability(model.m).margin
    burn_steps = int(np.ceil(8.0 * relax_time / default_step(model)))
    assert burn_steps % _CHUNK != 0  # the burn-in ends inside a chunk
    sigma_hat, stderr = mc_stationary_covariance(model, n_paths=8, seed=5)
    ref_sigma, ref_stderr = reference_mc_covariance(model, n_paths=8, seed=5)
    for got, ref in ((sigma_hat, ref_sigma), (stderr, ref_stderr)):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_mc_covariance_without_diffusion_is_exactly_zero():
    model = toy_model(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    sigma_hat, stderr = mc_stationary_covariance(model, n_paths=4, seed=0)
    assert np.array_equal(sigma_hat, np.zeros((2, 2)))
    assert np.array_equal(stderr, np.zeros((2, 2)))


def test_mc_covariance_refuses_a_run_over_its_step_budget_before_simulating():
    # At 0.9999 eps_th the margin is 6.0e-6, so the stationary average would
    # take about 5.8e7 steps per path; the criterion-12 point takes 26,423.
    params = pumped(0.4, 0.9999)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    start = time.perf_counter()
    with pytest.raises(NumericalError, match=r"needs 57997102 steps per path at margin "
                                             r"6\.000e-06, over the budget of 2500000"):
        mc_stationary_covariance(model, n_paths=64, seed=12345)
    assert time.perf_counter() - start < 1.0


def test_mc_covariance_needs_two_paths():
    model = toy_model([[1.0]], [[2.0]])
    for n_paths in (0, 1):
        with pytest.raises(ParameterError, match="two paths"):
            mc_stationary_covariance(model, n_paths=n_paths, seed=0)


@pytest.mark.parametrize("n_paths", [1, 2, 3, 8, 64])
def test_simulate_ou_matches_reference_down_to_the_sign_of_zero(n_paths):
    # np.array_equal counts -0.0 equal to +0.0. On the trivial branch the
    # pumps carry no noise, so many path floats are exactly zero; comparing
    # their signs pins that the real noise product rounds like the complex
    # one of the reference, on whatever BLAS runs the suite.
    model = below_threshold_model()
    steps = 3 * _CHUNK + 37
    got = simulate_ou(model, steps=steps, n_paths=n_paths, seed=4).paths.view(float)
    want = reference_simulate_ou(model, steps, n_paths=n_paths, seed=4).view(float)
    assert np.count_nonzero(want == 0.0) > want.size // 4
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_no_helper_thread_outlives_a_simulation():
    # The stepper draws its normals on a helper thread; every public call
    # joins it before it returns.
    model = below_threshold_model()
    before = threading.active_count()
    simulate_ou(model, steps=3 * _CHUNK + 37, n_paths=3, seed=4)
    assert threading.active_count() == before
    mc_stationary_covariance(fast_relaxing_model(), n_paths=4, seed=5)
    assert threading.active_count() == before


def test_closing_the_stepper_early_joins_its_helper_thread():
    model = below_threshold_model()
    before = threading.active_count()
    stepper = _euler_maruyama(model, default_step(model), 3 * _CHUNK + 37, 4,
                              np.zeros((3, 12), dtype=complex))
    first = next(stepper)
    assert first.shape == (3, _CHUNK, 12)
    # The next chunk's draw is under way (or done) on the helper thread.
    assert threading.active_count() == before + 1
    stepper.close()
    assert threading.active_count() == before


def test_a_failed_draw_is_raised_and_leaves_no_thread(monkeypatch):
    error = RuntimeError("draw failed")

    class FailsOnSecondDraw:
        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def standard_normal(self, out):
            self.draws += 1
            if self.draws == 2:
                raise error
            return self.rng.standard_normal(out=out)

    path_rng = monte_carlo._path_rng
    monkeypatch.setattr(monte_carlo, "_path_rng",
                        lambda seed, p: FailsOnSecondDraw(path_rng(seed, p)))
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        simulate_ou(below_threshold_model(), steps=3 * _CHUNK + 37, n_paths=3, seed=4)
    assert raised.value is error
    assert threading.active_count() == before


def test_concurrent_simulations_equal_sequential_ones():
    # Two calls stepping at the same time from two threads share no buffer:
    # each returns the bytes of the same call made alone.
    model = below_threshold_model()
    steps = 3 * _CHUNK + 37
    alone = {seed: simulate_ou(model, steps=steps, n_paths=3, seed=seed).paths
             for seed in (4, 5)}
    together = {}
    start = threading.Barrier(2)

    def run(seed):
        start.wait()
        together[seed] = simulate_ou(model, steps=steps, n_paths=3, seed=seed).paths

    threads = [threading.Thread(target=run, args=(seed,)) for seed in (4, 5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for seed in (4, 5):
        assert np.array_equal(together[seed].view(float), alone[seed].view(float))
        assert np.array_equal(np.signbit(together[seed].view(float)),
                              np.signbit(alone[seed].view(float)))
