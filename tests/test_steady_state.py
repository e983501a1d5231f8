import gzip
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cascaded_fwm import (
    Branch,
    Mode,
    ParameterError,
    Regime,
    SteadyState,
    SystemParams,
    analytic_steady_states,
    basin_statistics,
    build_branch_model,
    compute_thresholds,
    drift,
    relax_to_steady_state,
    sample_initial_conditions,
    state_for_branch,
)
from cascaded_fwm.cli import figure_config
from cascaded_fwm.steady_state import _DRIFT_TERMS, P1, P2
from helpers import (
    REGIMES,
    amplitudes_in_every_regime,
    make_params,
    pumped,
    random_params,
    reference_drift,
    reference_relax,
)

# Frozen fig-3 lower-branch amplitudes (eps = 1.2 eps_th, k2 = 0.4): from
# A_a = eps_th / gamma_a and the closed-form daughter amplitudes.
FIG3_A_A = 0.19364916731037084
FIG3_A_B = 0.07745966692414831
FIG3_A_C = 0.03872983346207415

# The benchmark's reference endpoints, written by bench/capture_reference.py; read only.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


def test_drift_at_zero_amplitudes():
    params = make_params(0.4, epsilon=0.005)
    f = drift(params, np.zeros(6, dtype=complex))
    assert np.array_equal(f, [0.005, 0.005, 0.0, 0.0, 0.0, 0.0])


def test_trivial_branch_is_stationary():
    params = make_params(0.4, epsilon=0.003)
    a = np.array([0.1, 0.1, 0, 0, 0, 0], dtype=complex)
    assert np.max(np.abs(drift(params, a))) < 1e-17


def test_fig3_lower_branch_frozen():
    params = pumped(0.4, 1.2)
    state = state_for_branch(params, Branch.LOWER)
    assert state.regime is Regime.BETWEEN_THRESHOLDS
    expected = [FIG3_A_A, FIG3_A_A, FIG3_A_B, FIG3_A_B, FIG3_A_C, FIG3_A_C]
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-15
    assert np.max(np.abs(drift(params, state.amplitudes))) < 1e-10


def test_steady_state_refuses_complex_amplitudes():
    # A nonzero imaginary part, NaN included, is refused rather than dropped.
    for bad in (1.0 + 1.0j, 0.5 - 1e-300j, complex(0.5, np.nan)):
        amps = np.array([bad, 1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ParameterError, match="real"):
            SteadyState(amps, Branch.TRIVIAL, Regime.BELOW_THRESHOLD)


def test_steady_state_stores_zero_imaginary_input_as_float64():
    # Complex-typed input whose imaginary parts are all zero (of either
    # sign) is stored as its real part, bit for bit.
    real = np.array([0.2, 0.2, 0.1, 0.1, 0.05, 0.0])
    for imag in (0.0, -0.0):
        amps = real.astype(complex)
        amps.imag = imag
        state = SteadyState(amps, Branch.TRIVIAL, Regime.BELOW_THRESHOLD)
        assert state.amplitudes.dtype == np.float64
        assert np.array_equal(state.amplitudes, real)
        assert not np.any(np.signbit(state.amplitudes))
        assert not hasattr(state, "alpha")  # the amplitudes are the one state vector


def test_residuals_on_randomized_grid():
    # 100 parameter sets spanning all four regimes; every analytic branch
    # must satisfy the stationarity equations to 1e-10.
    rng = np.random.default_rng(314159)
    regimes = ("NoThreshold", "BelowThreshold", "BetweenThresholds",
               "AboveUpperThreshold")
    for i in range(100):
        params = random_params(rng, regime=regimes[i % 4])
        for state in analytic_steady_states(params):
            residual = np.max(np.abs(drift(params, state.amplitudes)))
            assert residual < 1e-10, (params, state.branch, residual)


def test_branch_count_per_regime():
    below = analytic_steady_states(pumped(0.4, 0.7))
    assert [s.branch for s in below] == [Branch.TRIVIAL]
    assert below[0].amplitudes[Mode.P1] == pytest.approx(0.7 * compute_thresholds(
        make_params(0.4)).eps_th / 0.03)
    between = analytic_steady_states(pumped(0.4, 1.5))
    assert [s.branch for s in between] == [Branch.LOWER]
    above = analytic_steady_states(pumped(0.4, 1.1, reference="eps_th_prime"))
    assert [s.branch for s in above] == [Branch.LOWER, Branch.UPPER]
    th = compute_thresholds(make_params(0.4))
    assert above[0].amplitudes[Mode.P1] == pytest.approx(th.eps_th / 0.03, rel=1e-14)
    assert above[1].amplitudes[Mode.P1] == pytest.approx(th.eps_th_prime / 0.03, rel=1e-14)


def test_branch_continuity_at_threshold():
    # As eps -> eps_th from above the converted branch collapses onto the
    # trivial one.
    params = pumped(0.4, 1.0 + 1e-12)
    state = state_for_branch(params, Branch.LOWER)
    assert state.amplitudes[Mode.S1] < 1e-5
    assert state.amplitudes[Mode.S2] < 1e-5
    trivial_a = params.epsilon / params.gamma_a
    assert abs(state.amplitudes[Mode.P1] - trivial_a) < 1e-11


def test_missing_branch_is_an_error():
    with pytest.raises(ParameterError, match="upper"):
        state_for_branch(pumped(0.4, 1.5), Branch.UPPER)
    with pytest.raises(ParameterError, match="trivial"):
        state_for_branch(pumped(0.4, 0.5), Branch.LOWER)


@pytest.mark.parametrize("build", [state_for_branch, build_branch_model])
def test_unknown_branch_name_is_a_parameter_error(build):
    # The enum lookup alone raised a bare ValueError ("'bogus' is not a
    # valid Branch") that named none of the valid values.
    with pytest.raises(ParameterError, match="valid: trivial, lower, upper"):
        build(pumped(0.4, 1.2), "bogus")


def test_steady_state_has_no_symmetric_accessors():
    # The symmetric ansatz is _converted_state's alone; readers index
    # amplitudes by Mode, which also holds on a pump-asymmetric state.
    state = state_for_branch(pumped(0.4, 1.2), Branch.LOWER)
    for name in ("a_a", "a_b", "a_c"):
        assert not hasattr(state, name)


def test_relaxation_reaches_lower_branch():
    params = pumped(0.4, 1.2)
    state = state_for_branch(params, Branch.LOWER)
    # phase-twisted start: matching is on moduli, so this must still match
    initial = state.amplitudes * np.exp(0.3j) + 1e-3
    result = relax_to_steady_state(params, initial, tol=1e-10)
    assert result.status == "converged"
    assert result.matched is not None
    assert result.matched.branch is Branch.LOWER
    assert result.distance < 1e-6


def test_relaxation_below_threshold():
    params = pumped(0.4, 0.6)
    result = relax_to_steady_state(params, np.full(6, 0.01 + 0.02j), tol=1e-11)
    assert result.status == "converged"
    assert result.matched is not None and result.matched.branch is Branch.TRIVIAL


def test_relaxation_timeout_reported():
    params = pumped(0.4, 1.2)
    result = relax_to_steady_state(params, np.full(6, 0.3 + 0.1j), t_max=1e-3,
                                   tol=1e-13)
    assert result.status == "timeout"
    assert result.matched is None


def test_step_budget_ends_a_stiff_relaxation_as_a_timeout(monkeypatch):
    # Starts of ~1e3 at this NoThreshold point move so fast that accuracy
    # holds DOP853 to tiny steps (not stiffness: Hairer's estimate h*lambda
    # stays near 0.3, far below 6.1): 5463 steps reach only t = 0.01, so
    # without a step budget the default t_max = 1e5 never ends, and neither
    # does basin_statistics.
    from cascaded_fwm import relaxation

    params = random_params(np.random.default_rng(11), "NoThreshold")
    monkeypatch.setattr(relaxation, "_MAX_STEPS", 500)
    start = time.perf_counter()
    result = relax_to_steady_state(params, sample_initial_conditions(params, 1, seed=3)[0])
    assert result.status == "timeout"
    assert result.matched is None
    assert type(result.elapsed) is float
    assert 0.0 < result.elapsed < 0.01
    assert basin_statistics(params, count=2, seed=3)["timeout"] == 2
    assert time.perf_counter() - start < 10.0


def test_relaxation_result_fields_are_python_floats_at_every_status(monkeypatch):
    # elapsed, residual and distance are floats however the run ends: by the
    # convergence event, at t_max, by divergence or when the step budget is spent.
    from cascaded_fwm import relaxation

    fig6 = figure_config("fig6").system()
    start = sample_initial_conditions(fig6, 1, 12345)[0]
    blowup = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,
                          k1=1e-9, k2=1e-9, k3=1e-9, epsilon=600.0)
    results = [("converged", relax_to_steady_state(fig6, start)),
               ("timeout", relax_to_steady_state(fig6, start, t_max=1.0)),
               ("diverged", relax_to_steady_state(blowup, np.full(6, 0.01 + 0.02j)))]
    monkeypatch.setattr(relaxation, "_MAX_STEPS", 5)
    results.append(("timeout", relax_to_steady_state(fig6, start)))
    for status, result in results:
        assert result.status == status
        for value in (result.elapsed, result.residual, result.distance):
            assert type(value) is float, (status, value)
    assert results[1][1].elapsed == 1.0
    assert 0.0 < results[3][1].elapsed < 1.0


def test_relaxation_endpoint_breaks_pump_symmetry_above_upper_threshold():
    # At eps = 2.2 eps'_th neither analytic branch attracts: the flow lands
    # on a pump-asymmetric stationary state well away from both.  This is a
    # property of the model equations, recorded here deliberately.
    params = pumped(0.4, 2.2, reference="eps_th_prime")
    rng = np.random.default_rng(5)
    initial = 0.5 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    result = relax_to_steady_state(params, initial, tol=1e-10)
    assert result.status == "converged"
    assert result.matched is None
    assert result.distance > 1e-3
    moduli = np.abs(result.amplitudes)
    assert abs(moduli[0] - moduli[1]) > 0.1  # pumps genuinely asymmetric


def test_relaxation_input_validation():
    params = pumped(0.4, 1.2)
    with pytest.raises(ParameterError):
        relax_to_steady_state(params, np.zeros(5, dtype=complex))
    with pytest.raises(ParameterError):
        relax_to_steady_state(params, np.zeros(6, dtype=complex), tol=-1.0)


def test_relaxation_rejects_nan_t_max():
    # Without the check the integration never returns.
    with pytest.raises(ParameterError, match="t_max"):
        relax_to_steady_state(pumped(0.4, 1.2), np.zeros(6, dtype=complex),
                              t_max=float("nan"))


def test_relaxation_rejects_nan_tol():
    # Without the check it runs to t_max and then reports "converged".
    with pytest.raises(ParameterError, match="tol"):
        relax_to_steady_state(pumped(0.4, 1.2), np.zeros(6, dtype=complex),
                              tol=float("nan"))


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
def test_relaxation_rejects_non_finite_initial(bad):
    initial = np.full(6, 0.01 + 0.02j)
    initial[3] = bad
    with pytest.raises(ParameterError, match="initial must be finite"):
        relax_to_steady_state(pumped(0.4, 1.2), initial)


@pytest.mark.parametrize("radius", [-1.0, float("nan")])
def test_relaxation_rejects_bad_match_radius(radius):
    with pytest.raises(ParameterError, match="match_radius"):
        relax_to_steady_state(pumped(0.4, 1.2), np.full(6, 0.01 + 0.02j),
                              match_radius=radius)


def test_drift_equals_numpy_reference_in_every_regime():
    # 4 regimes x 8 parameter sets x 40 states; each component's modulus is
    # spread over 1e-6..1 on a log scale, with a random phase.
    rng = np.random.default_rng(8)
    checked = 0
    for regime in ("NoThreshold", "BelowThreshold", "BetweenThresholds",
                   "AboveUpperThreshold"):
        for _ in range(8):
            params = random_params(rng, regime)
            for _ in range(40):
                alpha = (10.0 ** rng.uniform(-6.0, 0.0, 6)
                         * np.exp(2j * np.pi * rng.uniform(size=6)))
                assert np.array_equal(drift(params, alpha),
                                      reference_drift(params, alpha)), (params, alpha)
                checked += 1
    assert checked == 1280


def table_drift(params, alpha):
    """The drift from ``_DRIFT_TERMS`` in Python ``complex``: each row's
    damping (and pump), then its terms in table order, factors as listed."""
    a = np.asarray(alpha, dtype=complex).tolist()
    rates = params.damping_rates().tolist()
    out = [-rate * z for rate, z in zip(rates, a)]
    for pump in (P2, P1):
        out[pump] = float(params.epsilon) - rates[pump] * a[pump]
    for row, sign, coupling, c, x, y in _DRIFT_TERMS:
        term = float(getattr(params, coupling)) * a[c].conjugate() * a[x] * a[y]
        out[row] = out[row] + term if sign > 0 else out[row] - term
    return np.array(out)


def test_drift_kernel_equals_its_term_table_bit_for_bit():
    # The kernel stays written out for speed; the table the Jacobian is
    # derived from must be its exact copy, the sign of every zero included:
    # at every analytic state, at random complex amplitudes, and at
    # amplitudes made of signed zeros.
    points = amplitudes_in_every_regime(draws=25, seed=6)
    for params, alpha in points:
        assert np.array_equal(drift(params, alpha).view(np.uint64),
                              table_drift(params, alpha).view(np.uint64)), (params, alpha)
    assert len(points) == 325  # 125 analytic states, 100 draws of each kind of alpha


def _assert_same_relaxation(result, expected):
    assert np.array_equal(result.amplitudes, expected.amplitudes)
    assert result.elapsed == expected.elapsed
    assert result.residual == expected.residual
    assert result.status == expected.status
    assert result.distance == expected.distance
    branch = None if result.matched is None else result.matched.branch
    assert branch is (None if expected.matched is None else expected.matched.branch)


def test_relaxation_equals_numpy_reference_at_fig6():
    # Draws of the basin-relax benchmark pool (4096 at seed 12345): the first
    # 8, and draw 31, where Python's abs in the convergence event instead of
    # numpy's moves the event time by one ulp (CPython 3.11, numpy 2.4, x86-64).
    params = figure_config("fig6").system()
    pool = sample_initial_conditions(params, 4096, seed=12345)
    for initial in pool[[*range(8), 31]]:
        _assert_same_relaxation(relax_to_steady_state(params, initial),
                                reference_relax(params, initial))


def test_relaxation_endpoints_match_the_basin_relax_reference():
    # The first 16 draws of the basin-relax pool against the endpoints the
    # benchmark stores, at its rel_tol scaled by max(1, |reference|), as it
    # compares them. Not bit for bit: another OpenBLAS core type (Haswell)
    # moves every one of these endpoints, by up to 3.5e-14.
    meta = json.loads((REFERENCE_DIR / "meta.json").read_text())
    with gzip.open(REFERENCE_DIR / "basin_endpoints.csv.gz", "rt") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    modes = ("p2", "p1", "i1", "s1", "i2", "s2")
    assert header == ["unit", *(f"re_{m}" for m in modes), *(f"im_{m}" for m in modes)]
    params = figure_config("fig6").system()
    pool = sample_initial_conditions(params, 4096, seed=meta["seed"])
    for i, (initial, row) in enumerate(zip(pool[:16], rows)):
        assert row[0] == str(i)
        result = relax_to_steady_state(params, initial)
        assert result.status == "converged"
        got = np.concatenate([result.amplitudes.real, result.amplitudes.imag])
        reference = np.array(row[1:], dtype=float)
        deviation = np.abs(got - reference) / np.maximum(1.0, np.abs(reference))
        assert deviation.max() <= meta["rel_tol"], (i, deviation.max())


def test_relaxation_equals_numpy_reference_at_criterion_4_draws():
    params = pumped(0.4, 2.2, reference="eps_th_prime")
    for initial in sample_initial_conditions(params, 50, seed=20260814)[:4]:
        _assert_same_relaxation(
            relax_to_steady_state(params, initial, match_radius=1e-6),
            reference_relax(params, initial, match_radius=1e-6))


def test_symmetric_initial_condition_stays_symmetric():
    params = pumped(0.4, 1.2)
    initial = np.array([0.05, 0.05, 0.02, 0.02, 0.01, 0.01], dtype=complex)
    result = relax_to_steady_state(params, initial, tol=1e-11)
    a = result.amplitudes
    assert abs(a[0] - a[1]) < 1e-8
    assert abs(a[2] - a[3]) < 1e-8
    assert abs(a[4] - a[5]) < 1e-8


def test_sample_initial_conditions_deterministic():
    params = pumped(0.4, 1.2)
    a = sample_initial_conditions(params, 4, seed=3)
    b = sample_initial_conditions(params, 4, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (4, 6) and np.iscomplexobj(a)
    assert np.array_equal(sample_initial_conditions(params, np.int64(4), np.uint8(3)), a)
    assert sample_initial_conditions(params, 0, seed=3).shape == (0, 6)


@pytest.mark.parametrize("sample", [sample_initial_conditions, basin_statistics])
@pytest.mark.parametrize("name, value", [
    ("count", 1.5), ("count", -1), ("count", True), ("seed", -1), ("seed", 2.0),
])
def test_initial_condition_counts_and_seeds_are_checked(sample, name, value):
    # numpy refused these itself, with a TypeError or ValueError.
    args = {"count": 2, "seed": 0, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be an integer >= 0"):
        sample(pumped(0.4, 1.2), **args)


def test_basin_statistics_tallies_every_run():
    params = pumped(0.4, 1.2)
    stats = basin_statistics(params, count=4, seed=12)
    assert sum(stats.values()) == 4
    assert stats["lower"] == 4  # the converted branch attracts here


def test_convergence_event_reuses_the_right_hand_side_kernel_values(monkeypatch):
    # The event sees each accepted state right after DOP853's FSAL
    # right-hand side; evaluating the kernel there again cost one call per
    # step (~330 per fig6 relaxation).
    from cascaded_fwm import relaxation

    calls = 0
    nfev = 0
    make_kernel, integrate = relaxation._drift_kernel, relaxation._dop853

    def counted_kernel(params):
        kernel = make_kernel(params)

        def counted(*amplitudes):
            nonlocal calls
            calls += 1
            return kernel(*amplitudes)
        return counted

    def counted_integrate(fun, *args):
        def counted_fun(t, y, out):
            nonlocal nfev
            nfev += 1
            fun(t, y, out)
        return integrate(counted_fun, *args)

    monkeypatch.setattr(relaxation, "_drift_kernel", counted_kernel)
    monkeypatch.setattr(relaxation, "_dop853", counted_integrate)
    params = figure_config("fig6").system()
    initial = sample_initial_conditions(params, 4096, seed=12345)[0]
    result = relax_to_steady_state(params, initial)
    assert result.status == "converged"
    assert nfev > 1000
    assert calls - nfev < 100
    _assert_same_relaxation(result, reference_relax(params, initial))


def test_relaxation_from_rest_points_equals_scipy_reference(monkeypatch):
    # The origin and every analytic state of fig2, fig3 and fig6 (fig6's
    # lower state is a saddle). Each start has d0 = 0 or d1 < 1e-5, so the
    # initial step takes h0 = 1e-6 and returns 100 h0, except where the drift
    # is exactly zero (d1 = d2 = 0): there h1 = max(1e-6, 1e-3 h0) = 1e-6.
    # The states start below tol, so they run to t_max.
    from cascaded_fwm import relaxation

    first_steps = []
    initial_step = relaxation._initial_step

    def recorded_initial_step(*args):
        first_steps.append(initial_step(*args))
        return first_steps[-1]

    monkeypatch.setattr(relaxation, "_initial_step", recorded_initial_step)
    for name in ("fig2", "fig3", "fig6"):
        params = figure_config(name).system()
        starts = [np.zeros(6, dtype=complex),
                  *(state.amplitudes for state in analytic_steady_states(params))]
        for initial in starts:
            _assert_same_relaxation(relax_to_steady_state(params, initial),
                                    reference_relax(params, initial))
    assert first_steps == [100 * 1e-6, 1e-6, 1e-6, 100 * 1e-6, 100 * 1e-6,
                           100 * 1e-6, 100 * 1e-6, 1e-6]


def test_relaxation_equals_scipy_reference_in_every_regime():
    # Two random_params draws per regime, each relaxed from 10% off its last
    # analytic branch to the end (all converge at this seed) and to t = 1
    # (timeout); then a drive that diverges: couplings of 1e-9 leave the
    # pumps heading for eps / gamma_a = 2e4, past the bound of 1e4.
    rng = np.random.default_rng(11)
    statuses = []
    for regime in REGIMES:
        for _ in range(2):
            params = random_params(rng, regime)
            amplitudes = analytic_steady_states(params)[-1].amplitudes
            initial = amplitudes * (1.0 + 0.1 * (rng.standard_normal(6)
                                                 + 1j * rng.standard_normal(6)))
            for t_max in (1e5, 1.0):
                result = relax_to_steady_state(params, initial, t_max=t_max)
                _assert_same_relaxation(result, reference_relax(params, initial,
                                                                t_max=t_max))
                statuses.append(result.status)
    params = make_params(1e-9, epsilon=600.0, k1=1e-9)
    initial = np.full(6, 0.01 + 0.02j)
    result = relax_to_steady_state(params, initial)
    _assert_same_relaxation(result, reference_relax(params, initial))
    statuses.append(result.status)
    assert statuses == ["converged", "timeout"] * 8 + ["diverged"]
    assert 23.0 < result.elapsed < 23.2
