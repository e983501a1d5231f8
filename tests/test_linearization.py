import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from cascaded_fwm import (
    Branch,
    FluctuationModel,
    Mode,
    NumericalError,
    ParameterError,
    Regime,
    SWAP_PERMUTATION,
    StabilityError,
    StaleSteadyStateError,
    SystemParams,
    analytic_steady_states,
    build_fluctuation_model,
    classify_regime,
    compute_thresholds,
    drift,
    hopf_epsilon,
    integrated_spectrum,
    jacobian_blocks,
    simulate_ou,
    stability,
    state_for_branch,
    stationary_covariance,
)
from cascaded_fwm import linearization
from cascaded_fwm.steady_state import _DRIFT_TERMS, P1, P2
from helpers import (
    REGIMES,
    amplitudes_in_every_regime,
    make_params,
    pumped,
    random_params,
    reference_drift_blocks,
    reference_jacobian_blocks,
)


def finite_difference_drift_matrix(params, alpha, h=1e-7):
    """Central-difference Jacobian of the doubled drift, Wirtinger style."""
    alpha = np.asarray(alpha, dtype=complex)
    m = np.zeros((12, 12), dtype=complex)
    for j in range(6):
        for h_cplx, is_conj in ((h, False), (1j * h, True)):
            dplus = alpha.copy()
            dplus[j] += h_cplx
            dminus = alpha.copy()
            dminus[j] -= h_cplx
            df = (drift(params, dplus) - drift(params, dminus)) / (2.0 * h)
            # d/dRe = d/da + d/da*, d/dIm = i(d/da - d/da*)
            if not is_conj:
                re_part = df
            else:
                im_part = df / 1j
        dfda = (re_part + im_part) / 2.0
        dfdastar = (re_part - im_part) / 2.0
        m[:6, j] = -dfda
        m[:6, 6 + j] = -dfdastar
    m[6:, :6] = np.conj(m[:6, 6:])
    m[6:, 6:] = np.conj(m[:6, :6])
    return m


def test_drift_matrix_matches_finite_differences():
    rng = np.random.default_rng(271828)
    cases = [pumped(0.4, 1.2), pumped(0.5, 1.5), pumped(0.4, 0.8)]
    for _ in range(5):
        cases.append(random_params(rng, regime="BetweenThresholds"))
    for params in cases:
        for state in analytic_steady_states(params):
            m = build_fluctuation_model(params, state).m
            fd = finite_difference_drift_matrix(params, state.amplitudes)
            assert np.max(np.abs(m - fd)) < 1e-6


def test_drift_matrix_matches_finite_differences_in_every_regime():
    rng = np.random.default_rng(161803)
    checked = 0
    for regime in ("NoThreshold", "BelowThreshold", "BetweenThresholds",
                   "AboveUpperThreshold"):
        for _ in range(5):
            params = random_params(rng, regime)
            for state in analytic_steady_states(params):
                m = build_fluctuation_model(params, state).m
                fd = finite_difference_drift_matrix(params, state.amplitudes)
                bound = 1e-6 * max(1.0, np.max(np.abs(m)))
                assert np.max(np.abs(m - fd)) < bound, (regime, params, state.branch)
                checked += 1
    assert checked == 25  # one branch per draw, two above the upper threshold


def test_conjugation_block_structure():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    m, d = model.m, model.d
    assert np.array_equal(m[6:, 6:], np.conj(m[:6, :6]))
    assert np.array_equal(m[6:, :6], np.conj(m[:6, 6:]))
    assert np.array_equal(d, d.T)
    assert np.array_equal(d[:6, 6:], np.zeros((6, 6)))
    assert np.array_equal(d[6:, :6], np.zeros((6, 6)))
    assert np.array_equal(d[6:, 6:], np.conj(d[:6, :6]))
    assert m.dtype == d.dtype == np.float64  # real at a real operating point


def test_reference_blocks_equal_jacobian_at_symmetric_points():
    for params, branch in [(pumped(0.4, 1.2), "lower"),
                           (pumped(0.4, 1.1, reference="eps_th_prime"), "upper"),
                           (pumped(0.5, 1.5), "lower")]:
        state = state_for_branch(params, branch)
        j1, j2 = jacobian_blocks(params, state.amplitudes)
        r1, r2 = reference_drift_blocks(params, state)
        scale = 1.0 + max(np.max(np.abs(j1)), np.max(np.abs(j2)))
        assert np.max(np.abs(j1 - r1)) < 1e-12 * scale
        assert np.max(np.abs(j2 - r2)) < 1e-12 * scale


def test_trivial_branch_block_pattern():
    # With only the pumps on, m1 is NOT purely diagonal: the cascade couples
    # (i1,i2) and (s1,s2) through +-k2 A_a^2 entries even at A_b = A_c = 0.
    params = pumped(0.4, 0.8)
    state = state_for_branch(params, Branch.TRIVIAL)
    m1, m2 = jacobian_blocks(params, state.amplitudes)
    a_a = float(state.amplitudes[Mode.P1])
    aa2 = params.k2 * a_a**2
    g = params.gamma_a
    expected_m1 = np.diag([g, g, g, g, g, g]).astype(complex)
    expected_m1[2, 4] = aa2   # i1 <- i2
    expected_m1[3, 5] = aa2   # s1 <- s2
    expected_m1[4, 2] = -aa2  # i2 <- i1
    expected_m1[5, 3] = -aa2  # s2 <- s1
    assert np.max(np.abs(m1 - expected_m1)) < 1e-15
    expected_m2 = np.zeros((6, 6), dtype=complex)
    expected_m2[2, 3] = -params.k1 * a_a**2
    expected_m2[3, 2] = -params.k1 * a_a**2
    assert np.max(np.abs(m2 - expected_m2)) < 1e-15


def test_jacobian_blocks_equal_the_hand_written_entries_bit_for_bit():
    # Built from the term table, the blocks keep every float of the entries
    # once written by hand, the sign of each zero included: at every
    # analytic state, at random complex amplitudes, and at amplitudes made
    # of signed zeros.
    points = amplitudes_in_every_regime(draws=50, seed=5)
    for params, alpha in points:
        for block, expected in zip(jacobian_blocks(params, alpha),
                                   reference_jacobian_blocks(params, alpha)):
            assert np.array_equal(block.view(np.uint64), expected.view(np.uint64)), (params, alpha)
    assert len(points) == 650  # 250 analytic states, 200 draws of each kind of alpha


@pytest.mark.parametrize("shape", [(7,), (5,), (2, 6), (6, 1)])
def test_jacobian_blocks_refuses_alpha_of_another_shape(shape):
    # Unchecked, a table indexed by mode would read the first six entries of
    # a (7,) array.
    with pytest.raises(ParameterError, match=r"alpha must have shape \(6,\)"):
        jacobian_blocks(pumped(0.4, 1.2), np.full(shape, 0.1 + 0.2j))


def conserved_charges():
    """Both signs of the charge vector G that every drift term conserves.

    A term sign * k * conj(alpha_c) * alpha_x * alpha_y of drift row ``row``
    conserves G when G_row = -G_c + G_x + G_y; the drive holds both pump
    charges at 0.  The constraints have rank 5, so G is unique up to scale,
    and the charges in {-1, 0, 1} give it at its smallest integer scale.
    """
    eye = np.eye(6, dtype=int)
    rows = np.array([eye[row] + eye[c] - eye[x] - eye[y]
                     for row, _, _, c, x, y in _DRIFT_TERMS] + [eye[P2], eye[P1]])
    assert np.linalg.matrix_rank(rows) == 5
    return [g for g in itertools.product((-1, 0, 1), repeat=6)
            if any(g) and not np.any(rows @ g)]


def test_the_drift_terms_conserve_one_daughter_charge():
    assert sorted(conserved_charges()) == [(0, 0, -1, 1, -1, 1), (0, 0, 1, -1, 1, -1)]


def test_the_conserved_charge_is_a_neutral_mode_of_every_converted_branch():
    # Rotating each amplitude by exp(i G theta) maps a stationary state onto
    # another, so M (i G A, -i G A) = 0 at every converted state A, to
    # rounding; the worst measured was 9.0e-16.
    g = np.array(conserved_charges()[0])
    rng = np.random.default_rng(3)
    checked = 0
    for regime in REGIMES:
        for _ in range(50):
            params = random_params(rng, regime)
            for state in analytic_steady_states(params):
                if state.branch is Branch.TRIVIAL:
                    continue
                m = build_fluctuation_model(params, state).m
                r = np.concatenate([g * state.amplitudes, -g * state.amplitudes])
                bound = 1e-14 * np.max(np.abs(m)) * np.max(np.abs(r))
                assert np.max(np.abs(m @ r)) <= bound, (regime, params, state.branch)
                checked += 1
    assert checked == 150  # one converted branch between the thresholds, two above


def test_the_swap_map_is_a_symmetry_of_the_drift_terms():
    # At k2 = k3, swapping the two pumps, the two signals and the two idlers
    # along with k2 and k3 maps every term onto a term of the same table.
    perm = SWAP_PERMUTATION
    coupling = {"k1": "k1", "k2": "k3", "k3": "k2"}

    def unordered(row, sign, k, c, x, y):
        return row, sign, k, c, tuple(sorted((x, y)))

    terms = {unordered(*term) for term in _DRIFT_TERMS}
    assert len(terms) == len(_DRIFT_TERMS) == 12
    assert {unordered(perm[row], sign, coupling[k], perm[c], perm[x], perm[y])
            for row, sign, k, c, x, y in _DRIFT_TERMS} == terms


def test_the_diffusion_is_minus_m2_on_the_pairs_of_the_drift_terms():
    # d keeps its six entries written out (two multiply their factors in the
    # other order), so this holds it to the table: -m2 on each term's
    # (row, c) pair to rounding, zero elsewhere.  The worst measured was 2.1e-16.
    pairs = np.zeros((6, 6), dtype=bool)
    for row, _, _, c, _, _ in _DRIFT_TERMS:
        pairs[row, c] = True
    assert pairs.sum() == 12 and np.array_equal(pairs, pairs.T)
    rng = np.random.default_rng(9)
    checked = 0
    for regime in REGIMES:
        for _ in range(100):
            params = random_params(rng, regime)
            for state in analytic_steady_states(params):
                model = build_fluctuation_model(params, state)
                d, m2 = model.d[:6, :6], model.m[:6, 6:]
                assert not np.any(d[~pairs]) and not np.any(m2[~pairs])
                bound = 2.0 * np.finfo(float).eps * np.max(np.abs(m2))
                assert np.max(np.abs(d + m2)) <= bound, (regime, params, state.branch)
                checked += 1
    assert checked == 500


def test_diffusion_entries_independent_transcription():
    # Entry-by-entry recomputation of the nonzero diffusion block.
    params = pumped(0.4, 1.2)
    state = state_for_branch(params, Branch.LOWER)
    d = build_fluctuation_model(params, state).d[:6, :6]
    aa, ab, ac = (float(state.amplitudes[m]) for m in (Mode.P1, Mode.S1, Mode.S2))
    k1, k2 = params.k1, params.k2
    expected = np.zeros((6, 6))
    expected[0, 1] = expected[1, 0] = -k1 * ab * ab
    expected[0, 2] = expected[2, 0] = -k2 * ac * aa
    expected[0, 5] = expected[5, 0] = k2 * ab * aa
    expected[1, 3] = expected[3, 1] = -k2 * ac * aa
    expected[1, 4] = expected[4, 1] = k2 * ab * aa
    expected[2, 3] = expected[3, 2] = k1 * aa * aa
    assert np.max(np.abs(d - expected)) < 1e-16


def test_diffusion_zero_at_zero_amplitudes():
    params = make_params(0.4, epsilon=0.0)
    state = state_for_branch(params, Branch.TRIVIAL)
    assert np.array_equal(build_fluctuation_model(params, state).d, np.zeros((12, 12)))


def test_stale_steady_state_rejected():
    params = pumped(0.4, 1.2)
    state = state_for_branch(params, Branch.LOWER)
    changed = params.with_epsilon(params.epsilon * 1.5)
    with pytest.raises(StaleSteadyStateError):
        build_fluctuation_model(changed, state)


def in_units_of(params, factor):
    """The same system on a time unit 1 / ``factor`` as long: every rate and the pump scaled."""
    return replace(params, **{name: factor * getattr(params, name) for name in
                              ("gamma_a", "gamma_b", "gamma_c", "k1", "k2", "k3", "epsilon")})


@pytest.mark.parametrize("figure", ["fig8", "fig9"])
def test_stationarity_guard_accepts_valid_states_in_any_unit(figure):
    # With gamma = 3e7 (a cavity rate in 1/s), rounding alone puts the drift
    # residual of these valid states near 3e-8, above an absolute 1e-8.
    from cascaded_fwm.cli import figure_config

    config = figure_config(figure)
    for ratio in np.geomspace(1.05, config.epsilon_ratio, 21):
        params = in_units_of(replace(config, epsilon_ratio=float(ratio)).system(), 1e9)
        build_fluctuation_model(params, state_for_branch(params, config.branch))


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e9])
def test_stationarity_guard_refuses_a_stale_state_in_any_unit(factor):
    # At 1e-6 the stale state's residual is 1.7e-9, below an absolute 1e-8;
    # against the drift's largest term it reads 0.2 in every unit.
    params = in_units_of(pumped(0.4, 1.2), factor)
    state = state_for_branch(params, Branch.LOWER)
    with pytest.raises(StaleSteadyStateError):
        build_fluctuation_model(params.with_epsilon(params.epsilon * 1.25), state)


def test_one_model_build_evaluates_the_drift_once(monkeypatch):
    # M and D share one stationarity check; each used to run its own.
    calls = []
    monkeypatch.setattr(linearization, "drift",
                        lambda *args: calls.append(args) or drift(*args))
    params = pumped(0.4, 1.2)
    build_fluctuation_model(params, state_for_branch(params, Branch.LOWER))
    assert len(calls) == 1


def test_a_nan_drift_residual_fails_the_stationarity_guard():
    # At amplitudes of 1e103 the drift overflows to inf - inf = NaN, which
    # used to pass the "residual > budget" comparison and give a finite M, D.
    params = pumped(0.4, 1.2)
    state = replace(state_for_branch(params, Branch.LOWER), amplitudes=np.full(6, 1e103))
    with pytest.raises(StaleSteadyStateError, match="drift residual nan"):
        build_fluctuation_model(params, state)


def test_stability_of_diagonal_matrix():
    report = stability(np.diag([0.01, 0.02, 0.03]))
    assert report.stable and not report.indeterminate
    assert report.margin == pytest.approx(0.01)
    assert sorted(report.eigenvalues.real) == pytest.approx([0.01, 0.02, 0.03])


def test_an_indeterminate_margin_is_never_stable():
    # Within 1e-10 of zero, rounding decides the margin's sign; the flag
    # must not follow it, and the decay gate refuses either sign.
    for margin in (1e-17, -1e-17):
        report = stability(np.diag([margin, 1.0]))
        assert report.margin == margin
        assert report.indeterminate and not report.stable
        with pytest.raises(StabilityError, match="decisively decaying drift"):
            linearization._require_decaying(np.diag([margin, 1.0]), "this needs")


def test_trivial_branch_stable_below_threshold():
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    report = stability(model.m)
    assert report.stable and not report.indeterminate
    assert report.margin > 1e-3


def test_converted_branches_are_marginal_or_unstable():
    # Every converted stationary point carries an exactly neutral direction
    # (the free joint phase of the generated pairs), so the margin sits at
    # zero to roundoff between the thresholds and goes negative above the
    # upper threshold.  The report must say so rather than round it away.
    between = pumped(0.4, 1.2)
    report = stability(build_fluctuation_model(
        between, state_for_branch(between, "lower")).m)
    assert report.indeterminate
    assert abs(report.margin) < 1e-12

    above = pumped(0.4, 2.2, reference="eps_th_prime")
    for branch in ("lower", "upper"):
        report = stability(build_fluctuation_model(
            above, state_for_branch(above, branch)).m)
        assert not report.stable
        assert report.margin < -1e-3


def test_stationary_covariance_scalar_cases():
    params = make_params(0.4, epsilon=0.0)
    ss = state_for_branch(params, Branch.TRIVIAL)
    eye = np.eye(12)
    model = FluctuationModel(params=params, steady_state=ss, m=eye, d=eye)
    assert np.max(np.abs(stationary_covariance(model) - eye / 2.0)) < 1e-14
    model0 = FluctuationModel(params=params, steady_state=ss, m=eye,
                              d=np.zeros((12, 12)))
    assert np.max(np.abs(stationary_covariance(model0))) == 0.0


def test_stationary_covariance_solves_lyapunov():
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    sigma = stationary_covariance(model)
    residual = np.max(np.abs(model.m @ sigma + sigma @ model.m.T - model.d))
    assert residual < 1e-10 * max(np.max(np.abs(model.d)), 1.0)


@pytest.mark.parametrize("regime", ["NoThreshold", "BelowThreshold",
                                    "BetweenThresholds", "AboveUpperThreshold"])
def test_stationary_covariance_is_real_within_its_residual_budget(regime):
    # Every branch either decays and has a float64 Sigma that solves the
    # Lyapunov equation within the solver's own budget, or is refused.
    # Every NoThreshold draw is past its Hopf point, so that regime also
    # takes the decaying point of test_no_threshold_hides_a_hopf_bifurcation.
    rng = np.random.default_rng(17)
    draws = [random_params(rng, regime) for _ in range(6)]
    if regime == "NoThreshold":
        draws.append(make_params(0.6, epsilon=0.005))
    decaying = 0
    for params in draws:
        for state in analytic_steady_states(params):
            model = build_fluctuation_model(params, state)
            report = stability(model.m)
            if not report.stable or report.indeterminate:
                with pytest.raises(StabilityError):
                    stationary_covariance(model)
                continue
            sigma = stationary_covariance(model)
            assert sigma.dtype == np.float64
            residual = np.max(np.abs(model.m @ sigma + sigma @ model.m.T - model.d))
            assert residual <= max(1e-10 * np.max(np.abs(model.d)), 1e-14)
            decaying += 1
    if regime == "NoThreshold":
        assert decaying == 1


def test_no_threshold_hides_a_hopf_bifurcation():
    # Without a threshold the trivial state is the only analytic one and the
    # regime reads NoThreshold at every pump, yet a complex pair of the
    # drift crosses into the growing half plane between eps = 0.005 and 0.01.
    for eps, margin in ((0.005, 0.016111), (0.01, -0.025556)):
        params = make_params(0.6, epsilon=eps)
        assert classify_regime(params) is Regime.NO_THRESHOLD
        (state,) = analytic_steady_states(params)
        assert state.branch is Branch.TRIVIAL
        report = stability(build_fluctuation_model(params, state).m)
        assert report.stable == (margin > 0.0)
        assert report.margin == pytest.approx(margin, abs=1e-6)
        # Every eigenvalue at the margin is complex: no real mode crosses.
        edge = report.eigenvalues[np.isclose(report.eigenvalues.real, report.margin)]
        assert edge.size >= 2 and (np.abs(edge.imag) > 1e-3).all()
        assert np.isin(np.conj(edge), edge).all()


def test_below_threshold_hides_a_hopf_bifurcation():
    # With k2 (gamma_b + gamma_c) > k1 gamma_c the trivial state loses
    # stability at eps_H = gamma_a sqrt((gamma_b + gamma_c) / k1), which at
    # these unequal dampings lies below eps_th: the regime still reads
    # BelowThreshold on both sides of it.
    params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.003,
                          k1=1.0, k2=0.15, k3=0.15)
    eps_th = compute_thresholds(params).eps_th
    eps_h = params.gamma_a * math.sqrt((params.gamma_b + params.gamma_c) / params.k1)
    assert eps_th == pytest.approx(6.405e-3, abs=1e-6)
    assert eps_h == pytest.approx(5.450e-3, abs=1e-6)
    for ratio, margin in ((0.99, 3.2835e-4), (1.01, -3.3165e-4)):
        point = params.with_epsilon(ratio * eps_h)
        assert classify_regime(point) is Regime.BELOW_THRESHOLD
        (state,) = analytic_steady_states(point)
        assert state.branch is Branch.TRIVIAL
        report = stability(build_fluctuation_model(point, state).m)
        assert report.stable == (margin > 0.0)
        assert report.margin == pytest.approx(margin, abs=1e-8)
        edge = report.eigenvalues[np.isclose(report.eigenvalues.real, report.margin)]
        assert edge.size >= 2 and (np.abs(edge.imag) > 1e-3).all()


def trivial_margin(params, epsilon):
    point = params.with_epsilon(epsilon)
    return stability(build_fluctuation_model(point, state_for_branch(point, "trivial")).m).margin


def test_hopf_epsilon_is_where_the_trivial_state_first_loses_stability():
    # Where eps_H comes first (or there is no threshold) the trivial state
    # turns unstable across it; everywhere else it is still stable just
    # below eps_th.  Both sides occur on these draws.
    rng = np.random.default_rng(3)
    counts = {"hopf": 0, "threshold": 0}
    for regime in REGIMES:
        for _ in range(100):
            params = random_params(rng, regime)
            thresholds = compute_thresholds(params)
            eps_h = hopf_epsilon(params)
            assert thresholds.has_threshold or eps_h is not None
            if eps_h is not None and (not thresholds.has_threshold or eps_h < thresholds.eps_th):
                counts["hopf"] += 1
                assert trivial_margin(params, 0.999999 * eps_h) > 0.0
                assert trivial_margin(params, 1.000001 * eps_h) < 0.0
            else:
                counts["threshold"] += 1
                assert trivial_margin(params, 0.999999 * thresholds.eps_th) > 0.0
    assert counts == {"hopf": 145, "threshold": 255}
    # The point of test_below_threshold_hides_a_hopf_bifurcation, and the
    # equal-damping sets, where k2 (gamma_b + gamma_c) > k1 gamma_c reads k2 > k1 / 2.
    params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.003, k1=1.0, k2=0.15, k3=0.15)
    assert hopf_epsilon(params) == pytest.approx(5.450e-3, abs=1e-6)
    assert hopf_epsilon(make_params(0.4)) is None
    assert hopf_epsilon(make_params(0.5)) is None
    assert hopf_epsilon(make_params(0.6)) == 0.03 * math.sqrt(0.06)


def test_stationary_covariance_requires_decisive_stability():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    with pytest.raises(StabilityError):
        stationary_covariance(model)


def test_moments_integral_and_simulation_share_one_decay_gate():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    margin = stability(model.m).margin
    for call, needs in ((stationary_covariance, "stationary covariance needs"),
                        (integrated_spectrum, "spectral integral needs"),
                        (lambda m: simulate_ou(m, 8, 1, 0), "will not simulate without")):
        with pytest.raises(StabilityError) as info:
            call(model)
        assert str(info.value) == f"{needs} a decisively decaying drift (margin {margin:.3e})"
        assert info.value.margin == margin


def test_a_nan_diffusion_fails_the_lyapunov_residual_guard():
    # A NaN residual used to pass the "residual > budget" comparison, and
    # an all-NaN Sigma came back without an error.
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    with pytest.raises(NumericalError, match="Lyapunov solve residual nan"):
        stationary_covariance(replace(model, d=model.d * np.nan))
