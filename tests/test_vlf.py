import math
import warnings

import numpy as np
import pytest

from cascaded_fwm import (
    INEQUALITIES,
    SYMMETRY_CLASSES,
    Mode,
    ParameterError,
    PhysicalityError,
    QuadratureSpectrum,
    StabilityError,
    VlfInequality,
    analytic_steady_states,
    build_branch_model,
    class_members,
    compute_thresholds,
    evaluate_inequality,
    inequality_by_label,
    min_over_frequency,
    minima_over_models,
    optimize_gains,
    output_spectra,
    sweep_frequency,
)
from cascaded_fwm import vlf
from cascaded_fwm.vlf import (
    _gain_solves,
    _golden_section,
    _problem_arrays,
    _require_physical,
    _sweep_arrays,
)
from helpers import (
    REGIMES,
    golden_section,
    models_in_every_regime,
    pumped,
    random_params,
    reference_gain_solve,
    reference_psd_failure,
    reference_psd_screen,
    sequential_minimum,
    spectrum_at,
    toy_model,
)

# An independent transcription of the coefficient table, kept separate
# from the module, so a slip in either place breaks the comparison.
EXPECTED = {
    "i2-p1": ("C", (0, -1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0), (0, 2, 3, 5)),
    "p1+s1": ("B", (0, 1, 0, 1, 0, 0), (0, 1, 0, -1, 0, 0), (0, 2, 4, 5)),
    "s1-i1": ("A", (0, 0, -1, 1, 0, 0), (0, 0, 1, 1, 0, 0), (0, 1, 4, 5)),
    "i1+p2": ("B", (1, 0, 1, 0, 0, 0), (-1, 0, 1, 0, 0, 0), (1, 3, 4, 5)),
    "p2-s2": ("C", (1, 0, 0, 0, 0, -1), (1, 0, 0, 0, 0, 1), (1, 2, 3, 4)),
}


def identity_spectrum():
    return QuadratureSpectrum(omega=0.03, omega_norm=1.0, v_out=np.eye(12))


def test_coefficient_table():
    assert len(INEQUALITIES) == 5
    assert SYMMETRY_CLASSES == ("A", "B", "C")
    assert [i.label for i in INEQUALITIES] == list(EXPECTED)
    for ineq in INEQUALITIES:
        cls, x, y, free = EXPECTED[ineq.label]
        assert ineq.symmetry_class == cls
        assert tuple(ineq.x_coeffs) == x
        assert tuple(ineq.y_fixed) == y
        assert tuple(ineq.free_modes) == free


def test_pump_sign_asymmetry():
    # The two B/C partners on the p2 side differ only in the sign fixed
    # on Y_p2; that sign is what distinguishes them.
    assert inequality_by_label("i1+p2").y_fixed[Mode.P2] == -1
    assert inequality_by_label("p2-s2").y_fixed[Mode.P2] == 1


def test_class_membership():
    assert [i.label for i in class_members("A")] == ["s1-i1"]
    assert sorted(i.label for i in class_members("B")) == ["i1+p2", "p1+s1"]
    assert sorted(i.label for i in class_members("C")) == ["i2-p1", "p2-s2"]


def test_unknown_label_and_class():
    with pytest.raises(ParameterError, match="unknown inequality"):
        inequality_by_label("s1+s2")
    with pytest.raises(ParameterError, match="unknown symmetry class"):
        class_members("D")


def test_inequality_validation():
    with pytest.raises(ParameterError, match="length 6"):
        VlfInequality("bad", "A", (1, -1), (1, 1))
    with pytest.raises(ParameterError, match="X pair"):
        VlfInequality("bad", "A", (1, -1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0))
    # The separable bound 4 holds only for +-1 coefficients.
    for x, y in (((0, 0, -2, 1, 0, 0), (0, 0, 1, 0.5, 0, 0)),
                 ((0, 0, -1, 1, 0, 0), (0, 0, 1, 0.5, 0, 0)),
                 ((0, 0, -2, 1, 0, 0), (0, 0, 1, 1, 0, 0)),
                 ((0, 0, -1, 1, 0, 0), (0, 0, 1, float("nan"), 0, 0))):
        with pytest.raises(ParameterError, match=r"\+-1"):
            VlfInequality("bad", "A", x, y)


def test_shot_noise_saturates_the_bound():
    spectrum = identity_spectrum()
    for ineq in INEQUALITIES:
        assert evaluate_inequality(ineq, spectrum, np.zeros(4)) == 4.0
        gains = np.array([0.3, -0.7, 1.1, 0.2])
        expected = 4.0 + float(gains @ gains)
        assert evaluate_inequality(ineq, spectrum, gains) == pytest.approx(expected)
        result = optimize_gains(ineq, spectrum)
        assert result.value == 4.0
        assert not result.violated
        assert np.max(np.abs(result.gains)) == 0.0


def test_list_coefficients_accepted():
    ineq = VlfInequality("s1-i1", "A", [0, 0, -1, 1, 0, 0], [0, 0, 1, 1, 0, 0])
    assert evaluate_inequality(ineq, identity_spectrum(), np.zeros(4)) == 4.0
    assert optimize_gains(ineq, identity_spectrum()).value == 4.0


def test_gain_count_checked():
    with pytest.raises(ParameterError, match="expected 4 gains"):
        evaluate_inequality(INEQUALITIES[0], identity_spectrum(), np.zeros(3))


def test_optimized_gains_are_a_minimum():
    params = pumped(0.5, 1.5)
    model = build_branch_model(params, "lower")
    for omega_norm in (0.03, 0.4, 3.0):
        spectrum = spectrum_at(model, omega_norm)
        for ineq in INEQUALITIES:
            res = optimize_gains(ineq, spectrum)
            for k in range(4):
                for delta in (1e-4, -1e-4):
                    g = res.gains.copy()
                    g[k] += delta
                    nudged = evaluate_inequality(ineq, spectrum, g)
                    assert nudged >= res.value - 1e-12


def test_optimization_never_hurts():
    params = pumped(0.4, 1.2)
    model = build_branch_model(params, "lower")
    for omega_norm in (0.05, 1.0, 20.0):
        spectrum = spectrum_at(model, omega_norm)
        for ineq in INEQUALITIES:
            zero_gain = evaluate_inequality(ineq, spectrum, np.zeros(4))
            assert optimize_gains(ineq, spectrum).value <= zero_gain + 1e-12


def test_symmetry_class_degeneracy():
    params = pumped(0.4, 1.2)
    grid = np.geomspace(0.01, 100.0, 25)
    results = sweep_frequency(params, "lower", omega_grid=grid)
    by_label = {label: [] for label in EXPECTED}
    for res in results:
        by_label[res.label].append(res.value)
    for cls in ("B", "C"):
        first, second = (np.array(by_label[i.label]) for i in class_members(cls))
        assert np.max(np.abs(first - second)) < 1e-10


def test_symmetry_class_degeneracy_in_every_regime():
    # Worst case over the 30 models of ``models_in_every_regime`` on a
    # 64-point grid: 1.3e-10 of the value, on a lower branch above the upper
    # threshold.  The bound allows 7x.
    grid = np.geomspace(0.01, 100.0, 64)
    for params, model in models_in_every_regime():
        _, _, values, _ = _sweep_arrays(model, _problem_arrays(INEQUALITIES), grid)
        by_label = dict(zip((ineq.label for ineq in INEQUALITIES), values.T))
        for cls in ("B", "C"):
            first, second = (by_label[ineq.label] for ineq in class_members(cls))
            assert np.all(np.abs(first - second) <= 1e-9 * np.abs(first))


def test_zero_diffusion_null():
    params = pumped(0.4, 1.2)
    results = sweep_frequency(params, "lower", omega_grid=[0.1, 1.0, 10.0],
                              model=build_branch_model(params, "lower", zero_diffusion=True))
    assert all(res.value == 4.0 for res in results)


def test_zero_diffusion_null_in_every_regime():
    rng = np.random.default_rng(5)
    for regime in REGIMES:
        params = random_params(rng, regime=regime)
        for state in analytic_steady_states(params):
            null = build_branch_model(params, state.branch, zero_diffusion=True)
            results = sweep_frequency(params, state.branch,
                                      omega_grid=np.geomspace(0.01, 100.0, 16), model=null)
            assert all(res.value == 4.0 for res in results)
            assert all(np.all(res.gains == 0.0) for res in results)


def test_unphysical_spectrum_rejected():
    v = np.eye(12)
    v[0, 0] = -1e-6
    bad = QuadratureSpectrum(omega=0.03, omega_norm=1.0, v_out=v)
    with pytest.raises(PhysicalityError, match="positive semidefinite"):
        optimize_gains(INEQUALITIES[0], bad)


@pytest.mark.parametrize("where", [(0, 0), (6, 6)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_spectrum_rejected(where, bad):
    # (0, 0) sits in the X block, (6, 6) in the free Y block of the first
    # inequality, where eigvalsh would fail instead.
    v = np.eye(12)
    v[where] = bad
    spectrum = QuadratureSpectrum(omega=1.0, omega_norm=1.0, v_out=v)
    with pytest.raises(PhysicalityError, match="not finite"):
        optimize_gains(INEQUALITIES[0], spectrum)


def test_non_finite_stack_entry_named_before_psd_check():
    # A NaN off the diagonal of a free block passes eigvalsh as a NaN
    # eigenvalue, and lstsq on that block does not return.
    not_psd = np.eye(12)
    not_psd[0, 0] = -1e-6
    not_finite = np.eye(12)
    not_finite[8, 9] = np.nan
    stack = np.stack([np.eye(12), not_psd, not_finite])
    with pytest.raises(PhysicalityError, match=r"not finite \(entry 2 of the stack\)"):
        _require_physical(stack)
    with pytest.raises(PhysicalityError, match="positive semidefinite"):
        _require_physical(stack[:2])


def test_large_spectrum_passes_on_rounding_alone(monkeypatch):
    # v_out reaches ~1e8 at low omega here, and rounding alone puts its
    # smallest eigenvalue at about -9e-9, below an absolute -1e-9 budget.
    rng = np.random.default_rng(17)
    for regime in ("NoThreshold", "BelowThreshold", "BetweenThresholds"):
        params = random_params(rng, regime=regime)
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 16)
    results = minima_over_models([build_branch_model(params, "lower")])[0]
    assert len(results) == len(INEQUALITIES)
    assert all(np.isfinite(res.value) for res in results)


def test_psd_budget_scales_with_each_stack_entry():
    big = np.eye(12)
    big[1, 1] = 1e8
    big[0, 0] = -1e-6 * (1.0 + 1e8)
    with pytest.raises(PhysicalityError, match="positive semidefinite"):
        _require_physical(big[None])
    with pytest.raises(PhysicalityError, match="positive semidefinite"):
        optimize_gains(INEQUALITIES[0], QuadratureSpectrum(omega=1.0, omega_norm=1.0,
                                                           v_out=big))
    # Within its own budget a large entry passes; a small entry next to it
    # keeps its own budget and does not borrow the large one's.
    big[0, 0] = -1e-10 * (1.0 + 1e8)
    _require_physical(big[None])
    small = np.eye(12)
    small[0, 0] = -1e-8
    with pytest.raises(PhysicalityError, match=r"min eigenvalue -1\.000e-08"):
        _require_physical(np.stack([big, small]))


def psd_probe(max_abs, margin):
    """A symmetric 12x12 matrix with max|v| ~ max_abs and min eigenvalue -margin * tau.

    tau = 1e-9 * (1 + max|v|) is the guard's budget.  The other eleven
    eigenvalues are positive, and the rank-one dip moves max|v| by ~tau only.
    """
    q = np.linalg.qr(np.random.default_rng(11).standard_normal((12, 12)))[0]
    v = (q[:, 1:] * np.geomspace(1.0, 1e3, 11)) @ q[:, 1:].T
    v = (v + v.T) * (0.5 * max_abs / np.abs(v).max())
    tau = 1e-9 * (1.0 + np.abs(v).max())
    return v - margin * tau * np.outer(q[:, 0], q[:, 0])


@pytest.mark.parametrize("max_abs", [1.0, 1e4, 1e8])
def test_cholesky_screen_agrees_with_the_eigenvalue_test(max_abs):
    inside = psd_probe(max_abs, 1.0 - 1e-3)[None]
    assert reference_psd_failure(inside) is None
    _require_physical(inside)
    outside = psd_probe(max_abs, 1.0 + 1e-3)[None]
    expected = reference_psd_failure(outside)
    assert expected is not None
    with pytest.raises(PhysicalityError) as info:
        _require_physical(outside)
    assert str(info.value) == expected


def test_psd_failure_in_a_stack_names_the_eigenvalue_test_minimum():
    stack = np.stack([psd_probe(1e4, 0.5), psd_probe(1e8, 1.0 + 1e-3),
                      psd_probe(1.0, 1.0 - 1e-3)])
    expected = reference_psd_failure(stack)
    assert expected == reference_psd_failure(stack[1:2])
    with pytest.raises(PhysicalityError) as info:
        _require_physical(stack)
    assert str(info.value) == expected
    _require_physical(stack[[0, 2]])


def signed_zeros():
    """A diagonal stack entry whose off-diagonal zeros are all -0.0, one
    eigenvalue at half its budget below zero."""
    v = np.diag(np.linspace(-0.5e-9 * 2.0, 2.0, 12))
    v[v == 0.0] = -0.0
    return v


def test_psd_screen_and_verdict_equal_the_cholesky_reference(monkeypatch):
    # The screen passes exactly the stacks np.linalg.cholesky(sym - floor *
    # eye) passes, so eigvalsh runs exactly where that fails, and every
    # verdict and message is the reference guard's.  Probes within the
    # Cholesky rounding band (margin 1 +- 1e-7) are decided by the screen.
    stacks = [output_spectra(model, np.geomspace(0.01, 100.0, 5) * params.gamma_a)
              for params, model in models_in_every_regime(draws=1, seed=28)]
    stacks += [psd_probe(max_abs, margin)[None] for max_abs in (1.0, 1e4, 1e8)
               for margin in (0.5, 1.0 - 1e-3, 1.0 - 1e-7, 1.0 + 1e-7, 1.0 + 1e-3, 2.0)]
    stacks += [signed_zeros()[None], np.stack([np.eye(12), signed_zeros(), -np.eye(12)])]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    screens = []
    for v in stacks:
        screen = reference_psd_screen(v)
        expected = None if screen else reference_psd_failure(v)
        calls.clear()
        try:
            _require_physical(v)
            got = None
        except PhysicalityError as exc:
            got = str(exc)
        assert got == expected
        assert bool(calls) == (not screen)
        screens.append(screen)
    assert True in screens and False in screens


def test_empty_stack_is_physical():
    _require_physical(np.zeros((0, 12, 12)))


def test_physical_stacks_skip_eigvalsh(monkeypatch):
    # The Cholesky screen passes a whole figure grid, and entries that dip
    # below zero within their budget; eigvalsh runs only when it fails.
    inside = np.stack([psd_probe(max_abs, 1.0 - 1e-3) for max_abs in (1.0, 1e4, 1e8)])

    def refuse(_):
        raise AssertionError("eigvalsh ran on a physical stack")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    _require_physical(inside)
    results = sweep_frequency(pumped(0.5, 1.5), "lower")
    assert len(results) == 400 * len(INEQUALITIES)


def test_sweep_ordering_and_metadata():
    params = pumped(0.4, 1.2)
    grid = [0.5, 2.0]
    results = sweep_frequency(params, "lower", omega_grid=grid)
    assert len(results) == len(grid) * 5
    labels = [res.label for res in results]
    assert labels == list(EXPECTED) * 2
    assert all(res.omega_norm == 0.5 for res in results[:5])
    assert all(res.omega_norm == 2.0 for res in results[5:])
    assert all(res.omega == pytest.approx(res.omega_norm * params.gamma_a)
               for res in results)


def test_min_over_frequency_beats_coarse_sweep():
    params = pumped(0.4, 1.2)
    model = build_branch_model(params, "lower")
    grid = np.geomspace(0.01, 100.0, 40)
    sweep_vals = [res.value for res in
                  sweep_frequency(params, "lower", inequalities=["s1-i1"],
                                  omega_grid=grid, model=model)]
    best = min_over_frequency(params, "lower", "s1-i1")
    assert best.value <= min(sweep_vals) + 1e-12
    assert best.violated
    assert 0.01 <= best.omega_norm <= 100.0


@pytest.mark.parametrize("grid, message", [
    ([[0.1, 1.0]], r"1-D, got shape \(1, 2\)"),
    ([-1.0, 1.0], ">= 0"),
    ([math.nan, 1.0], "finite"),
    ([math.inf], "finite"),
])
def test_sweep_frequency_rejects_bad_grids(grid, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=message):
            sweep_frequency(pumped(0.4, 1.2), "lower", omega_grid=grid)


def test_sweep_frequency_accepts_zero_frequency():
    # A linear vlf-sweep grid may start at omega = 0 on a decaying branch.
    results = sweep_frequency(pumped(0.4, 0.8), "trivial", inequalities=["s1-i1"],
                              omega_grid=[0.0, 1.0])
    assert [res.omega_norm for res in results] == [0.0, 1.0]
    assert all(math.isfinite(res.value) for res in results)


def test_sweep_frequency_at_zero_frequency_needs_a_decaying_drift():
    # The converted lower branch has an exact neutral mode: S(0) is a pole.
    with pytest.raises(StabilityError, match="omega = 0 needs a decisively decaying drift"):
        sweep_frequency(pumped(0.4, 1.2), "lower", omega_grid=[0.0, 1.0])
    assert len(sweep_frequency(pumped(0.4, 1.2), "lower", omega_grid=[1e-3, 1.0])) == 10


@pytest.mark.parametrize("omega_range", [(0.01, math.inf), (0.0, 1.0),
                                         (math.nan, 1.0), (0.01, math.nan)])
def test_omega_range_must_be_a_finite_positive_window(omega_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="omega_m(in|ax) must be"):
            minima_over_models([build_branch_model(pumped(0.4, 1.2), "lower")],
                               omega_range=omega_range)


@pytest.mark.parametrize("omega_range", [(0.1, 1.0, 5.0), (0.1,), 0.1, "ab", (0.1, "1")])
def test_omega_range_must_be_a_pair_of_numbers(omega_range):
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    with pytest.raises(ParameterError, match="omega_range must be a pair of numbers"):
        minima_over_models([model], omega_range=omega_range)


@pytest.mark.parametrize("omega_range", [[0.1, 10.0], np.array([0.1, 10.0])])
def test_omega_range_pair_of_any_sequence_type(omega_range, monkeypatch):
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 8)
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    got, = minima_over_models([model], ["s1-i1"], omega_range)
    want, = minima_over_models([model], ["s1-i1"], (0.1, 10.0))
    assert_same_result(got[0], want[0])


def test_unphysical_stack_rejected():
    # Negative diffusion drives the X block of every output spectrum far
    # below zero; the stacked sweeps must refuse it like optimize_gains.
    bad = toy_model(0.03 * np.eye(12), -10.0 * np.eye(12))
    with pytest.raises(PhysicalityError, match="positive semidefinite"):
        sweep_frequency(bad.params, "trivial", omega_grid=[0.5, 2.0], model=bad)
    with pytest.raises(PhysicalityError, match="positive semidefinite"):
        minima_over_models([bad])


def test_sweep_matches_single_frequency_chain():
    params = pumped(0.4, 2.2, reference="eps_th_prime")
    grid = np.geomspace(0.01, 100.0, 16)
    for branch in ("lower", "upper"):
        model = build_branch_model(params, branch)
        results = sweep_frequency(params, branch, omega_grid=grid, model=model)
        expected = [optimize_gains(ineq, spectrum_at(model, w))
                    for w in grid for ineq in INEQUALITIES]
        for res, ref in zip(results, expected, strict=True):
            assert (res.label, res.omega, res.omega_norm, res.value) == \
                (ref.label, ref.omega, ref.omega_norm, ref.value)
            assert np.array_equal(res.gains, ref.gains)


@pytest.mark.parametrize("figure", ["fig8", "fig9"])
def test_shared_scan_matches_per_inequality_minimum(figure):
    from cascaded_fwm.cli import figure_config

    config = figure_config(figure)
    labels = ["s1-i1", "p1+s1", "i2-p1"]
    th = compute_thresholds(config.params)
    reference = th.eps_th if config.epsilon_mode == "rel_eps_th" else th.eps_th_prime
    for ratio in np.geomspace(1.05, config.epsilon_ratio, 21)[[0, 10, 20]]:
        system = config.params.with_epsilon(float(ratio) * reference)
        shared = minima_over_models([build_branch_model(system, config.branch)], labels)[0]
        for label, res in zip(labels, shared, strict=True):
            alone = min_over_frequency(system, config.branch, label)
            assert (res.label, res.omega, res.omega_norm, res.value) == \
                (alone.label, alone.omega, alone.omega_norm, alone.value)
            assert np.array_equal(res.gains, alone.gains)


def test_minima_over_models_defaults_to_every_inequality(monkeypatch):
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 8)
    monkeypatch.setattr(vlf, "_XTOL", 1e-3)
    results = minima_over_models([build_branch_model(pumped(0.4, 1.2), "lower")])[0]
    assert [res.label for res in results] == list(EXPECTED)


def test_inequalities_must_not_be_a_bare_string():
    # A string is a sequence of one-character labels; it used to fail on
    # its first character as an unknown inequality 's'.
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    with pytest.raises(ParameterError, match="sequence of labels"):
        minima_over_models([model], "s1-i1")
    with pytest.raises(ParameterError, match="sequence of labels"):
        sweep_frequency(model.params, None, "s1-i1", [1.0], model=model)
    assert minima_over_models([model], ["s1-i1"])[0][0].label == "s1-i1"


def run_search(search, f, max_steps):
    """Drive a golden-section generator; return (x, f(x), abscissae)."""
    abscissae = [next(search)]
    for _ in range(max_steps):
        try:
            abscissae.append(search.send(f(abscissae[-1])))
        except StopIteration as stop:
            return (*stop.value, abscissae)
    raise AssertionError(f"golden section still running after {max_steps} steps")


def test_golden_section_stops_when_the_bracket_stops_shrinking():
    # 1e-17 is below one ulp of the bracket ends: the bracket can never
    # get that narrow, so only the shrink test can end the search.
    x, fx, abscissae = run_search(_golden_section(0.2, 0.4, 1e-17),
                                  lambda w: (w - 0.3) ** 2, max_steps=1000)
    assert 0.2 <= x <= 0.4 and abs(x - 0.3) < 1e-15
    assert fx == (x - 0.3) ** 2
    assert len(abscissae) < 200


def test_golden_section_generator_keeps_the_callback_sequence():
    def f(w):
        return math.cos(3.0 * w) + 0.1 * w

    for lo, hi, xtol in ((0.2, 0.4, 1e-6), (0.01, 100.0, 1e-6), (1.0, 2.0, 1e-3)):
        calls = []
        expected = golden_section(lambda w: calls.append(w) or f(w), lo, hi, xtol)
        x, fx, abscissae = run_search(_golden_section(lo, hi, xtol), f, max_steps=1000)
        assert abscissae == calls
        assert (x, fx) == expected


def test_gain_solve_value_is_evaluate_inequality_at_its_gains():
    params = pumped(0.4, 2.2, reference="eps_th_prime")
    for branch in ("lower", "upper"):
        model = build_branch_model(params, branch)
        for omega_norm in (0.01, 0.3, 7.0, 100.0):
            spectrum = spectrum_at(model, omega_norm)
            for ineq in INEQUALITIES:
                values, gains = _gain_solves(*_problem_arrays((ineq,)), spectrum.v_out[None])
                assert values[0] == evaluate_inequality(ineq, spectrum, gains[0])


def assert_matches_gain_oracle(ineqs, spectra):
    values, gains = _gain_solves(*_problem_arrays(ineqs),
                                 np.array([spectrum.v_out for spectrum in spectra]))
    assert values.shape == (len(ineqs),) and gains.shape == (len(ineqs), 4)
    for ineq, spectrum, value, row_gains in zip(ineqs, spectra, values, gains, strict=True):
        ref_gains, ref_value = reference_gain_solve(ineq, spectrum.v_out)
        assert np.array_equal(row_gains, ref_gains)
        assert value == ref_value


def test_gain_solves_match_per_slice_oracle_in_every_regime():
    rng = np.random.default_rng(3)
    grid = np.geomspace(0.01, 100.0, 64)
    branches_seen = set()
    for regime in REGIMES:
        params = random_params(rng, regime=regime)
        for state in analytic_steady_states(params):
            branches_seen.add(state.branch.value)
            model = build_branch_model(params, state.branch)
            results = sweep_frequency(params, state.branch, omega_grid=grid, model=model)
            v_out = output_spectra(model, grid * params.gamma_a)
            for k, res in enumerate(results):
                gains, value = reference_gain_solve(INEQUALITIES[k % 5], v_out[k // 5])
                assert np.array_equal(res.gains, gains)
                assert res.value == value
    assert branches_seen == {"trivial", "lower", "upper"}


def test_gain_solves_match_per_slice_oracle_on_low_rank_spectra():
    # PSD spectra of every rank from 1 to 12 and scales up to 1e16: below
    # rank 4 every free block is singular and lstsq takes its minimum-norm
    # solution.
    rng = np.random.default_rng(11)
    ineqs, spectra = [], []
    for k in range(240):
        factor = rng.standard_normal((12, 1 + k % 12)) * 10.0 ** rng.uniform(-8.0, 8.0)
        spectra.append(QuadratureSpectrum(omega=float(k), omega_norm=float(k),
                                          v_out=factor @ factor.T))
        ineqs.append(INEQUALITIES[k % 5])
    assert_matches_gain_oracle(ineqs, spectra)


def test_gain_solves_match_per_slice_oracle_on_a_mixed_stack():
    # As one lockstep refine step builds it: each row is a different
    # witness at its own pending omega.
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    omega_norms = [0.013, 0.4, 0.41, 2.0, 37.0, 0.4]
    spectra = [spectrum_at(model, w) for w in omega_norms]
    ineqs = [INEQUALITIES[k] for k in (2, 0, 4, 1, 3, 2)]
    assert_matches_gain_oracle(ineqs, spectra)
    for ineq, spectrum in zip(ineqs, spectra):
        gains, value = reference_gain_solve(ineq, spectrum.v_out)
        res = optimize_gains(ineq, spectrum)
        assert np.array_equal(res.gains, gains) and res.value == value
        assert (res.label, res.omega, res.omega_norm) == \
            (ineq.label, spectrum.omega, spectrum.omega_norm)


def test_gain_solves_broadcast_problems_against_spectra():
    # As a grid scan calls it: every witness against every spectrum, in
    # both orders of the two leading axes.
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    v_out = np.array([spectrum_at(model, w).v_out for w in (0.013, 0.4, 2.0, 37.0)])
    problems = _problem_arrays(INEQUALITIES)
    by_witness = _gain_solves(*(a[:, None] for a in problems), v_out)
    by_frequency = _gain_solves(*problems, v_out[:, None])
    assert by_witness[0].shape == (5, 4) and by_witness[1].shape == (5, 4, 4)
    for p, ineq in enumerate(INEQUALITIES):
        for j, v in enumerate(v_out):
            gains, value = reference_gain_solve(ineq, v)
            assert by_witness[0][p, j] == value == by_frequency[0][j, p]
            assert np.array_equal(by_witness[1][p, j], gains)
            assert np.array_equal(by_frequency[1][j, p], gains)


def assert_matches_sequential(model, omega_range=(0.01, 100.0), scale="log"):
    """minima_over_models on one model equals the one-witness sequential reference.

    The reference reads the coarse grid size and the tolerance from
    ``vlf._COARSE_POINTS`` and ``vlf._XTOL``, which a test may monkeypatch.
    Returns the reference's golden-section evaluation count per witness.
    """
    lo, hi = omega_range
    grid = (np.geomspace if scale == "log" else np.linspace)(lo, hi, vlf._COARSE_POINTS)
    results = minima_over_models([model], None, omega_range=omega_range, scale=scale)[0]
    counts = []
    for ineq, res in zip(INEQUALITIES, results, strict=True):
        ref, count = sequential_minimum(model, ineq, grid, vlf._XTOL)
        assert (res.label, res.omega, res.omega_norm, res.value) == \
            (ref.label, ref.omega, ref.omega_norm, ref.value)
        assert np.array_equal(res.gains, ref.gains)
        counts.append(count)
    return counts


@pytest.mark.parametrize("figure", ["fig8", "fig9"])
def test_lockstep_refine_matches_sequential_reference_on_pump_sweeps(figure):
    from cascaded_fwm.cli import figure_config

    config = figure_config(figure)
    th = compute_thresholds(config.params)
    reference = th.eps_th if config.epsilon_mode == "rel_eps_th" else th.eps_th_prime
    for ratio in np.geomspace(1.05, config.epsilon_ratio, 21)[[0, 10, 20]]:
        system = config.params.with_epsilon(float(ratio) * reference)
        assert_matches_sequential(build_branch_model(system, config.branch))


def test_lockstep_refine_matches_sequential_reference_in_every_regime(monkeypatch):
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 16)
    rng = np.random.default_rng(7)
    branches_seen = set()
    for regime in ("NoThreshold", "BelowThreshold", "BetweenThresholds",
                   "AboveUpperThreshold"):
        params = random_params(rng, regime=regime)
        for state in analytic_steady_states(params):
            branches_seen.add(state.branch.value)
            assert_matches_sequential(build_branch_model(params, state.branch))
    assert branches_seen == {"trivial", "lower", "upper"}


def test_lockstep_refine_matches_sequential_reference_on_a_linear_grid(monkeypatch):
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 24)
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    assert_matches_sequential(model, omega_range=(0.05, 20.0), scale="linear")


@pytest.mark.parametrize("xtol", [1e-3, 1e-9])
def test_lockstep_refine_matches_sequential_reference_at_another_tolerance(xtol, monkeypatch):
    # _XTOL is read when a search runs, not when the module is imported.
    monkeypatch.setattr(vlf, "_XTOL", xtol)
    assert_matches_sequential(build_branch_model(pumped(0.4, 1.2), "lower"))


def test_lockstep_refine_matches_sequential_reference_at_a_window_edge(monkeypatch):
    # Above 5 gamma_a the witnesses of this point only rise with omega, so
    # every minimum sits in the outermost cell at the left edge.
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    grid = np.geomspace(5.0, 100.0, 12)
    for ineq in INEQUALITIES:
        values = [res.value for res in
                  sweep_frequency(model.params, None, (ineq,), grid, model=model)]
        assert int(np.argmin(values)) == 0
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 12)
    assert_matches_sequential(model, omega_range=(5.0, 100.0))


def test_lockstep_refine_with_searches_of_different_lengths():
    # On a log grid a bracket is as wide as its cells, so a minimum at 0.01
    # converges in fewer steps than one near 2 gamma_a and its search drops
    # out of the lockstep first.
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    counts = assert_matches_sequential(model)
    assert len(set(counts)) > 1


def assert_same_result(res, ref):
    assert (res.label, res.omega, res.omega_norm, res.value) == \
        (ref.label, ref.omega, ref.omega_norm, ref.value)
    assert np.array_equal(res.gains, ref.gains)


@pytest.mark.parametrize("figure", ["fig8", "fig9"])
def test_minima_over_models_matches_per_model_search_at_every_pump_point(figure):
    from cascaded_fwm.cli import figure_config

    config = figure_config(figure)
    labels = ["s1-i1", "p1+s1", "i2-p1"]
    th = compute_thresholds(config.params)
    reference = th.eps_th if config.epsilon_mode == "rel_eps_th" else th.eps_th_prime
    models = [build_branch_model(config.params.with_epsilon(float(ratio) * reference),
                                 config.branch)
              for ratio in np.geomspace(1.05, config.epsilon_ratio, 21)]
    batched = minima_over_models(models, labels)
    assert len(batched) == 21
    for model, results in zip(models, batched, strict=True):
        alone = minima_over_models([model], labels)[0]
        for res, ref in zip(results, alone, strict=True):
            assert_same_result(res, ref)


def test_coarse_scan_hands_the_argmin_rows_of_sweep_arrays_to_the_refine(monkeypatch):
    from cascaded_fwm.cli import figure_config

    config = figure_config("fig8")
    reference = compute_thresholds(config.params).eps_th
    assert config.epsilon_mode == "rel_eps_th"
    models = [build_branch_model(config.params.with_epsilon(float(ratio) * reference),
                                 config.branch)
              for ratio in np.geomspace(1.05, config.epsilon_ratio, 21)[[0, -1]]]
    handed, refine = [], vlf._refine_minima

    def capture(rows, problems, grid, coarse, work):
        handed.extend(coarse)
        return refine(rows, problems, grid, coarse, work)

    monkeypatch.setattr(vlf, "_refine_minima", capture)
    minima_over_models(models)
    grid = np.geomspace(*vlf._OMEGA_WINDOW, vlf._COARSE_POINTS)
    want = []
    for model in models:
        omega, omega_norm, values, gains = _sweep_arrays(model, _problem_arrays(INEQUALITIES),
                                                         grid)
        want.extend((best, (omega[best], omega_norm[best], values[best, p], gains[best, p]))
                    for p, best in enumerate(np.argmin(values, axis=0).tolist()))
    assert len(handed) == 2 * len(INEQUALITIES)
    for (best, point), (want_best, want_point) in zip(handed, want, strict=True):
        assert best == want_best
        assert point[:3] == want_point[:3]
        assert np.array_equal(point[3], want_point[3])


def test_minima_over_models_matches_sequential_reference_on_a_mixed_batch(monkeypatch):
    # The models of the per-model regime test above, now in one lockstep:
    # every regime and branch, and searches that end after different
    # numbers of steps, so rows drop out of the stack unevenly.
    rng = np.random.default_rng(7)
    models = []
    for regime in REGIMES:
        params = random_params(rng, regime=regime)
        models.extend(build_branch_model(params, state.branch)
                      for state in analytic_steady_states(params))
    assert {model.steady_state.branch.value for model in models} == \
        {"trivial", "lower", "upper"}
    grid = np.geomspace(0.01, 100.0, 16)
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 16)
    batched = minima_over_models(iter(models))
    counts = set()
    for model, results in zip(models, batched, strict=True):
        for ineq, res in zip(INEQUALITIES, results, strict=True):
            ref, count = sequential_minimum(model, ineq, grid)
            assert_same_result(res, ref)
            counts.add(count)
    assert len(counts) > 1


def test_minima_over_models_validation():
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    with pytest.raises(ParameterError, match="omega_min must be smaller than omega_max"):
        minima_over_models([model], omega_range=(1.0, 0.5))
    with pytest.raises(ParameterError, match="scale"):
        minima_over_models([model], scale="sqrt")
    # The arguments are checked before the first model is taken.
    with pytest.raises(ParameterError, match="scale"):
        minima_over_models([], scale="sqrt")
    assert minima_over_models([]) == []
    assert minima_over_models([model, model], inequalities=[]) == [[], []]


def test_sweep_frequency_without_inequalities_is_empty():
    assert [a.shape for a in _problem_arrays(())] == [(0, 12), (0, 12), (0, 4)]
    params = pumped(0.4, 1.2)
    assert sweep_frequency(params, "lower", inequalities=[]) == []
    assert sweep_frequency(params, "lower", inequalities=(), omega_grid=[0.1, 1.0]) == []


def assert_results_independent(first, second):
    """No gain vector of ``first`` shares memory with one of ``second``."""
    for res in first:
        for other in second:
            assert not np.shares_memory(res.gains, other.gains)


def test_consecutive_sweeps_and_searches_share_no_memory(monkeypatch):
    # Each call owns its workspace: a second call neither aliases nor
    # overwrites what the first returned.
    model = build_branch_model(pumped(0.4, 1.2), "lower")
    first = sweep_frequency(model.params, None, omega_grid=np.geomspace(0.01, 100.0, 70),
                            model=model)
    snapshot = [(res.value, res.gains.copy()) for res in first]
    second = sweep_frequency(model.params, None, omega_grid=np.geomspace(0.02, 50.0, 70),
                             model=model)
    assert_results_independent(first, second)
    for res, (value, gains) in zip(first, snapshot, strict=True):
        assert res.value == value and np.array_equal(res.gains, gains)

    other = build_branch_model(pumped(0.4, 1.5), "lower")
    monkeypatch.setattr(vlf, "_COARSE_POINTS", 16)
    first = minima_over_models([model, other])
    snapshot = [[(res.omega, res.value, res.gains.copy()) for res in row] for row in first]
    second = minima_over_models([other, model])
    assert_results_independent(sum(first, []), sum(second, []))
    for row, row_snapshot in zip(first, snapshot, strict=True):
        for res, (omega, value, gains) in zip(row, row_snapshot, strict=True):
            assert (res.omega, res.value) == (omega, value)
            assert np.array_equal(res.gains, gains)
    # Same models, same results, in either order.
    for res, ref in zip(sum(first, []), sum(second[::-1], []), strict=True):
        assert_same_result(res, ref)
