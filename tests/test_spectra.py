from dataclasses import replace

import numpy as np
import pytest

from cascaded_fwm import (
    QUADRATURE_LABELS,
    SWAP_PERMUTATION,
    BasisConsistencyError,
    FluctuationModel,
    NumericalError,
    ParameterError,
    StabilityError,
    SystemParams,
    analytic_steady_states,
    build_fluctuation_model,
    integrated_spectrum,
    minima_over_models,
    output_spectra,
    output_spectrum,
    quadrature_transform,
    spectral_matrix,
    state_for_branch,
    stationary_covariance,
    sweep_frequency,
)
from cascaded_fwm.spectra import _T, _output_stack, _spectral_stack, _Workspace
from helpers import (
    REGIMES,
    models_in_every_regime,
    pumped,
    random_params,
    reference_output_spectrum,
    reference_quadrature_transform,
    reference_spectral_matrix,
    spectrum_at,
    toy_model,
)


def test_diagonal_lorentzians():
    # Twelve uncoupled modes: each S_jj is its own Lorentzian, and nothing
    # couples two of them.
    gammas = np.linspace(0.3, 2.5, 12)
    d0 = np.linspace(1.3, -0.9, 12)
    model = toy_model(np.diag(gammas), np.diag(d0))
    off_diagonal = ~np.eye(12, dtype=bool)
    for omega in (0.0, 0.2, 5.0):
        s = spectral_matrix(model, omega)
        assert np.diag(s) == pytest.approx(d0 / (gammas**2 + omega**2), rel=1e-13)
        assert np.all(s[off_diagonal] == 0.0)


SPECTRAL_ENTRIES = {
    "output_spectra": lambda model: output_spectra(model, [0.3]),
    "spectral_matrix": lambda model: spectral_matrix(model, 0.3),
    "sweep_frequency": lambda model: sweep_frequency(model.params, "trivial", model=model),
    "minima_over_models": lambda model: minima_over_models([model]),
    "integrated_spectrum": integrated_spectrum,
}


@pytest.mark.parametrize("m, d", [
    ([[0.7]], [[1.3]]),
    (0.7 * np.eye(6), np.eye(6)),
    (np.full((12, 1), 0.7), np.eye(12)),
    (0.7 * np.eye(12), [[1.3]]),
], ids=["1x1", "6x6", "12x1-drift", "1x1-diffusion"])
@pytest.mark.parametrize("entry", SPECTRAL_ENTRIES)
def test_spectral_entries_refuse_a_model_that_is_not_12x12(entry, m, d):
    with pytest.raises(ParameterError, match="spectra need a 12x12 drift and diffusion"):
        SPECTRAL_ENTRIES[entry](toy_model(m, d))


def test_zero_diffusion_zero_spectrum():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    zero = FluctuationModel(params=params, steady_state=model.steady_state,
                            m=model.m, d=np.zeros((12, 12)))
    assert np.max(np.abs(spectral_matrix(zero, 0.5))) == 0.0


def test_solve_agrees_with_explicit_inverse():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((12, 12))
    m = a @ a.T / 12.0 + 0.5 * np.eye(12)  # comfortably stable
    g = rng.standard_normal((12, 12))
    d = (g + g.T) / 2.0
    model = toy_model(m, d)
    for omega in (0.0, 0.3, 2.0):
        lhs = np.linalg.inv(m + 1j * omega * np.eye(12))
        rhs = np.linalg.inv(m.T - 1j * omega * np.eye(12))
        assert np.max(np.abs(spectral_matrix(model, omega) - lhs @ d @ rhs)) < 1e-12


def test_high_frequency_decay():
    # S -> D / omega^2 far above every cavity linewidth.
    params = pumped(0.5, 1.5)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    omega = 1e6 * params.gamma_a
    s = spectral_matrix(model, omega)
    limit = 1.2 * np.max(np.abs(model.d)) / omega**2
    assert 0.0 < np.max(np.abs(s)) < limit


def test_formal_evaluation_off_the_stable_manifold():
    # The kept branches above the upper threshold are saddles; the spectral
    # formula still evaluates there (that is how these spectra are reported)
    # and the resulting output matrix stays positive semidefinite.
    params = pumped(0.4, 2.2, reference="eps_th_prime")
    for branch in ("lower", "upper"):
        model = build_fluctuation_model(params, state_for_branch(params, branch))
        for omega_norm in (0.05, 1.0, 30.0):
            spec = spectrum_at(model, omega_norm)
            assert np.min(np.linalg.eigvalsh(spec.v_out)) > -1e-9


def test_quadrature_basis_shape():
    t = _T
    eye = np.eye(6)
    assert np.array_equal(t[:6, :6], eye)
    assert np.array_equal(t[:6, 6:], eye)
    assert np.array_equal(t[6:, :6], -1j * eye)
    assert np.array_equal(t[6:, 6:], 1j * eye)
    assert QUADRATURE_LABELS[0] == "Xp2" and QUADRATURE_LABELS[6] == "Yp2"


def test_quadrature_transform_zero():
    assert np.array_equal(quadrature_transform(np.zeros((12, 12))),
                          np.zeros((12, 12)))


def test_output_spectrum_entrywise_form():
    params = SystemParams(gamma_a=0.02, gamma_b=0.05, gamma_c=0.08,
                          k1=1.0, k2=0.4, k3=0.4)
    v_intra = np.zeros((12, 12))
    v_intra[0, 0] = 1.5          # X_p2 variance
    v_intra[2, 8] = v_intra[8, 2] = -0.25  # X_i1 x Y_i1 cross entry
    spec = output_spectrum(v_intra, params, omega=0.01)
    v = spec.v_out
    assert v[0, 0] == pytest.approx(1.0 + 2.0 * 0.02 * 1.5)
    assert v[2, 8] == pytest.approx(2.0 * np.sqrt(0.05 * 0.05) * -0.25)
    assert v[1, 1] == 1.0  # untouched mode sits at shot noise
    assert spec.omega_norm == pytest.approx(0.01 / 0.02)


def test_vacuum_limit_and_symmetry():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    spec = spectrum_at(model, 1e3)
    assert np.max(np.abs(spec.v_out - np.eye(12))) < 2e-3
    assert np.array_equal(spec.v_out, spec.v_out.T)
    assert np.all(np.diag(spec.v_out) >= 0.0)


def test_mode_swap_invariance():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    perm = np.concatenate([SWAP_PERMUTATION, 6 + np.array(SWAP_PERMUTATION)])
    for omega_norm in (0.05, 0.7, 12.0):
        v = spectrum_at(model, omega_norm).v_out
        assert np.max(np.abs(v[np.ix_(perm, perm)] - v)) < 1e-10


# Worst cases over the 30 models of ``models_in_every_regime`` on a 64-point
# grid, relative to max|v_out|: 8.0e-16 for the swap, 3.0e-16 for the X/Y
# cross blocks (exactly zero at real amplitudes).  The bounds allow >= 12x.
def test_swap_invariance_and_xy_decoupling_in_every_regime():
    perm = np.concatenate([SWAP_PERMUTATION, 6 + np.array(SWAP_PERMUTATION)])
    grid = np.geomspace(0.01, 100.0, 64)
    for params, model in models_in_every_regime():
        v = output_spectra(model, grid * params.gamma_a)
        scale = np.abs(v).max()
        assert np.abs(v[:, perm][:, :, perm] - v).max() <= 1e-14 * scale
        assert np.abs(v[:, :6, 6:]).max() <= 5e-15 * scale
        assert np.abs(v[:, 6:, :6]).max() <= 5e-15 * scale


def test_shot_noise_limit_in_every_regime():
    # Far above every rate the spectra fall to shot noise as 1 / omega^2:
    # |v_out - I| <= c * 8 max(gamma) max|D| / omega^2, with c <= 0.51
    # measured over the same 30 models; the test allows c = 1.
    for params, model in models_in_every_regime():
        omegas = np.array([1e3, 1e4, 1e5]) * params.gamma_a
        v = output_spectra(model, omegas)
        bound = 8.0 * params.damping_rates().max() * np.abs(model.d).max() / omegas**2
        assert np.all(np.abs(v - np.eye(12)).max(axis=(1, 2)) <= bound)


def test_linear_combination_consistency():
    # c^T v_out c must equal the variance assembled through the amplitude
    # basis: shot noise + 2 Re(u^T S u) with u = T^T G^(1/2) c.
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    t = _T
    g_half = np.sqrt(np.tile(params.damping_rates(), 2))
    rng = np.random.default_rng(8)
    for omega_norm in (0.03, 1.0, 40.0):
        omega = omega_norm * params.gamma_a
        s = spectral_matrix(model, omega)
        v_out = spectrum_at(model, omega_norm).v_out
        for _ in range(5):
            c = rng.standard_normal(12)
            direct = c @ v_out @ c
            u = t.T @ (g_half * c)
            alpha_route = c @ c + 2.0 * np.real(u @ s @ u)
            assert abs(direct - alpha_route) < 1e-10 * (1.0 + abs(direct))


def test_integrated_spectrum_matches_lyapunov():
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    sigma = stationary_covariance(model)
    integral = integrated_spectrum(model)
    assert np.max(np.abs(integral - sigma)) < 1e-6


def test_integrated_spectrum_rejects_marginal_drift():
    # The converted branch holds an exactly neutral phase mode that carries
    # diffusion; the integral diverges there and must refuse loudly instead
    # of returning quadrature noise.
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    with pytest.raises(StabilityError):
        integrated_spectrum(model)


def test_integrated_spectrum_zero_diffusion():
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    zero = FluctuationModel(params=params, steady_state=model.steady_state,
                            m=model.m, d=np.zeros((12, 12)))
    assert np.max(np.abs(integrated_spectrum(zero))) < 1e-15


def test_quadrature_basis_is_read_only():
    with pytest.raises(ValueError):
        _T[0, 0] = 2.0


def test_output_spectra_equal_single_frequency_path():
    # Every regime and every analytic branch it has: the stacked grid must
    # reproduce the one-frequency chain bit for bit.
    rng = np.random.default_rng(2024)
    branches_seen = set()
    for regime in REGIMES:
        params = random_params(rng, regime=regime)
        for state in analytic_steady_states(params):
            branches_seen.add(state.branch.value)
            model = build_fluctuation_model(params, state)
            omegas = np.geomspace(0.01, 100.0, 64) * params.gamma_a
            stacked = output_spectra(model, omegas)
            assert stacked.shape == (64, 12, 12)
            for omega, v_out in zip(omegas, stacked):
                one_point = output_spectrum(quadrature_transform(spectral_matrix(model, omega)),
                                            params, omega)
                assert np.array_equal(v_out, one_point.v_out)
    assert branches_seen == {"trivial", "lower", "upper"}


def test_output_spectra_chunks_agree_across_boundaries():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    omegas = np.geomspace(0.01, 100.0, 150) * params.gamma_a
    whole = output_spectra(model, omegas)
    assert np.array_equal(whole[70:], output_spectra(model, omegas[70:]))
    assert output_spectra(model, omegas[:0]).shape == (0, 12, 12)


def test_output_spectra_names_the_ill_conditioned_frequency():
    # A drift matrix with eigenvalues spread over 14 decades fails the
    # solve-residual guard at low frequency and passes it at high.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    model = toy_model(a @ np.diag(np.logspace(0, 14, 12)) @ np.linalg.inv(a),
                      np.eye(12))
    omegas = [1e18, 1e15, 1e12, 1e9, 1e3, 1.0, 0.0]
    first_bad = None
    for k, omega in enumerate(omegas):
        try:
            spectral_matrix(model, omega)
        except NumericalError as exc:
            first_bad, message = k, str(exc)
            break
    assert first_bad is not None and first_bad > 0
    assert f"omega={omegas[first_bad]!r}" in message
    with pytest.raises(NumericalError) as stacked:
        output_spectra(model, omegas)
    assert str(stacked.value) == message


def test_output_spectra_rejects_non_vector_grid():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    with pytest.raises(ParameterError, match="1-D"):
        output_spectra(model, np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_output_spectra_rejects_non_finite_frequencies(bad):
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    with pytest.raises(ParameterError, match="finite"):
        output_spectra(model, [0.01, bad])


def test_quadrature_transform_rejects_non_hermitian_input():
    with pytest.raises(BasisConsistencyError, match="not Hermitian: residue"):
        quadrature_transform(1j * np.eye(12))


def test_output_spectra_names_the_non_hermitian_frequency():
    # A complex drift has no real operating point behind it: T S T^T keeps
    # an anti-Hermitian part far above the residue budget.
    base = toy_model(np.eye(12), np.eye(12))
    model = FluctuationModel(params=base.params, steady_state=base.steady_state,
                             m=(0.05 + 0.02j) * np.eye(12), d=np.eye(12))
    with pytest.raises(BasisConsistencyError, match=r"not Hermitian at omega=0\.3:"):
        output_spectra(model, [0.3, 1.0])


def mixed_rows(rng, size=70):
    """Models from every regime and branch, and ``size`` rows spread over them.

    Returns the models and, per row, the model index and omega; the rows
    interleave the models and their damping rates differ.
    """
    models = []
    for regime in REGIMES:
        params = random_params(rng, regime=regime)
        models.extend(build_fluctuation_model(params, state)
                      for state in analytic_steady_states(params))
    index = rng.integers(len(models), size=size)
    omegas = np.array([10.0 ** rng.uniform(-2.0, 2.0) * models[k].params.gamma_a
                       for k in index])
    return models, index, omegas


def stack_rows(models, index):
    return (np.array([models[k].m for k in index]),
            np.array([models[k].d for k in index]),
            np.array([models[k].params.damping_rates() for k in index]))


def test_output_stack_rows_equal_each_model_alone():
    # More than 64 rows, so the stack crosses a chunk boundary.
    models, index, omegas = mixed_rows(np.random.default_rng(99))
    assert len({models[k].params.gamma_b for k in index}) > 1
    assert len({models[k].steady_state.branch for k in index}) == 3
    v_out = _output_stack(*stack_rows(models, index), omegas)
    assert v_out.shape == (70, 12, 12)
    for k, omega, row in zip(index, omegas, v_out):
        assert np.array_equal(row, output_spectra(models[k], [omega])[0])


def test_output_stack_names_an_ill_conditioned_row_as_it_would_alone():
    # The toy drift of test_output_spectra_names_the_ill_conditioned_frequency
    # fails the solve guard at 1.0; between well-conditioned rows of other
    # models it must fail with the same message.  Its neighbour's diffusion
    # is 1e12, so a budget scaled by the whole stack's max|D| would pass it.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    bad = toy_model(a @ np.diag(np.logspace(0, 14, 12)) @ np.linalg.inv(a), np.eye(12))
    loud = toy_model(0.5 * np.eye(12), 1e12 * np.eye(12))
    with pytest.raises(NumericalError) as alone:
        output_spectra(bad, [1.0])
    output_spectra(loud, [1.0])
    models, index, omegas = mixed_rows(np.random.default_rng(5))
    models.extend((bad, loud))
    index = np.insert(index, 40, [len(models) - 2, len(models) - 1])
    omegas = np.insert(omegas, 40, [1.0, 1.0])
    with pytest.raises(NumericalError) as stacked:
        _output_stack(*stack_rows(models, index), omegas)
    assert str(stacked.value) == str(alone.value)


def one_point_chain(model, omega):
    return output_spectrum(quadrature_transform(spectral_matrix(model, omega)),
                           model.params, omega).v_out


def test_output_stack_in_one_workspace_equals_the_one_point_chain_at_chunk_edges():
    # One workspace serves stacks of every length around the 64-row chunk;
    # each row still equals its model's one-point chain bit for bit, and no
    # result shares memory with the workspace or with an earlier result.
    work = _Workspace()
    rng = np.random.default_rng(31)
    earlier = []
    for n in (1, 63, 64, 65, 129):
        models, index, omegas = mixed_rows(rng, size=n)
        v_out = _output_stack(*stack_rows(models, index), omegas, work)
        assert v_out.shape == (n, 12, 12)
        for k, omega, row in zip(index, omegas, v_out):
            assert np.array_equal(row, one_point_chain(models[k], omega))
        for buffer in (work.complex, work.real, *(old for old, _ in earlier)):
            assert not np.shares_memory(v_out, buffer)
        earlier.append((v_out, v_out.copy()))
    for v_out, snapshot in earlier:
        assert np.array_equal(v_out, snapshot)


def test_consecutive_output_spectra_share_no_memory():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    first = output_spectra(model, np.geomspace(0.01, 100.0, 70) * params.gamma_a)
    snapshot = first.copy()
    second = output_spectra(model, np.geomspace(0.02, 50.0, 70) * params.gamma_a)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, snapshot)


def singular_at_zero():
    """A toy model whose drift has a zero row: M + i omega I is exactly singular at 0.

    Row 3 and its conjugate row 9 both vanish, so away from 0 the spectrum
    keeps the conjugation structure the quadrature guard expects.
    """
    m = np.eye(12)
    m[[3, 9]] = 0.0
    return toy_model(m, np.eye(12))


def test_exactly_singular_slice_raises_linalg_error():
    # The one-point chain refuses the zero-row drift at omega = 0 before its
    # solve (see test_spectral_matrix_at_zero_frequency_needs_a_decaying_drift);
    # a rotation block of rate 1 makes M + i omega I exactly singular at 1.
    rotation = np.eye(12)
    rotation[0, 0] = rotation[6, 6] = 0.0
    rotation[0, 6], rotation[6, 0] = 1.0, -1.0
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        spectral_matrix(toy_model(rotation, np.eye(12)), 1.0)
    model = singular_at_zero()
    rates = np.broadcast_to(model.params.damping_rates(), (3, 6))
    stack = (np.broadcast_to(model.m, (3, 12, 12)), np.broadcast_to(model.d, (3, 12, 12)), rates)
    work = _Workspace()
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _output_stack(*stack, np.array([1.0, 0.0, 2.0]), work)
    # The same workspace goes on to serve the regular slices.
    v_out = _output_stack(*stack, np.array([1.0, 2.0, 3.0]), work)
    assert np.array_equal(v_out[1], one_point_chain(model, 2.0))


def test_output_spectra_at_zero_frequency_needs_a_decaying_drift():
    # A converted branch has an exact neutral mode, so S(0) sits on a pole;
    # the stacked solve would return its rounding noise.
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    with pytest.raises(StabilityError, match="omega = 0 needs a decisively decaying drift"):
        output_spectra(model, [0.0, params.gamma_a])
    output_spectra(model, [params.gamma_a])
    # The zero-row drift is refused by the same gate before its solve fails.
    with pytest.raises(StabilityError, match="omega = 0"):
        output_spectra(singular_at_zero(), [0.0])


def test_output_spectra_at_zero_frequency_on_a_decaying_branch():
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    omegas = np.array([0.0, 0.5, 1.0]) * params.gamma_a
    for omega, v_out in zip(omegas, output_spectra(model, omegas)):
        assert np.array_equal(v_out, one_point_chain(model, omega))


def test_spectral_matrix_at_zero_frequency_needs_a_decaying_drift():
    # The one-point chain applies the gate of output_spectra: on the lower
    # branch S(0) sits on the neutral mode's pole, and the solve used to
    # return its rounding noise (entries up to 1e32) without an error.
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    with pytest.raises(StabilityError, match="omega = 0 needs a decisively decaying drift"):
        spectral_matrix(model, 0.0)
    spectral_matrix(model, params.gamma_a)
    with pytest.raises(StabilityError, match="omega = 0"):
        spectral_matrix(singular_at_zero(), 0.0)


def test_spectral_matrix_at_zero_frequency_on_a_decaying_branch():
    # The gate passes a decaying drift through to the ungated solve.
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    want = _spectral_stack(model.m, model.d, np.zeros(1))[0]
    got = spectral_matrix(model, 0.0)
    for part in ("real", "imag"):
        a, b = getattr(got, part), getattr(want, part)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def nan_diffusion_model():
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    return replace(model, d=model.d * np.nan)


def test_a_nan_diffusion_fails_the_spectral_solve_guard():
    # A NaN residual used to pass the "residual > budget" comparison, and
    # both routes returned an all-NaN spectrum without an error.
    model = nan_diffusion_model()
    omega = 0.5 * model.params.gamma_a
    with pytest.raises(NumericalError, match="ill-conditioned spectral solve.*residual nan"):
        output_spectra(model, [omega])
    with pytest.raises(NumericalError, match="ill-conditioned spectral solve.*residual nan"):
        spectral_matrix(model, omega)


def test_a_nan_spectrum_fails_the_hermitian_residue_guard():
    with pytest.raises(BasisConsistencyError, match="not Hermitian: residue nan"):
        quadrature_transform(np.full((12, 12), np.nan + 0j))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_matrix_rejects_a_non_finite_frequency(bad):
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    with pytest.raises(ParameterError, match="finite"):
        spectral_matrix(model, bad)


def test_spectral_matrix_at_a_finite_frequency_is_the_unchecked_solve():
    params = pumped(0.4, 1.2)
    model = build_fluctuation_model(params, state_for_branch(params, "lower"))
    for omega in (1e-3, 0.5, 40.0):
        omega *= params.gamma_a
        want = _spectral_stack(model.m, model.d, np.array([omega]))[0]
        got = spectral_matrix(model, omega)
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(want, part)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_integrated_spectrum_needs_a_real_drift():
    # The fold S(-omega) = S(omega)* holds only for real M and D: with this
    # complex drift the folded integral missed the Lyapunov Sigma by 3.45,
    # its whole imaginary part.
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    complex_drift = replace(model, m=(0.05 + 0.02j) * np.eye(12), d=np.eye(12))
    with pytest.raises(NumericalError, match="assumes a real drift matrix"):
        integrated_spectrum(complex_drift)


def bits(a):
    """The bytes of every float of ``a``, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def reference_points():
    """Models on the trivial branch and on every branch of two draws per regime,
    with the frequencies where the diagonal shift decides the sign bits."""
    params = pumped(0.4, 0.8)
    models = [build_fluctuation_model(params, state_for_branch(params, "trivial"))]
    models += [model for _, model in models_in_every_regime(draws=2, seed=28)]
    return [(model, np.array([0.0, -0.0, -1.0, 1e-3, 1.0, 40.0]) * model.params.gamma_a)
            for model in models]


def test_spectral_stack_equals_the_shifted_eye_reference_bit_for_bit():
    # M + i omega and M - i omega are formed on the diagonal; the floats and
    # the sign of every zero must be those of m +- 1j * omega * eye.  The
    # trivial branch's M holds -0.0 entries, and omega = -0.0 and omega < 0
    # flip signs in that product.
    points = reference_points()
    assert np.signbit(points[0][0].m[points[0][0].m == 0.0]).any()
    for model, omegas in points:
        stacked = _spectral_stack(model.m, model.d, omegas)
        for omega, got in zip(omegas, stacked):
            expected = reference_spectral_matrix(model.m, model.d, omega)
            assert np.array_equal(bits(got), bits(expected))
            alone = _spectral_stack(model.m, model.d, np.array([omega]))[0]
            assert np.array_equal(bits(alone), bits(expected))


def test_output_stack_equals_the_reference_chain_bit_for_bit():
    # One stack of every row, models mixed: v_out must equal the chain of
    # the complex (v + v^T) / 2 and the tiled rates, sign bits included.
    rows = [(model, omega) for model, omegas in reference_points() for omega in omegas]
    assert len(rows) > 64
    v_out = _output_stack(np.array([model.m for model, _ in rows]),
                          np.array([model.d for model, _ in rows]),
                          np.array([model.params.damping_rates() for model, _ in rows]),
                          np.array([omega for _, omega in rows]))
    expected = [reference_output_spectrum(model, omega) for model, omega in rows]
    assert np.array_equal(bits(v_out), bits(np.array(expected)))


def hermitian_probe(excess):
    """s whose T s T^T is a real symmetric matrix with max ~1e3 plus an
    antisymmetric part, with the residue at ``excess`` times the full budget
    1e-9 (1 + max|T s T^T|)."""
    rng = np.random.default_rng(3)
    h = rng.standard_normal((12, 12))
    h = 500.0 * (h + h.T)
    skew = np.zeros((12, 12))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    half = np.block([[np.eye(6), 1j * np.eye(6)], [np.eye(6), -1j * np.eye(6)]]) / 2.0
    budget = 1e-9 * (1.0 + np.abs(h).max())
    v = h + excess * budget * skew
    return half @ v @ half.T


def test_hermitian_residue_guard_decides_on_its_full_budget():
    # Between the cheap bound 1e-9 and the full budget the residue passes;
    # just above the full budget it fails with the reference's message.
    inside = hermitian_probe(0.5)
    v = _T @ inside @ _T.T
    residue = np.abs(v - v.conj().T).max() / 2.0
    assert 1e-9 < residue < 1e-9 * (1.0 + np.abs(v).max())
    assert np.array_equal(quadrature_transform(inside), reference_quadrature_transform(inside))
    outside = hermitian_probe(1.0 + 1e-6)
    with pytest.raises(BasisConsistencyError) as expected:
        reference_quadrature_transform(outside)
    with pytest.raises(BasisConsistencyError) as got:
        quadrature_transform(outside)
    assert str(got.value) == str(expected.value)
