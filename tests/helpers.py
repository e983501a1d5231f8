"""Shared operating points for the test suite.

The two canonical coupling sets: k2 = 0.5 puts the system exactly on the
threshold-coincidence manifold (k1 = 2 k2, equal dampings), k2 = 0.4 gives
the split thresholds with eps_th_prime = 2 eps_th.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from cascaded_fwm import (
    Mode,
    NumericalError,
    ParameterError,
    RelaxationResult,
    SystemParams,
    compute_thresholds,
    default_step,
    factor_diffusion,
    optimize_gains,
    output_spectrum,
    quadrature_transform,
    spectral_matrix,
    stability,
)

GAMMA = 0.03


def make_params(k2, epsilon=0.0, gamma=GAMMA, k1=1.0):
    return SystemParams(gamma_a=gamma, gamma_b=gamma, gamma_c=gamma,
                        k1=k1, k2=k2, k3=k2, epsilon=epsilon)


def pumped(k2, ratio, reference="eps_th", **kwargs):
    """Parameter set with epsilon = ratio * (chosen threshold)."""
    params = make_params(k2, **kwargs)
    th = compute_thresholds(params)
    base = th.eps_th if reference == "eps_th" else th.eps_th_prime
    return params.with_epsilon(ratio * base)


def random_params(rng, regime=None):
    """One random valid parameter set, optionally pinned to a pump regime."""
    gammas = 10.0 ** rng.uniform(-2.5, -0.5, size=3)
    k2 = 10.0 ** rng.uniform(-1.0, 0.3)
    coincidence = 2.0 * k2 * np.sqrt(gammas[1] / gammas[2])
    if regime == "NoThreshold":
        k1 = coincidence * rng.uniform(0.3, 0.95)
    else:
        k1 = coincidence * rng.uniform(1.05, 3.0)
    params = SystemParams(gamma_a=gammas[0], gamma_b=gammas[1], gamma_c=gammas[2],
                          k1=k1, k2=k2, k3=k2)
    th = compute_thresholds(params)
    if regime in (None, "NoThreshold"):
        eps = rng.uniform(0.0, 1.0) * (th.eps_th if th.has_threshold else 1.0)
    elif regime == "BelowThreshold":
        eps = rng.uniform(0.1, 0.99) * th.eps_th
    elif regime == "BetweenThresholds":
        eps = th.eps_th + rng.uniform(0.05, 0.95) * (th.eps_th_prime - th.eps_th)
    elif regime == "AboveUpperThreshold":
        eps = th.eps_th_prime * rng.uniform(1.05, 4.0)
    else:
        raise ValueError(regime)
    return params.with_epsilon(float(eps))


REGIMES = ("NoThreshold", "BelowThreshold", "BetweenThresholds", "AboveUpperThreshold")


def models_in_every_regime(draws=6, seed=5):
    """(params, model) on every analytic branch of ``draws`` random points per regime.

    At the defaults that is 30 models, drawn from one generator, regime by regime.
    """
    from cascaded_fwm import analytic_steady_states, build_fluctuation_model

    rng = np.random.default_rng(seed)
    return [(params, build_fluctuation_model(params, state))
            for regime in REGIMES for params in (random_params(rng, regime)
                                                 for _ in range(draws))
            for state in analytic_steady_states(params)]


def toy_model(m, d, k2=0.4):
    """FluctuationModel wrapper around an arbitrary small (M, D) pair."""
    from cascaded_fwm import Branch, FluctuationModel, state_for_branch

    params = make_params(k2, epsilon=0.0)
    ss = state_for_branch(params, Branch.TRIVIAL)
    return FluctuationModel(params=params, steady_state=ss,
                            m=np.asarray(m, dtype=float),
                            d=np.asarray(d, dtype=float))


def spectrum_at(model, omega_norm):
    """Checked output spectrum at omega / gamma_a on the single-point chain."""
    omega = omega_norm * model.params.gamma_a
    return output_spectrum(quadrature_transform(spectral_matrix(model, omega)),
                           model.params, omega)


def golden_section(f, lo, hi, xtol):
    """Callback golden-section descent; one function evaluation per step."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while (hi - lo) > xtol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def sequential_minimum(model, ineq, grid, xtol=1e-6):
    """Reference for minima_over_models: one witness, one point at a time.

    Scans ``grid`` (omega / gamma_a), refines the bracket around the best
    coarse point by golden section, and optimizes the gains again at the
    winner, every evaluation on the single-point chain.  Returns the
    VlfResult and the number of golden-section evaluations.
    """
    evaluations = []

    def value_at(omega_norm):
        evaluations.append(omega_norm)
        return optimize_gains(ineq, spectrum_at(model, omega_norm)).value

    grid = np.asarray(grid, dtype=float)
    values = np.array([optimize_gains(ineq, spectrum_at(model, w)).value for w in grid])
    best = int(np.argmin(values))
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, grid.size - 1)]
    w_ref, v_ref = golden_section(value_at, float(left), float(right), xtol)
    w_min = w_ref if v_ref <= values[best] else float(grid[best])
    return optimize_gains(ineq, spectrum_at(model, w_min)), len(evaluations)


def reference_gain_solve(ineq, v):
    """Test oracle for the stacked gain solves: one inequality, one spectrum.

    The per-slice arithmetic of the gain optimization before the solves
    were stacked: public ``np.linalg.lstsq`` on the free block, then
    ``a @ v @ a + b @ v @ b``.  Returns the gains and the value.
    """
    free = 6 + np.array(ineq.free_modes)
    a = np.zeros(12)
    a[:6] = ineq.x_coeffs
    b0 = np.zeros(12)
    b0[6:] = ineq.y_fixed
    rhs = -(v @ b0)[free]
    gains = np.linalg.lstsq(v[np.ix_(free, free)], rhs, rcond=1e-12)[0]
    b = b0.copy()
    b[free] = gains
    return gains, float(a @ v @ a + b @ v @ b)


def reference_psd_failure(v):
    """Test oracle for the PSD guard: its message for the stack v, or None.

    The plain eigenvalue test behind the guard's Cholesky screen: ``eigvalsh``
    of every symmetrized entry against the budget 1e-9 * (1 + max|v_k|),
    naming the first failing entry's minimum eigenvalue.
    """
    min_eig = np.linalg.eigvalsh((v + v.transpose(0, 2, 1)) / 2.0).min(axis=1)
    failed = min_eig < -1e-9 * (1.0 + np.abs(v).max(axis=(1, 2)))
    if not failed.any():
        return None
    return ("output spectrum is not positive semidefinite "
            f"(min eigenvalue {min_eig[failed.argmax()]:.3e})")


def reference_drift_blocks(params, ss):
    """m1, m2 re-derived independently for a symmetric working point.

    Assumes real amplitudes with A_p1 = A_p2 = A_a, A_i1 = A_s1 = A_b,
    A_i2 = A_s2 = A_c and k2 = k3.  A test oracle for the general
    Jacobian, never the primary construction.
    """
    aa, ab, ac = (float(ss.amplitudes[m]) for m in (Mode.P1, Mode.S1, Mode.S2))
    ga, gb, gc = params.gamma_a, params.gamma_b, params.gamma_c
    k1, k2 = params.k1, params.k2
    kab = k1 * aa * ab
    kac = k2 * aa * ac
    kcb = k2 * aa * ab
    m1 = np.array([
        [ga, 0.0, kab, kab - kac, kcb, 0.0],
        [0.0, ga, kab - kac, kab, 0.0, kcb],
        [-kab, -kab + kac, gb, 0.0, k2 * aa**2, 0.0],
        [-kab + kac, -kab, 0.0, gb, 0.0, k2 * aa**2],
        [-kcb, 0.0, -k2 * aa**2, 0.0, gc, 0.0],
        [0.0, -kcb, 0.0, -k2 * aa**2, 0.0, gc],
    ])
    m2 = np.array([
        [0.0, k1 * ab**2, kac, 0.0, 0.0, -kcb],
        [k1 * ab**2, 0.0, 0.0, kac, -kcb, 0.0],
        [kac, 0.0, 0.0, -k1 * aa**2, 0.0, 0.0],
        [0.0, kac, -k1 * aa**2, 0.0, 0.0, 0.0],
        [0.0, -kcb, 0.0, 0.0, 0.0, 0.0],
        [-kcb, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    return m1, m2


def reference_simulate_ou(model, steps, n_paths, seed, dt=None, initial=None):
    """Reference for simulate_ou: every normal drawn up front, one loop.

    Returns the path array, shape (n_paths, steps + 1, dim).
    """
    if dt is None:
        dt = default_step(model)
    b = factor_diffusion(model.d).b
    dim = model.m.shape[0]

    x = np.zeros((n_paths, dim), dtype=complex)
    if initial is not None:
        x[:] = np.asarray(initial, dtype=complex)
    paths = np.empty((n_paths, steps + 1, dim), dtype=complex)
    paths[:, 0, :] = x

    decay = np.eye(dim) - dt * model.m
    sqrt_dt = np.sqrt(dt)
    increments = np.empty((n_paths, steps, dim))
    for p in range(n_paths):
        increments[p] = np.random.default_rng([seed, p]).standard_normal((steps, dim))
    for t in range(steps):
        x = x @ decay.T + sqrt_dt * (increments[:, t, :] @ b.T)
        paths[:, t + 1, :] = x
    return paths


def reference_mc_covariance(model, n_paths, seed, chunk=2048):
    """Reference for mc_stationary_covariance: one outer product per step.

    Same step, burn-in (8 relaxation times) and average (50) as the
    package, with the normals drawn in blocks of ``chunk`` steps.
    """
    dt = default_step(model)
    relax_time = 1.0 / stability(model.m).margin
    burn_steps = int(np.ceil(8.0 * relax_time / dt))
    avg_steps = int(np.ceil(50.0 * relax_time / dt))
    b = factor_diffusion(model.d).b
    dim = model.m.shape[0]
    decay = np.eye(dim) - dt * model.m
    sqrt_dt = np.sqrt(dt)

    rngs = [np.random.default_rng([seed, p]) for p in range(n_paths)]
    x = np.zeros((n_paths, dim), dtype=complex)
    sums = np.zeros((n_paths, dim, dim), dtype=complex)
    counted = 0
    done = 0
    total = burn_steps + avg_steps
    while done < total:
        block = min(chunk, total - done)
        increments = np.stack(
            [rng.standard_normal((block, dim)) for rng in rngs]
        )
        for t in range(block):
            x = x @ decay.T + sqrt_dt * (increments[:, t, :] @ b.T)
            if done + t + 1 > burn_steps:
                sums += x[:, :, None] * x[:, None, :]
                counted += 1
        done += block
    per_path = sums / counted
    sigma_hat = per_path.mean(axis=0)
    var = per_path.real.var(axis=0, ddof=1) + per_path.imag.var(axis=0, ddof=1)
    stderr = np.sqrt(var / n_paths)
    return sigma_hat, stderr


def reference_drift(params, alpha):
    """Test oracle for the scalar drift kernel: the drift in numpy scalars.

    The drift as it was written before the scalar kernel, one complex128
    ufunc per operation.
    """
    a = np.asarray(alpha, dtype=complex)
    if a.shape != (6,):
        raise ParameterError(f"alpha must have shape (6,), got {a.shape}")
    p2, p1, i1, s1, i2, s2 = a
    eps = params.epsilon
    k1, k2, k3 = params.k1, params.k2, params.k3
    out = np.empty(6, dtype=complex)
    out[Mode.P2] = (eps - params.gamma_a * p2
                    - k1 * np.conj(p1) * s1 * i1
                    - k2 * np.conj(i1) * p1 * i2
                    + k3 * np.conj(s2) * s1 * p1)
    out[Mode.P1] = (eps - params.gamma_a * p1
                    - k1 * np.conj(p2) * s1 * i1
                    - k3 * np.conj(s1) * p2 * s2
                    + k2 * np.conj(i2) * i1 * p2)
    out[Mode.I1] = (-params.gamma_b * i1
                    + k1 * np.conj(s1) * p1 * p2
                    - k2 * np.conj(p2) * p1 * i2)
    out[Mode.S1] = (-params.gamma_b * s1
                    + k1 * np.conj(i1) * p1 * p2
                    - k3 * np.conj(p1) * p2 * s2)
    out[Mode.I2] = -params.gamma_c * i2 + k2 * np.conj(p1) * p2 * i1
    out[Mode.S2] = -params.gamma_c * s2 + k3 * np.conj(p2) * p1 * s1
    return out


def reference_relax(params, initial, t_max=1e5, tol=1e-9, match_radius=1e-6):
    """Test oracle for relax_to_steady_state: scipy's ``solve_ivp`` DOP853,
    which the package's integrator ports, on ``reference_drift``, with the
    right-hand side and events rebuilding the complex state as an ndarray at
    every call.
    """
    from cascaded_fwm.steady_state import _match_branch

    a0 = np.asarray(initial, dtype=complex)

    def rhs(t, u):
        a = u[:6] + 1j * u[6:]
        f = reference_drift(params, a)
        return np.concatenate([f.real, f.imag])

    def converged(t, u):
        a = u[:6] + 1j * u[6:]
        return float(np.max(np.abs(reference_drift(params, a)))) - tol

    converged.terminal = True
    converged.direction = -1

    def diverged(t, u):
        a = u[:6] + 1j * u[6:]
        return float(np.max(np.abs(a))) - 1e4

    diverged.terminal = True
    diverged.direction = 1

    u0 = np.concatenate([a0.real, a0.imag])
    sol = solve_ivp(rhs, (0.0, t_max), u0, method="DOP853",
                    rtol=1e-9, atol=1e-12, events=(converged, diverged))
    if not sol.success:
        raise NumericalError(f"relaxation integrator failed: {sol.message}")
    u_end = sol.y[:, -1]
    a_end = u_end[:6] + 1j * u_end[6:]
    residual = float(np.max(np.abs(reference_drift(params, a_end))))
    elapsed = float(sol.t[-1])

    if sol.t_events[1].size > 0:
        return RelaxationResult("diverged", a_end, residual, elapsed, None, math.inf)
    if sol.t_events[0].size == 0 and residual >= tol:
        return RelaxationResult("timeout", a_end, residual, elapsed, None, math.inf)
    matched, distance = _match_branch(params, a_end, match_radius)
    return RelaxationResult("converged", a_end, residual, elapsed, matched, distance)
