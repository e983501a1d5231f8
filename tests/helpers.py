"""Shared operating points for the test suite.

The two canonical coupling sets: k2 = 0.5 puts the system exactly on the
threshold-coincidence manifold (k1 = 2 k2, equal dampings), k2 = 0.4 gives
the split thresholds with eps_th_prime = 2 eps_th.
"""

import math

import numpy as np

from cascaded_fwm import SystemParams, compute_thresholds, optimize_gains, output_spectrum_at

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
    return output_spectrum_at(model, omega_norm * model.params.gamma_a)


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
    """Reference for min_over_frequencies: one witness, one point at a time.

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
