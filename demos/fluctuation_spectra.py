"""
Output quadrature spectra of the linearized cavity
==================================================

Builds the 12x12 drift/diffusion model on the converted branch between the
thresholds, maps the intracavity fluctuation spectrum through the
input-output relation, and prints a few measurable variances: single-mode
levels, a squeezed joint quadrature, and the approach to shot noise at
large analysis frequency.
"""

import numpy as np

from cascaded_fwm import (
    QUADRATURE_LABELS,
    SystemParams,
    build_fluctuation_model,
    compute_thresholds,
    integrated_spectrum,
    output_spectra,
    state_for_branch,
    stationary_covariance,
)

params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,
                      k1=1.0, k2=0.4, k3=0.4)
th = compute_thresholds(params)
system = params.with_epsilon(1.2 * th.eps_th)
model = build_fluctuation_model(system, state_for_branch(system, "lower"))

# ---- spectra at a few analysis frequencies ---------------------------------
# Vacuum normalization: every diagonal entry of v_out equals 1 for an empty
# cavity, so numbers below 1 are squeezing of that combination.
i_Xs1, i_Xi1, i_Yp2 = 3, 2, 6
for omega_norm in (0.05, 0.3, 1.0, 10.0, 1000.0):
    v = output_spectra(model, [omega_norm * system.gamma_a])[0]
    # V(X_s1 - X_i1) = V(Xs1) + V(Xi1) - 2 cov
    diff_var = v[i_Xs1, i_Xs1] + v[i_Xi1, i_Xi1] - 2.0 * v[i_Xs1, i_Xi1]
    print(f"omega = {omega_norm:8.2f} gamma_a: "
          f"V({QUADRATURE_LABELS[i_Yp2]}) = {v[i_Yp2, i_Yp2]:9.4f}, "
          f"V(Xs1 - Xi1) = {diff_var:8.5f}, "
          f"max diag = {np.max(np.diag(v)):10.3f}")

print("\nV(Xs1 - Xi1) < 2 is two-mode squeezing of the first idler/signal")
print("pair; at omega -> infinity every variance returns to shot noise.")

# ---- stationary moments three ways (below threshold) -----------------------
# On the converted branch the neutral phase mode carries diffusion, so the
# zero-frequency integral diverges; the moment cross-check lives below
# threshold where the drift decays strictly.
system0 = params.with_epsilon(0.8 * th.eps_th)
model0 = build_fluctuation_model(system0, state_for_branch(system0, "trivial"))
sigma = stationary_covariance(model0)
integral = integrated_spectrum(model0)
gap = np.max(np.abs(integral - sigma))
print(f"\nbelow threshold: max |Lyapunov - frequency integral| = {gap:.3e}")
