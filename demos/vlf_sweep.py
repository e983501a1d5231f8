"""
Gain-optimized combination inequalities across the analysis band
================================================================

Evaluates the five six-partite witnesses on the converted branch, optimizing
the free Y gains at every frequency. Any value below 4 certifies
inseparability across the partitions that inequality tests; together the
violations certify full inseparability, which for a mixed state is not
genuine multipartite entanglement. Also demonstrates the exact two-fold
degeneracy of the B and C symmetry classes.
"""

import numpy as np

from cascaded_fwm import (
    INEQUALITIES,
    SystemParams,
    compute_thresholds,
    min_over_frequency,
    sweep_frequency,
)

params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,
                      k1=1.0, k2=0.5, k3=0.5)
th = compute_thresholds(params)
system = params.with_epsilon(1.5 * th.eps_th)

# ---- coarse sweep table -----------------------------------------------------
grid = np.geomspace(0.01, 100.0, 13)
results = sweep_frequency(system, "lower", omega_grid=grid)
labels = [ineq.label for ineq in INEQUALITIES]
print("omega/gamma_a  " + "  ".join(f"{lab:>8s}" for lab in labels))
for start in range(0, len(results), len(labels)):
    row = results[start:start + len(labels)]
    cells = "  ".join(f"{r.value:8.4f}" for r in row)
    print(f"{row[0].omega_norm:13.4f}  {cells}")

# ---- global minima and the optimal gains -----------------------------------
print("\nglobal minimum over the band, per inequality:")
for ineq in INEQUALITIES:
    best = min_over_frequency(system, "lower", ineq)
    gains = ", ".join(f"g_{m}={g:+.4f}"
                      for m, g in zip(ineq.free_mode_labels(), best.gains))
    mark = "violated" if best.violated else "not violated"
    print(f"  {ineq.label:6s} (class {ineq.symmetry_class}): "
          f"min V = {best.value:.6f} at omega = {best.omega_norm:.4f} gamma_a "
          f"({mark})")
    print(f"         {gains}")

# The class partners are images of each other under the simultaneous swap
# p2<->p1, i1<->s1, i2<->s2, which is a symmetry of this operating point,
# so their curves coincide to floating-point accuracy.
values = {}
for res in results:
    values.setdefault(res.label, []).append(res.value)
gap_b = np.max(np.abs(np.array(values["p1+s1"]) - np.array(values["i1+p2"])))
gap_c = np.max(np.abs(np.array(values["i2-p1"]) - np.array(values["p2-s2"])))
print(f"\nclass B partner gap across the sweep: {gap_b:.3e}")
print(f"class C partner gap across the sweep: {gap_c:.3e}")
