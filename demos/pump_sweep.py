"""
Witness minima versus pump strength on both branches
====================================================

Tracks the minimum-over-frequency value of one inequality per symmetry
class while the pump climbs. On the converted (lower) branch the violation
washes out toward the separability bound 4 as the pump grows; the upper
branch, which exists above the second threshold, keeps violating even at
pumps tens of times the threshold.
"""

import numpy as np

from cascaded_fwm import (SystemParams, build_branch_model, compute_thresholds,
                          minima_over_models)

params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,
                      k1=1.0, k2=0.4, k3=0.4)
th = compute_thresholds(params)
# One inequality per symmetry class: A, B, C.
representatives = ("s1-i1", "p1+s1", "i2-p1")

# ---- lower branch: violation fades as the pump grows ------------------------
print("lower branch (pump in units of eps_th):")
print("  ratio     min V_A    min V_B    min V_C")
ratios = np.geomspace(1.05, 30.0, 9)
# One lockstep minimum search over every pump point of the branch.
models = [build_branch_model(params.with_epsilon(ratio * th.eps_th), "lower")
          for ratio in ratios]
for ratio, minima in zip(ratios, minima_over_models(models, representatives)):
    row = [res.value for res in minima]
    print(f"  {ratio:7.3f}  {row[0]:9.5f}  {row[1]:9.5f}  {row[2]:9.5f}")

# ---- upper branch: entanglement survives strong pumping ---------------------
print("\nupper branch (pump in units of eps_th_prime):")
print("  ratio     min V_A    min V_B    min V_C")
ratios = (1.1, 2.2, 8.0, 20.0)
models = [build_branch_model(params.with_epsilon(ratio * th.eps_th_prime), "upper")
          for ratio in ratios]
for ratio, minima in zip(ratios, minima_over_models(models, representatives)):
    row = [res.value for res in minima]
    print(f"  {ratio:7.3f}  {row[0]:9.5f}  {row[1]:9.5f}  {row[2]:9.5f}")

print("\nall three classes stay below 4 on the upper branch at 20x the")
print("upper threshold, while the lower branch has crept back toward 4.")
