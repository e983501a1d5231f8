"""Acceptance gate: twelve end-to-end properties, one test each.

Every test prints a single ``criterion N: PASS/FAIL (...)`` line (bypassing
capture so the line lands in the live pytest log) and then asserts.  The
criteria pin the physics the package exists to deliver: the threshold
structure, the steady-state algebra, the linearized model, the three-way
stationary-moment agreement, and the expected behavior of the entanglement
witnesses.

Criterion 4 fails by design of the dynamics, not by a bug: every relaxation
from a generic initial condition at the strongly pumped operating point
terminates on a pump-asymmetric attractor that is not one of the two
analytic (pump-symmetric) branches, which are saddles there.  The test
states the measured facts; see the README stability caveat for the analysis.
"""

import time

import numpy as np

from cascaded_fwm import (
    INEQUALITIES,
    analytic_steady_states,
    build_fluctuation_model,
    class_members,
    compute_thresholds,
    drift,
    integrated_spectrum,
    mc_stationary_covariance,
    min_over_frequency,
    optimize_gains,
    relax_to_steady_state,
    sample_initial_conditions,
    state_for_branch,
    stationary_covariance,
    sweep_frequency,
)
from cascaded_fwm.cli import main
from cascaded_fwm.vlf import build_branch_model
from helpers import make_params, pumped, random_params, spectrum_at
from test_linearization import finite_difference_drift_matrix


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_threshold_ratio(capsys):
    params = make_params(0.4)
    compute_thresholds(params)  # warm caches before timing
    start = time.perf_counter()
    thresholds = compute_thresholds(params)
    elapsed = time.perf_counter() - start
    ratio = thresholds.eps_th_prime / thresholds.eps_th
    err = abs(ratio - 2.0) / 2.0
    ok = err <= 1e-12 and elapsed < 1e-3
    report(capsys, 1, ok,
           f"ratio {ratio!r}, relative error {err:.2e} <= 1e-12, "
           f"{elapsed * 1e6:.0f} us < 1 ms")


def test_criterion_02_threshold_coincidence(capsys):
    params = make_params(0.5)  # k1 = 2 k2 with equal dampings
    thresholds = compute_thresholds(params)
    gap = abs(thresholds.eps_th_prime - thresholds.eps_th)
    ok = gap <= 1e-12 * thresholds.eps_th
    report(capsys, 2, ok,
           f"|eps_th' - eps_th| = {gap:.2e} <= 1e-12 relative")


def test_criterion_03_steady_state_residuals(capsys):
    rng = np.random.default_rng(20260814)
    regimes = ("NoThreshold", "BelowThreshold", "BetweenThresholds",
               "AboveUpperThreshold")
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(100):
        params = random_params(rng, regime=regimes[i % 4])
        for state in analytic_steady_states(params):
            residual = float(np.max(np.abs(drift(params, state.amplitudes))))
            worst = max(worst, residual)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(capsys, 3, ok,
           f"{checked} branches over 100 parameter sets, max |drift| "
           f"{worst:.2e} < 1e-10, {elapsed:.2f} s < 1 s")


def test_criterion_04_relaxation_equivalence(capsys):
    params = pumped(0.4, 2.2, reference="eps_th_prime")
    start = time.perf_counter()
    initials = sample_initial_conditions(params, 50, seed=20260814)
    hits = {"lower": 0, "upper": 0}
    matched_within = 0
    distances = []
    for initial in initials:
        result = relax_to_steady_state(params, initial, match_radius=1e-6)
        distances.append(result.distance)
        if result.matched is not None and result.distance <= 1e-6:
            matched_within += 1
            hits[result.matched.branch.value] += 1
    elapsed = time.perf_counter() - start
    ok = (matched_within == 50 and min(hits.values()) >= 1 and elapsed < 30.0)
    report(capsys, 4, ok,
           f"{matched_within}/50 endpoints within 1e-6 of an analytic branch "
           f"(lower {hits['lower']}, upper {hits['upper']}), nearest-branch "
           f"distances {min(distances):.2e}..{max(distances):.2e}, "
           f"{elapsed:.1f} s; both analytic branches are saddles at this "
           f"pump and every trajectory lands on a pump-asymmetric attractor "
           f"instead")


def test_criterion_05_jacobian_check(capsys):
    gaps = {}
    for k2, ratio in ((0.5, 1.5), (0.4, 1.2)):
        params = pumped(k2, ratio)
        state = state_for_branch(params, "lower")
        model = build_fluctuation_model(params, state)
        fd = finite_difference_drift_matrix(params, state.amplitudes)
        gaps[k2] = float(np.max(np.abs(fd - model.m)))
    ok = all(gap <= 1e-6 for gap in gaps.values())
    report(capsys, 5, ok,
           f"max |M_fd - M| = {gaps[0.5]:.2e} (k2=0.5, 1.5 eps_th) and "
           f"{gaps[0.4]:.2e} (k2=0.4, 1.2 eps_th), both <= 1e-6")


def test_criterion_06_ou_consistency_triangle(capsys):
    params = pumped(0.4, 0.8)
    model = build_fluctuation_model(params, state_for_branch(params, "trivial"))
    start = time.perf_counter()
    sigma = stationary_covariance(model)
    integral = integrated_spectrum(model)
    analytic_gap = float(np.max(np.abs(integral - sigma)))
    sigma_mc, stderr = mc_stationary_covariance(model, n_paths=64, seed=12345)
    mask = stderr > 0
    mc_z = float(np.max(np.abs(sigma_mc - sigma)[mask] / stderr[mask]))
    unmasked = float(np.max(np.abs(sigma_mc - sigma)[~mask]))
    elapsed = time.perf_counter() - start
    ok = (analytic_gap <= 1e-6 and mc_z <= 3.0 and unmasked == 0.0
          and elapsed < 300.0)
    report(capsys, 6, ok,
           f"Lyapunov vs integral gap {analytic_gap:.2e} <= 1e-6, "
           f"Monte-Carlo max {mc_z:.2f} SE <= 3 (64 paths), {elapsed:.1f} s")


def test_criterion_07_vlf_violation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = main(["reproduce", "fig2"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # swallow the CLI's own stdout
    table = np.genfromtxt(tmp_path / "fig2.csv", delimiter=",", names=True)
    minima = {cls: float(np.min(table[f"V_{cls}"])) for cls in "ABC"}
    ok = (code == 0 and all(v < 4.0 for v in minima.values())
          and minima["A"] < minima["B"] and elapsed < 10.0)
    report(capsys, 7, ok,
           f"min V_A {minima['A']:.4f}, V_B {minima['B']:.4f}, "
           f"V_C {minima['C']:.4f}, all < 4 and V_A < V_B, {elapsed:.1f} s")


def test_criterion_08_symmetry_degeneracy(capsys):
    # Tolerance 1e-10, scaled by max(1, |V|): at the marginal branches the
    # neutral phase mode makes V diverge ~1/omega^2 at the low-frequency
    # edge (values ~2e4), where an unscaled 1e-10 would demand 1e-15
    # relative agreement, below float64 solve conditioning.  Everywhere the
    # witness values are physically meaningful (V <= 4) the check is the
    # plain absolute 1e-10.
    worst = 0.0
    for k2, ratio in ((0.5, 1.5), (0.4, 1.2)):
        params = pumped(k2, ratio)
        results = sweep_frequency(params, "lower")  # default 400-point grid
        per_label = {}
        for res in results:
            per_label.setdefault(res.label, []).append(res.value)
        for cls in ("B", "C"):
            first, second = (np.array(per_label[m.label])
                             for m in class_members(cls))
            scale = np.maximum(1.0, np.maximum(np.abs(first), np.abs(second)))
            worst = max(worst, float(np.max(np.abs(first - second) / scale)))
    ok = worst <= 1e-10
    report(capsys, 8, ok,
           f"max class-B/C partner gap over 400 frequencies at both "
           f"operating points {worst:.2e} <= 1e-10 x max(1, |V|)")


def test_criterion_09_shot_noise_limit(capsys):
    worst = 0.0
    for k2, ratio in ((0.5, 1.5), (0.4, 1.2)):
        params = pumped(k2, ratio)
        model = build_branch_model(params, "lower")
        spectrum = spectrum_at(model, 1e3)
        for ineq in INEQUALITIES:
            value = optimize_gains(ineq, spectrum).value
            worst = max(worst, abs(value - 4.0))
    ok = worst <= 2e-3
    report(capsys, 9, ok,
           f"max |V - 4| at omega = 1e3 gamma_a over all five inequalities "
           f"and both operating points: {worst:.2e} <= 2e-3")


def test_criterion_10_branch_asymmetry(capsys):
    near = pumped(0.4, 1.1, reference="eps_th_prime")
    c_lower = min_over_frequency(near, "lower", "i2-p1").value
    c_upper = min_over_frequency(near, "upper", "i2-p1").value
    near_ok = c_upper > c_lower and abs(c_upper - 4.0) <= 0.2

    far = pumped(0.4, 2.2, reference="eps_th_prime")
    reversed_classes = []
    for cls, label in (("A", "s1-i1"), ("B", "p1+s1"), ("C", "i2-p1")):
        lo = min_over_frequency(far, "lower", label).value
        hi = min_over_frequency(far, "upper", label).value
        if hi < lo:
            reversed_classes.append(cls)
    ok = near_ok and bool(reversed_classes)
    report(capsys, 10, ok,
           f"at 1.1 eps_th': C min lower {c_lower:.3f} < upper {c_upper:.3f}, "
           f"|upper - 4| = {abs(c_upper - 4.0):.3f} <= 0.2; at 2.2 eps_th' "
           f"ordering reverses for class(es) {','.join(reversed_classes) or 'none'}")


def test_criterion_11_pump_sweep_shape(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["reproduce", "fig8"]) == 0
    capsys.readouterr()
    table = np.genfromtxt(tmp_path / "fig8.csv", delimiter=",", names=True)
    tail = table[table["eps_ratio"] >= 3.0]
    monotone = all(bool(np.all(np.diff(tail[f"V_{cls}"]) >= -1e-9))
                   for cls in "ABC")
    endpoints = {cls: float(tail[f"V_{cls}"][-1]) for cls in "ABC"}
    toward_4 = all(tail[f"V_{cls}"][-1] <= 4.0 and 4.0 - endpoints[cls] < 0.1
                   for cls in "ABC")

    strong = pumped(0.4, 20.0, reference="eps_th_prime")
    upper_vals = {cls: min_over_frequency(strong, "upper", label).value
                  for cls, label in (("A", "s1-i1"), ("B", "p1+s1"),
                                     ("C", "i2-p1"))}
    upper_ok = all(v < 4.0 for v in upper_vals.values())
    elapsed = time.perf_counter() - start
    ok = monotone and toward_4 and upper_ok and elapsed < 300.0
    report(capsys, 11, ok,
           f"lower-branch sweep non-decreasing for eps >= 3 eps_th with "
           f"endpoints {endpoints['A']:.3f}/{endpoints['B']:.3f}/"
           f"{endpoints['C']:.3f} -> 4; upper branch at 20 eps_th' stays "
           f"below 4 ({min(upper_vals.values()):.2f}.."
           f"{max(upper_vals.values()):.2f}), {elapsed:.0f} s")


def test_criterion_12_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep_cfg = tmp_path / "sweep.conf"
    sweep_cfg.write_text(
        "gamma_a = 0.03\ngamma_b = 0.03\ngamma_c = 0.03\n"
        "k1 = 1.0\nk2 = 0.4\nk3 = 0.4\n"
        "epsilon_mode = rel_eps_th\nepsilon_ratio = 1.2\n"
        "out = sweep.csv\n")
    mc_cfg = tmp_path / "mc.conf"
    mc_cfg.write_text(
        "gamma_a = 0.03\ngamma_b = 0.03\ngamma_c = 0.03\n"
        "k1 = 1.0\nk2 = 0.4\nk3 = 0.4\n"
        "epsilon_mode = rel_eps_th\nepsilon_ratio = 0.8\n"
        "branch = trivial\nseed = 12345\nout = mc.csv\n")

    def run_twice(args, out_name):
        assert main(args) == 0
        capsys.readouterr()
        first = (tmp_path / out_name).read_bytes()
        (tmp_path / out_name).unlink()
        assert main(args) == 0
        capsys.readouterr()
        return first == (tmp_path / out_name).read_bytes()

    sweep_same = run_twice(["vlf-sweep", str(sweep_cfg)], "sweep.csv")
    mc_same = run_twice(["mc-validate", str(mc_cfg)], "mc.csv")
    ok = sweep_same and mc_same
    report(capsys, 12, ok,
           f"vlf-sweep rerun byte-identical: {sweep_same}; "
           f"mc-validate rerun byte-identical: {mc_same}")
