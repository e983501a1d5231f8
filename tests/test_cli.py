import ast
import gzip
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cascaded_fwm
from cascaded_fwm import (
    QUADRATURE_LABELS,
    ConfigError,
    ParameterError,
    build_branch_model,
    inequality_by_label,
    optimize_gains,
    output_spectra,
    stationary_covariance,
    sweep_frequency,
)
from cascaded_fwm import cli
from cascaded_fwm.cli import (
    _fmt,
    _write_csv,
    _write_text_atomic,
    figure_config,
    load_config,
    main,
    parse_config,
)
from helpers import spectrum_at, toy_model

# Reference figure CSVs written by bench/capture_reference.py; read only.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"

BASE = """\
gamma_a = 0.03
gamma_b = 0.03
gamma_c = 0.03
k1 = 1.0
k2 = 0.4
k3 = 0.4
epsilon_mode = rel_eps_th
epsilon_ratio = 1.2
"""

EPS_TH_K2_04 = 5.8094750193111245e-03
VLF_HEADER = ("omega_norm,V_A,V_B,V_C,"
              "gA_p2,gA_p1,gA_i2,gA_s2,"
              "gB_p2,gB_i1,gB_i2,gB_s2,"
              "gC_p2,gC_i1,gC_s1,gC_s2")


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def stdout_map(captured):
    pairs = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_parse_defaults():
    config = parse_config(BASE)
    assert config.branch == "auto"
    assert config.omega_scale == "log"
    assert (config.omega_min, config.omega_max, config.omega_points) == (0.01, 100.0, 400)
    assert config.seed == 12345
    assert config.out is None
    grid = config.omega_grid()
    assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(100.0)
    system = config.system()
    assert system.epsilon == pytest.approx(1.2 * EPS_TH_K2_04, rel=1e-12)


def test_parse_comments_and_blanks():
    config = parse_config(BASE + "\n# comment only\n\nseed = 7  # trailing\n")
    assert config.seed == 7


@pytest.mark.parametrize("comment", [
    "seed = 7\t# after a tab\n",
    "# seed = 3\nseed = 7 #\n",
])
def test_hash_after_whitespace_starts_a_comment(comment):
    assert parse_config(BASE + comment).seed == 7


def test_hash_inside_a_value_is_kept(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE + "branch = lower\nomega_points = 8\nout = results#1.csv\n"
    cfg = write_config(tmp_path, text)
    assert main(["vlf-sweep", cfg]) == 0
    assert capsys.readouterr().out == "wrote results#1.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results#1.csv", "run.conf"]


def test_hash_glued_to_a_number_is_a_bad_float(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("k1 = 1.0", "k1 = 1.0#x"))
    assert main(["thresholds", cfg]) == 2
    assert capsys.readouterr().err == "error: line 4: k1 must be a number, got '1.0#x'\n"


@pytest.mark.parametrize("text, message", [
    (BASE + "colour = red\n", r"line 9: unknown key 'colour'"),
    (BASE + "seed = 1\nseed = 2\n", r"line 10: duplicate key 'seed' \(first set on line 9\)"),
    (BASE + "seed =\n", r"line 9: empty value for 'seed'"),
    (BASE + "just words\n", r"line 9: expected key=value"),
    (BASE.replace("k3 = 0.4", "k3 = 0.5"),
     r"line 6: the symmetric model requires k2 == k3 exactly, got k2=0.4, k3=0.5"),
    (BASE.replace("k1 = 1.0", "k1 = -1.0"), r"line 4: k1 must be finite and > 0, got -1.0"),
    (BASE.replace("gamma_a = 0.03", "gamma_a = fast"), r"gamma_a must be a number"),
    (BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = -0.5"),
     r"line 8: epsilon_ratio must be finite and >= 0, got -0.5"),
    (BASE + "epsilon_abs = 0.01\n",
     r"line 9: epsilon_abs is only valid with epsilon_mode=absolute"),
    (BASE.replace("epsilon_ratio = 1.2", "epsilon_abs = 0.01"),
     r"epsilon_mode=rel_eps_th requires epsilon_ratio"),
    (BASE.replace("epsilon_mode = rel_eps_th", "epsilon_mode = absolute"),
     r"epsilon_mode=absolute requires epsilon_abs"),
    (BASE.replace("epsilon_mode = rel_eps_th", "epsilon_mode = squared"),
     r"epsilon_mode must be one of"),
    (BASE + "branch = middle\n", r"branch must be one of"),
    (BASE + "omega_scale = sqrt\n", r"omega_scale must be one of"),
    (BASE + "omega_points = 1\n", r"omega_points must be >= 2"),
    (BASE + "omega_points = many\n", r"omega_points must be an integer"),
    (BASE + "omega_min = 0.0\n", r"omega_min must be > 0 on a log grid"),
    (BASE + "omega_min = 5\nomega_max = 2\n", r"omega_min must be smaller"),
    (BASE + "inequalities = all\n", r"line 9: unknown key 'inequalities'"),
    (BASE + "seed = -4\n", r"seed must be >= 0"),
    ("gamma_a = 0.03\n", r"missing required key 'gamma_b'"),
])
def test_config_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize("text, message", [
    (BASE.replace("gamma_b = 0.03", "gamma_b = 0"),
     "line 2: gamma_b must be finite and > 0, got 0.0"),
    (BASE.replace("epsilon_mode = rel_eps_th", "epsilon_mode = squared"),
     "line 7: epsilon_mode must be one of absolute, rel_eps_th, rel_eps_th_prime; got 'squared'"),
    (BASE + "omega_scale = sqrt\n", "line 9: omega_scale must be one of log, linear; got 'sqrt'"),
    (BASE + "omega_scale = linear\nomega_min = -0.5\n",
     "line 10: omega_min must be >= 0, got -0.5"),
    # An empty window names the line of the first window key the file sets.
    # The default omega_min has no line; the omega_max the file sets has.
    (BASE + "omega_max = 0.005\n",
     "line 9: omega_min must be smaller than omega_max, got 0.01 >= 0.005"),
    (BASE + "omega_min = 500\n",
     "line 9: omega_min must be smaller than omega_max, got 500.0 >= 100.0"),
    (BASE + "omega_max = 0.01\n",
     "line 9: omega_min must be smaller than omega_max, got 0.01 >= 0.01"),
    # Both set: the line of omega_min, wherever it stands.
    (BASE + "omega_max = 2\nomega_min = 5\n",
     "line 10: omega_min must be smaller than omega_max, got 5.0 >= 2.0"),
    (BASE + "omega_min = 5\nomega_max = 5\n",
     "line 9: omega_min must be smaller than omega_max, got 5.0 >= 5.0"),
])
def test_library_rules_are_reported_at_the_line_of_their_key(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_run_config_checks_its_pump_spec_and_window():
    config = parse_config(BASE)
    with pytest.raises(ConfigError, match="epsilon_abs is only valid with epsilon_mode=absolute"):
        replace(config, epsilon_abs=0.1)
    with pytest.raises(ParameterError, match="omega_min must be > 0 on a log grid"):
        replace(config, omega_min=0.0)


def test_absolute_epsilon_mode():
    text = BASE.replace("epsilon_mode = rel_eps_th", "epsilon_mode = absolute")
    text = text.replace("epsilon_ratio = 1.2", "epsilon_abs = 0.004")
    config = parse_config(text)
    assert config.system().epsilon == 0.004


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.conf"))


def test_thresholds_verb(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["thresholds", cfg]) == 0
    values = stdout_map(capsys.readouterr().out)
    assert float(values["eps_th"]) == EPS_TH_K2_04
    assert float(values["threshold_ratio"]) == pytest.approx(2.0, rel=1e-12)
    assert values["has_threshold"] == "true"
    assert values["regime"] == "BetweenThresholds"
    assert float(values["epsilon"]) == pytest.approx(1.2 * EPS_TH_K2_04)


def test_thresholds_verb_no_threshold(tmp_path, capsys):
    text = BASE.replace("k2 = 0.4", "k2 = 0.6").replace("k3 = 0.4", "k3 = 0.6")
    cfg = write_config(tmp_path, text)
    assert main(["thresholds", cfg]) == 0
    values = stdout_map(capsys.readouterr().out)
    assert values["eps_th"] == "nan"
    assert values["has_threshold"] == "false"
    assert values["epsilon"] == "nan"
    assert values["regime"] == "NoThreshold"


def test_steady_state_verb(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["steady-state", cfg]) == 0
    values = stdout_map(capsys.readouterr().out)
    assert values["branches"] == "lower"
    assert float(values["lower.A_p2"]) == pytest.approx(0.19364916731037084, rel=1e-14)
    assert float(values["lower.A_s2"]) == pytest.approx(0.03872983346207415, rel=1e-14)
    assert values["lower.indeterminate"] == "true"
    # The margin is rounding noise around the neutral mode, whose sign
    # depends on the BLAS kernel; an indeterminate margin is never stable.
    assert values["lower.stable"] == "false"


def test_steady_state_verb_below_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("epsilon_ratio = 1.2",
                                              "epsilon_ratio = 0.8"))
    assert main(["steady-state", cfg]) == 0
    values = stdout_map(capsys.readouterr().out)
    assert values["branches"] == "trivial"
    assert values["trivial.stable"] == "true"
    assert values["trivial.A_i1"] == values["trivial.A_s2"]
    assert float(values["trivial.A_i1"]) == 0.0


def test_spectrum_verb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE + "omega_points = 5\nout = spec.csv\n")
    assert main(["spectrum", cfg]) == 0
    assert "wrote spec.csv" in capsys.readouterr().out
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    assert len(header) == 1 + 78  # omega + upper triangle of a 12x12
    assert header[:3] == ["omega_norm", "Xp2_Xp2", "Xp2_Xp1"]
    first = np.array(lines[1].split(","), dtype=float)
    assert first[0] == pytest.approx(0.01)
    assert np.all(np.isfinite(first))


def test_spectrum_cells_equal_output_spectra(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE + "omega_points = 4\nout = spec.csv\n"
    assert main(["spectrum", write_config(tmp_path, text)]) == 0
    capsys.readouterr()
    config = parse_config(text)
    system = config.system()
    grid = config.omega_grid()
    v = output_spectra(build_branch_model(system, "lower"), grid * system.gamma_a)
    header, *rows = [line.split(",") for line in
                     (tmp_path / "spec.csv").read_text().splitlines()]
    # Each column is looked up by its own name, so a permuted header fails.
    index = [tuple(QUADRATURE_LABELS.index(q) for q in name.split("_"))
             for name in header[1:]]
    assert index == [(i, j) for i in range(12) for j in range(i, 12)]
    assert len(rows) == len(grid)
    for k, row in enumerate(rows):
        assert row == [_fmt(grid[k])] + [_fmt(v[k, i, j]) for i, j in index]


def test_vlf_sweep_verb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE + "omega_points = 7\nout = sweep.csv\n")
    assert main(["vlf-sweep", cfg]) == 0
    capsys.readouterr()
    first = (tmp_path / "sweep.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == VLF_HEADER
    assert len(lines) == 8
    assert all(len(line.split(",")) == 16 for line in lines[1:])
    # Bitwise reproducibility: a rerun writes the identical file.
    assert main(["vlf-sweep", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_vlf_sweep_zero_diffusion(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE + "omega_points = 3\nout = null.csv\n")
    assert main(["vlf-sweep", cfg, "--zero-diffusion"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "null.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert [float(c) for c in cells[1:4]] == [4.0, 4.0, 4.0]
        assert all(float(c) == 0.0 for c in cells[4:])


def sweep_frequency_rows(config, branch, zero_diffusion=False):
    """vlf-sweep CSV rows rebuilt from the public VlfResult list, as strings."""
    n = len(cli._REPRESENTATIVES)
    model = build_branch_model(config.system(), branch, zero_diffusion)
    results = sweep_frequency(config.system(), branch, cli._REPRESENTATIVES,
                              config.omega_grid(), model=model)
    rows = []
    for k in range(0, len(results), n):
        group = results[k:k + n]
        rows.append([_fmt(group[0].omega_norm), *(_fmt(r.value) for r in group),
                     *(_fmt(g) for r in group for g in r.gains)])
    return rows


@pytest.mark.parametrize("figure", [f"fig{n}" for n in range(2, 8)])
def test_vlf_sweep_cells_equal_sweep_frequency_results(figure, tmp_path, capsys,
                                                       monkeypatch):
    # The CLI writes the stacked core's arrays; every cell must still be
    # the public VlfResult field it stands for.
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", figure]) == 0
    capsys.readouterr()
    config = figure_config(figure)
    rows = [line.split(",") for line in
            (tmp_path / config.out).read_text().splitlines()[1:]]
    assert rows == sweep_frequency_rows(config, config.branch)


def test_zero_diffusion_cells_equal_sweep_frequency_results(tmp_path, capsys, monkeypatch):
    # Compared as strings, so a -0.0 gain on either side would show.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE + "omega_points = 9\nout = null.csv\n")
    assert main(["vlf-sweep", cfg, "--zero-diffusion"]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (tmp_path / "null.csv").read_text().splitlines()[1:]]
    assert rows == sweep_frequency_rows(load_config(cfg), "lower", zero_diffusion=True)


def test_vlf_sweep_auto_branch_bistable(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE.replace("epsilon_mode = rel_eps_th", "epsilon_mode = rel_eps_th_prime")
    text = text.replace("epsilon_ratio = 1.2", "epsilon_ratio = 2.2")
    cfg = write_config(tmp_path, text + "omega_points = 4\nout = pair.csv\n")
    assert main(["vlf-sweep", cfg]) == 0
    out = capsys.readouterr().out
    assert "wrote pair_lower.csv" in out and "wrote pair_upper.csv" in out
    lower = (tmp_path / "pair_lower.csv").read_text().splitlines()
    upper = (tmp_path / "pair_upper.csv").read_text().splitlines()
    assert lower[0] == upper[0] == VLF_HEADER
    assert lower[1:] != upper[1:]


BISTABLE = (BASE.replace("epsilon_mode = rel_eps_th", "epsilon_mode = rel_eps_th_prime")
            .replace("epsilon_ratio = 1.2", "epsilon_ratio = 2.2"))


@pytest.mark.parametrize("text, want", [
    (BISTABLE, [("lower", "x_lower.csv"), ("upper", "x_upper.csv")]),
    (BISTABLE + "out = d/r.v1.csv\n", [("lower", "d/r.v1_lower.csv"),
                                       ("upper", "d/r.v1_upper.csv")]),
    (BISTABLE + "branch = upper\n", [("upper", "x.csv")]),
    (BASE, [("lower", "x.csv")]),
    (BASE + "branch = lower\n", [("lower", "x.csv")]),
], ids=["auto-two", "auto-two-out", "named-of-two", "auto-one", "named-one"])
def test_branch_models_suffix_the_path_only_where_two_branches_coexist(text, want):
    config = parse_config(text)
    runs = list(cli._branch_models(config, config.system(), "x.csv"))
    assert [(branch, path) for branch, _, path in runs] == want
    assert [model.steady_state.branch.value for _, model, _ in runs] == \
        [branch for branch, _ in want]


def test_mc_validate_that_fails_on_its_first_branch_builds_no_second_model(
        tmp_path, capsys, monkeypatch):
    # Above the upper threshold the lower branch is a saddle, so the first
    # branch of auto has no stationary covariance.
    monkeypatch.chdir(tmp_path)
    built = []

    def counting_build(system, branch, zero_diffusion=False):
        built.append(branch)
        return build_branch_model(system, branch, zero_diffusion)

    monkeypatch.setattr(cli, "build_branch_model", counting_build)
    assert main(["mc-validate", write_config(tmp_path, BISTABLE)]) == 3
    assert capsys.readouterr().err.startswith("error: stationary covariance needs")
    assert built == ["lower"]


def test_pump_sweep_verb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 1.8")
    cfg = write_config(tmp_path, text + "branch = lower\nout = pump.csv\n")
    assert main(["pump-sweep", cfg]) == 0
    capsys.readouterr()
    lines = (tmp_path / "pump.csv").read_text().splitlines()
    assert lines[0] == "eps_ratio,V_A,V_B,V_C"
    assert len(lines) == 22
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert table[0, 0] == pytest.approx(1.05)
    assert table[-1, 0] == pytest.approx(1.8)
    assert np.all(table[:, 1:] > 0.0) and np.all(table[:, 1:] < 4.5)


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t.replace("epsilon_mode = rel_eps_th", "epsilon_mode = absolute")
               .replace("epsilon_ratio = 1.8", "epsilon_abs = 0.01"),
     "threshold-relative"),
    # A branch the regime lacks at the first pump, 1.05 eps_th, is refused
    # by the library, whichever threshold the pump refers to.
    (lambda t: t.replace("branch = lower", "branch = trivial"),
     "branch 'trivial' does not exist in regime BetweenThresholds (available: lower)"),
    (lambda t: t.replace("branch = lower\n", ""), "instead of branch=auto"),
    (lambda t: t.replace("epsilon_ratio = 1.8", "epsilon_ratio = 1.01"),
     "must exceed 1.05"),
    (lambda t: t.replace("branch = lower", "branch = upper"),
     "branch 'upper' does not exist in regime BetweenThresholds (available: lower)"),
    # k1 < 2 k2 sqrt(gamma_b / gamma_c): no threshold to scale the pump by.
    (lambda t: t.replace("k2 = 0.4", "k2 = 0.6").replace("k3 = 0.4", "k3 = 0.6"),
     "threshold-relative pump requested but these couplings have no threshold"),
])
def test_pump_sweep_validation(tmp_path, capsys, mutate, message):
    base = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 1.8") + "branch = lower\n"
    cfg = write_config(tmp_path, mutate(base))
    assert main(["pump-sweep", cfg]) == 2
    assert message in capsys.readouterr().err


def test_coincident_upper_pump_sweep_runs_under_either_threshold(tmp_path, capsys,
                                                                monkeypatch):
    # At k2 = k3 = 0.5 the thresholds coincide, so rel_eps_th and
    # rel_eps_th_prime give the same pumps, and the upper branch exists at
    # all of them.
    monkeypatch.chdir(tmp_path)
    base = BASE.replace("0.4", "0.5").replace("epsilon_ratio = 1.2", "epsilon_ratio = 3")
    tables = []
    for mode in ("rel_eps_th", "rel_eps_th_prime"):
        text = base.replace("rel_eps_th", mode) + f"branch = upper\nout = {mode}.csv\n"
        assert main(["pump-sweep", write_config(tmp_path, text)]) == 0
        tables.append((tmp_path / f"{mode}.csv").read_bytes())
    assert capsys.readouterr().err == ""
    assert tables[0] == tables[1]


def test_pump_sweep_needs_a_positive_omega_min(tmp_path, capsys, monkeypatch):
    # A linear grid may start at 0 for vlf-sweep (on a decaying branch); the
    # pump sweep's minimum search may not, and the search says so.
    monkeypatch.chdir(tmp_path)
    grid = "omega_scale = linear\nomega_min = 0\nomega_points = 8\n"
    text = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 1.8") + "branch = lower\n" + grid
    cfg = write_config(tmp_path, text)
    assert main(["pump-sweep", cfg]) == 2
    assert capsys.readouterr().err == "error: a minimum search needs omega_min > 0\n"
    assert not (tmp_path / "pump_sweep.csv").exists()
    below = write_config(tmp_path, BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 0.8")
                         + "branch = trivial\n" + grid, name="below.conf")
    assert main(["vlf-sweep", below]) == 0
    assert capsys.readouterr().out == "wrote vlf_sweep.csv\n"


def test_mc_validate_verb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 0.8")
    cfg = write_config(tmp_path, text + "branch = trivial\nout = mc.csv\nseed = 12345\n")
    assert main(["mc-validate", cfg]) == 0
    values = stdout_map(capsys.readouterr().out.replace("wrote mc.csv", "wrote=mc.csv"))
    assert values["branch"] == "trivial"
    assert values["analytic_pass"] == "true"
    assert values["mc_pass"] == "true"
    assert float(values["max_mc_gap_se"]) < 3.0
    lines = (tmp_path / "mc.csv").read_text().splitlines()
    assert len(lines) == 1 + 144
    assert lines[0].startswith("row,col,lyapunov_re")
    assert lines[1].split(",")[:2] == ["p2", "p2"]


def test_mc_validate_gap_columns_and_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 0.8")
    cfg = write_config(tmp_path, text + "branch = trivial\nout = mc.csv\nseed = 12345\n")
    assert main(["mc-validate", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "wrote mc.csv"
    values = stdout_map("\n".join(out[:-1]))
    header, *rows = [line.split(",") for line in
                     (tmp_path / "mc.csv").read_text().splitlines()]
    col = {name: k for k, name in enumerate(header)}
    analytic, mc_se = [], []
    for row in rows:
        def entry(name):
            return np.complex128(complex(float(row[col[f"{name}_re"]]),
                                         float(row[col[f"{name}_im"]])))
        # The per-cell scalar formulas: abs of a complex128 difference, and
        # the gap in standard errors with 0/0 read as 0 and x/0 as inf.
        analytic_gap = abs(entry("integral") - entry("lyapunov"))
        mc_gap = abs(entry("mc") - entry("lyapunov"))
        se = float(row[col["mc_stderr"]])
        if se > 0.0:
            mc_gap_se = mc_gap / se
        else:
            mc_gap_se = 0.0 if mc_gap == 0.0 else math.inf
        assert row[col["analytic_gap"]] == _fmt(analytic_gap)
        assert row[col["mc_gap_se"]] == _fmt(mc_gap_se)
        analytic.append(analytic_gap)
        mc_se.append(mc_gap_se)
    assert values["max_analytic_gap"] == _fmt(max(analytic))
    assert values["max_mc_gap_se"] == _fmt(max(mc_se))


def test_mc_validate_nan_gap_fails_and_still_writes_the_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def ensemble_with_a_nan(model, n_paths, seed):
        sigma = stationary_covariance(model).copy()
        sigma[3, 5] = math.nan
        return sigma, np.ones((12, 12))

    monkeypatch.setattr(cli, "mc_stationary_covariance", ensemble_with_a_nan)
    text = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 0.8")
    cfg = write_config(tmp_path, text + "branch = trivial\nout = mc.csv\n")
    assert main(["mc-validate", cfg]) == 4
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[-1] == "wrote mc.csv"
    values = stdout_map("\n".join(out[:-1]))
    assert (values["max_mc_gap_se"], values["mc_pass"]) == ("nan", "false")
    assert values["analytic_pass"] == "true"
    assert "MC gap nan SE" in captured.err
    rows = (tmp_path / "mc.csv").read_text().splitlines()
    assert rows[1 + 3 * 12 + 5].split(",")[-1] == "nan"


ZERO_OMEGA = "omega_scale = linear\nomega_min = 0\nomega_points = 3\nout = zero.csv\n"


@pytest.mark.parametrize("verb", ["spectrum", "vlf-sweep"])
def test_zero_frequency_on_a_converted_branch_is_a_stability_error(verb, tmp_path, capsys,
                                                                  monkeypatch):
    # The lower branch has an exact neutral mode, so S(0) is a pole: a
    # stability error instead of a CSV of its rounding noise.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE + "branch = lower\n" + ZERO_OMEGA)
    assert main([verb, cfg]) == 3
    assert capsys.readouterr().err.startswith(
        "error: a spectrum at omega = 0 needs a decisively decaying drift (margin ")
    assert not (tmp_path / "zero.csv").exists()


@pytest.mark.parametrize("verb", ["spectrum", "vlf-sweep"])
def test_zero_frequency_on_the_trivial_branch_equals_the_one_point_chain(
        verb, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = (BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 0.8")
            + "branch = trivial\n" + ZERO_OMEGA)
    assert main([verb, write_config(tmp_path, text)]) == 0
    capsys.readouterr()
    row = (tmp_path / "zero.csv").read_text().splitlines()[1].split(",")
    model = build_branch_model(parse_config(text).system(), "trivial")
    v_out = spectrum_at(model, 0.0).v_out
    if verb == "spectrum":
        want = [v_out[i, j] for i in range(12) for j in range(i, 12)]
    else:
        results = [optimize_gains(inequality_by_label(label), spectrum_at(model, 0.0))
                   for label in ("s1-i1", "p1+s1", "i2-p1")]
        want = [res.value for res in results] + [g for res in results for g in res.gains]
    assert row == [_fmt(0.0)] + [_fmt(x) for x in want]


def test_singular_spectral_solve_exits_4(tmp_path, capsys, monkeypatch):
    # A drift with a rotation block of rate w makes M + i w I exactly
    # singular; LAPACK's LinAlgError is a numerical failure, exit 4.
    monkeypatch.chdir(tmp_path)
    w = 1.0 * 0.03  # the grid point omega_norm = 1 times gamma_a
    m = np.eye(12)
    m[0, 0] = m[6, 6] = 0.0
    m[0, 6], m[6, 0] = w, -w
    monkeypatch.setattr(cli, "build_branch_model", lambda *args: toy_model(m, np.eye(12)))
    text = BASE + "omega_scale = linear\nomega_min = 0.5\nomega_max = 1.5\nomega_points = 3\n"
    cfg = write_config(tmp_path, text + "branch = lower\nout = singular.csv\n")
    assert main(["spectrum", cfg]) == 4
    assert capsys.readouterr().err == "error: Singular matrix\n"
    assert not (tmp_path / "singular.csv").exists()


def test_mc_validate_refuses_marginal_branch(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "branch = lower\n")
    assert main(["mc-validate", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_reproduce_fig3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "fig3"]) == 0
    capsys.readouterr()
    first = (tmp_path / "fig3.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == VLF_HEADER
    assert len(lines) == 401


def test_reproduce_rejects_unknown_figure(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "fig1"])
    capsys.readouterr()


def test_figure_configs_parse():
    for n in range(2, 10):
        config = figure_config(f"fig{n}")
        assert config.out == f"fig{n}.csv"
        assert config.params.gamma_a == 0.03
    with pytest.raises(ConfigError, match="unknown figure"):
        figure_config("fig10")


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["thresholds", str(tmp_path / "nope.conf")]) == 2
    assert "cannot read config" in capsys.readouterr().err


# The exit code of every exception type the package exports: 2, 3 and 4 are
# the codes of the ParameterError, StabilityError and NumericalError families.
EXIT_CODES = {"ParameterError": 2, "ConfigError": 2, "StaleSteadyStateError": 2,
              "StabilityError": 3, "PhysicalityError": 3,
              "NumericalError": 4, "BasisConsistencyError": 4, "StepSizeError": 4}
EXPORTED_ERRORS = [value for value in map(vars(cascaded_fwm).get, cascaded_fwm.__all__)
                   if isinstance(value, type) and issubclass(value, BaseException)]


def raising_handler(monkeypatch, error):
    """Make the thresholds verb raise ``error("boom")`` after its config loads."""
    def handler(config):
        raise error("boom")
    monkeypatch.setitem(cli._VERBS, "thresholds", (handler, "raises"))


def test_every_exported_error_has_an_exit_code():
    assert sorted(error.__name__ for error in EXPORTED_ERRORS) == sorted(EXIT_CODES)


@pytest.mark.parametrize(
    "error, code",
    [(error, EXIT_CODES[error.__name__]) for error in EXPORTED_ERRORS]
    + [(np.linalg.LinAlgError, 4)],  # numpy's, the one foreign type main maps
    ids=lambda value: getattr(value, "__name__", str(value)))
def test_main_exits_with_the_code_of_the_error_family(error, code, tmp_path, capsys,
                                                      monkeypatch):
    raising_handler(monkeypatch, error)
    assert main(["thresholds", write_config(tmp_path, BASE)]) == code
    assert capsys.readouterr() == ("", "error: boom\n")


@pytest.mark.parametrize("error", [ValueError, RuntimeError, ZeroDivisionError])
def test_an_error_outside_the_families_propagates(error, tmp_path, monkeypatch):
    raising_handler(monkeypatch, error)
    with pytest.raises(error, match="boom"):
        main(["thresholds", write_config(tmp_path, BASE)])


@pytest.mark.parametrize("figure", [f"fig{n}" for n in range(2, 10)])
def test_reproduce_figures_byte_identical(figure, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", figure]) == 0
    capsys.readouterr()
    with gzip.open(REFERENCE_DIR / f"{figure}.csv.gz", "rb") as fh:
        expected = fh.read()
    assert (tmp_path / f"{figure}.csv").read_bytes() == expected


def test_reproduce_fig8_builds_its_witnesses_once(tmp_path, capsys, monkeypatch):
    # One lockstep search over 21 pump points: the witnesses are resolved
    # and their gain problems built once, not again in each coarse scan.
    # The counted run must write what an uncounted run writes on this BLAS,
    # whichever kernel it picks.
    from cascaded_fwm import vlf

    (tmp_path / "plain").mkdir()
    monkeypatch.chdir(tmp_path / "plain")
    assert main(["reproduce", "fig8"]) == 0
    calls = {"_resolve_inequalities": 0, "_problem_arrays": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(vlf, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(vlf, name, counted)
    (tmp_path / "counted").mkdir()
    monkeypatch.chdir(tmp_path / "counted")
    assert main(["reproduce", "fig8"]) == 0
    capsys.readouterr()
    assert calls == {"_resolve_inequalities": 1, "_problem_arrays": 1}
    assert ((tmp_path / "counted" / "fig8.csv").read_bytes()
            == (tmp_path / "plain" / "fig8.csv").read_bytes())


def per_cell_csv(header, rows) -> bytes:
    """The CSV text of the writer ``_write_csv`` replaced: one f-string per cell."""
    lines = [",".join(header)]
    lines.extend(",".join([c if isinstance(c, str) else f"{c:.17e}" for c in row])
                 for row in rows)
    return ("\n".join(lines) + "\n").encode()


EDGE_CELLS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              sys.float_info.max, -sys.float_info.max, sys.float_info.min,
              np.float64(0.1), np.float64(-2.5e-300), np.float32(0.1), 3, -7, True, False]


def random_doubles(rows, cols):
    rng = np.random.default_rng(31)
    normals = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 301, (rows, cols))
    bits = rng.integers(0, 2**64, (rows, cols), dtype=np.uint64).view(np.float64)
    return np.vstack([normals, bits])


MC_LABELS = [("p1", "p1"), ("p1", "s1*"), ("c2*", "i2")]


@pytest.mark.parametrize("header, rows", [
    (["a"] * len(EDGE_CELLS), [EDGE_CELLS, EDGE_CELLS[::-1]]),
    (["x"] * 16, random_doubles(200, 16).tolist()),
    # np.float64 cells, as iterating an array row gives them.
    (["x"] * 16, list(random_doubles(20, 16))),
    # Text label cells, as mc-validate writes them.
    (["row", "col", "v", "w"],
     [[*pair, x, y] for pair, x, y in zip(MC_LABELS, EDGE_CELLS, EDGE_CELLS[5:])]),
    (["omega_norm", "V_A"], []),
], ids=["edge-values", "random-doubles", "float64-cells", "text-labels", "header-only"])
@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
def test_write_csv_bytes_equal_the_per_cell_formatter(header, rows, as_generator,
                                                      tmp_path, capsys):
    out = tmp_path / "out.csv"
    _write_csv(str(out), header, (row for row in rows) if as_generator else rows)
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_bytes() == per_cell_csv(header, rows)


@pytest.mark.parametrize("rows", [
    [["p1", "p1", 1.0], [0.5, "s1", 2.0]],  # a number where the first row has text
    [["p1", "p1", 1.0], ["p1", "s1", "2"]],  # text where the first row has a number
    [[1.0, 2.0], [1.0]],
    [[1.0, 2.0], [1.0, 2.0, 3.0]],
    [["p1", "p1", 1.0], ["p1"]],
], ids=["number-for-text", "text-for-number", "short", "long", "short-text"])
def test_write_csv_refuses_a_row_unlike_the_first(rows, tmp_path, capsys):
    # The row format comes from the first row; a row it does not fit raises
    # before anything is written, never prints in another format.
    out = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        _write_csv(str(out), ["a", "b", "c"], iter(rows))
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_printed_and_written_numbers_share_one_format(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_NUMBER", "%.3e")
    out = tmp_path / "out.csv"
    _write_csv(str(out), ["row", "v"], [["p1", 1.0 / 3.0]])
    assert out.read_text() == "row,v\np1,3.333e-01\n"
    assert _fmt(1.0 / 3.0) == "3.333e-01"


def test_atomic_write_leaves_foreign_temp_file_alone(tmp_path):
    out = tmp_path / "out.csv"
    foreign = tmp_path / "out.csv.tmp"
    foreign.write_text("another run's partial output")
    old_umask = os.umask(0o022)
    try:
        _write_text_atomic(str(out), "a,b\r\n1,2\n")
    finally:
        os.umask(old_umask)
    assert out.read_bytes() == b"a,b\r\n1,2\n"
    assert foreign.read_text() == "another run's partial output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]
    if os.name == "posix":
        assert out.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("a_directory", "Is a directory"),
])
def test_unwritable_output_path_is_a_config_error(target, reason, tmp_path, capsys):
    (tmp_path / "a_directory").mkdir()
    out = str(tmp_path / target)
    cfg = write_config(tmp_path, BASE + f"omega_points = 4\nout = {out}\n")
    assert main(["vlf-sweep", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out!r}: {reason}\n"
    assert "wrote" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "run.conf"]
    assert list((tmp_path / "a_directory").iterdir()) == []


SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: the suite itself has imported scipy long since.
NUMPY_ONLY_SCRIPT = """
import sys
from cascaded_fwm import cli, steady_state

config = "mc.conf"
with open(config, "w", encoding="utf-8") as fh:
    fh.write(sys.argv[1])
assert "scipy" not in sys.modules, "import cascaded_fwm.cli loaded scipy"
for argv in (["reproduce", "fig3"], ["reproduce", "fig8"], ["thresholds", config],
             ["steady-state", config], ["spectrum", config], ["mc-validate", config]):
    assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"{argv} loaded scipy"
params = cli.parse_config(sys.argv[1]).system()
initial = steady_state.sample_initial_conditions(params, 1, seed=0)[0]
result = steady_state.relax_to_steady_state(params, initial)
assert result.status == "converged", result.status
assert "scipy" not in sys.modules, "the relaxation oracle loaded scipy"
"""

EXPORT_SCRIPT = """
import sys
import cascaded_fwm
from cascaded_fwm.cli import figure_config

assert "scipy" not in sys.modules, "import cascaded_fwm loaded scipy"
params = figure_config("fig6").system()
initial = cascaded_fwm.sample_initial_conditions(params, 1, seed=12345)[0]
result = cascaded_fwm.relax_to_steady_state(params, initial)
assert isinstance(result, cascaded_fwm.RelaxationResult), result
assert result.status == "converged", result.status
assert "scipy" not in sys.modules, "the relaxation oracle loaded scipy"
namespace = {}
exec("from cascaded_fwm import *", namespace)
missing = set(cascaded_fwm.__all__) - set(namespace)
assert not missing, missing
"""


def _run_fresh(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_verbs_run_without_scipy(tmp_path):
    # The criterion-12 point.
    mc_conf = BASE.replace("epsilon_ratio = 1.2", "epsilon_ratio = 0.8") + "branch = trivial\n"
    _run_fresh(NUMPY_ONLY_SCRIPT, mc_conf, cwd=tmp_path)


def test_package_exports_run_without_scipy(tmp_path):
    _run_fresh(EXPORT_SCRIPT, cwd=tmp_path)


RELAXATION_FIRST_SCRIPT = """
import cascaded_fwm.relaxation as relaxation
from cascaded_fwm import steady_state
names = ("RelaxationResult", "basin_statistics", "relax_to_steady_state",
         "sample_initial_conditions")
assert all(vars(steady_state)[name] is getattr(relaxation, name) for name in names)
assert "__getattr__" not in vars(steady_state)
"""


def test_steady_state_reexports_the_relaxation_names(tmp_path):
    # Imported relaxation first, the names are plain attributes of
    # steady_state, the very objects relaxation holds.
    _run_fresh(RELAXATION_FIRST_SCRIPT, cwd=tmp_path)


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy")


def test_no_module_imports_scipy():
    # Module level or inside a function: ast.walk sees every import.
    package = SRC / "cascaded_fwm"
    importers = sorted(path.name for path in package.rglob("*.py")
                       if any(map(_imports_scipy, ast.walk(ast.parse(path.read_text(
                           encoding="utf-8"))))))
    assert importers == []
