"""Command line front end.

Verbs: ``thresholds`` and ``steady-state`` print machine-readable key=value
lines; ``spectrum``, ``vlf-sweep``, ``pump-sweep`` and ``mc-validate`` write
CSV files; ``reproduce figN`` runs a configuration shipped with the package.
All numeric cells use full-precision scientific notation, rows are emitted
in a deterministic order, and files are written atomically (no partial file
survives a failure).

Exit codes: 0 success, 2 configuration or parameter error, 3 stability or
physicality error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisConsistencyError,
    ConfigError,
    NumericalError,
    ParameterError,
    PhysicalityError,
    StabilityError,
    StaleSteadyStateError,
    StepSizeError,
)
from .linearization import build_fluctuation_model, stability, stationary_covariance
from .monte_carlo import mc_stationary_covariance
from .params import (
    MODE_LABELS,
    Regime,
    SystemParams,
    classify_regime,
    compute_thresholds,
    resolve_epsilon,
)
from .spectra import QUADRATURE_LABELS, integrated_spectrum, output_spectra
from .steady_state import analytic_steady_states
from .vlf import (
    INEQUALITIES,
    build_branch_model,
    inequality_by_label,
    minima_over_models,
    sweep_frequency,
)

_CONFIG_KEYS = (
    "gamma_a", "gamma_b", "gamma_c", "k1", "k2", "k3",
    "epsilon_mode", "epsilon_ratio", "epsilon_abs",
    "branch", "omega_min", "omega_max", "omega_points", "omega_scale",
    "inequalities", "seed", "out",
)
_EPSILON_MODES = ("absolute", "rel_eps_th", "rel_eps_th_prime")
_BRANCH_CHOICES = ("lower", "upper", "trivial", "auto")
_SCALE_CHOICES = ("log", "linear")

# One representative per symmetry class feeds the fixed CSV schema; the
# class partners are exactly degenerate at the symmetric working point.
_CLASS_REPRESENTATIVES = (("A", "s1-i1"), ("B", "p1+s1"), ("C", "i2-p1"))

_FIGURES = tuple(f"fig{n}" for n in range(2, 10))
_MC_PATHS = 64
_PUMP_SWEEP_POINTS = 21
_PUMP_SWEEP_START = 1.05


def _fmt(x: float) -> str:
    return format(float(x), ".17e")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


@dataclass(frozen=True)
class RunConfig:
    """A parsed, validated run configuration.

    ``params`` carries the rates and couplings with epsilon still unset;
    the pump is specified separately (absolute, or relative to one of the
    thresholds) and resolved on demand.
    """

    params: SystemParams
    epsilon_mode: str
    epsilon_ratio: float | None
    epsilon_abs: float | None
    branch: str
    omega_min: float
    omega_max: float
    omega_points: int
    omega_scale: str
    inequalities: tuple
    seed: int
    out: str | None

    def system(self) -> SystemParams:
        eps = resolve_epsilon(self.params, self.epsilon_mode,
                              self.epsilon_ratio, self.epsilon_abs)
        return self.params.with_epsilon(eps)

    def omega_grid(self) -> np.ndarray:
        if self.omega_scale == "log":
            return np.geomspace(self.omega_min, self.omega_max, self.omega_points)
        return np.linspace(self.omega_min, self.omega_max, self.omega_points)


def _parse_lines(text: str) -> dict:
    """Raw key=value pairs as {key: (line number, value)}."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {pairs[key][0]})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = (lineno, value)
    return pairs


def _require(entries: dict, key: str):
    entry = entries.pop(key, None)
    if entry is None:
        raise ConfigError(f"missing required key {key!r}")
    return entry


def _as_float(key: str, entry) -> float:
    lineno, value = entry
    try:
        parsed = float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be a number, got {value!r}") from None
    if not math.isfinite(parsed):
        raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
    return parsed


def _as_positive_float(key: str, entry) -> float:
    parsed = _as_float(key, entry)
    if parsed <= 0.0:
        raise ConfigError(f"line {entry[0]}: {key} must be > 0, got {parsed!r}")
    return parsed


def _as_int(key: str, entry) -> int:
    lineno, value = entry
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}") from None


def _as_choice(key: str, entry, choices) -> str:
    lineno, value = entry
    if value not in choices:
        raise ConfigError(f"line {lineno}: {key} must be one of "
                          f"{', '.join(choices)}; got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value configuration format.

    One ``key = value`` pair per line, ``#`` starts a comment, unknown and
    duplicate keys are hard errors.  Required: the three damping rates, the
    three couplings, and an epsilon specification.  Everything else has
    defaults (branch=auto, log grid 0.01-100 with 400 points, all
    inequalities, seed 12345).
    """
    entries = _parse_lines(text)

    rates = {key: _as_positive_float(key, _require(entries, key))
             for key in ("gamma_a", "gamma_b", "gamma_c", "k1", "k2", "k3")}
    if rates["k2"] != rates["k3"]:
        raise ConfigError(
            f"k3 = {rates['k3']!r} must equal k2 = {rates['k2']!r} exactly: "
            "only the symmetric cascade (equal second and third couplings) "
            "is modeled")
    params = SystemParams(**rates)

    mode = _as_choice("epsilon_mode", _require(entries, "epsilon_mode"), _EPSILON_MODES)
    ratio_entry = entries.pop("epsilon_ratio", None)
    abs_entry = entries.pop("epsilon_abs", None)
    if mode == "absolute":
        if abs_entry is None:
            raise ConfigError("epsilon_mode=absolute requires epsilon_abs")
        if ratio_entry is not None:
            raise ConfigError(f"line {ratio_entry[0]}: epsilon_ratio is only "
                              "valid with a threshold-relative epsilon_mode")
        epsilon_abs = _as_float("epsilon_abs", abs_entry)
        if epsilon_abs < 0.0:
            raise ConfigError(f"line {abs_entry[0]}: epsilon_abs must be >= 0")
        epsilon_ratio = None
    else:
        if ratio_entry is None:
            raise ConfigError(f"epsilon_mode={mode} requires epsilon_ratio")
        if abs_entry is not None:
            raise ConfigError(f"line {abs_entry[0]}: epsilon_abs is only "
                              "valid with epsilon_mode=absolute")
        epsilon_ratio = _as_float("epsilon_ratio", ratio_entry)
        if epsilon_ratio < 0.0:
            raise ConfigError(f"line {ratio_entry[0]}: epsilon_ratio must be >= 0")
        epsilon_abs = None

    branch_entry = entries.pop("branch", None)
    branch = ("auto" if branch_entry is None
              else _as_choice("branch", branch_entry, _BRANCH_CHOICES))

    scale_entry = entries.pop("omega_scale", None)
    omega_scale = ("log" if scale_entry is None
                   else _as_choice("omega_scale", scale_entry, _SCALE_CHOICES))
    min_entry = entries.pop("omega_min", None)
    omega_min = 0.01 if min_entry is None else _as_float("omega_min", min_entry)
    max_entry = entries.pop("omega_max", None)
    omega_max = 100.0 if max_entry is None else _as_float("omega_max", max_entry)
    pts_entry = entries.pop("omega_points", None)
    omega_points = 400 if pts_entry is None else _as_int("omega_points", pts_entry)
    if omega_points < 2:
        raise ConfigError(f"line {pts_entry[0]}: omega_points must be >= 2")
    if omega_scale == "log" and omega_min <= 0.0:
        where = f"line {min_entry[0]}: " if min_entry else ""
        raise ConfigError(f"{where}omega_min must be > 0 on a log grid")
    if omega_min < 0.0:
        raise ConfigError(f"line {min_entry[0]}: omega_min must be >= 0")
    if not omega_min < omega_max:
        raise ConfigError("omega_min must be smaller than omega_max")

    ineq_entry = entries.pop("inequalities", None)
    if ineq_entry is None or ineq_entry[1] == "all":
        inequalities = tuple(i.label for i in INEQUALITIES)
    else:
        lineno, value = ineq_entry
        labels = []
        for item in value.split(","):
            label = item.strip()
            try:
                inequality_by_label(label)
            except ParameterError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            if label in labels:
                raise ConfigError(f"line {lineno}: duplicate inequality {label!r}")
            labels.append(label)
        inequalities = tuple(labels)

    seed_entry = entries.pop("seed", None)
    seed = 12345 if seed_entry is None else _as_int("seed", seed_entry)
    if seed < 0:
        raise ConfigError(f"line {seed_entry[0]}: seed must be >= 0")

    out_entry = entries.pop("out", None)
    out = out_entry[1] if out_entry else None

    return RunConfig(
        params=params,
        epsilon_mode=mode,
        epsilon_ratio=epsilon_ratio,
        epsilon_abs=epsilon_abs,
        branch=branch,
        omega_min=omega_min,
        omega_max=omega_max,
        omega_points=omega_points,
        omega_scale=omega_scale,
        inequalities=inequalities,
        seed=seed,
        out=out,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a uniquely named sibling file.

    The temporary file is created exclusively, so concurrent writers of
    the same ``path`` never share one, and with mode 0o666 so the final
    file gets the same permission bits (minus the umask) as a plain
    ``open`` would give it.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _with_suffix(path: str, suffix: str) -> str:
    if not suffix:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}{suffix}{ext}"


def _resolve_branches(system: SystemParams, branch: str):
    """Concrete (branch, filename suffix) pairs for one run.

    ``auto`` picks the only deterministic choice per regime and emits both
    coexisting branches, suffixed, where the dynamics is bistable.
    """
    if branch != "auto":
        return ((branch, ""),)
    regime = classify_regime(system)
    if regime is Regime.ABOVE_UPPER_THRESHOLD:
        return (("lower", "_lower"), ("upper", "_upper"))
    if regime is Regime.BETWEEN_THRESHOLDS:
        return (("lower", ""),)
    return (("trivial", ""),)


def _require_class_coverage(labels) -> None:
    covered = {inequality_by_label(label).symmetry_class for label in labels}
    missing = [cls for cls, _ in _CLASS_REPRESENTATIVES if cls not in covered]
    if missing:
        raise ConfigError(
            f"inequality selection leaves symmetry class(es) "
            f"{', '.join(missing)} uncovered; the sweep CSV schema has a "
            "column per class")


def cmd_thresholds(config: RunConfig) -> None:
    thresholds = compute_thresholds(config.params)
    if thresholds.has_threshold:
        print(f"eps_th={_fmt(thresholds.eps_th)}")
        print(f"eps_th_prime={_fmt(thresholds.eps_th_prime)}")
        print(f"threshold_ratio={_fmt(thresholds.eps_th_prime / thresholds.eps_th)}")
    else:
        print("eps_th=nan")
        print("eps_th_prime=nan")
        print("threshold_ratio=nan")
    print(f"has_threshold={_fmt_bool(thresholds.has_threshold)}")
    if thresholds.has_threshold or config.epsilon_mode == "absolute":
        system = config.system()
        print(f"epsilon={_fmt(system.epsilon)}")
        print(f"regime={classify_regime(system, thresholds).value}")
    else:
        print("epsilon=nan")
        print(f"regime={Regime.NO_THRESHOLD.value}")


def cmd_steady_state(config: RunConfig) -> None:
    system = config.system()
    states = analytic_steady_states(system)
    print(f"epsilon={_fmt(system.epsilon)}")
    print(f"regime={classify_regime(system).value}")
    print("branches=" + ",".join(s.branch.value for s in states))
    for state in states:
        name = state.branch.value
        for label, amplitude in zip(MODE_LABELS, state.amplitudes):
            print(f"{name}.A_{label}={_fmt(amplitude)}")
        report = stability(build_fluctuation_model(system, state).m)
        print(f"{name}.stable={_fmt_bool(report.stable)}")
        print(f"{name}.margin={_fmt(report.margin)}")
        print(f"{name}.indeterminate={_fmt_bool(report.indeterminate)}")


def cmd_spectrum(config: RunConfig) -> None:
    system = config.system()
    grid = config.omega_grid()
    pairs = [(i, j) for i in range(12) for j in range(i, 12)]
    header = "omega_norm," + ",".join(
        f"{QUADRATURE_LABELS[i]}_{QUADRATURE_LABELS[j]}" for i, j in pairs)
    out = config.out or "spectrum.csv"
    for branch, suffix in _resolve_branches(system, config.branch):
        model = build_branch_model(system, branch)
        lines = [header]
        for omega_norm, v in zip(grid, output_spectra(model, grid * system.gamma_a)):
            cells = [_fmt(omega_norm)] + [_fmt(v[i, j]) for i, j in pairs]
            lines.append(",".join(cells))
        path = _with_suffix(out, suffix)
        _write_text_atomic(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")


def _vlf_header() -> str:
    cols = ["omega_norm", "V_A", "V_B", "V_C"]
    for cls, label in _CLASS_REPRESENTATIVES:
        ineq = inequality_by_label(label)
        cols.extend(f"g{cls}_{mode}" for mode in ineq.free_mode_labels())
    return ",".join(cols)


def cmd_vlf_sweep(config: RunConfig, zero_diffusion: bool = False) -> None:
    system = config.system()
    _require_class_coverage(config.inequalities)
    representatives = [label for _, label in _CLASS_REPRESENTATIVES]
    grid = config.omega_grid()
    out = config.out or "vlf_sweep.csv"
    for branch, suffix in _resolve_branches(system, config.branch):
        results = sweep_frequency(system, branch, inequalities=representatives,
                                  omega_grid=grid, zero_diffusion=zero_diffusion)
        lines = [_vlf_header()]
        for row_start in range(0, len(results), len(representatives)):
            row = results[row_start:row_start + len(representatives)]
            cells = [_fmt(row[0].omega_norm)]
            cells.extend(_fmt(r.value) for r in row)
            for r in row:
                cells.extend(_fmt(g) for g in r.gains)
            lines.append(",".join(cells))
        path = _with_suffix(out, suffix)
        _write_text_atomic(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")


def cmd_pump_sweep(config: RunConfig) -> None:
    if config.epsilon_mode not in ("rel_eps_th", "rel_eps_th_prime"):
        raise ConfigError("pump-sweep requires a threshold-relative "
                          "epsilon_mode; epsilon_ratio sets the sweep endpoint")
    if config.branch not in ("lower", "upper"):
        raise ConfigError("pump-sweep requires branch=lower or branch=upper")
    if config.branch == "upper" and config.epsilon_mode != "rel_eps_th_prime":
        raise ConfigError("pump-sweep on the upper branch requires "
                          "epsilon_mode=rel_eps_th_prime (the branch only "
                          "exists above the upper threshold)")
    if config.epsilon_ratio <= _PUMP_SWEEP_START:
        raise ConfigError(f"epsilon_ratio must exceed {_PUMP_SWEEP_START} "
                          "(the sweep start)")
    _require_class_coverage(config.inequalities)
    representatives = [label for _, label in _CLASS_REPRESENTATIVES]
    thresholds = compute_thresholds(config.params)
    if not thresholds.has_threshold:
        raise ConfigError("pump-sweep requires couplings with a threshold")
    reference = (thresholds.eps_th if config.epsilon_mode == "rel_eps_th"
                 else thresholds.eps_th_prime)
    ratios = np.geomspace(_PUMP_SWEEP_START, config.epsilon_ratio,
                          _PUMP_SWEEP_POINTS)
    # One lockstep search over every pump point; the models are built one
    # at a time as the search scans them.
    models = (build_branch_model(config.params.with_epsilon(float(ratio) * reference),
                                 config.branch)
              for ratio in ratios)
    minima = minima_over_models(models, representatives,
                                omega_range=(config.omega_min, config.omega_max),
                                scale=config.omega_scale)
    lines = ["eps_ratio,V_A,V_B,V_C"]
    for ratio, results in zip(ratios, minima):
        lines.append(",".join([_fmt(ratio)] + [_fmt(r.value) for r in results]))
    out = config.out or "pump_sweep.csv"
    _write_text_atomic(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")


_DELTA_LABELS = tuple(MODE_LABELS) + tuple(f"{m}*" for m in MODE_LABELS)
_ANALYTIC_TOLERANCE = 1e-6
_MC_SE_LIMIT = 3.0


def cmd_mc_validate(config: RunConfig) -> None:
    """Cross-check the three routes to the stationary second moments.

    Writes one CSV row per moment entry with the Lyapunov solution, the
    integrated spectral matrix, the Monte-Carlo estimate with its standard
    error, and the two disagreement measures; prints a pass/fail summary.
    """
    system = config.system()
    out = config.out or "mc_validate.csv"
    header = ("row,col,lyapunov_re,lyapunov_im,integral_re,integral_im,"
              "mc_re,mc_im,mc_stderr,analytic_gap,mc_gap_se")
    for branch, suffix in _resolve_branches(system, config.branch):
        model = build_branch_model(system, branch)
        sigma = stationary_covariance(model)
        sigma_int = integrated_spectrum(model)
        sigma_mc, stderr = mc_stationary_covariance(
            model, n_paths=_MC_PATHS, seed=config.seed)
        lines = [header]
        max_analytic = 0.0
        max_mc_se = 0.0
        for i in range(12):
            for j in range(12):
                analytic_gap = abs(sigma_int[i, j] - sigma[i, j])
                mc_gap = abs(sigma_mc[i, j] - sigma[i, j])
                se = float(stderr[i, j])
                if se > 0.0:
                    mc_gap_se = mc_gap / se
                else:
                    mc_gap_se = 0.0 if mc_gap == 0.0 else math.inf
                max_analytic = max(max_analytic, analytic_gap)
                max_mc_se = max(max_mc_se, mc_gap_se)
                lines.append(",".join([
                    _DELTA_LABELS[i], _DELTA_LABELS[j],
                    _fmt(sigma[i, j].real), _fmt(sigma[i, j].imag),
                    _fmt(sigma_int[i, j].real), _fmt(sigma_int[i, j].imag),
                    _fmt(sigma_mc[i, j].real), _fmt(sigma_mc[i, j].imag),
                    _fmt(se), _fmt(analytic_gap), _fmt(mc_gap_se),
                ]))
        path = _with_suffix(out, suffix)
        _write_text_atomic(path, "\n".join(lines) + "\n")
        analytic_pass = max_analytic <= _ANALYTIC_TOLERANCE
        mc_pass = max_mc_se <= _MC_SE_LIMIT
        print(f"branch={branch}")
        print(f"max_analytic_gap={_fmt(max_analytic)}")
        print(f"analytic_tolerance={_fmt(_ANALYTIC_TOLERANCE)}")
        print(f"analytic_pass={_fmt_bool(analytic_pass)}")
        print(f"max_mc_gap_se={_fmt(max_mc_se)}")
        print(f"mc_se_limit={_fmt(_MC_SE_LIMIT)}")
        print(f"mc_paths={_MC_PATHS}")
        print(f"mc_pass={_fmt_bool(mc_pass)}")
        print(f"wrote {path}")
        if not (analytic_pass and mc_pass):
            raise NumericalError(
                f"stationary-moment cross-check failed on branch {branch}: "
                f"analytic gap {max_analytic:.3e}, MC gap {max_mc_se:.3f} SE")


_FIGURE_VERBS = {
    "fig2": "vlf-sweep", "fig3": "vlf-sweep", "fig4": "vlf-sweep",
    "fig5": "vlf-sweep", "fig6": "vlf-sweep", "fig7": "vlf-sweep",
    "fig8": "pump-sweep", "fig9": "pump-sweep",
}


def figure_config(figure: str) -> RunConfig:
    """Parse a configuration shipped with the package."""
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; choose from "
                          + ", ".join(_FIGURES))
    resource = importlib.resources.files("cascaded_fwm").joinpath(
        "configs", f"{figure}.conf")
    return parse_config(resource.read_text(encoding="utf-8"))


def cmd_reproduce(figure: str) -> None:
    config = figure_config(figure)
    verb = _FIGURE_VERBS[figure]
    if verb == "vlf-sweep":
        cmd_vlf_sweep(config)
    else:
        cmd_pump_sweep(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascaded-fwm",
        description="Thresholds, steady states, fluctuation spectra and "
                    "multipartite entanglement witnesses of a three-stage "
                    "cascaded four-wave-mixing cavity.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_config(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key=value config file")
        return p

    with_config("thresholds", "print the pump thresholds and regime")
    with_config("steady-state", "print all analytic branches and stability")
    with_config("spectrum", "write the output quadrature spectra as CSV")
    vlf = with_config("vlf-sweep",
                      "optimize the witnesses over a frequency grid (CSV)")
    vlf.add_argument("--zero-diffusion", action="store_true",
                     help="substitute D = 0 (pipeline null test: every "
                          "value becomes the separability bound 4)")
    with_config("pump-sweep",
                "minimum witness values versus pump strength (CSV)")
    with_config("mc-validate",
                "cross-check stationary moments against a stochastic "
                "ensemble (CSV + summary)")
    rep = sub.add_parser("reproduce", help="run a packaged figure configuration")
    rep.add_argument("figure", choices=list(_FIGURES))
    return parser


_EXIT_CODE_MAP = (
    ((ConfigError, ParameterError, StaleSteadyStateError), 2),
    ((StabilityError, PhysicalityError), 3),
    ((NumericalError, BasisConsistencyError, StepSizeError,
      np.linalg.LinAlgError), 4),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "reproduce":
            cmd_reproduce(args.figure)
            return 0
        config = load_config(args.config)
        if args.verb == "thresholds":
            cmd_thresholds(config)
        elif args.verb == "steady-state":
            cmd_steady_state(config)
        elif args.verb == "spectrum":
            cmd_spectrum(config)
        elif args.verb == "vlf-sweep":
            cmd_vlf_sweep(config, zero_diffusion=args.zero_diffusion)
        elif args.verb == "pump-sweep":
            cmd_pump_sweep(config)
        elif args.verb == "mc-validate":
            cmd_mc_validate(config)
        return 0
    except BaseException as exc:
        for types, code in _EXIT_CODE_MAP:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
