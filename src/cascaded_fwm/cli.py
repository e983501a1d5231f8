"""Command line front end.

Verbs: ``thresholds`` and ``steady-state`` print machine-readable key=value
lines; ``spectrum``, ``vlf-sweep``, ``pump-sweep`` and ``mc-validate`` write
CSV files; ``reproduce figN`` runs a configuration shipped with the package.
All numeric cells use full-precision scientific notation, rows are emitted
in a deterministic order, and files are written atomically (no partial file
survives a failure).

Each decision is declared once.  ``_OPTIONAL_KEYS`` holds the default and
the parser of every optional config key, and the known keys derive from it;
only the cross-key rules (the epsilon pair, the omega window, k2 == k3) are
spelled out in ``parse_config``.  ``_VERBS`` maps each verb to its handler
and help text and drives both the argument parser and the one dispatch in
``main``; ``_FIGURE_VERBS`` maps each packaged figure to its handler.  Every
CSV goes through ``_write_csv``.  The rules of the physics stay with the
library: the branches of a regime come from ``analytic_steady_states``, a
threshold-relative pump from ``resolve_epsilon``, and the frequency window
and grid from ``vlf``.

Exit codes: 0 success, 2 configuration or parameter error (an output file
that cannot be written included), 3 stability or physicality error, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import math
import os
import re
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
    _OMEGA_POINTS,
    _OMEGA_WINDOW,
    _omega_grid,
    _sweep_arrays,
    build_branch_model,
    inequality_by_label,
    minima_over_models,
)

_RATE_KEYS = ("gamma_a", "gamma_b", "gamma_c", "k1", "k2", "k3")

# One representative per symmetry class feeds the fixed CSV schema; the
# class partners are exactly degenerate at the symmetric working point.
_CLASS_REPRESENTATIVES = (("A", "s1-i1"), ("B", "p1+s1"), ("C", "i2-p1"))
_REPRESENTATIVES = tuple(label for _, label in _CLASS_REPRESENTATIVES)

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
    seed: int
    out: str | None

    def system(self) -> SystemParams:
        eps = resolve_epsilon(self.params, self.epsilon_mode,
                              self.epsilon_ratio, self.epsilon_abs)
        return self.params.with_epsilon(eps)

    def omega_grid(self) -> np.ndarray:
        return _omega_grid(self.omega_min, self.omega_max, self.omega_points,
                           self.omega_scale)


# A '#' starts a comment at the start of a line or after whitespace only,
# so a value such as 'results#1.csv' keeps its '#'.
_COMMENT = re.compile(r"(?<!\S)#")


def _parse_lines(text: str) -> dict:
    """Raw key=value pairs as {key: (line number, value)}."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {pairs[key][0]})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = (lineno, value)
    return pairs


def _require(entries: dict, key: str):
    entry = entries.get(key)
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


def _int_at_least(minimum: int):
    def parse(key: str, entry) -> int:
        lineno, value = entry
        try:
            parsed = int(value, 10)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be an integer, "
                              f"got {value!r}") from None
        if parsed < minimum:
            raise ConfigError(f"line {lineno}: {key} must be >= {minimum}")
        return parsed
    return parse


def _one_of(*choices: str):
    def parse(key: str, entry) -> str:
        lineno, value = entry
        if value not in choices:
            raise ConfigError(f"line {lineno}: {key} must be one of "
                              f"{', '.join(choices)}; got {value!r}")
        return value
    return parse


# key -> (default, parser(key, (line number, value))); each is a RunConfig field.
_OPTIONAL_KEYS = {
    "branch": ("auto", _one_of("lower", "upper", "trivial", "auto")),
    "omega_scale": ("log", _one_of("log", "linear")),
    "omega_min": (_OMEGA_WINDOW[0], _as_float),
    "omega_max": (_OMEGA_WINDOW[1], _as_float),
    "omega_points": (_OMEGA_POINTS, _int_at_least(2)),
    "seed": (12345, _int_at_least(0)),
    "out": (None, lambda key, entry: entry[1]),
}
_KNOWN_KEYS = {*_RATE_KEYS, "epsilon_mode", "epsilon_ratio", "epsilon_abs", *_OPTIONAL_KEYS}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value configuration format.

    One ``key = value`` pair per line, ``#`` starts a comment, unknown and
    duplicate keys are hard errors.  Required: the three damping rates, the
    three couplings, and an epsilon specification.  Everything else has
    defaults (branch=auto, log grid 0.01-100 with 400 points, seed 12345).
    """
    entries = _parse_lines(text)

    rates = {key: _as_positive_float(key, _require(entries, key)) for key in _RATE_KEYS}
    if rates["k2"] != rates["k3"]:
        raise ConfigError(
            f"k3 = {rates['k3']!r} must equal k2 = {rates['k2']!r} exactly: "
            "only the symmetric cascade (equal second and third couplings) "
            "is modeled")
    params = SystemParams(**rates)

    mode = _one_of("absolute", "rel_eps_th", "rel_eps_th_prime")(
        "epsilon_mode", _require(entries, "epsilon_mode"))
    ratio_entry = entries.get("epsilon_ratio")
    abs_entry = entries.get("epsilon_abs")
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

    optional = {key: default if key not in entries else parse(key, entries[key])
                for key, (default, parse) in _OPTIONAL_KEYS.items()}
    min_entry = entries.get("omega_min")
    if optional["omega_scale"] == "log" and optional["omega_min"] <= 0.0:
        where = f"line {min_entry[0]}: " if min_entry else ""
        raise ConfigError(f"{where}omega_min must be > 0 on a log grid")
    if optional["omega_min"] < 0.0:
        raise ConfigError(f"line {min_entry[0]}: omega_min must be >= 0")
    if not optional["omega_min"] < optional["omega_max"]:
        raise ConfigError("omega_min must be smaller than omega_max")

    return RunConfig(params=params, epsilon_mode=mode, epsilon_ratio=epsilon_ratio,
                     epsilon_abs=epsilon_abs, **optional)


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
    ``open`` would give it.  Any ``OSError`` becomes a ``ConfigError``
    that names ``path``; no temporary file is left behind.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
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
    except OSError as exc:
        # Name the target, not the temporary file the error carries.
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_csv(path: str, header, rows) -> None:
    """Write a header and rows atomically; other than strings, cells print as ``_fmt``."""
    lines = [",".join(header)]
    lines.extend(",".join([c if isinstance(c, str) else f"{c:.17e}" for c in row])
                 for row in rows)
    _write_text_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")


def _with_suffix(path: str, suffix: str) -> str:
    if not suffix:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}{suffix}{ext}"


def _resolve_branches(system: SystemParams, branch: str):
    """Concrete (branch, filename suffix) pairs for one run.

    ``auto`` takes every analytic branch of the regime; only where two
    coexist does each file name get the branch as a suffix.
    """
    if branch != "auto":
        return ((branch, ""),)
    branches = [state.branch.value for state in analytic_steady_states(system)]
    return tuple((name, f"_{name}" if len(branches) == 2 else "") for name in branches)


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
    iu, ju = np.triu_indices(12)
    header = ["omega_norm"] + [f"{QUADRATURE_LABELS[i]}_{QUADRATURE_LABELS[j]}"
                               for i, j in zip(iu, ju)]
    out = config.out or "spectrum.csv"
    for branch, suffix in _resolve_branches(system, config.branch):
        v = output_spectra(build_branch_model(system, branch), grid * system.gamma_a)
        _write_csv(_with_suffix(out, suffix), header,
                   np.column_stack([grid, v[:, iu, ju]]).tolist())


def _vlf_header() -> list:
    cols = ["omega_norm", "V_A", "V_B", "V_C"]
    for cls, label in _CLASS_REPRESENTATIVES:
        ineq = inequality_by_label(label)
        cols.extend(f"g{cls}_{mode}" for mode in ineq.free_mode_labels())
    return cols


def cmd_vlf_sweep(config: RunConfig, zero_diffusion: bool = False) -> None:
    system = config.system()
    grid = config.omega_grid()
    out = config.out or "vlf_sweep.csv"
    for branch, suffix in _resolve_branches(system, config.branch):
        model = build_branch_model(system, branch, zero_diffusion)
        _, omega_norm, values, gains = _sweep_arrays(model, _REPRESENTATIVES, grid)
        _write_csv(_with_suffix(out, suffix), _vlf_header(),
                   np.column_stack([omega_norm, values, gains.reshape(len(grid), -1)]).tolist())


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
    if config.omega_min <= 0.0:
        raise ConfigError("pump-sweep needs omega_min > 0")
    ratios = np.geomspace(_PUMP_SWEEP_START, config.epsilon_ratio,
                          _PUMP_SWEEP_POINTS)
    # One lockstep search over every pump point; the models are built one
    # at a time as the search scans them.
    models = (build_branch_model(config.params.with_epsilon(
                  resolve_epsilon(config.params, config.epsilon_mode, float(ratio))),
                  config.branch)
              for ratio in ratios)
    minima = minima_over_models(models, _REPRESENTATIVES,
                                omega_range=(config.omega_min, config.omega_max),
                                scale=config.omega_scale)
    _write_csv(config.out or "pump_sweep.csv", ("eps_ratio", "V_A", "V_B", "V_C"),
               ([ratio, *(r.value for r in results)] for ratio, results in zip(ratios, minima)))


_DELTA_LABELS = tuple(MODE_LABELS) + tuple(f"{m}*" for m in MODE_LABELS)
_ANALYTIC_TOLERANCE = 1e-6
_MC_SE_LIMIT = 3.0


def cmd_mc_validate(config: RunConfig) -> None:
    """Cross-check the three routes to the stationary second moments.

    Writes one CSV row per moment entry with the Lyapunov solution, the
    integrated spectral matrix, the Monte-Carlo estimate with its standard
    error, and the two disagreement measures; prints a pass/fail summary.
    A NaN gap fails the check.
    """
    system = config.system()
    out = config.out or "mc_validate.csv"
    header = ("row", "col", "lyapunov_re", "lyapunov_im", "integral_re", "integral_im",
              "mc_re", "mc_im", "mc_stderr", "analytic_gap", "mc_gap_se")
    labels = [(row, col) for row in _DELTA_LABELS for col in _DELTA_LABELS]
    for branch, suffix in _resolve_branches(system, config.branch):
        model = build_branch_model(system, branch)
        sigma = stationary_covariance(model)
        sigma_int = integrated_spectrum(model)
        sigma_mc, stderr = mc_stationary_covariance(
            model, n_paths=_MC_PATHS, seed=config.seed)
        # hypot equals the scalar abs(complex) bit for bit; np.abs does not.
        analytic_gap, mc_gap = (np.hypot(z.real, z.imag)
                                for z in (sigma_int - sigma, sigma_mc - sigma))
        with np.errstate(divide="ignore", invalid="ignore"):
            mc_gap_se = np.where(stderr > 0.0, mc_gap / stderr,
                                 np.where(mc_gap == 0.0, 0.0, np.inf))
        max_analytic = analytic_gap.max()
        max_mc_se = mc_gap_se.max()
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
        columns = (sigma.real, sigma.imag, sigma_int.real, sigma_int.imag,
                   sigma_mc.real, sigma_mc.imag, stderr, analytic_gap, mc_gap_se)
        cells = np.stack(columns, axis=-1).reshape(144, len(columns)).tolist()
        _write_csv(_with_suffix(out, suffix), header,
                   ([*pair, *row] for pair, row in zip(labels, cells)))
        if not (analytic_pass and mc_pass):
            raise NumericalError(
                f"stationary-moment cross-check failed on branch {branch}: "
                f"analytic gap {max_analytic:.3e}, MC gap {max_mc_se:.3f} SE")


_VERBS = {
    "thresholds": (cmd_thresholds, "print the pump thresholds and regime"),
    "steady-state": (cmd_steady_state, "print all analytic branches and stability"),
    "spectrum": (cmd_spectrum, "write the output quadrature spectra as CSV"),
    "vlf-sweep": (cmd_vlf_sweep, "optimize the witnesses over a frequency grid (CSV)"),
    "pump-sweep": (cmd_pump_sweep, "minimum witness values versus pump strength (CSV)"),
    "mc-validate": (cmd_mc_validate, "cross-check stationary moments against a "
                                     "stochastic ensemble (CSV + summary)"),
}
_FIGURE_VERBS = {**{f"fig{n}": cmd_vlf_sweep for n in range(2, 8)},
                 "fig8": cmd_pump_sweep, "fig9": cmd_pump_sweep}
_FIGURES = tuple(_FIGURE_VERBS)


def figure_config(figure: str) -> RunConfig:
    """Parse a configuration shipped with the package."""
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; choose from "
                          + ", ".join(_FIGURES))
    resource = importlib.resources.files("cascaded_fwm").joinpath(
        "configs", f"{figure}.conf")
    return parse_config(resource.read_text(encoding="utf-8"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascaded-fwm",
        description="Thresholds, steady states, fluctuation spectra and "
                    "multipartite entanglement witnesses of a three-stage "
                    "cascaded four-wave-mixing cavity.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, help_text) in _VERBS.items():
        verb = sub.add_parser(name, help=help_text)
        verb.add_argument("config", help="path to a key=value config file")
        if name == "vlf-sweep":
            verb.add_argument("--zero-diffusion", action="store_true",
                              help="substitute D = 0 (pipeline null test: every "
                                   "value becomes the separability bound 4)")
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
    # Whatever argparse leaves after the verb and its input (--zero-diffusion)
    # goes to the handler as keyword arguments.
    options = vars(_build_parser().parse_args(argv))
    verb = options.pop("verb")
    try:
        if verb == "reproduce":
            figure = options.pop("figure")
            handler, config = _FIGURE_VERBS[figure], figure_config(figure)
        else:
            handler, config = _VERBS[verb][0], load_config(options.pop("config"))
        handler(config, **options)
        return 0
    except BaseException as exc:
        for types, code in _EXIT_CODE_MAP:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
