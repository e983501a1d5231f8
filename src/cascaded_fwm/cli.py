"""Command line front end.

Verbs: ``thresholds`` and ``steady-state`` print machine-readable key=value
lines; ``spectrum``, ``vlf-sweep``, ``pump-sweep`` and ``mc-validate`` write
CSV files; ``reproduce figN`` runs a configuration shipped with the package.
All numeric cells use full-precision scientific notation, rows are emitted
in a deterministic order, and files are written atomically (no partial file
survives a failure).

Each decision is declared once.  ``_OPTIONAL_KEYS`` holds the default and
the parser of every optional config key, and the known keys derive from it.
``parse_config`` only types the values: ``SystemParams``, the pump spec of
``params`` and the window of ``vlf`` check them, and their error gets the
line of the key it names.  ``_VERBS`` maps each verb to its handler and
help text and drives both the argument parser and the one dispatch in
``main``; ``_FIGURE_VERBS`` maps each packaged figure to its handler.
Every CSV goes through ``_write_csv``.  The CLI names no branch, pump mode
or witness: ``Branch`` lists the branches (``auto`` is the CLI's own),
``state_for_branch`` refuses one a regime lacks, ``resolve_epsilon`` owns
the pump modes and ``SYMMETRY_CLASSES`` gives the witness columns.

Exit codes: 0 on success; otherwise ``main`` returns the ``exit_code`` of
the error's family in ``errors`` (an output file that cannot be written is
a ``ConfigError``), and ``NumericalError``'s for numpy's ``LinAlgError``.
Any other exception propagates.
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

from .errors import _FAMILIES, ConfigError, NumericalError, ParameterError
from .linearization import build_fluctuation_model, stability, stationary_covariance
from .monte_carlo import mc_stationary_covariance
from .params import (
    _RATE_KEYS,
    MODE_LABELS,
    Regime,
    SystemParams,
    _pump_value,
    classify_regime,
    compute_thresholds,
    resolve_epsilon,
)
from .spectra import QUADRATURE_LABELS, integrated_spectrum, output_spectra
from .steady_state import Branch, analytic_steady_states
from .vlf import (
    _OMEGA_POINTS,
    _OMEGA_SCALE,
    _OMEGA_WINDOW,
    SYMMETRY_CLASSES,
    _check_window,
    _omega_grid,
    _sweep_arrays,
    build_branch_model,
    class_members,
    minima_over_models,
)

# One representative per symmetry class, its first member, feeds the fixed
# CSV schema; the class partners are exactly degenerate at the symmetric
# working point.
_REPRESENTATIVES = tuple(class_members(c)[0] for c in SYMMETRY_CLASSES)
_VALUE_COLUMNS = tuple(f"V_{c}" for c in SYMMETRY_CLASSES)

_MC_PATHS = 64
_PUMP_SWEEP_POINTS = 21
_PUMP_SWEEP_START = 1.05


def _fmt(x: float) -> str:
    return format(float(x), ".17e")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


@dataclass(frozen=True)
class RunConfig:
    """A run configuration, its pump spec and window checked on construction.

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

    def __post_init__(self):
        _pump_value(self.epsilon_mode, self.epsilon_ratio, self.epsilon_abs)
        _check_window(self.omega_min, self.omega_max, self.omega_scale)

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


def _parse_lines(text: str) -> tuple:
    """Raw key=value pairs as {key: value}, and their lines as {key: line number}."""
    values, lines = {}, {}
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
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {lines[key]})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key], lines[key] = value, lineno
    return values, lines


def _require(values: dict, key: str) -> str:
    if key not in values:
        raise ConfigError(f"missing required key {key!r}")
    return values[key]


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", key=key) from None


def _int_at_least(minimum: int):
    def parse(key: str, value: str) -> int:
        try:
            parsed = int(value, 10)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", key=key) from None
        if parsed < minimum:
            raise ConfigError(f"{key} must be >= {minimum}", key=key)
        return parsed
    return parse


def _one_of(*choices: str):
    def parse(key: str, value: str) -> str:
        if value not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}; "
                              f"got {value!r}", key=key)
        return value
    return parse


def _as_text(key: str, value: str) -> str:
    return value


# key -> (default, parser(key, value)); each is a RunConfig field.
_OPTIONAL_KEYS = {
    "branch": ("auto", _one_of(*(b.value for b in Branch), "auto")),
    "epsilon_ratio": (None, _as_float),
    "epsilon_abs": (None, _as_float),
    "omega_scale": (_OMEGA_SCALE, _as_text),
    "omega_min": (_OMEGA_WINDOW[0], _as_float),
    "omega_max": (_OMEGA_WINDOW[1], _as_float),
    "omega_points": (_OMEGA_POINTS, _int_at_least(2)),
    "seed": (12345, _int_at_least(0)),
    "out": (None, _as_text),
}
_KNOWN_KEYS = {*_RATE_KEYS, "epsilon_mode", *_OPTIONAL_KEYS}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value configuration format.

    One ``key = value`` pair per line, ``#`` starts a comment, unknown and
    duplicate keys are hard errors.  Required: the three damping rates, the
    three couplings, and an epsilon specification.  Everything else has
    defaults (branch=auto, log grid 0.01-100 with 400 points, seed 12345).
    """
    values, lines = _parse_lines(text)
    try:
        rates = {key: _as_float(key, _require(values, key)) for key in _RATE_KEYS}
        mode = _require(values, "epsilon_mode")
        optional = {key: parse(key, values[key]) if key in values else default
                    for key, (default, parse) in _OPTIONAL_KEYS.items()}
        return RunConfig(params=SystemParams(**rates), epsilon_mode=mode, **optional)
    except ParameterError as exc:
        # The one place an error gets the line of the key it names.
        line = lines.get(exc.key)
        raise ConfigError(f"line {line}: {exc}" if line else str(exc)) from None


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
    lo, hi = ((thresholds.eps_th, thresholds.eps_th_prime) if thresholds.has_threshold
              else (math.nan, math.nan))
    print(f"eps_th={_fmt(lo)}")
    print(f"eps_th_prime={_fmt(hi)}")
    print(f"threshold_ratio={_fmt(hi / lo)}")
    print(f"has_threshold={_fmt_bool(thresholds.has_threshold)}")
    if thresholds.has_threshold or config.epsilon_ratio is None:
        system = config.system()
        epsilon, regime = system.epsilon, classify_regime(system, thresholds)
    else:
        epsilon, regime = math.nan, Regime.NO_THRESHOLD
    print(f"epsilon={_fmt(epsilon)}")
    print(f"regime={regime.value}")


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
    cols = ["omega_norm", *_VALUE_COLUMNS]
    for ineq in _REPRESENTATIVES:
        cols.extend(f"g{ineq.symmetry_class}_{mode}" for mode in ineq.free_mode_labels())
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
    if config.epsilon_ratio is None:
        raise ConfigError("pump-sweep requires a threshold-relative "
                          "epsilon_mode; epsilon_ratio sets the sweep endpoint")
    if config.branch == "auto":
        raise ConfigError("pump-sweep follows one branch; name it instead of branch=auto")
    if config.epsilon_ratio <= _PUMP_SWEEP_START:
        raise ConfigError(f"epsilon_ratio must exceed {_PUMP_SWEEP_START} "
                          "(the sweep start)")
    ratios = np.geomspace(_PUMP_SWEEP_START, config.epsilon_ratio,
                          _PUMP_SWEEP_POINTS)
    # One lockstep search over every pump point; the models are built one
    # at a time as the search scans them, and the first refuses a branch
    # its regime lacks.
    models = (build_branch_model(config.params.with_epsilon(
                  resolve_epsilon(config.params, config.epsilon_mode, float(ratio))),
                  config.branch)
              for ratio in ratios)
    minima = minima_over_models(models, _REPRESENTATIVES,
                                omega_range=(config.omega_min, config.omega_max),
                                scale=config.omega_scale)
    _write_csv(config.out or "pump_sweep.csv", ("eps_ratio", *_VALUE_COLUMNS),
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
    except (*_FAMILIES, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # numpy's LinAlgError is the one foreign type: a numerical failure.
        return getattr(exc, "exit_code", NumericalError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
