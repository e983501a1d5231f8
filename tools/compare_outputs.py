#!/usr/bin/env python3
"""Run the same invocations on two trees and compare every output byte for byte.

Each tree is a checkout of this repository.  Every case in ``CASES`` runs
once per tree, with ``PYTHONPATH=<tree>/src``, in a fresh temporary
directory that holds only the case's config files.  The exit code, stdout,
stderr and every file left in that directory must match byte for byte;
the tree's own path and the temporary directory are written as ``<tree>``
and ``<cwd>`` before the comparison, so a traceback compares by content.
Every difference is printed, and the exit status is 1 if there is one.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

The full list takes about a minute on two cores.

With ``--coretypes A,B`` the tool runs every case of one tree twice instead,
under ``OPENBLAS_CORETYPE=A`` and ``=B``.  For each output file in which a
number moved (stdout counts as one) it prints the largest move between the
two runs, relative to max(1, |number under A|), and how many numbers moved.
A file whose text around the numbers differs, or a case whose exit code
differs, is reported as such and sets exit status 1.  OpenBLAS cannot run a kernel above the
host's instruction set, so a kernel is refused unless ``/proc/cpuinfo``
lists the flag it needs (``KERNEL_FLAGS``).

    python3 tools/compare_outputs.py --coretypes SkylakeX,Haswell TREE
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass

RATES = """\
gamma_a = 0.03
gamma_b = 0.03
gamma_c = 0.03
k1 = 1.0
k2 = 0.4
k3 = 0.4
"""
# branch defaults to auto: the two coexisting branches, one file each.
BISTABLE = RATES + "epsilon_mode = rel_eps_th_prime\nepsilon_ratio = 2.2\n"
BETWEEN = RATES + "epsilon_mode = rel_eps_th\nepsilon_ratio = 1.2\n"
BELOW = RATES + "epsilon_mode = rel_eps_th\nepsilon_ratio = 0.8\n"
# k1 = 2 k2 sqrt(gamma_b / gamma_c): the two thresholds coincide.
COINCIDENT = RATES.replace("0.4", "0.5")
# k1 < 2 k2 sqrt(gamma_b / gamma_c): the couplings have no threshold.
NO_THRESHOLD_RATES = RATES.replace("0.4", "0.6")
NO_THRESHOLD = (NO_THRESHOLD_RATES
                + "epsilon_mode = rel_eps_th\nepsilon_ratio = 1.8\nbranch = lower\n")
# epsilon_mode -> (the pump key it needs, the key it refuses).
PUMP_KEYS = {"absolute": ("epsilon_abs", "epsilon_ratio"),
             "rel_eps_th": ("epsilon_ratio", "epsilon_abs"),
             "rel_eps_th_prime": ("epsilon_ratio", "epsilon_abs")}

# ω = 0 on a linear grid: the trivial branch below threshold decays; the
# converted lower branch between the thresholds has an exact neutral mode.
ZERO_TRIVIAL = BELOW + "branch = trivial\nomega_scale = linear\nomega_min = 0\nomega_points = 5\n"
ZERO_LOWER = BETWEEN + "branch = lower\nomega_scale = linear\nomega_min = 0\nomega_points = 3\n"

# Full-precision relaxation results: repr of every field a relaxation
# returns, so a change in any bit of the integrator's floats shows.
RELAX = """\
from cascaded_fwm import SystemParams, relax_to_steady_state, sample_initial_conditions
from cascaded_fwm.cli import figure_config, parse_config


def show(result):
    branch = None if result.matched is None else result.matched.branch.value
    print(repr(result.status), repr(result.elapsed), repr(result.residual),
          repr(result.distance), repr(branch))
    print(repr(result.amplitudes.tolist()))


fig6 = figure_config("fig6").system()
pool = sample_initial_conditions(fig6, 4096, 12345)
"""
RELAX_CASES = {
    # The basin-relax pool: draws 0-7, and draw 31, one ulp sensitive in its
    # convergence event time.
    "fig6-pool": "for i in (*range(8), 31):\n    show(relax_to_steady_state(fig6, pool[i]))\n",
    "fig6-timeout": "show(relax_to_steady_state(fig6, pool[0], t_max=1.0))\n",
    # A run that the step budget ends, 5 accepted steps in.
    "fig6-budget": ("import cascaded_fwm.relaxation\n"
                    "cascaded_fwm.relaxation._MAX_STEPS = 5\n"
                    "show(relax_to_steady_state(fig6, pool[0]))\n"),
    # Starts where the initial step takes h0 = 1e-6: the origin (d0 = 0) and
    # the lower branch (d1 < 1e-5), a saddle that starts below tol and so
    # runs to t_max.
    "fig6-origin": "show(relax_to_steady_state(fig6, [0j] * 6))\n",
    "fig6-at-lower": ("from cascaded_fwm import Branch, state_for_branch\n"
                      "show(relax_to_steady_state(fig6, "
                      "state_for_branch(fig6, Branch.LOWER).amplitudes))\n"),
    # Criterion 4's first draw, at 2.2 eps_th_prime.
    "criterion-4": (f"params = parse_config({BISTABLE!r}).system()\n"
                    "initial = sample_initial_conditions(params, 50, 20260814)[0]\n"
                    "show(relax_to_steady_state(params, initial, match_radius=1e-6))\n"),
    # Couplings of 1e-9 leave the pumps heading for eps / gamma_a = 2e4, past
    # the divergence bound of 1e4.
    "diverged": ("params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03,\n"
                 "                      k1=1e-9, k2=1e-9, k3=1e-9, epsilon=600.0)\n"
                 "show(relax_to_steady_state(params, [0.01 + 0.02j] * 6))\n"),
}

# A 1x1 model, which the spectral layer refuses; the CLI builds only 12x12
# models and cannot reach that refusal.
ONE_BY_ONE = """\
import numpy as np
from cascaded_fwm import (Branch, FluctuationModel, ParameterError, SystemParams,
                          output_spectra, state_for_branch)

params = SystemParams(gamma_a=0.03, gamma_b=0.03, gamma_c=0.03, k1=1.0, k2=0.4, k3=0.4,
                      epsilon=0.0)
model = FluctuationModel(params, state_for_branch(params, Branch.TRIVIAL),
                         np.array([[0.7]]), np.array([[1.3]]))
try:
    print(repr(output_spectra(model, [0.3]).tolist()))
except ParameterError as error:
    print(f"ParameterError: {error}")
"""

# The guards of the witness path through the public API, each with the text
# of its error: the solve residual (a drift with a pole at omega = 0.3), the
# Hermitian residue (a complex diffusion) and the physicality check (NaN,
# infinite and indefinite spectra).
GUARDS = """\
from dataclasses import replace

import numpy as np
from cascaded_fwm import (INEQUALITIES, BasisConsistencyError, NumericalError,
                          PhysicalityError, QuadratureSpectrum, build_branch_model,
                          optimize_gains, output_spectra, quadrature_transform,
                          spectral_matrix)
from cascaded_fwm.cli import parse_config


def show(call):
    try:
        result = call()
    except (NumericalError, BasisConsistencyError, PhysicalityError) as error:
        print(f"{type(error).__name__}: {error}")
    else:
        print(repr(np.asarray(result).tolist()))


params = parse_config(%r).system()
trivial = build_branch_model(params, "trivial")
""" % (BELOW,)
GUARD_CASES = {
    # M + i omega I at omega = 0.3 has a subnormal pivot: X overflows and the
    # residual is NaN there, while omega = 0.1 and 1.0 in the same stack
    # solve cleanly.  No clean spectrum is printed: the signs of its zeros
    # depend on the BLAS kernel.
    "solve-near-singular": ("m = 0.05 * np.eye(12)\n"
                            "m[0, 0] = m[1, 1] = 1e-310\n"
                            "m[0, 1], m[1, 0] = 0.3, -0.3\n"
                            "model = replace(trivial, m=m, d=np.eye(12))\n"
                            "show(lambda: output_spectra(model, [0.1, 0.3, 1.0]))\n"
                            "show(lambda: spectral_matrix(model, 0.3))\n"),
    # D (1 + i delta): within the residue budget at 1e-9, over it from the
    # middle of the descending grid at 1.5e-9, everywhere at 1e-6.
    "hermitian-complex-diffusion": (
        "grid = np.geomspace(100.0, 0.01, 9) * params.gamma_a\n"
        "for delta in (1e-9, 1.5e-9, 1e-6):\n"
        "    model = replace(trivial, d=trivial.d * (1.0 + 1j * delta))\n"
        "    show(lambda: output_spectra(model, grid))\n"
        "    show(lambda: quadrature_transform(spectral_matrix(model, 0.3 * params.gamma_a)))\n"),
    "physical-nan-indefinite": (
        "for where, bad in (((8, 9), np.nan), ((0, 0), np.inf), ((6, 6), -np.inf),\n"
        "                   ((0, 0), -1e-6), ((6, 6), -1e-6), ((6, 6), -1e-10)):\n"
        "    v = np.eye(12)\n"
        "    v[where] = bad\n"
        "    spectrum = QuadratureSpectrum(omega=0.03, omega_norm=1.0, v_out=v)\n"
        "    show(lambda: optimize_gains(INEQUALITIES[0], spectrum).value)\n"),
}

CLI = ("-m", "cascaded_fwm")
DEMOS = ("fluctuation_spectra", "monte_carlo_check", "pump_sweep",
         "thresholds_and_branches", "vlf_sweep")


@dataclass(frozen=True)
class Case:
    """One invocation: ``python ARGS`` with the ``configs`` files in its directory.

    ``{tree}`` in an argument is replaced by the tree's path.
    """

    name: str
    args: tuple
    configs: tuple = ()


def _pump_spec_error_cases() -> list:
    """``thresholds`` on each pump-spec error: the needed key missing, the refused key set, < 0."""
    cases = []
    for mode, (needed, refused) in PUMP_KEYS.items():
        head = RATES + f"epsilon_mode = {mode}\n"
        for label, text in (("missing", head),
                            ("refused", head + f"{needed} = 1.2\n{refused} = 1.2\n"),
                            ("negative", head + f"{needed} = -0.5\n")):
            cases.append(Case(f"error-pump-{mode}-{label}", (*CLI, "thresholds", "run.conf"),
                              (("run.conf", text),)))
    return cases


def _verb_cases(label: str, text: str) -> list:
    conf = (("run.conf", text),)
    return [Case("-".join((verb, *(flag.strip("-") for flag in flags), label)),
                 (*CLI, verb, "run.conf", *flags), conf)
            for verb, flags in (("thresholds", ()), ("steady-state", ()),
                                ("spectrum", ()), ("vlf-sweep", ()),
                                ("vlf-sweep", ("--zero-diffusion",)))]


CASES = (
    [Case(f"reproduce-fig{n}", (*CLI, "reproduce", f"fig{n}")) for n in range(2, 10)]
    + _verb_cases("bistable", BISTABLE)
    # Each branch's suffix goes before the last extension of out.
    + [Case("spectrum-bistable-dotted-out", (*CLI, "spectrum", "run.conf"),
            (("run.conf", BISTABLE + "omega_points = 4\nout = run.v1.csv\n"),))]
    + _verb_cases("between", BETWEEN)
    + _verb_cases("below", BELOW)
    + [Case("pump-sweep-linear", (*CLI, "pump-sweep", "run.conf"),
            (("run.conf", BETWEEN.replace("1.2", "1.8")
              + "branch = lower\nomega_scale = linear\nout = pump.csv\n"),)),
       Case("mc-validate", (*CLI, "mc-validate", "run.conf"),
            (("run.conf", BELOW + "branch = trivial\nseed = 12345\n"),))]
    # Every Monte-Carlo column, away from the reference seed and pump.
    + [Case(f"mc-validate-seed{seed}-eps{ratio}", (*CLI, "mc-validate", "run.conf"),
            (("run.conf", BELOW.replace("0.8", ratio) + f"branch = trivial\nseed = {seed}\n"),))
       for seed, ratio in ((7, "0.8"), (0, "0.5"))]
    # fig9 down to 1e-7 gamma_a, where the coarse-scan screen's gate refuses
    # the ill-conditioned gain blocks of the low frequencies.
    + [Case("pump-sweep-window-1e-7", (*CLI, "pump-sweep", "run.conf"),
            (("run.conf", RATES + "epsilon_mode = rel_eps_th_prime\nepsilon_ratio = 30\n"
              "branch = upper\nomega_min = 1e-7\nout = pump.csv\n"),)),
       # 0.999999 eps_th: the stationary covariance is valid within its
       # residual budget, and the Monte-Carlo step budget refuses the run.
       Case("mc-validate-near-threshold", (*CLI, "mc-validate", "run.conf"),
            (("run.conf", BELOW.replace("0.8", "0.999999") + "branch = trivial\n"),))]
    + [Case(f"demo-{demo}", (f"{{tree}}/demos/{demo}.py",)) for demo in DEMOS]
    + [Case(f"relax-{name}", ("-c", RELAX + body)) for name, body in RELAX_CASES.items()]
    + [Case("spectra-1x1-model", ("-c", ONE_BY_ONE))]
    + [Case(f"guard-{name}", ("-c", GUARDS + body)) for name, body in GUARD_CASES.items()]
    # Grids one row either side of a 64-row stack boundary.
    + [Case(f"{verb}-{scale}-{points}", (*CLI, verb, "run.conf"),
            (("run.conf", BETWEEN + f"branch = lower\nomega_scale = {scale}\n"
              f"omega_points = {points}\n"),))
       for verb in ("spectrum", "vlf-sweep") for scale in ("log", "linear")
       for points in (64, 65)]
    + [Case(f"{verb}-zero-omega-trivial", (*CLI, verb, "run.conf"), (("run.conf", ZERO_TRIVIAL),))
       for verb in ("spectrum", "vlf-sweep")]
    # thresholds on couplings without a threshold: eps_th, eps_th_prime and
    # their ratio print nan, and so does epsilon unless the pump is absolute.
    + [Case(f"thresholds-no-threshold-{mode}", (*CLI, "thresholds", "run.conf"),
            (("run.conf", NO_THRESHOLD_RATES + text),))
       for mode, text in (("relative", "epsilon_mode = rel_eps_th\nepsilon_ratio = 1.8\n"),
                          ("absolute", "epsilon_mode = absolute\nepsilon_abs = 0.005\n"))]
    # steady-state where no other case prints it: past the trivial state's
    # Hopf point without a threshold (margin -2.56e-2), and the fig2 point,
    # whose two coincident branches have margins of rounding noise.
    + [Case(f"steady-state-{name}", (*CLI, "steady-state", "run.conf"), (("run.conf", text),))
       for name, text in (
           ("no-threshold", NO_THRESHOLD_RATES + "epsilon_mode = absolute\nepsilon_abs = 0.01\n"),
           ("coincident", COINCIDENT + "epsilon_mode = rel_eps_th\nepsilon_ratio = 1.5\n"))]
    # Error paths.
    + _pump_spec_error_cases()
    + [Case("error-inequalities-key", (*CLI, "vlf-sweep", "run.conf"),
            (("run.conf", BETWEEN + "omega_points = 4\ninequalities = all\n"),)),
       Case("error-pump-sweep-no-threshold", (*CLI, "pump-sweep", "run.conf"),
            (("run.conf", NO_THRESHOLD),)),
       Case("error-mc-validate-marginal", (*CLI, "mc-validate", "run.conf"),
            (("run.conf", BETWEEN + "branch = lower\n"),)),
       # auto above the upper threshold: the first branch, a saddle, fails.
       Case("error-mc-validate-bistable-auto", (*CLI, "mc-validate", "run.conf"),
            (("run.conf", BISTABLE),)),
       Case("error-unwritable-out", (*CLI, "vlf-sweep", "run.conf"),
            (("run.conf", BETWEEN + "omega_points = 4\nout = missing/x.csv\n"),))]
    + [Case(f"error-{verb}-zero-omega-lower", (*CLI, verb, "run.conf"), (("run.conf", ZERO_LOWER),))
       for verb in ("spectrum", "vlf-sweep")]
    # The frequency window, the rates and couplings, and the choice keys.
    + [Case(f"error-{name}", (*CLI, verb, "run.conf"), (("run.conf", text),))
       for name, verb, text in (
           ("omega-min-zero-log", "vlf-sweep", BETWEEN + "omega_min = 0\n"),
           ("omega-min-negative-linear", "vlf-sweep",
            BETWEEN + "omega_scale = linear\nomega_min = -0.5\n"),
           ("omega-min-above-max", "vlf-sweep", BETWEEN + "omega_min = 5\nomega_max = 2\n"),
           ("pump-sweep-omega-min-zero", "pump-sweep",
            BETWEEN.replace("1.2", "1.8") + "branch = lower\nomega_scale = linear\n"
            "omega_min = 0\n"),
           ("rate-not-positive", "thresholds", BETWEEN.replace("gamma_b = 0.03", "gamma_b = 0")),
           ("k3-not-k2", "thresholds", BETWEEN.replace("k3 = 0.4", "k3 = 0.5")),
           ("unknown-epsilon-mode", "thresholds",
            BETWEEN.replace("rel_eps_th", "rel_eps_squared")),
           ("unknown-omega-scale", "vlf-sweep", BETWEEN + "omega_scale = sqrt\n"),
           ("unknown-branch", "vlf-sweep", BETWEEN + "omega_points = 4\nbranch = middle\n"))]
    # pump-sweep's branch: each one the regime at the first pump lacks, and auto.
    + [Case(f"error-pump-sweep-{name}", (*CLI, "pump-sweep", "run.conf"),
            (("run.conf", BETWEEN.replace("1.2", "1.8") + branch),))
       for name, branch in (("trivial", "branch = trivial\n"), ("auto", ""),
                            ("upper-rel-eps-th", "branch = upper\n"))]
    # Coincident thresholds: the upper branch exists from the first pump on,
    # whichever threshold the pump is measured against.
    + [Case(f"pump-sweep-coincident-upper-{mode}", (*CLI, "pump-sweep", "run.conf"),
            (("run.conf", COINCIDENT + f"epsilon_mode = {mode}\nepsilon_ratio = 3\n"
              "branch = upper\n"),))
       for mode in ("rel_eps_th", "rel_eps_th_prime")]
)


@dataclass(frozen=True)
class Outcome:
    """What one case did on one tree: exit code, streams and files, normalized."""

    code: int
    stdout: bytes
    stderr: bytes
    files: dict


def read_files(root: str) -> dict:
    """{relative path: bytes} of every file below ``root``."""
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def run_case(tree: str, case: Case, coretype: str | None = None) -> Outcome:
    """Run ``case`` on ``tree``, under ``OPENBLAS_CORETYPE=coretype`` when one is given."""
    tree = os.path.abspath(tree)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as cwd:
        for name, text in case.configs:
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        args = [arg.replace("{tree}", tree) for arg in case.args]
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, timeout=600)

        def normalize(data: bytes) -> bytes:
            for path, mark in ((cwd, b"<cwd>"), (tree, b"<tree>")):
                data = data.replace(os.fsencode(path), mark)
            return data

        return Outcome(proc.returncode, normalize(proc.stdout), normalize(proc.stderr),
                       read_files(cwd))


def _text_diff(label: str, old: bytes, new: bytes, limit: int = 12) -> list:
    lines = list(difflib.unified_diff(
        old.decode("utf-8", "replace").splitlines(),
        new.decode("utf-8", "replace").splitlines(),
        "parent", "change", lineterm="", n=0))
    shown = [f"  {line}" for line in lines[2:2 + limit]]
    if len(lines) > 2 + limit:
        shown.append(f"  ... {len(lines) - 2 - limit} more diff lines")
    return [f"{label} differs", *shown] if shown else [f"{label} differs in line endings only"]


def compare(old: Outcome, new: Outcome) -> list:
    """One message block per difference between two outcomes; empty when identical."""
    differences = []
    if old.code != new.code:
        differences.append(f"exit code {old.code} -> {new.code}")
    for label, a, b in (("stdout", old.stdout, new.stdout),
                        ("stderr", old.stderr, new.stderr)):
        if a != b:
            differences.extend(_text_diff(label, a, b))
    for name in sorted(old.files.keys() | new.files.keys()):
        if name not in new.files:
            differences.append(f"file {name} only in parent")
        elif name not in old.files:
            differences.append(f"file {name} only in change")
        elif old.files[name] != new.files[name]:
            differences.extend(_text_diff(f"file {name}", old.files[name], new.files[name]))
    return differences


def compare_trees(parent: str, change: str, cases) -> int:
    """Run every case on both trees; print each difference and count the cases that differ."""
    differing = 0
    for case in cases:
        differences = compare(run_case(parent, case), run_case(change, case))
        print(f"{case.name}: {'DIFFERS' if differences else 'identical'}")
        for line in differences:
            print(f"  {line}")
        differing += bool(differences)
    print(f"{differing} of {len(cases)} cases differ")
    return differing


# The cpuinfo flag each OpenBLAS kernel needs the host to have.
KERNEL_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def parse_coretypes(text: str) -> tuple:
    """``A,B`` as the pair of kernel names (A, B); two different known names."""
    kernels = tuple(name.strip() for name in text.split(","))
    if len(kernels) != 2 or kernels[0] == kernels[1]:
        raise argparse.ArgumentTypeError(f"expected two different kernels A,B, got {text!r}")
    unknown = [name for name in kernels if name not in KERNEL_FLAGS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown kernel {unknown[0]!r} (known: {', '.join(KERNEL_FLAGS)})")
    return kernels


def cpu_flags(cpuinfo: str) -> set:
    """The flags of the first ``flags`` line of a /proc/cpuinfo text."""
    for line in cpuinfo.splitlines():
        key, sep, value = line.partition(":")
        if sep and key.strip() == "flags":
            return set(value.split())
    return set()


def refused_kernels(kernels, flags: set) -> list:
    """One message per kernel of ``kernels`` whose cpuinfo flag ``flags`` lacks."""
    return [f"kernel {name} needs the cpu flag {KERNEL_FLAGS[name]}, which this host lacks"
            for name in kernels if KERNEL_FLAGS[name] not in flags]


def relative_moves(ref: Outcome, other: Outcome) -> dict:
    """{output: (largest move, numbers moved, numbers)} between two runs of one case.

    The outputs are stdout and every file.  A move is |b - a| / max(1, |a|)
    with a the number in ``ref``; NaN against NaN does not move, NaN against
    a number moves by inf.  The entry is None for an output whose text
    around its numbers differs, or that only one run wrote.
    """
    outputs = {"stdout": (ref.stdout, other.stdout)}
    outputs.update((name, (ref.files.get(name), other.files.get(name)))
                   for name in sorted(ref.files.keys() | other.files.keys()))
    moves = {}
    for name, (a, b) in outputs.items():
        if a is None or b is None:
            moves[name] = None
            continue
        a, b = a.decode("utf-8", "replace"), b.decode("utf-8", "replace")
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            moves[name] = None
            continue
        pairs = list(zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))))
        moved = [abs(y - x) / max(1.0, abs(x)) for x, y in pairs
                 if x != y and not (math.isnan(x) and math.isnan(y))]
        moves[name] = (max((math.inf if math.isnan(m) else m for m in moved), default=0.0),
                       len(moved), len(pairs))
    return moves


def compare_kernels(tree: str, kernels: tuple, cases) -> int:
    """Run every case of ``tree`` under both kernels; print the moves and count
    the cases whose exit code or text differs."""
    differing = 0
    for case in cases:
        ref, other = (run_case(tree, case, kernel) for kernel in kernels)
        moves = relative_moves(ref, other)
        differs = ref.code != other.code or None in moves.values()
        lines = [] if ref.code == other.code else [f"exit code {ref.code} -> {other.code}"]
        for name, move in moves.items():
            if move is None:
                lines.append(f"{name}: text differs")
            elif move[1]:
                lines.append(f"{name}: largest move {move[0]:.1e} ({move[1]} of {move[2]} moved)")
        print(f"{case.name}: {'DIFFERS' if differs else 'same text'}")
        for line in lines:
            print(f"  {line}")
        differing += differs
    print(f"{differing} of {len(cases)} cases differ beyond their numbers "
          f"({kernels[0]} -> {kernels[1]})")
    return differing


def main(argv=None, cpuinfo: str = "/proc/cpuinfo") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="TREE",
                        help="PARENT_DIR CHANGE_DIR, or one TREE with --coretypes")
    parser.add_argument("--coretypes", type=parse_coretypes, metavar="A,B",
                        help="run one tree under OPENBLAS_CORETYPE=A and =B and print "
                             "the largest relative move per output file")
    args = parser.parse_args(argv)
    if len(args.trees) != (1 if args.coretypes else 2):
        parser.error("give PARENT_DIR CHANGE_DIR, or --coretypes A,B and one TREE")
    if args.coretypes:
        with open(cpuinfo, encoding="utf-8") as fh:
            refused = refused_kernels(args.coretypes, cpu_flags(fh.read()))
        if refused:
            parser.error("; ".join(refused))
        return 1 if compare_kernels(args.trees[0], args.coretypes, CASES) else 0
    return 1 if compare_trees(*args.trees, CASES) else 0


if __name__ == "__main__":
    sys.exit(main())
