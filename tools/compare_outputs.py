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
"""

from __future__ import annotations

import argparse
import difflib
import os
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
    + [Case(f"demo-{demo}", (f"{{tree}}/demos/{demo}.py",)) for demo in DEMOS]
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
    # Error paths.
    + _pump_spec_error_cases()
    + [Case("error-inequalities-key", (*CLI, "vlf-sweep", "run.conf"),
            (("run.conf", BETWEEN + "omega_points = 4\ninequalities = all\n"),)),
       Case("error-pump-sweep-no-threshold", (*CLI, "pump-sweep", "run.conf"),
            (("run.conf", NO_THRESHOLD),)),
       Case("error-mc-validate-marginal", (*CLI, "mc-validate", "run.conf"),
            (("run.conf", BETWEEN + "branch = lower\n"),)),
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


def run_case(tree: str, case: Case) -> Outcome:
    tree = os.path.abspath(tree)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as cwd:
        for name, text in case.configs:
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    args = parser.parse_args(argv)
    return 1 if compare_trees(args.parent, args.change, CASES) else 0


if __name__ == "__main__":
    sys.exit(main())
