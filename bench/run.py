#!/usr/bin/env python3
"""The cascaded_fwm benchmark: four workloads, end-to-end and per-module metrics.

Run everything (each workload untraced, then traced), from the repository
root:

    python3 bench/run.py

Run one workload:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each untraced run starts fresh interpreters one after the other.  Each one
imports the package and parses the workload's configs (``setup_s``, clocked
from process start to its ``ready`` line) and then runs the first unit
(``first_unit_cal``).  The last of them then runs warm units in a closed
loop for the given seconds.  Unit times are divided by the workload's
calibration task, timed around each unit (see ``workloads.py``).  A traced
run times ``import cascaded_fwm.cli`` under ``-X importtime`` and runs a
worker that alternates untraced and traced rounds.  Every unit's output is
checked against the fingerprints in ``bench/reference``.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any unit failed its check, and 2 when
the run itself could not be made, for example when ``src`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Fresh processes start one after another until PROBE_SHARE of --seconds
# has passed, at least MIN_FRESH of them; the last runs the warm loop.
# setup_s and first_unit_s come from all of them.
MIN_FRESH = 3
PROBE_SHARE = 0.4
# Every run must end within 180 s; children still alive then are killed.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class RunError(Exception):
    """The run could not be made; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(mode, workload, seed, seconds, workdir, deadline):
    """Start one worker; returns (setup seconds, its JSON report)."""
    log_path = os.path.join(workdir, f"{mode}-{time.monotonic_ns()}.stderr")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            mode, workload, str(seed), str(seconds), workdir]
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                text=True, cwd=workdir, env=child_env())
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        with open(log_path, encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise RunError(f"{mode} worker for {workload} exited {proc.returncode} "
                       f"(past the {RUN_LIMIT_S:.0f} s limit?)\n{tail}")
    return setup_s, json.loads(lines[-1])


def import_times(deadline) -> dict:
    """Import cost of numpy, scipy and the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cascaded_fwm.cli"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RunError(f"import cascaded_fwm.cli failed:\n{proc.stderr[-2000:]}")
    return charge_imports(proc.stderr)


def charge_imports(importtime_stderr: str) -> dict:
    """Seconds per top package from ``-X importtime`` output.

    A dependency's subtree is charged to numpy or scipy where it first
    enters either of them (numpy modules that scipy pulls in count as
    scipy); the package's own time is its cumulative time minus both.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line.split("|")
        depth = len(field) - len(field.lstrip())
        entries.append((depth, int(cumulative), field.strip().split(".")[0]))
    deps = ("numpy", "scipy")
    totals = dict.fromkeys(deps + ("cascaded_fwm",), 0)
    # Lines are printed after their imports finish; reversed, parents come
    # before children, so a stack of open ancestors is enough.
    ancestors = []
    for depth, cumulative, top in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        tops = {a[1] for a in ancestors}
        counted = top in tops or (top in deps and tops & set(deps))
        if top in totals and not counted:
            totals[top] += cumulative
        ancestors.append((depth, top))
    numpy_s, scipy_s = totals["numpy"] * 1e-6, totals["scipy"] * 1e-6
    return {"cli.import.numpy_s": numpy_s, "cli.import.scipy_s": scipy_s,
            "cli.import.cascaded_fwm_s": totals["cascaded_fwm"] * 1e-6 - numpy_s - scipy_s}


def tail_of(times):
    """(value, percentile, beyond): the highest percentile with at least 10
    samples beyond it, or the median when fewer than 20 samples exist."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def source_identity() -> dict:
    paths = []
    for base, dirs, files in os.walk(os.path.join(SRC, "cascaded_fwm")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths.extend(os.path.join(base, name) for name in files)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_untraced(workload, seed, seconds, workdir, deadline):
    setups, firsts, reports = [], [], []
    probe_until = time.monotonic() + PROBE_SHARE * seconds
    while True:
        probing = len(reports) < MIN_FRESH - 1 or time.monotonic() < probe_until
        setup_s, report = spawn("probe" if probing else "loop", workload, seed,
                                seconds, workdir, deadline)
        setups.append(setup_s)
        firsts.append(report["first_unit_s"])
        reports.append(report)
        if not probing:
            break
    loop = reports[-1]
    times, work, cals = loop["unit_times"], loop["unit_work"], loop["cal_times"]
    ratios = [t / ((cals[i] + cals[i + 1]) / 2.0) for i, t in enumerate(times)]
    tail, percentile, beyond = tail_of(times)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["problems"]) for r in reports)
    metrics = {
        "setup_s": statistics.median(setups),
        "first_unit_cal": statistics.median(
            r["first_unit_s"] / r["first_cal_s"] for r in reports),
        "unit_cal.p50": statistics.median(ratios),
        "work_per_cal": sum(work) / sum(ratios),
        # A probe's allocations (set-up plus one unit) repeat exactly; the
        # loop's peak depends on how many units fit and on heap reuse.
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reports[:-1]) / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    # Wall-clock figures drift with the host's load (see README), so they
    # are printed and recorded without a regression bound.
    reported = {
        "first_unit_s": (statistics.median(firsts), "s"),
        "unit_s.p50": (statistics.median(times), "s"),
        "unit_s.tail": (tail, "s"),
        "unit_s.min": (min(times), "s"),
        "work_per_s": (sum(work) / sum(times), "1/s"),
        "cal_s.p50": (statistics.median(cals), "s"),
        "peak_rss_mb.loop": (loop["peak_rss_kb"] / 1024.0, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    details = {
        "env": loop["env"],
        "tail": {"percentile": percentile, "samples": len(times),
                 "beyond": beyond},
        "reported": reported,
        "work_unit": loop["work_unit"],
        "setup_samples": setups,
        "first_unit_samples": firsts,
        "unit_times": times,
        "unit_work": work,
        "cal_times": cals,
    }
    return metrics, attempted, [p for r in reports for p in r["problems"]], details


def run_traced(workload, seed, seconds, workdir, deadline):
    samples = [import_times(deadline) for _ in range(MIN_FRESH)]
    _, report = spawn("trace", workload, seed, seconds, workdir, deadline)
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics.update(report["metrics"])
    details = {"env": report["env"], "traced_units": report["traced_units"],
               "untraced_units": report["untraced_units"],
               "reported": {"fail_ratio": (len(report["problems"]) / report["attempted"],
                                           "ratio")},
               "import_samples": samples}
    return metrics, report["attempted"], report["problems"], details


def run_one(spec, workload, seed, seconds, trace):
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}-{trace}")
    os.makedirs(workdir)
    try:
        runner = run_traced if trace else run_untraced
        metrics, attempted, problems, details = runner(
            workload, seed, seconds, workdir, deadline)
        stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
        if trace:  # only the latest traced run's spans are kept
            os.replace(os.path.join(workdir, "spans.json.gz"),
                       os.path.join(OUT_DIR, f"{workload}-spans.json.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RunError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                       "both declared in BENCHMARK.json and measured")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    details.update(source_identity(), workload=workload, seed=seed,
                   seconds=seconds, trace=trace, problems=problems, result=result)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    print(json.dumps({"env": details["env"], "git_commit": details["git_commit"],
                      "src_sha256": details["src_sha256"], "seed": seed,
                      **({"tail": details["tail"]} if "tail" in details else {})}))
    for name in units:
        print(f"{workload} {name} = {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in details["reported"].items():
        print(f"{workload} {name} = {value:.6g} {unit} (reported, no bound)")
    print(f"{workload} {len(problems)} of {attempted} units failed")
    for problem in problems:
        print(f"{workload} FAILED {problem}")
    return result


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so the finally blocks stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1 for the traced per-module pass (default with "
                             "--workload: 0; without: both passes)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "cascaded_fwm", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    if args.workload:
        runs = [(args.workload, args.trace or 0)]
    else:
        passes = (0, 1) if args.trace is None else (args.trace,)
        runs = [(name, trace) for name in names for trace in passes]
    results = []
    try:
        for name, trace in runs:
            results.append(run_one(spec, name, args.seed, args.seconds, trace))
    except (RunError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{'trace' if trace else 'e2e'}/{metric}": value
                        for (name, trace), r in zip(runs, results)
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
