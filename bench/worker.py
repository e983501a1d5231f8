"""One benchmark process: set-up, units, checks, and a JSON report.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH:

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

It prints ``ready`` as soon as set-up is done (the parent's set-up clock
stops there), then one JSON object as its last stdout line.  Modes:

* ``probe``: set-up and the first unit only.
* ``loop``: set-up, the first unit, then whole rounds of warm units in a
  closed loop (one client, the next unit starts when the previous one has
  finished) until SECONDS have passed.
* ``trace``: like ``loop`` but alternating an untraced round with a
  traced round, so the tracing overhead (per unit, best traced round minus
  best untraced round) is measured under the same conditions; on
  ``figure-sweeps`` it first checks the decomposed chain.  Writes the
  spans to WORKDIR/spans.json.gz.
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import statistics
import sys
import time

from tracing import LAYERS, Tracer, summarize
from workloads import SIMULATE_OU_BYTES, WORKLOADS, FigureSweeps, compare_rows


def attempt(workload, i, call=None):
    """Run and check unit ``i``; returns (seconds, problems, result)."""
    start = time.perf_counter()
    try:
        result = call(i) if call is not None else workload.unit(i)
    except Exception as exc:  # a failed unit is counted, the run goes on
        return time.perf_counter() - start, [f"raised {exc!r}"], None
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(i, result)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    return elapsed, problems, result


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, AttributeError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


CAL_SHARE = 0.02


def calibrated(workload, reps: int) -> float:
    """Median seconds of ``reps`` runs of the workload's calibration task."""
    return statistics.median(workload.calibration() for _ in range(reps))


def best_round(times, round_size):
    """Seconds of one round with each unit kind (i mod round_size) at its fastest."""
    return sum(min(times[k::round_size]) for k in range(round_size))


def warm_rounds(workload, seconds, run_round):
    """Call ``run_round(start_index)`` for rounds from unit 1 until
    ``seconds`` have passed; unit 0 is the cold first unit."""
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        run_round(i)
        i += workload.round_size
        if time.perf_counter() >= deadline:
            return


def layer_metrics(workload, spans, traced_results):
    """Per-module metrics of the traced units (0 where a layer is idle)."""
    units, calls, inclusive, self_time = summarize(spans)
    n = max(len(units), 1)

    def per_call(name, scale):
        return inclusive[name] / calls[name] * scale if calls[name] else 0.0

    metrics = {}
    scales = {"us": 1e6, "ms": 1e3, "s": 1.0}
    for name, unit in PER_CALL.items():
        metrics[f"{name}.{unit}"] = per_call(name, scales[unit])
    for module, names in LAYERS.items():
        metrics[f"{module}.self_s"] = sum(
            self_time[f"{module}.{fn}"] for fn in names) / n
    metrics["spectra.spectral_matrix.calls"] = calls["spectra.spectral_matrix"] / n
    metrics["vlf.optimize_gains.calls"] = calls["vlf.optimize_gains"] / n

    em_time = (self_time["monte_carlo.mc_stationary_covariance"]
               + self_time["monte_carlo.simulate_ou"])
    metrics["monte_carlo.em_path_steps_per_s"] = (
        workload.work(0) * len(units) / em_time if em_time > 0 else 0.0)
    metrics["monte_carlo.simulate_ou.bytes"] = (
        SIMULATE_OU_BYTES if calls["monte_carlo.simulate_ou"] else 0)

    relaxations = [r for r in traced_results if hasattr(r, "status")]
    metrics["steady_state.relax_to_steady_state.converged_ratio"] = (
        sum(r.status == "converged" for r in relaxations) / len(relaxations)
        if relaxations else 0.0)
    metrics["cli.csv_bytes"] = sum(
        os.path.getsize(p) for p in
        (workload.output_path(i) for i in range(workload.round_size))
        if p is not None)
    return metrics


# Per-call inclusive time of each timed function, with its reported unit.
PER_CALL = {
    "spectra.spectral_matrix": "us",
    "spectra.quadrature_transform": "us",
    "spectra.output_spectrum": "us",
    "spectra.integrated_spectrum": "ms",
    "vlf.optimize_gains": "us",
    "vlf.sweep_frequency": "s",
    "vlf.min_over_frequency": "ms",
    "vlf.build_branch_model": "us",
    "steady_state.state_for_branch": "us",
    "steady_state.relax_to_steady_state": "s",
    "linearization.build_fluctuation_model": "us",
    "linearization.stability": "us",
    "linearization.stationary_covariance": "ms",
    "monte_carlo.factor_diffusion": "us",
    "monte_carlo.mc_stationary_covariance": "s",
    "monte_carlo.simulate_ou": "s",
    "monte_carlo.estimate_spectrum": "s",
}


def main(argv) -> int:
    mode, name, seed, seconds, workdir = argv
    workload = WORKLOADS[name](workdir, int(seed))
    print("ready", flush=True)

    tally = Tally()
    first_s, problems, _ = attempt(workload, 0)
    tally.add("unit 0", problems)
    # Calibrated after unit 0, so the calibration cannot warm anything for it.
    report = {"first_unit_s": first_s, "first_cal_s": calibrated(workload, 3)}

    if mode == "loop":
        # cals[i] is taken just before warm unit i and cals[i + 1] just after.
        times, work, cals = [], [], [calibrated(workload, 1)]

        def run_round(start):
            for i in range(start, start + workload.round_size):
                elapsed, problems, _ = attempt(workload, i)
                times.append(elapsed)
                work.append(workload.work(i))
                # About 2% of the unit's time, so that one disturbed
                # calibration cannot skew a long unit's ratio.
                reps = round(CAL_SHARE * elapsed / cals[-1])
                cals.append(calibrated(workload, min(max(reps, 1), 9)))
                tally.add(f"unit {i}", problems)

        warm_rounds(workload, float(seconds), run_round)
        report.update(unit_times=times, unit_work=work, cal_times=cals,
                      work_unit=workload.work_unit, env=environment())
    elif mode == "trace":
        if isinstance(workload, FigureSweeps):
            for fig in workload.figures:
                try:
                    problems = compare_rows(workload.decomposed_rows(fig),
                                            workload.reference(fig), workload.rel_tol)
                except Exception as exc:
                    problems = [f"raised {exc!r}"]
                tally.add(f"decomposed {fig}", problems)
        tracer = Tracer()
        untraced, traced_results = [], []

        def run_round(start):
            for i in range(start, start + workload.round_size):
                elapsed, problems, _ = attempt(workload, i)
                untraced.append(elapsed)
                tally.add(f"unit {i}", problems)
            for i in range(start, start + workload.round_size):
                _, problems, result = attempt(
                    workload, i, lambda k: tracer.run_unit(k, workload.unit, k))
                traced_results.append(result)
                tally.add(f"traced unit {i}", problems)

        warm_rounds(workload, float(seconds), run_round)
        units, *_ = summarize(tracer.spans)
        metrics = layer_metrics(workload, tracer.spans, traced_results)
        traced = [units[i] for i in sorted(units)]
        metrics["trace.overhead_s"] = (best_round(traced, workload.round_size)
                                       - best_round(untraced, workload.round_size)
                                       ) / workload.round_size
        with gzip.open(os.path.join(workdir, "spans.json.gz"), "wt",
                       encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                       "spans": tracer.spans}, fh)
        report.update(metrics=metrics, traced_units=len(units),
                      untraced_units=len(untraced), env=environment())

    report.update(attempted=tally.attempted, problems=tally.problems,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
