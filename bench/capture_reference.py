#!/usr/bin/env python3
"""Capture the output fingerprints every benchmark unit is checked against.

    python3 bench/capture_reference.py

Runs each workload's units once at the reference seed and stores what they
produced in ``bench/reference``: the fig2-fig7 sweep CSVs, the fig8/fig9
pump-sweep CSVs, the ``mc-validate`` CSV and Welch estimate, and the first
``BASIN_ENDPOINTS`` relaxation endpoints.  Re-run it only in a change whose
purpose is to change those outputs, and say so there.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (  # noqa: E402
    ENDPOINT_HEADER,
    REFERENCE_DIR,
    WORKLOADS,
    endpoint_row,
    read_csv,
    spectrum_rows,
)

REL_TOL = 1e-12
SEED = 12345
BASIN_ENDPOINTS = 128
# Relaxation stops once |drift| < 1e-9; the slowest decaying mode (rate
# about 1.6e-2) leaves endpoint moduli within about 1e-7 of the attractor.
BASIN_MODULI_TOL = 1e-6


def require(condition, message):
    if not condition:
        raise SystemExit(f"capture failed: {message}")


def write_rows(name, rows):
    text = "\n".join(",".join(row) for row in rows) + "\n"
    path = os.path.join(REFERENCE_DIR, name + ".csv.gz")
    with open(path, "wb") as raw, gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    meta = {"rel_tol": REL_TOL, "seed": SEED, "basin_endpoints": BASIN_ENDPOINTS,
            "basin_moduli_tol": BASIN_MODULI_TOL}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    meta["captured_at_commit"] = commit or None
    with open(os.path.join(REFERENCE_DIR, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)

    workdir = os.path.join(ROOT, ".bench_out", "capture")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)  # the CLI writes its CSVs to the working directory
    try:
        for name in ("figure-sweeps", "pump-sweep"):
            workload = WORKLOADS[name](workdir, SEED)
            for i, fig in enumerate(workload.figures):
                require(workload.unit(i) == 0, f"{name} {fig} exited non-zero")
                write_rows(fig, read_csv(workload.output_path(i)))

        mc = WORKLOADS["mc-oracle"](workdir, SEED)
        code, estimate = mc.unit(0)
        require(code == 0, "mc-validate exited non-zero")
        write_rows("mc_validate", read_csv(mc.output_path(0)))
        write_rows("mc_spectrum", spectrum_rows(estimate))

        basin = WORKLOADS["basin-relax"](workdir, SEED)
        results = [basin.unit(i) for i in range(BASIN_ENDPOINTS)]
        require(all(r.status == "converged" for r in results),
                "a relaxation did not converge")
        write_rows("basin_endpoints", [ENDPOINT_HEADER] + [
            endpoint_row(i, r) for i, r in enumerate(results)])
        moduli = [sorted(abs(complex(a)) for a in r.amplitudes) for r in results]
        meta["basin_attractor_moduli"] = moduli[0]
        spread = max(abs(a - b) for m in moduli for a, b in zip(m, moduli[0]))
        require(spread <= BASIN_MODULI_TOL / 10,
                f"endpoint moduli spread {spread:.2e} is not well inside the tolerance")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(REFERENCE_DIR, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    print(f"wrote {REFERENCE_DIR} (attractor spread {spread:.2e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
