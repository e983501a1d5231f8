"""Tests of the benchmark itself, with tiny runs.

    python3 -m pytest bench -q

Every metric declared in BENCHMARK.json must be emitted with its unit, a
perturbed reference fingerprint must be counted as a failure, and a
checkout without the package source must fail without printing a result.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import compare_rows, read_reference_csv  # noqa: E402

SPEC = run.load_spec()
TINY = "0.01"  # one round of warm units


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def copy_checkout(dest, with_src=True):
    shutil.copytree(HERE, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(dest)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    root = copy_checkout(tmp_path)
    proc, lines = bench(root, "--workload", workload, "--seed", "3",
                        "--seconds", TINY, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert any(line.startswith(f"{workload} {name} = ") and
                   line.endswith(f" {metric['unit']}") for line in lines), name


def test_perturbed_fingerprint_is_counted_as_a_failure(tmp_path):
    root = copy_checkout(tmp_path)
    path = os.path.join(root, "bench", "reference", "fig2.csv.gz")
    rows = read_reference_csv("fig2", os.path.dirname(path))
    rows[200][1] = repr(float(rows[200][1]) * (1.0 + 1e-9))
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")

    proc, lines = bench(root, "--workload", "figure-sweeps", "--seed", "0",
                        "--seconds", TINY, "--trace", "0")
    result = json.loads(lines[-1])
    assert proc.returncode == 1
    assert not result["correct"]
    # Every fig2 unit fails: the first unit of each fresh process and one
    # per warm round; the other figures still pass.
    assert run.MIN_FRESH <= result["failed"] < result["attempted"]
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert any("FAILED" in line and "scaled deviation" in line for line in lines)


def test_compare_rows_tolerance():
    reference = [["h1", "h2"], ["a", "2.0"], ["b", "1e-20"]]
    assert compare_rows(reference, reference, 1e-12, numeric_from=1) == []
    close = [["h1", "h2"], ["a", repr(2.0 * (1 + 1e-13))], ["b", "0.0"]]
    assert compare_rows(close, reference, 1e-12, numeric_from=1) == []
    far = [["h1", "h2"], ["a", repr(2.0 * (1 + 1e-11))], ["b", "1e-20"]]
    assert compare_rows(far, reference, 1e-12, numeric_from=1)
    relabeled = [["h1", "h2"], ["c", "2.0"], ["b", "1e-20"]]
    assert compare_rows(relabeled, reference, 1e-12, numeric_from=1)


def test_checkout_without_source_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc, lines = bench(root, "--workload", "basin-relax", "--seed", "0",
                        "--seconds", TINY, "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail_of(times)
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(t > value for t in times) == 10
    assert run.tail_of([3.0, 1.0, 2.0])[:2] == (2.0, 50.0)


def test_import_time_charging():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |         numpy.linalg",
        "import time:        20 |         30 |       scipy.linalg",
        "import time:         5 |         35 |     scipy",
        "import time:         7 |        200 |   cascaded_fwm",
    ])
    assert run.charge_imports(stderr) == pytest.approx({
        "cli.import.numpy_s": 150e-6,
        "cli.import.scipy_s": 35e-6,
        "cli.import.cascaded_fwm_s": 15e-6,
    })
