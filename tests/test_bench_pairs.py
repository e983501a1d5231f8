import importlib.util
import json
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(tree, workload, seed, value, mtime=None):
    out = tree / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    metrics = {m["name"]: {"value": value} for m in SPEC["end_to_end"]}
    record = {"result": {"metrics": metrics}, "seconds": 20, "src_sha256": str(tree),
              "env": {"python": "3"}}
    path = out / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(record))
    if mtime is not None:
        os.utime(path, (mtime, mtime))


def run(tmp_path, capsys, stdout=False):
    code = load_tool().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--out", str(tmp_path / "summary.json")])
    captured = capsys.readouterr()
    return code, captured.out if stdout else captured.err


def test_tree_without_records_is_named(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    code, err = run(tmp_path, capsys)
    assert code != 0
    assert f"no .bench_out/*-trace0.json records in {tmp_path / 'parent'}" in err
    write_record(tmp_path / "parent", "pump-sweep", 1, 2.0)
    code, err = run(tmp_path, capsys)
    assert code != 0
    assert f"records in {tmp_path / 'change'}" in err
    assert not (tmp_path / "summary.json").exists()


def test_trees_without_a_shared_pair(tmp_path, capsys):
    write_record(tmp_path / "parent", "pump-sweep", 1, 2.0)
    write_record(tmp_path / "change", "pump-sweep", 2, 1.0)
    code, err = run(tmp_path, capsys)
    assert code != 0
    assert "share no (workload, seed) pair" in err
    assert not (tmp_path / "summary.json").exists()


def test_one_shared_pair_is_summarized(tmp_path, capsys):
    write_record(tmp_path / "parent", "pump-sweep", 1, 2.0)
    write_record(tmp_path / "change", "pump-sweep", 1, 1.0)
    code, err = run(tmp_path, capsys)
    assert (code, err) == (0, "")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["workloads"]) == ["pump-sweep"]
    metric = summary["workloads"]["pump-sweep"]["metrics"]["unit_cal.p50"]
    assert metric["median_change"] == -0.5
    assert (metric["pairs_won"], metric["pairs_lost"]) == (1, 0)


def test_wins_and_losses_are_split_by_which_tree_ran_first(tmp_path, capsys):
    # Seed 1: the parent ran first and the change won.  Seeds 2 and 3: the
    # change ran first; it lost seed 2 and tied seed 3.
    for seed, old, new, parent_time, change_time in ((1, 2.0, 1.0, 1000, 2000),
                                                     (2, 1.0, 2.0, 4000, 3000),
                                                     (3, 1.0, 1.0, 6000, 5000)):
        write_record(tmp_path / "parent", "mc-oracle", seed, old, parent_time)
        write_record(tmp_path / "change", "mc-oracle", seed, new, change_time)
    code, out = run(tmp_path, capsys, stdout=True)
    assert code == 0
    entry = json.loads((tmp_path / "summary.json").read_text())["workloads"]["mc-oracle"]
    assert entry["first_written"] == ["parent", "change", "change"]
    metric = entry["metrics"]["unit_cal.p50"]
    assert (metric["pairs_won"], metric["pairs_lost"]) == (1, 1)
    assert metric["by_first_written"] == {"change": {"pairs": 2, "won": 0, "lost": 1},
                                          "parent": {"pairs": 1, "won": 1, "lost": 0}}
    assert ("mc-oracle unit_cal.p50: 1 -> 1 (+0.0%), won 1/3, parent IQR 0.5; "
            "change first won 0 lost 1 of 2, parent first won 1 lost 0 of 1") in out
