import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(tree, workload, seed, value):
    out = tree / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    metrics = {m["name"]: {"value": value} for m in SPEC["end_to_end"]}
    record = {"result": {"metrics": metrics}, "seconds": 20, "src_sha256": str(tree),
              "env": {"python": "3"}}
    (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def run(tmp_path, capsys):
    code = load_tool().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--out", str(tmp_path / "summary.json")])
    return code, capsys.readouterr().err


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
