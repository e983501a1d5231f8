"""The diff logic of tools/compare_outputs.py, on two synthetic trees."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"

# Run as ``python -m probe run.conf`` from the tree's src/: copies the
# config, prints a line and names the tree's path on stderr.
PROBE = """\
import sys
from pathlib import Path
text = Path(sys.argv[1]).read_text()
Path("out").mkdir()
Path("out", "table.csv").write_text(text + {extra!r})
print("wrote out/table.csv")
print("from", Path(__file__).parents[1], file=sys.stderr)
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Registered first: the dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def make_tree(root, extra="1,2\n"):
    (root / "src").mkdir(parents=True)
    (root / "src" / "probe.py").write_text(PROBE.format(extra=extra))
    return str(root)


def run(tool, tmp_path, capsys, extra="1,2\n"):
    case = tool.Case("probe", ("-m", "probe", "run.conf"), (("run.conf", "a,b\n"),))
    differing = tool.compare_trees(make_tree(tmp_path / "parent"),
                                   make_tree(tmp_path / "change", extra), [case])
    return differing, capsys.readouterr().out


def test_identical_trees_do_not_differ(tmp_path, capsys):
    tool = load_tool()
    differing, out = run(tool, tmp_path, capsys)
    # stderr names each tree's own path, which is normalized away.
    assert differing == 0
    assert out == "probe: identical\n0 of 1 cases differ\n"


def test_trees_one_byte_apart_differ_in_that_file(tmp_path, capsys):
    tool = load_tool()
    differing, out = run(tool, tmp_path, capsys, extra="1,3\n")
    assert differing == 1
    assert out.splitlines() == [
        "probe: DIFFERS",
        "  file out/table.csv differs",
        "    @@ -2 +2 @@",
        "    -1,2",
        "    +1,3",
        "1 of 1 cases differ",
    ]


def test_exit_codes_and_missing_files_are_differences():
    tool = load_tool()
    old = tool.Outcome(0, b"wrote x\n", b"", {"x.csv": b"1\n"})
    new = tool.Outcome(2, b"", b"error: bad\n", {})
    assert tool.compare(old, old) == []
    assert tool.compare(old, new) == [
        "exit code 0 -> 2",
        "stdout differs", "  @@ -1 +0,0 @@", "  -wrote x",
        "stderr differs", "  @@ -0,0 +1 @@", "  +error: bad",
        "file x.csv only in parent",
    ]


def test_case_names_are_unique():
    names = [case.name for case in load_tool().CASES]
    assert len(names) == len(set(names))
