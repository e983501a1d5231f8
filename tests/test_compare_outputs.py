"""The diff logic of tools/compare_outputs.py, on two synthetic trees."""

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import pytest

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


CPUINFO = """\
processor\t: 0
model name\t: Some CPU
flags\t\t: fpu sse2 avx avx2 fma
bugs\t\t: none

processor\t: 1
flags\t\t: fpu sse2 avx avx2 fma avx512f
"""


def test_coretypes_are_two_different_known_kernels():
    tool = load_tool()
    assert tool.parse_coretypes("SkylakeX,Haswell") == ("SkylakeX", "Haswell")
    assert tool.parse_coretypes(" Haswell , Sandybridge ") == ("Haswell", "Sandybridge")
    for text in ("Haswell", "Haswell,Haswell", "SkylakeX,Haswell,Sandybridge", ""):
        with pytest.raises(argparse.ArgumentTypeError, match="two different kernels"):
            tool.parse_coretypes(text)
    with pytest.raises(argparse.ArgumentTypeError, match="unknown kernel 'Zen'"):
        tool.parse_coretypes("Haswell,Zen")


def test_a_kernel_above_the_host_flags_is_refused(tmp_path, capsys):
    tool = load_tool()
    flags = tool.cpu_flags(CPUINFO)
    assert {"avx", "avx2"} <= flags and "avx512f" not in flags
    assert tool.cpu_flags("processor\t: 0\n") == set()
    assert tool.refused_kernels(("Haswell", "Sandybridge"), flags) == []
    assert tool.refused_kernels(("SkylakeX", "Haswell"), flags) == [
        "kernel SkylakeX needs the cpu flag avx512f, which this host lacks"]
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text(CPUINFO)
    with pytest.raises(SystemExit) as info:
        tool.main(["--coretypes", "SkylakeX,Haswell", str(tmp_path)], cpuinfo=str(cpuinfo))
    assert info.value.code == 2
    assert "kernel SkylakeX needs the cpu flag avx512f" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--coretypes", "Haswell,Sandybridge", "a", "b"], ["a"],
                                  ["a", "b", "c"]])
def test_tree_count_follows_the_mode(argv, capsys):
    with pytest.raises(SystemExit) as info:
        load_tool().main(argv)
    assert info.value.code == 2
    assert "give PARENT_DIR CHANGE_DIR, or --coretypes A,B and one TREE" in capsys.readouterr().err


def test_relative_moves_scale_by_the_reference_magnitude():
    tool = load_tool()
    ref = tool.Outcome(0, b"eps=0.5\n", b"", {
        "t.csv": b"w,v\n1.0e-3,2.00000000000000000e+03\n5.0,nan\n",
        "same.csv": b"a\n1\n"})
    other = tool.Outcome(0, b"eps=0.5\n", b"", {
        "t.csv": b"w,v\n1.5e-3,2.00000000200000000e+03\n5.0,nan\n",
        "same.csv": b"a\n1\n"})
    moves = tool.relative_moves(ref, other)
    assert moves["stdout"] == (0.0, 0, 1)
    assert moves["same.csv"] == (0.0, 0, 1)
    # 5e-4 absolute below 1 (scale 1), 2e-6 absolute at 2e3 (scale 2e3).
    largest, moved, total = moves["t.csv"]
    assert (moved, total) == (2, 4)
    assert largest == pytest.approx(5e-4, rel=1e-12)
    nan = tool.Outcome(0, b"", b"", {"t.csv": b"w,v\n1.0e-3,nan\n5.0,nan\n"})
    assert tool.relative_moves(ref, nan)["t.csv"][0] == math.inf
    text = tool.Outcome(0, b"eps=0.5 (forced)\n", b"", {"t.csv": b"w,v\n"})
    moves = tool.relative_moves(ref, text)
    assert moves["stdout"] is None and moves["t.csv"] is None and moves["same.csv"] is None


# Run as ``python -m kernel``: writes a number that depends on the kernel.
KERNEL_PROBE = """\
import os
value = {"Haswell": 1.0, "Sandybridge": 1.0 + 3e-13}[os.environ["OPENBLAS_CORETYPE"]]
open("out.csv", "w").write(f"x\\n{value!r}\\n")
"""


def test_one_tree_under_two_kernels(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "kernel.py").write_text(KERNEL_PROBE)
    case = tool.Case("kernel", ("-m", "kernel"))
    assert tool.compare_kernels(str(tmp_path), ("Haswell", "Sandybridge"), [case]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kernel: same text",
        "  out.csv: largest move 3.0e-13 (1 of 1 moved)",
        "0 of 1 cases differ beyond their numbers (Haswell -> Sandybridge)",
    ]
