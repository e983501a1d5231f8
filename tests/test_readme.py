"""The README's library quickstart runs, its config keys are complete, and the
package exports what it lists."""

import importlib
import re
from pathlib import Path

import cascaded_fwm
from cascaded_fwm import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# Public names retired in favour of one route each: minima_over_models([model])[0]
# and output_spectra(model, [w])[0]; the quadrature basis is a private constant.
REMOVED = {"vlf": ("min_over_frequencies",),
           "spectra": ("output_spectrum_at", "quadrature_basis_matrix"),
           "linearization": ("build_drift_matrix", "build_diffusion_matrix")}


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "s1-i1" in capsys.readouterr().out


def test_every_listed_export_imports():
    namespace = {}
    exec("from cascaded_fwm import *", namespace)
    assert set(cascaded_fwm.__all__) <= set(namespace)


def test_removed_entry_points_are_not_exported():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in cascaded_fwm.__all__
            assert not hasattr(cascaded_fwm, name)
            assert not hasattr(importlib.import_module(f"cascaded_fwm.{module}"), name)


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    paragraph = next(p for p in text.split("\n\n") if p.startswith("Configs are flat"))
    for key in cli._KNOWN_KEYS:
        assert f"`{key}`" in paragraph
    assert "`inequalities`" not in paragraph
