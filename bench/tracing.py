"""Span recording around calls into the package's public layer functions.

The tracer never edits the program: for the duration of one traced unit it
rebinds every module attribute of ``cascaded_fwm`` that refers to a listed
function (``vlf.spectral_matrix`` and ``spectra.spectral_matrix`` alike) to
a wrapper that records a span, and restores the originals afterwards.
Calls between package modules therefore show up as nested spans, which is
what self time needs.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Public functions timed per module.  ``params`` (microsecond arithmetic)
# and ``errors`` are left out on purpose.
LAYERS = {
    "steady_state": ("state_for_branch", "relax_to_steady_state"),
    "linearization": ("build_fluctuation_model", "stability", "stationary_covariance"),
    "spectra": ("spectral_matrix", "quadrature_transform", "output_spectrum",
                "integrated_spectrum"),
    "vlf": ("optimize_gains", "sweep_frequency", "min_over_frequency",
            "build_branch_model"),
    "monte_carlo": ("factor_diffusion", "mc_stationary_covariance", "simulate_ou",
                    "estimate_spectrum", "default_step"),
    "cli": ("main",),
}
ROOT = "unit"


class Tracer:
    """Collects spans as tuples (name, start, end, parent index, unit id)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None
        self._originals = {}
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"cascaded_fwm.{module}")
            for name in names:
                self._originals[f"{module}.{name}"] = getattr(mod, name)

    def _wrap(self, span_name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self._unit)

        return traced

    def _bindings(self):
        """(module, attribute, original) for every binding of a listed function."""
        by_id = {id(fn): name for name, fn in self._originals.items()}
        found = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cascaded_fwm"
                                   or mod_name.startswith("cascaded_fwm.")):
                continue
            for attr, value in vars(mod).items():
                if id(value) in by_id:
                    found.append((mod, attr, value, by_id[id(value)]))
        return found

    def run_unit(self, unit_id, fn, *args):
        """Call ``fn(*args)`` under a root span with every layer traced."""
        bindings = self._bindings()
        for mod, attr, value, span_name in bindings:
            setattr(mod, attr, self._wrap(span_name, value))
        self._unit = unit_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            for mod, attr, value, _ in bindings:
                setattr(mod, attr, value)
            self._unit = None


def summarize(spans):
    """Per-unit totals from finished spans.

    Returns ``(units, calls, inclusive, self_by_name)`` where ``units`` maps
    unit id to root-span seconds, and the other three map span name to the
    total call count, inclusive seconds and self seconds over all units.
    Self time is a span's duration minus that of its direct children.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    units = {}
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    for index, (name, start, end, parent, unit) in enumerate(spans):
        duration = end - start
        if name == ROOT:
            units[unit] = duration
            continue
        calls[name] += 1
        inclusive[name] += duration
        self_time[name] += duration - child_time[index]
    return units, calls, inclusive, self_time
