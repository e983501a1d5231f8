"""The four benchmark workloads: inputs, one unit of work, and its check.

Each workload is a class built inside a fresh worker process.  Building it
is the measured set-up: it imports ``cascaded_fwm.cli`` and parses the
workload's configs.  ``unit(i)`` performs unit ``i`` exactly as a user
would (through the CLI or the public API) and returns what the check needs;
``check(i, result)`` returns a list of problems, empty when the output is
correct.  Every call into the package goes through a module attribute
looked up at call time, so the tracer can rebind those attributes.

The workloads, and why each was chosen (see README.md):

* ``figure-sweeps``: ``vlf-sweep`` on the packaged fig2-fig7 configs;
  almost all time is the per-frequency spectra -> optimize_gains chain.
* ``pump-sweep``: ``reproduce fig8`` / ``fig9``; 63 sequential
  ``min_over_frequency`` calls per unit.
* ``mc-oracle``: ``mc-validate`` on the trivial-branch point at 0.8 eps_th,
  then ``simulate_ou`` + ``estimate_spectrum`` at the same point; the
  Euler-Maruyama oracle dominates and the witnesses are never evaluated.
* ``basin-relax``: one ``relax_to_steady_state`` per unit at the fig6
  point, from seeded random initial conditions.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Mirrors the CLI's fixed choices; they define the stated work per unit.
# One witness per symmetry class, in the CSV's column order.
CLASS_REPRESENTATIVES = ("s1-i1", "p1+s1", "i2-p1")
PUMP_POINTS = 21
MC_PATHS = 64
SPECTRUM_LENGTH = 4096
SPECTRUM_PATHS = 8
SPECTRUM_OMEGAS = (0.2, 0.5, 1.0, 2.0)
# Computed, not measured: the complex128 path array simulate_ou returns.
SIMULATE_OU_BYTES = SPECTRUM_PATHS * (6 * SPECTRUM_LENGTH + 1) * 12 * 16
BASIN_POOL = 4096


def load_meta() -> dict:
    with open(os.path.join(REFERENCE_DIR, "meta.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_reference_csv(name: str, reference_dir=REFERENCE_DIR) -> list:
    """Rows (lists of strings, header first) of one stored fingerprint."""
    with gzip.open(os.path.join(reference_dir, name + ".csv.gz"), "rt",
                   encoding="utf-8", newline="") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def compare_rows(rows: list, reference: list, rel_tol: float,
                 numeric_from: int = 0) -> list:
    """Problems found comparing CSV rows against a stored fingerprint.

    Headers and non-numeric cells must match exactly; numeric cells from
    column ``numeric_from`` on must agree to ``rel_tol`` scaled by
    max(1, |reference|), the scaling criterion 8 uses for witness values.
    """
    if not rows or rows[0] != reference[0]:
        return ["CSV header differs from the reference"]
    if len(rows) != len(reference):
        return [f"{len(rows) - 1} data rows, reference has {len(reference) - 1}"]
    worst, where = 0.0, None
    for r, (got, want) in enumerate(zip(rows[1:], reference[1:]), start=1):
        if len(got) != len(want) or got[:numeric_from] != want[:numeric_from]:
            return [f"row {r} layout differs from the reference"]
        for c in range(numeric_from, len(want)):
            a, b = float(got[c]), float(want[c])
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return [f"row {r} column {c}: {a!r} vs reference {b!r}"]
                continue
            dev = abs(a - b) / max(1.0, abs(b))
            if dev > worst:
                worst, where = dev, (r, c)
    if worst > rel_tol:
        return [f"max scaled deviation {worst:.3e} > {rel_tol:.0e} "
                f"at row {where[0]} column {where[1]}"]
    return []


# Calibration tasks.  Each is a fixed ~8 ms task shaped like one
# workload's hot loop that calls nothing in the package, so no change to the
# program changes its time.  Unit times are divided by it: on a shared host
# both drift with the load of other tenants, by up to a factor of two from
# minute to minute, and their ratio far less.  A task shaped like another
# workload tracks less well (for mc-oracle the spectral task left a 11%
# spread over 15 s windows, the Euler-Maruyama one 5%).

def spectral_calibration() -> float:
    """12x12 complex solves, products, eigvalsh, lstsq and Python arithmetic."""
    import numpy as np

    eye = np.eye(12)
    a = np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (12, 12)) + 12.0 * eye
    b = np.fromfunction(lambda i, j: np.cos(i - j), (12, 12))
    start = time.perf_counter()
    for k in range(60):
        x = np.linalg.solve(a + (0.01j * k) * eye, b)
        y = np.linalg.solve(a - (0.01j * k) * eye, x.T).T
        v = (y @ b @ y.T).real
        w = np.linalg.eigvalsh((v + v.T) / 2.0)
        g, *_ = np.linalg.lstsq(v[:4, :4] + eye[:4, :4], v[:4, 5], rcond=1e-12)
        total = float(w[0] + g[0])
        for n in range(200):
            total += n * 0.5
    return time.perf_counter() - start


def euler_maruyama_calibration() -> float:
    """120 steps of a 64-path, 12-mode complex Euler-Maruyama loop."""
    import numpy as np

    eye = np.eye(12)
    decay = eye - 0.01 * (0.05 * eye + np.fromfunction(
        lambda i, j: 0.001 * np.cos(i + j), (12, 12)))
    b = np.fromfunction(lambda i, j: 0.01 * np.sin(i - j), (12, 12)) + 0j
    start = time.perf_counter()
    increments = np.random.default_rng(1).standard_normal((64, 120, 12))
    x = np.zeros((64, 12), dtype=complex)
    sums = np.zeros((64, 12, 12), dtype=complex)
    for t in range(120):
        x = x @ decay.T + 0.1 * (increments[:, t, :] @ b.T)
        sums += x[:, :, None] * x[:, None, :]
    return time.perf_counter() - start


def relaxation_calibration() -> float:
    """A DOP853 integration of a damped cubic 6-mode complex ODE."""
    import numpy as np
    from scipy.integrate import solve_ivp

    m = 0.05 * np.eye(6) + np.fromfunction(lambda i, j: 0.01 * np.cos(i + j), (6, 6))

    def rhs(t, u):
        a = u[:6] + 1j * u[6:]
        f = -(m @ a) - 0.01 * a * np.conj(a) * a
        return np.concatenate([f.real, f.imag])

    start = time.perf_counter()
    solve_ivp(rhs, (0.0, 200.0), np.ones(12), method="DOP853", rtol=1e-9, atol=1e-12)
    return time.perf_counter() - start


@contextlib.contextmanager
def quiet():
    """Swallow the CLI's stdout/stderr; the worker's stdout is its channel."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


class Workload:
    """Shared plumbing; subclasses set ``name``, ``work_unit``, ``round_size``
    and ``calibration``.

    A run measures whole rounds, so every unit kind of a workload is timed
    equally often.
    """

    name = ""
    work_unit = ""
    round_size = 1
    # False where the units ignore the seed (the workload is deterministic).
    seeded = True

    def __init__(self, workdir: str, seed: int):
        from cascaded_fwm import cli

        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.meta = load_meta()
        self.rel_tol = float(self.meta["rel_tol"])
        self._references = {}
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self, name: str) -> list:
        if name not in self._references:
            self._references[name] = read_reference_csv(name)
        return self._references[name]

    def at_reference_seed(self) -> bool:
        return not self.seeded or self.seed == int(self.meta["seed"])

    def _write_config(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _cli(self, argv) -> int:
        with quiet():
            return self.cli.main(argv)

    def output_path(self, i) -> str | None:
        """The CSV file unit ``i`` writes, if it writes one."""
        return None


def packaged_config_text(figure: str) -> str:
    import importlib.resources

    return importlib.resources.files("cascaded_fwm").joinpath(
        "configs", f"{figure}.conf").read_text(encoding="utf-8")


class _FigureCsv(Workload):
    """Units cycle through packaged figures; each writes one CSV to check."""

    figures = ()
    seeded = False
    calibration = staticmethod(spectral_calibration)

    def figure(self, i: int) -> str:
        return self.figures[i % len(self.figures)]

    def output_path(self, i) -> str:
        return os.path.join(self.workdir, self.configs[self.figure(i)].out)

    def check(self, i, code):
        if code != 0:
            return [f"CLI exited {code}"]
        return compare_rows(read_csv(self.output_path(i)),
                            self.reference(self.figure(i)), self.rel_tol)


class FigureSweeps(_FigureCsv):
    name = "figure-sweeps"
    work_unit = "witness optimizations"
    figures = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
    round_size = len(figures)

    def setup(self):
        self.paths = {}
        self.configs = {}
        for fig in self.figures:
            path = self._write_config(f"{fig}.conf", packaged_config_text(fig))
            self.paths[fig] = path
            self.configs[fig] = self.cli.load_config(path)

    def unit(self, i):
        return self._cli(["vlf-sweep", self.paths[self.figure(i)]])

    def decomposed_rows(self, fig) -> list:
        """The figure's CSV rows rebuilt with one public call per layer.

        Proves the traced decomposition of ``vlf-sweep`` is faithful: the
        rows must match the CLI's fingerprint to the reference tolerance.
        """
        from cascaded_fwm import spectra, vlf

        config = self.configs[fig]
        system = config.system()
        model = vlf.build_branch_model(system, config.branch)
        ineqs = [vlf.inequality_by_label(label) for label in CLASS_REPRESENTATIVES]
        rows = [self.reference(fig)[0]]
        for omega_norm in config.omega_grid():
            omega = omega_norm * system.gamma_a
            v_intra = spectra.quadrature_transform(spectra.spectral_matrix(model, omega))
            spectrum = spectra.output_spectrum(v_intra, system, omega)
            results = [vlf.optimize_gains(ineq, spectrum) for ineq in ineqs]
            row = [repr(float(omega_norm))] + [repr(r.value) for r in results]
            for r in results:
                row.extend(repr(float(g)) for g in r.gains)
            rows.append(row)
        return rows

    def work(self, i) -> int:
        return self.configs[self.figure(i)].omega_points * len(CLASS_REPRESENTATIVES)


class PumpSweep(_FigureCsv):
    name = "pump-sweep"
    work_unit = "min_over_frequency calls"
    figures = ("fig8", "fig9")
    round_size = len(figures)

    def setup(self):
        self.configs = {fig: self.cli.figure_config(fig) for fig in self.figures}

    def unit(self, i):
        return self._cli(["reproduce", self.figure(i)])

    def work(self, i) -> int:
        return PUMP_POINTS * len(CLASS_REPRESENTATIVES)


MC_CONFIG = (
    "# Criterion-12 Monte-Carlo point: trivial branch at 0.8 eps_th.\n"
    "gamma_a = 0.03\ngamma_b = 0.03\ngamma_c = 0.03\n"
    "k1 = 1.0\nk2 = 0.4\nk3 = 0.4\n"
    "epsilon_mode = rel_eps_th\nepsilon_ratio = 0.8\n"
    "branch = trivial\nseed = {seed}\nout = mc.csv\n"
)


class McOracle(Workload):
    name = "mc-oracle"
    work_unit = "Euler-Maruyama path-steps"
    calibration = staticmethod(euler_maruyama_calibration)

    def setup(self):
        self.path = self._write_config("mc.conf", MC_CONFIG.format(seed=self.seed))
        self.config = self.cli.load_config(self.path)
        self.system = self.config.system()
        self._work = None

    def output_path(self, i) -> str:
        return os.path.join(self.workdir, self.config.out)

    def unit(self, i):
        from cascaded_fwm import monte_carlo, vlf

        code = self._cli(["mc-validate", self.path])
        model = vlf.build_branch_model(self.system, "trivial")
        ensemble = monte_carlo.simulate_ou(
            model, steps=6 * SPECTRUM_LENGTH, n_paths=SPECTRUM_PATHS, seed=self.seed)
        omegas = [w * self.system.gamma_a for w in SPECTRUM_OMEGAS]
        estimate = monte_carlo.estimate_spectrum(
            ensemble, omegas, segment_length=SPECTRUM_LENGTH, skip=SPECTRUM_LENGTH)
        return code, estimate

    def check(self, i, result):
        import numpy as np

        code, estimate = result
        if code != 0:
            return [f"mc-validate exited {code} (its own analytic/MC pass failed)"]
        rows = read_csv(self.output_path(i))
        reference = self.reference("mc_validate")
        if self.at_reference_seed():
            problems = compare_rows(rows, reference, self.rel_tol, numeric_from=2)
        else:
            # The Lyapunov and spectral-integral columns do not depend on
            # the seed; the Monte-Carlo columns are checked by mc-validate.
            keep = list(range(6))
            problems = compare_rows([[r[c] for c in keep] for r in rows],
                                    [[r[c] for c in keep] for r in reference],
                                    self.rel_tol, numeric_from=2)
        expected_segments = SPECTRUM_PATHS * 5
        if estimate.n_segments != expected_segments:
            problems.append(f"{estimate.n_segments} Welch segments, "
                            f"expected {expected_segments}")
        if not (np.all(np.isfinite(estimate.values))
                and np.all(np.isfinite(estimate.stderr))):
            problems.append("non-finite spectrum estimate")
        if self.at_reference_seed() and not problems:
            problems += compare_rows(spectrum_rows(estimate),
                                     self.reference("mc_spectrum"),
                                     self.rel_tol, numeric_from=3)
        return problems

    def work(self, i) -> int:
        if self._work is None:
            from cascaded_fwm import linearization, monte_carlo, vlf

            model = vlf.build_branch_model(self.system, "trivial")
            dt = monte_carlo.default_step(model)
            relax_time = 1.0 / linearization.stability(model.m).margin
            steps = (math.ceil(8.0 * relax_time / dt)
                     + math.ceil(50.0 * relax_time / dt))
            self._work = MC_PATHS * steps + SPECTRUM_PATHS * 6 * SPECTRUM_LENGTH
        return self._work


def spectrum_rows(estimate) -> list:
    rows = [["k", "row", "col", "value_re", "value_im", "stderr"]]
    n = estimate.values.shape[1]
    for k in range(estimate.values.shape[0]):
        for i in range(n):
            for j in range(n):
                v = estimate.values[k, i, j]
                rows.append([str(k), str(i), str(j), repr(float(v.real)),
                             repr(float(v.imag)), repr(float(estimate.stderr[k, i, j]))])
    return rows


class BasinRelax(Workload):
    name = "basin-relax"
    work_unit = "relaxations"
    calibration = staticmethod(relaxation_calibration)

    def setup(self):
        from cascaded_fwm import steady_state

        self.config = self.cli.figure_config("fig6")
        self.system = self.config.system()
        self.initials = steady_state.sample_initial_conditions(
            self.system, BASIN_POOL, self.seed)
        # Unit 0, the cold unit of every fresh process, starts from the same
        # draw at every seed: relaxation time varies threefold between
        # draws, and first_unit_s is meant to show cold cost, not the draw.
        self.initials[0] = steady_state.sample_initial_conditions(
            self.system, BASIN_POOL, int(self.meta["seed"]))[0]

    def unit(self, i):
        from cascaded_fwm import steady_state

        return steady_state.relax_to_steady_state(
            self.system, self.initials[i % BASIN_POOL])

    def check(self, i, result):
        if result.status != "converged":
            return [f"relaxation status {result.status}"]
        moduli = sorted(abs(complex(a)) for a in result.amplitudes)
        attractor = sorted(self.meta["basin_attractor_moduli"])
        gap = max(abs(a - b) for a, b in zip(moduli, attractor))
        tol = float(self.meta["basin_moduli_tol"])
        if gap > tol:
            return [f"endpoint moduli {gap:.3e} from the attractor (> {tol:.0e})"]
        if self.at_reference_seed() and i < int(self.meta["basin_endpoints"]):
            rows = self.reference("basin_endpoints")
            reference = [rows[0], rows[1 + i]]
            return compare_rows([reference[0], endpoint_row(i, result)],
                                reference, self.rel_tol, numeric_from=1)
        return []

    def work(self, i) -> int:
        return 1


def endpoint_row(i: int, result) -> list:
    amps = [complex(a) for a in result.amplitudes]
    return ([str(i)] + [repr(a.real) for a in amps] + [repr(a.imag) for a in amps])


ENDPOINT_HEADER = (["unit"] + [f"re_{m}" for m in ("p2", "p1", "i1", "s1", "i2", "s2")]
                   + [f"im_{m}" for m in ("p2", "p1", "i1", "s1", "i2", "s2")])

WORKLOADS = {cls.name: cls for cls in (FigureSweeps, PumpSweep, McOracle, BasinRelax)}
