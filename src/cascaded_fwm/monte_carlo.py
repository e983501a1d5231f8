"""Stochastic simulation oracle for the linearized fluctuation dynamics.

Everything analytic in this package (Lyapunov covariances, spectral
matrices) can be cross-checked by brute force: factor the diffusion matrix
as D = B B^T, integrate

    d(delta) = -M delta dt + B dW

with Euler-Maruyama, and estimate covariances and spectra from the sample
paths.  D is real, as the steady-state amplitudes are, and symmetric but
indefinite, so B is complex and the simulated (delta_alpha,
delta_alpha*) components are not pointwise conjugate; that is a
representation feature, and every comparison made here depends on B only
through B B^T.

``_checked_step`` gates ``default_step`` and every simulation: the drift
must decisively decay, and the step (0.01 / max|Re eig(M)| by default) must
resolve its fastest eigenvalue.

Paths own deterministic random streams derived from (seed, path index), so
ensembles are reproducible and embarrassingly parallel in structure; the
caller names the path count and the seed.  The
stepper works in chunks of 256 steps.  A helper thread draws every path's
normals one chunk ahead, into the second of two buffers, while the calling
thread steps the chunk before; numpy's generators release the GIL while
they fill, and each stream is still drawn in order, so every normal is the
one a serial draw gives.  The stepper forms the chunk's noise in real
products, 8 steps of rows at a time, with the real and imaginary parts of
B side by side; products that small stay on one core, where one product of
the whole chunk wakes OpenBLAS's own threads to compete with the helper.
It then runs the sequential steps in place over that array, so each step is
one small complex matrix product and one add.  The real product gives the
complex one's values: that one only adds the products of the normals' zero
imaginary parts, and the tests pin the two bit for bit, sign of zero
included.  No thread outlives a public call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, StepSizeError
from .linearization import FluctuationModel, _require_decaying
from .params import _require_count

_FACTOR_BUDGET = 1e-10
_STEP_LIMIT = 0.1  # dt * max|eig(M)| must stay below this
_CHUNK = 256  # steps per block of normals drawn from each path's stream
_PRODUCT_STEPS = 8  # steps of rows per real noise product
_TAKAGI_RTOL = 1e-12  # asymmetry and imaginary part below this count as rounding
# Steps per path of ``mc_stationary_covariance``: ~95x the most any test or
# bench unit takes (26,423, the trivial branch at 0.8 eps_th, k2 = 0.4).
_STEP_BUDGET = 2_500_000


def takagi(matrix: np.ndarray):
    """Symmetric (Autonne-Takagi) factorization a = u diag(sigma) u^T.

    Takes a real symmetric matrix, the only kind this package's diffusion
    matrices are (real amplitudes give a real D), and returns non-negative
    ``sigma`` (descending) and unitary ``u``: an eigendecomposition with an
    imaginary-unit phase absorbed into the columns of negative eigenvalues.
    Raises ``ParameterError`` unless ``matrix`` is square, non-empty, finite,
    symmetric and real, the last two up to 1e-12 * max(1, max|a|); a
    complex-typed input with a negligible imaginary part counts as real.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ParameterError(f"matrix must be square and non-empty, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix must be finite")
    scale = max(float(np.max(np.abs(a))), 1.0)
    if np.max(np.abs(a - a.T)) > _TAKAGI_RTOL * scale:
        raise ParameterError("matrix must be symmetric (a == a.T)")
    imag = float(np.max(np.abs(a.imag)))
    if imag > _TAKAGI_RTOL * scale:
        raise ParameterError(f"matrix must be real, got max|Im| = {imag:.3e}")
    a = (a + a.T) / 2.0
    eigenvalues, q = np.linalg.eigh(a.real)
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    eigenvalues, q = eigenvalues[order], q[:, order]
    phases = np.where(eigenvalues < 0.0, 1j, 1.0 + 0j)
    return np.abs(eigenvalues), q.astype(complex) * phases[None, :]


@dataclass(frozen=True)
class NoiseFactor:
    """A noise coupling B with B B^T equal to the diffusion matrix."""

    b: np.ndarray
    residual: float


def factor_diffusion(d: np.ndarray) -> NoiseFactor:
    """Factor a real symmetric diffusion matrix as D = B B^T.

    Any factor with the right outer product is acceptable; this one is
    B = u diag(sqrt(sigma)) from the Takagi factorization, which raises
    ``ParameterError`` on input that is not real, finite and symmetric.
    The residual ||B B^T - D||_max is checked against
    1e-10 * (1 + ||D||_max).
    """
    sigma, u = takagi(d)
    b = u * np.sqrt(sigma)[None, :]
    residual = float(np.max(np.abs(b @ b.T - d)))
    budget = _FACTOR_BUDGET * (1.0 + float(np.max(np.abs(d))))
    if not residual <= budget:  # NaN fails
        raise NumericalError(
            f"diffusion factorization residual {residual:.3e} exceeds {budget:.3e}"
        )
    return NoiseFactor(b=b, residual=residual)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled fluctuation paths, shape (count, steps + 1, 12)."""

    paths: np.ndarray
    dt: float
    seed: int
    count: int


def default_step(model: FluctuationModel) -> float:
    """Default Euler-Maruyama step, 0.01 / max|Re eig(M)|.

    It passes the gate of every simulation: a drift that does not
    decisively decay raises ``StabilityError``.
    """
    return _checked_step(model, None)[1]


def _checked_step(model: FluctuationModel, dt: float | None):
    """The one stability report of a simulation and its checked step.

    Requires a decisively decaying drift and dt * max|eig(M)| < 0.1;
    ``dt=None`` takes the default step, 0.01 / max|Re eig(M)|.
    """
    report = _require_decaying(model.m, "will not simulate without")
    if dt is None:
        dt = 0.01 / float(np.max(np.abs(report.eigenvalues.real)))
    fastest = float(np.max(np.abs(report.eigenvalues)))
    # Written so that a NaN step fails it too.
    if not (0.0 < dt and dt * fastest < _STEP_LIMIT):
        raise StepSizeError(
            f"dt = {dt!r} too large: need dt * max|eig(M)| < {_STEP_LIMIT} "
            f"(max|eig| = {fastest:.3e})"
        )
    return report, dt


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(path_index)])


def _euler_maruyama(model: FluctuationModel, dt: float, steps: int,
                    seed: int, x: np.ndarray):
    """Yield the states after each step, _CHUNK steps at a time.

    ``x`` holds the start state of every path, shape (n_paths, dim); it is
    not written to.  Per chunk of ``block`` steps:

    * path p draws its real normals from its own (seed, p) stream into row
      p of an (n_paths, block, dim) buffer, which gives the same values as
      drawing the whole path at once.  One helper thread makes every draw,
      one chunk ahead: it fills chunk k + 1 into the second of two
      buffers while this thread steps chunk k.  numpy's generators release
      the GIL while they fill, each stream is drawn in chunk order by that
      one thread, and a buffer is refilled only after this thread has
      copied it out, so every normal is the one a serial draw gives;
    * the normals are copied into one reused step-major buffer, and real
      products of its (block * n_paths, dim) rows with ``b_t``, whose
      columns 2j and 2j + 1 hold Re and Im of row j of B, give
      dW_t @ B^T as interleaved float pairs.  Viewed as complex and scaled
      by sqrt(dt) in place, that is the chunk's noise in a fresh
      (block, n_paths, dim) array, one (n_paths, dim) slice per step.  The
      complex product it replaces only adds terms of the normals' zero
      imaginary parts; that the BLAS sums the rest alike in its real and
      complex kernels is pinned by the tests, sign of zero included.
      sqrt(dt) stays out of ``b_t``, which would round differently.  The
      products run _PRODUCT_STEPS steps of rows at a time: one product of
      the whole chunk is large enough for OpenBLAS to wake its own worker
      threads, which then spin on the core the helper thread draws on;
    * step t overwrites its own slice in place with
      x (I - dt M)^T + noise_t and becomes the next x, so the array ends
      up holding the states.

    The yielded array is that one, viewed as (n_paths, block, dim); no
    buffer is shared between yields.  Every state, for any n_paths, is
    bitwise what the per-step ``x @ decay.T + sqrt_dt * (dW_t @ b.T)``
    gives: each step's product has the operand shapes and layouts of the
    per-step one, which matters for one path, where numpy sends a (1, dim)
    product through a vector kernel.  The helper thread is joined before
    the generator finishes, whether it is exhausted, closed or left by an
    exception; an error raised by a draw is raised here.
    """
    # Imported here, not with the module: only the simulations use it, and
    # its ~4 ms import would otherwise be paid by every command-line start.
    from concurrent.futures import ThreadPoolExecutor

    b = factor_diffusion(model.d).b
    n_paths, dim = x.shape
    # C-ordered like the complex copy numpy casts from a real decay.T; a
    # transposed layout rounds differently in the one-path vector kernel.
    decay_t = np.ascontiguousarray((np.eye(dim) - dt * model.m).T, dtype=complex)
    sqrt_dt = np.sqrt(dt)
    b_t = np.stack((b.real.T, b.imag.T), axis=-1).reshape(dim, 2 * dim)
    rngs = [_path_rng(seed, p) for p in range(n_paths)]
    starts = range(0, steps, _CHUNK)
    chunk = min(_CHUNK, steps)
    normals = np.empty((2, n_paths, chunk, dim))
    step_major = np.empty((chunk, n_paths, dim))
    tmp = np.empty((n_paths, dim), dtype=complex)

    def draw(k: int) -> np.ndarray:
        increments = normals[k % 2, :, :min(_CHUNK, steps - starts[k]), :]
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=increments[p])
        return increments

    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(draw, 0)
        for k in range(len(starts)):
            increments = ahead.result()
            if k + 1 < len(starts):
                ahead = helper.submit(draw, k + 1)
            block = increments.shape[1]
            step_normals = step_major[:block]
            step_normals[...] = increments.transpose(1, 0, 2)
            noise = np.empty((block, n_paths, 2 * dim))
            for s in range(0, block, _PRODUCT_STEPS):
                rows = slice(s, s + _PRODUCT_STEPS)
                np.matmul(step_normals[rows].reshape(-1, dim), b_t,
                          out=noise[rows].reshape(-1, 2 * dim))
            states = noise.view(complex)
            states *= sqrt_dt
            for row in states:
                np.matmul(x, decay_t, out=tmp)
                np.add(tmp, row, out=row)
                x = row
            yield states.transpose(1, 0, 2)


def simulate_ou(
    model: FluctuationModel,
    steps: int,
    n_paths: int,
    seed: int,
    dt: float | None = None,
    initial: np.ndarray | None = None,
) -> TrajectoryEnsemble:
    """Euler-Maruyama ensemble of the linear Langevin system.

    Every path starts from ``initial`` (default: the origin) and consumes
    its own random stream seeded by (seed, path index).  Requires a stable
    drift matrix and dt * max|eig(M)| < 0.1; the default step is
    0.01 / max|Re eig(M)|.  ``steps`` and ``n_paths`` must be integers
    >= 1, ``seed`` an integer >= 0 and ``initial`` a finite vector of
    shape (dim,) (``ParameterError`` otherwise).
    """
    _, dt = _checked_step(model, dt)
    steps = _require_count("steps", steps, 1)
    n_paths = _require_count("n_paths", n_paths, 1)
    seed = _require_count("seed", seed, 0)
    dim = model.m.shape[0]
    x = np.zeros((n_paths, dim), dtype=complex)
    if initial is not None:
        start = np.asarray(initial, dtype=complex)
        if start.shape != (dim,):
            raise ParameterError(f"initial must have shape ({dim},), got {start.shape}")
        if not np.all(np.isfinite(start)):
            raise ParameterError(f"initial must be finite, got {start!r}")
        x[:] = start
    paths = np.empty((n_paths, steps + 1, dim), dtype=complex)
    paths[:, 0, :] = x
    done = 1
    for states in _euler_maruyama(model, dt, steps, seed, x):
        paths[:, done:done + states.shape[1], :] = states
        done += states.shape[1]
    return TrajectoryEnsemble(paths=paths, dt=float(dt), seed=seed, count=n_paths)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Averaged cross-periodogram on a frequency grid.

    ``values[i]`` estimates the unconjugated spectral matrix at the FFT bin
    nearest the requested ``omega[i]`` (the bin center is ``omega_used[i]``);
    ``stderr`` combines the real and imaginary scatter across segments.
    """

    omega: np.ndarray
    omega_used: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_segments: int


def estimate_spectrum(
    ensemble: TrajectoryEnsemble,
    omegas,
    segment_length: int = 4096,
    skip: int = 0,
) -> SpectrumEstimate:
    """Welch-style estimate of S(omega) from sample paths.

    Splits each path (after dropping ``skip`` >= 0 burn-in samples) into
    non-overlapping Hann-windowed segments of ``segment_length`` >= 8
    samples and averages the cross-periodograms
    d t * F(omega) F(-omega)^T / sum(w**2), whose expectation is the
    two-sided spectral matrix in the e^{-i omega t} convention used by the
    analytic side.  ``omegas`` must be a scalar or 1-D, and ``skip`` and
    ``segment_length`` integers (``ParameterError`` otherwise).  The
    ensemble must be long enough that segments span several correlation
    times; that precondition is the caller's.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 1:
        raise ParameterError(f"omegas must be a scalar or 1-D, got shape {omegas.shape}")
    dt = ensemble.dt
    nyquist = np.pi / dt
    if np.isnan(omegas).any():
        raise ParameterError("requested omega is NaN")
    if np.any(np.abs(omegas) > nyquist):
        raise ParameterError(
            f"requested |omega| exceeds the Nyquist frequency {nyquist:.3e}"
        )
    segment_length = _require_count("segment_length", segment_length, 8)
    skip = _require_count("skip", skip, 0)
    data = ensemble.paths[:, skip:, :]
    usable = data.shape[1]
    if usable < segment_length:
        raise ParameterError(
            f"segment_length {segment_length} incompatible with "
            f"{usable} usable samples"
        )
    w = np.hanning(segment_length)
    w_norm = float(np.sum(w**2))
    n_seg_per_path = usable // segment_length
    dim = data.shape[2]

    bins = np.mod(np.rint(omegas * segment_length * dt / (2.0 * np.pi)).astype(int),
                  segment_length)
    omega_used = bins * 2.0 * np.pi / (segment_length * dt)
    omega_used = np.where(omega_used > nyquist,
                          omega_used - 2.0 * np.pi / dt, omega_used)
    conj_bins = (-bins) % segment_length

    per_segment = []
    for p in range(ensemble.count):
        for s in range(n_seg_per_path):
            seg = data[p, s * segment_length:(s + 1) * segment_length, :]
            f = np.fft.fft(w[:, None] * seg, axis=0)
            est = dt * f[bins, :, None] * f[conj_bins, None, :] / w_norm
            per_segment.append(est)
    per_segment = np.array(per_segment)
    n_segments = per_segment.shape[0]
    if n_segments < 2:
        raise ParameterError("need at least two segments for error estimates")
    values = per_segment.mean(axis=0)
    var = per_segment.real.var(axis=0, ddof=1) + per_segment.imag.var(axis=0, ddof=1)
    stderr = np.sqrt(var / n_segments)
    return SpectrumEstimate(
        omega=omegas,
        omega_used=omega_used,
        values=values,
        stderr=stderr,
        n_segments=n_segments,
    )


def mc_stationary_covariance(model: FluctuationModel, n_paths: int, seed: int):
    """Monte-Carlo estimate of the stationary moments <delta delta^T>.

    Integrates at the default step and takes per-path time averages over
    50 relaxation times after a burn-in of 8; no path is stored.  Returns
    (sigma_hat, stderr) where ``stderr`` combines real and imaginary
    scatter of the per-path averages, so it needs at least two paths.
    ``n_paths`` and ``seed`` are checked as in ``simulate_ou``.  Near a
    threshold the margin, and with it the relaxation time, shrinks while
    the step stays set by the fastest mode; a run that needs more than
    ``_STEP_BUDGET`` steps per path raises ``NumericalError`` before it
    simulates.
    """
    report, dt = _checked_step(model, None)
    n_paths = _require_count("n_paths", n_paths, 2,
                             " (two paths are the fewest for error estimates)")
    seed = _require_count("seed", seed, 0)
    relax_time = 1.0 / report.margin
    burn_steps = int(np.ceil(8.0 * relax_time / dt))
    avg_steps = int(np.ceil(50.0 * relax_time / dt))
    if burn_steps + avg_steps > _STEP_BUDGET:
        raise NumericalError(
            f"the stationary average needs {burn_steps + avg_steps} steps per path "
            f"at margin {report.margin:.3e}, over the budget of {_STEP_BUDGET}")
    dim = model.m.shape[0]
    x = np.zeros((n_paths, dim), dtype=complex)
    sums = np.zeros((n_paths, dim, dim), dtype=complex)
    done = 0
    for states in _euler_maruyama(model, dt, burn_steps + avg_steps, seed, x):
        kept = states[:, max(burn_steps - done, 0):, :]
        sums += kept.transpose(0, 2, 1) @ kept
        done += states.shape[1]
    per_path = sums / avg_steps
    sigma_hat = per_path.mean(axis=0)
    var = per_path.real.var(axis=0, ddof=1) + per_path.imag.var(axis=0, ddof=1)
    stderr = np.sqrt(var / n_paths)
    return sigma_hat, stderr
