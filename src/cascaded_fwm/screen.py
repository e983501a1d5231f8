"""The certified screen of the coarse scan of every minimum search.

``vlf.minima_over_models`` keeps only the best point of each witness on its
coarse grid.  ``_exact_mask`` marks the grid points that can hold that
minimum, from the checked spectra of one scan, so that the exact gain
solve (``vlf._gain_solves``, ``dgelsd`` at rcond 1e-12) runs only there:
a vectorized Cholesky solve of every free gain block gives an approximate
optimized value with a certified error bound, derived below, and a point
whose lower bound cannot reach the smallest upper bound of its search is
skipped.  Points whose block the factorization cannot vouch for are always
solved exactly.  The margin and the gate are module constants that no
argument overrides.
"""

from __future__ import annotations

import numpy as np

# The bound.  At one grid point and one witness, v is the checked spectrum,
# H the 4x4 block of v at the free gains and r = -(v b0) there.  The
# optimized value is f(g*), with f(g) = a^T v a + b^T v b for b = b0
# carrying g at the free positions, and H g* = r.  The screen factors
# H = L L^T, solves for g~ by substitution, and takes A = f(g~) and the
# evaluation scale s = |a|^T |v| |a| + |b~|^T |v| |b~|, with b~ = b0
# carrying g~.
#
# The gate passes a point when every pivot is positive and
# T = ||L||_F^2 ||L^-1||_F^2 <= 1e8; ||L||_F^2 is tr(H) up to rounding, which
# is what T is formed from.  T = tr(H) tr(H^-1) >= cond(H) = kappa, so
# kappa <= 1e8 there, and dgelsd's rank cut (1e-12 sigma_max) cannot
# act.  Its gains and g~ then both solve (H + dH) g = r + dr with
# ||dH|| <= c u ||H|| and ||dr|| <= c u ||r|| (u = 2^-53, c a modest
# polynomial in 4, below 100; v is symmetric to within one rounding per
# entry, which dH absorbs), so they agree to O(c u kappa).  As f is
# quadratic, with minimum f(g*),
#     f(g) - f(g*) = (g - g*)^T H (g - g*) <= ||H (g - g*)||^2 / lambda_min
#                  <= 4 c^2 u^2 kappa ||H|| ||g||^2 <= 16 c^2 u^2 kappa^2 s,
# since ||H|| <= tr(H) <= 4 kappa lambda_min and s >= sum_i H_ii g_i^2 >=
# lambda_min ||g||^2.  That is below 2e-11 s for each of the two solves,
# and each evaluation of f adds less than 30 u s, so the shipped value E
# lies within 5e-11 s of A; the margin 1e-9 s is 20 times that.
#
# The rule: lo = A - 1e-9 s and hi = A + 1e-9 s, and a search's threshold
# is the smallest hi among its gated-in points (inf without one).  A
# gated-in point with lo > threshold has E >= lo > threshold >= E at the
# point that set it, so it is neither the minimum nor tied with it.  Every
# other point gets the exact solve, and the argmin over those, lowest index
# first as with np.argmin, is the full scan's.  One pass suffices: the
# threshold is at least the smallest exact value.
_MARGIN = 1e-9
_GATE = 1e8


def _rows(blocks: np.ndarray) -> np.ndarray:
    """A (P, m, k) stack as P rows of m * k entries, for any P."""
    return blocks.reshape(len(blocks), blocks.shape[1] * blocks.shape[2])


def _gather_plan(problems: tuple) -> tuple:
    """Where the screen reads each spectrum for P witnesses, and with what weights.

    ``problems`` holds P rows of ``vlf._problem_arrays``.  Every row of
    ``a`` and ``b0`` has two nonzero entries (``VlfInequality`` checks it),
    so f(g) = a^T v a + b0^T v b0 - 2 g^T r + g^T H g needs 32 entries of
    v per witness: the 16 of H, v at (free_i, y_k) for r (weight -b0_k),
    then the 2x2 blocks of a^T v a and b0^T v b0 (weights a_k a_l and
    b0_k b0_l).  Returns their flat indices into a 12x12 matrix, (32, P),
    and their weights, (32, P, 1); a minimum search builds it once.
    """
    a, b0, free = problems
    p = len(a)
    x_pair, y_pair = (np.nonzero(c)[1].reshape(p, 2) for c in (a, b0))
    x_coeffs = np.take_along_axis(a, x_pair, axis=1)
    y_coeffs = np.take_along_axis(b0, y_pair, axis=1)
    ones = np.ones((p, 4))
    blocks = ((free, ones, free, ones), (free, ones, y_pair, -y_coeffs),
              (x_pair, x_coeffs, x_pair, x_coeffs), (y_pair, y_coeffs, y_pair, y_coeffs))
    index = np.concatenate([_rows(i[:, :, None] * 12 + j[:, None, :]) for i, _, j, _ in blocks],
                           axis=1)
    weights = np.concatenate([_rows(u[:, :, None] * w[:, None, :]) for _, u, _, w in blocks],
                             axis=1)
    return index.T, weights.T[:, :, None]


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _screen_values(plan: tuple, v: np.ndarray) -> tuple:
    """A, s and T of the comment above for every (witness, point), each (P, N).

    ``plan`` is the ``_gather_plan`` of P witnesses and ``v`` (N, 12, 12)
    the checked spectra of one coarse scan.  Each step of the Cholesky
    factorization and the substitutions acts on one (P, N) array, so every
    free block is factored and solved at once.  A block that does not
    factor leaves NaN or inf in its T; floating-point flags are ignored.
    """
    index, weights = plan
    n, p = len(v), index.shape[1]
    entries = v.reshape(n, 144).T[index]
    magnitudes = np.abs(entries)
    entries *= weights
    h, habs = entries[:16].reshape(4, 4, p, n), magnitudes[:16].reshape(4, 4, p, n)
    r = entries[16:24:2] + entries[17:24:2]
    rabs = magnitudes[16:24:2] + magnitudes[17:24:2]
    base, base_abs = entries[24:].sum(axis=0), magnitudes[24:].sum(axis=0)
    # Forward substitution solves L y = r and L X = I at once: column 0 of
    # the right-hand side is r, columns 1-4 the identity.
    rhs = np.zeros((4, 5, p, n))
    rhs[:, 0] = r
    rhs[:, 1:][np.diag_indices(4)] = 1.0
    chol = [[None] * 4 for _ in range(4)]
    recip, y, g = [None] * 4, [None] * 4, [None] * 4
    for j in range(4):
        pivot = h[j, j]
        for k in range(j):
            pivot = pivot - chol[j][k] * chol[j][k]
        chol[j][j] = np.sqrt(pivot)
        recip[j] = 1.0 / chol[j][j]
        for i in range(j + 1, 4):
            entry = h[i, j]
            for k in range(j):
                entry = entry - chol[i][k] * chol[j][k]
            chol[i][j] = entry * recip[j]
    for i in range(4):
        row = rhs[i]
        for k in range(i):
            row = row - chol[i][k] * y[k]
        y[i] = row * recip[i]
    for i in reversed(range(4)):
        entry = y[i][0]
        for k in range(i + 1, 4):
            entry = entry - chol[k][i] * g[k]
        g[i] = entry * recip[i]
    trace_product = np.trace(h) * sum(np.square(row[1:]).sum(axis=0) for row in y)
    g = np.array(g)
    approx = base + (g * ((h * g).sum(axis=1) - 2.0 * r)).sum(axis=0)
    g = np.abs(g)
    scale = base_abs + (g * ((habs * g).sum(axis=1) + 2.0 * rabs)).sum(axis=0)
    return approx, scale, trace_product


def _exact_mask(plan: tuple, v: np.ndarray) -> np.ndarray:
    """The (P, N) mask of the points that each of P searches must solve exactly.

    ``plan`` and ``v`` are as in ``_screen_values``.  The mask holds every
    point the gate refuses and every point whose lo reaches its search's
    threshold.
    """
    approx, scale, trace_product = _screen_values(plan, v)
    # An overflow sends a point to the exact solve.
    gated = (trace_product <= _GATE) & np.isfinite(scale)
    margin = _MARGIN * scale
    threshold = np.where(gated, approx + margin, np.inf).min(axis=1, keepdims=True)
    return ~gated | (approx - margin <= threshold)
