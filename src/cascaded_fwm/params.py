"""Model parameters, pump thresholds and operating regimes.

Six intracavity modes take part in three cascaded four-wave-mixing
processes: two pumps (p1, p2) convert into a first signal/idler pair
(s1, i1), which then mixes again with the pumps into a second pair
(s2, i2).  Everything downstream of this module (steady states,
linearized fluctuations, spectra, entanglement criteria) works in the
fixed mode order

    p2, p1, i1, s1, i2, s2

so the canonical indices live here, next to the parameter container.
The scalar argument checks every module shares (``_require_positive``,
``_require_non_negative``, ``_require_count``) live here too, in the base
layer, and so does the pump-spec rule (``_PUMP_KEYS``, ``_pump_value``).

Units are arbitrary but must be consistent: all rates (dampings,
pump amplitude, coupling strengths times squared amplitudes) share one
inverse-time unit.  Frequencies are reported externally in units of
``gamma_a``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ParameterError


def _require_positive(name: str, value) -> None:
    """Raise ``ParameterError``, keyed by ``name``, unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be finite and > 0, got {value!r}", key=name)


def _require_non_negative(name: str, value) -> None:
    """Raise ``ParameterError``, keyed by ``name``, unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}", key=name)


def _require_count(name: str, value, minimum: int, why: str = "") -> int:
    """``value`` as an int; it must be an integer (not a bool) >= ``minimum``.

    A float, even an integral one, is refused rather than truncated, so a
    seed of 1.5 cannot quietly run as seed 1.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ParameterError(f"{name} must be an integer >= {minimum}{why}, "
                             f"got {value!r}")
    return int(value)


class Mode(enum.IntEnum):
    """Canonical mode ordering used by every vector and matrix index."""

    P2 = 0
    P1 = 1
    I1 = 2
    S1 = 3
    I2 = 4
    S2 = 5


MODE_LABELS = tuple(m.name.lower() for m in Mode)
_RATE_KEYS = ("gamma_a", "gamma_b", "gamma_c", "k1", "k2", "k3")

# Mode swap that leaves the symmetric working point invariant:
# p1 <-> p2, s1 <-> i1, s2 <-> i2.
SWAP_PERMUTATION = (1, 0, 3, 2, 5, 4)


class Regime(enum.Enum):
    """Pump regime relative to the two oscillation thresholds."""

    NO_THRESHOLD = "NoThreshold"
    BELOW_THRESHOLD = "BelowThreshold"
    BETWEEN_THRESHOLDS = "BetweenThresholds"
    ABOVE_UPPER_THRESHOLD = "AboveUpperThreshold"


@dataclass(frozen=True)
class SystemParams:
    """Damping rates, coupling strengths and pump amplitude.

    Attributes
    ----------
    gamma_a : float
        Damping rate of the two pump modes p1, p2.  Strictly positive.
    gamma_b : float
        Damping rate of the first-generation pair i1, s1.  Strictly positive.
    gamma_c : float
        Damping rate of the second-generation pair i2, s2.  Strictly positive.
    k1 : float
        Coupling of the primary process p1 + p2 -> s1 + i1.  Strictly positive.
    k2, k3 : float
        Couplings of the two cascaded processes.  The model is analyzed on
        the symmetric manifold, which requires k2 == k3 exactly; asymmetric
        values are rejected at construction.  Both strictly positive.
    epsilon : float
        Classical pump amplitude driving both pump modes equally.
        Non-negative.
    """

    gamma_a: float
    gamma_b: float
    gamma_c: float
    k1: float
    k2: float
    k3: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name in _RATE_KEYS:
            _require_positive(name, getattr(self, name))
        if self.k2 != self.k3:
            raise ParameterError("the symmetric model requires k2 == k3 exactly, got "
                                 f"k2={self.k2!r}, k3={self.k3!r}", key="k3")
        _require_non_negative("epsilon", self.epsilon)

    def damping_rates(self) -> np.ndarray:
        """Per-mode amplitude damping rates in canonical mode order."""
        return np.array(
            [self.gamma_a, self.gamma_a, self.gamma_b, self.gamma_b,
             self.gamma_c, self.gamma_c]
        )

    def with_epsilon(self, epsilon: float) -> "SystemParams":
        """Copy of these parameters with the pump amplitude replaced."""
        return replace(self, epsilon=epsilon)


@dataclass(frozen=True)
class Thresholds:
    """Oscillation thresholds of the pump amplitude.

    ``eps_th`` and ``eps_th_prime`` are the lower and upper threshold pump
    amplitudes; both are None when the couplings are too weak for the
    cascade to turn on.  When defined, 0 < eps_th <= eps_th_prime.
    """

    eps_th: float | None
    eps_th_prime: float | None

    @property
    def has_threshold(self) -> bool:
        return self.eps_th is not None


# Relative width below which the threshold discriminant is treated as an
# exact double root, so that parameter sets engineered onto the coincidence
# manifold k1 = 2 k2 sqrt(gamma_b / gamma_c) report eps_th == eps_th_prime
# instead of a sqrt(rounding noise) splitting.
_DISC_CLAMP = 8.0 * np.finfo(float).eps


def compute_thresholds(params: SystemParams) -> Thresholds:
    """Closed-form pump thresholds of the cascaded oscillator.

    The nontrivial stationary amplitudes of the pump satisfy a quadratic in
    A_a**2, with roots

        A_a**2 = (k1 gamma_c -+ sqrt(k1**2 gamma_c**2 - 4 k2**2 gamma_b gamma_c))
                 / (2 k2**2)

    and the thresholds are eps = gamma_a * A_a evaluated at the two roots.
    Real roots exist iff k1 >= 2 k2 sqrt(gamma_b / gamma_c).

    Parameters
    ----------
    params : SystemParams
        Only the damping rates and couplings are used; ``epsilon`` is ignored.

    Returns
    -------
    Thresholds
    """
    kc = params.k1 * params.gamma_c
    four_kbc = 4.0 * params.k2**2 * params.gamma_b * params.gamma_c
    disc = kc * kc - four_kbc
    scale = kc * kc + four_kbc
    if abs(disc) <= _DISC_CLAMP * scale:
        disc = 0.0
    if disc < 0.0:
        return Thresholds(eps_th=None, eps_th_prime=None)
    root = math.sqrt(disc)
    denom = 2.0 * params.k2**2
    eps_lo = params.gamma_a * math.sqrt((kc - root) / denom)
    eps_hi = params.gamma_a * math.sqrt((kc + root) / denom)
    return Thresholds(eps_th=eps_lo, eps_th_prime=eps_hi)


def classify_regime(params: SystemParams, thresholds: Thresholds | None = None) -> Regime:
    """Place the pump amplitude relative to the thresholds.

    Pump amplitudes equal to a threshold are assigned to the regime below it,
    so eps == eps_th classifies as BelowThreshold and eps == eps_th_prime as
    BetweenThresholds.

    The regime says nothing about stability.  In particular NoThreshold
    does not mean stable: its only analytic state, the trivial branch,
    loses stability to a complex eigenvalue pair (a Hopf bifurcation) as
    the pump grows.  At k1 = 1, k2 = k3 = 0.6 and all dampings 0.03 the
    stability margin is +0.0161 at eps = 0.005 and -0.0256 at eps = 0.01.
    Nor does BelowThreshold: where k2 (gamma_b + gamma_c) > k1 gamma_c the
    trivial state has a Hopf point at eps_H = gamma_a sqrt((gamma_b +
    gamma_c) / k1), which at unequal dampings can lie below eps_th.  At
    gamma_a = gamma_b = 0.03, gamma_c = 0.003, k1 = 1 and k2 = k3 = 0.15,
    eps_H = 5.450e-3 < eps_th = 6.405e-3, and the margin is +3.28e-4 at
    0.99 eps_H and -3.32e-4 at 1.01 eps_H.  ``linearization.stability``
    decides.
    """
    if thresholds is None:
        thresholds = compute_thresholds(params)
    if not thresholds.has_threshold:
        return Regime.NO_THRESHOLD
    if params.epsilon <= thresholds.eps_th:
        return Regime.BELOW_THRESHOLD
    if params.epsilon <= thresholds.eps_th_prime:
        return Regime.BETWEEN_THRESHOLDS
    return Regime.ABOVE_UPPER_THRESHOLD


# epsilon_mode -> (the pump value it needs, the one it refuses, what that one needs).
_PUMP_KEYS = {
    "absolute": ("epsilon_abs", "epsilon_ratio", "a threshold-relative epsilon_mode"),
    "rel_eps_th": ("epsilon_ratio", "epsilon_abs", "epsilon_mode=absolute"),
    "rel_eps_th_prime": ("epsilon_ratio", "epsilon_abs", "epsilon_mode=absolute"),
}


def _pump_value(mode: str, ratio: float | None, absolute: float | None) -> float:
    """The value ``mode`` needs, ``absolute`` or ``ratio``; the other must be None."""
    if mode not in _PUMP_KEYS:
        raise ConfigError(f"epsilon_mode must be one of {', '.join(_PUMP_KEYS)}; "
                          f"got {mode!r}", key="epsilon_mode")
    needed, refused, refused_needs = _PUMP_KEYS[mode]
    values = {"epsilon_abs": absolute, "epsilon_ratio": ratio}
    if values[needed] is None:
        raise ConfigError(f"epsilon_mode={mode} requires {needed}")
    if values[refused] is not None:
        raise ConfigError(f"{refused} is only valid with {refused_needs}", key=refused)
    _require_non_negative(needed, values[needed])
    return float(values[needed])


def resolve_epsilon(
    params: SystemParams,
    mode: str,
    ratio: float | None = None,
    absolute: float | None = None,
) -> float:
    """Turn a pump specification (absolute or threshold-relative) into a rate.

    ``mode`` is a key of ``_PUMP_KEYS``, and ``_pump_value`` checks the spec.
    A threshold-relative pump for couplings without a threshold is a
    configuration error, not a silent fallback.
    """
    value = _pump_value(mode, ratio, absolute)
    if mode == "absolute":
        return value
    thresholds = compute_thresholds(params)
    if not thresholds.has_threshold:
        raise ConfigError(
            "threshold-relative pump requested but these couplings have no "
            "threshold (k1 < 2 k2 sqrt(gamma_b / gamma_c))"
        )
    reference = thresholds.eps_th if mode == "rel_eps_th" else thresholds.eps_th_prime
    return float(value * reference)
