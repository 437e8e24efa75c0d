"""Closed-form survival probability and loop corrections for open chaotic cavities.

Everything here is an analytic formula: the classical exponential decay of an
open cavity, the leading quantum (weak-localization-like) enhancement of the
survival probability, and its suppression by coupling to a high-temperature
Ohmic environment.  The corrections are organised around three time scales:

* ``dwell_time``       -- mean classical escape time through the opening,
* ``heisenberg_time``  -- phase-space volume over Planck cell, the scale on
                          which the bare quantum correction becomes O(1),
* ``decoherence_time`` -- inverse of (2 x coupling x position variance), the
                          scale on which the environment kills the loop
                          interference.

The plain, Ehrenfest-gated and decoherence-free loop corrections are one
bracket, exp(-t/tau_D) tau_d^2/(T_H tau_D) g(t/tau_d) with g(y) = exp(-y) - 1 + y
switched on at 2 t_E + 2 t_lL, at zero gates, at the parameters' gates and at
tau_d = inf; only the short-time regime has a form of its own, its Taylor series.

All formula functions broadcast over numpy arrays of times.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError

__all__ = [
    "BathSpec",
    "SemiclassicalParams",
    "CorrectionCurve",
    "CorrectionTable",
    "alpha_from_bath",
    "dwell_time",
    "heisenberg_time",
    "classical_survival",
    "bare_quantum_correction",
    "decoherence_time",
    "loop_kernel",
    "loop_correction",
    "loop_correction_short_time",
    "loop_correction_ehrenfest",
    "ehrenfest_time",
    "total_survival",
    "correction_curve",
    "correction_peak",
    "figure3_curves",
]

# Relative tolerance used to declare an explicitly supplied decoherence time
# inconsistent with the one derived from (coupling, variance).
_TAU_D_CONSISTENCY_RTOL = 1e-15

# Threshold below which exp(-y) - 1 + y switches to its Taylor series.  At the
# seam both evaluations agree to ~1e-13 relative, far below any tolerance used
# downstream.
_KERNEL_SERIES_CUTOFF = 1e-3


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BathSpec:
    """High-temperature Ohmic environment.

    ``damping`` is the Ohmic spectral-density slope, ``inverse_temperature``
    the usual 1/(kT).  The white-noise (delta-kernel) reduction used by the
    rest of the package is only valid when the thermal time is short compared
    with every system frequency; pass ``characteristic_frequency`` to get a
    loud warning when that assumption is doubtful.
    """

    damping: float
    inverse_temperature: float
    hbar: float = 1.0
    characteristic_frequency: float | None = None

    def __post_init__(self) -> None:
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        if self.inverse_temperature <= 0:
            raise ValueError("inverse_temperature must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if not self.high_temperature_ok:
            warnings.warn(
                "bath is not in the high-temperature regime "
                f"(beta*hbar*omega = {self.thermal_phase:.3g} > 0.1); "
                "the white-noise decoherence kernel is unreliable here",
                stacklevel=2,
            )

    @property
    def thermal_phase(self) -> float | None:
        """beta * hbar * omega_char, or None when no frequency was given."""
        if self.characteristic_frequency is None:
            return None
        return self.inverse_temperature * self.hbar * self.characteristic_frequency

    @property
    def high_temperature_ok(self) -> bool:
        """True unless a supplied characteristic frequency violates beta*hbar*omega << 1."""
        phase = self.thermal_phase
        return phase is None or phase <= 0.1


def alpha_from_bath(bath: BathSpec) -> float:
    """Effective decoherence coupling of the white-noise kernel.

    alpha = 2 * damping / (hbar**2 * inverse_temperature), a ``ValueError`` where it
    overflows; the pair-weight exponent is alpha * integral |r - r'|^2 dt.
    """
    denom = bath.hbar**2 * bath.inverse_temperature
    alpha = 2.0 * bath.damping / denom if denom > 0.0 else math.inf
    if math.isinf(alpha):
        raise ValueError("2 * damping / (hbar**2 * inverse_temperature) overflows")
    return alpha


def decoherence_time(coupling_strength: float, position_variance: float) -> float:
    """Time scale 1/(2 alpha sigma^2) on which loop decoherence saturates."""
    if coupling_strength < 0 or position_variance < 0:
        raise ValueError("coupling and variance must be non-negative")
    denom = 2.0 * coupling_strength * position_variance
    if math.isinf(denom):
        raise ValueError("2 * coupling_strength * position_variance overflows")
    return math.inf if denom == 0.0 else 1.0 / denom


def dwell_time(area: float, opening_length: float, speed: float = 1.0) -> float:
    """Mean escape time pi*A/(l*v) of a 2-D cavity with a small opening.

    Equals (phase-space shell volume 2*pi*m*A) / (2 * opening * momentum m*v)
    for a free particle in two dimensions, so the mass cancels.
    """
    if area <= 0 or opening_length <= 0 or speed <= 0:
        raise ValueError("area, opening_length and speed must be positive")
    return math.pi * area / (opening_length * speed)


def heisenberg_time(area: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Shell volume over Planck cell: m*A/hbar for a free particle in 2-D."""
    if area <= 0 or mass <= 0 or hbar <= 0:
        raise ValueError("area, mass and hbar must be positive")
    return mass * area / hbar


@dataclass(frozen=True)
class SemiclassicalParams:
    """Bag of time scales entering the loop-correction formulas.

    ``decoherence_time`` may be supplied directly (use ``math.inf`` for a
    decoherence-free system) or derived from ``coupling_strength`` and
    ``position_variance``; supplying both redundantly is allowed only when
    they agree to 1e-15 relative.
    """

    dwell_time: float
    heisenberg_time: float
    lyapunov: float | None = None
    encounter_scale: float | None = None  # bounds |s*u| inside the linearized encounter
    coupling_strength: float | None = None
    position_variance: float | None = None
    decoherence_time: float | None = None
    encounter_shape_factor: float = 1.0
    hbar: float = 1.0
    ehrenfest_time: float = 0.0
    loop_formation_time: float = 0.0

    def __post_init__(self) -> None:
        if self.dwell_time <= 0:
            raise ValueError("dwell_time must be positive")
        if self.heisenberg_time <= 0:
            raise ValueError("heisenberg_time must be positive")
        if self.lyapunov is not None and self.lyapunov < 0:
            raise ValueError("lyapunov must be non-negative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.ehrenfest_time < 0 or self.loop_formation_time < 0:
            raise ValueError("gating times must be non-negative")
        if self.dwell_time * self.heisenberg_time < sys.float_info.min:
            raise ValueError("dwell_time * heisenberg_time underflows")

        derived = None
        if self.coupling_strength is not None and self.position_variance is not None:
            derived = decoherence_time(self.coupling_strength, self.position_variance)
        if self.decoherence_time is None:
            tau = derived if derived is not None else math.inf
            object.__setattr__(self, "decoherence_time", tau)
        else:
            if self.decoherence_time <= 0:
                raise ValueError("decoherence_time must be positive")
            if derived is not None and not _close(self.decoherence_time, derived, _TAU_D_CONSISTENCY_RTOL):
                raise ValueError(
                    "decoherence_time inconsistent with coupling_strength and "
                    f"position_variance: given {self.decoherence_time!r}, derived {derived!r}"
                )


# ---------------------------------------------------------------------------
# survival probability pieces
# ---------------------------------------------------------------------------


def classical_survival(params: SemiclassicalParams, t):
    """exp(-t/dwell_time): ergodic escape through the opening."""
    t = _check_times(t)
    return np.exp(-t / params.dwell_time)


def bare_quantum_correction(params: SemiclassicalParams, t):
    """Decoherence-free loop enhancement exp(-t/tau_D) * t^2/(2 T_H tau_D)."""
    return _gated_bracket(params, t, 0.0, 0.0, math.inf)


def loop_kernel(y):
    """exp(-y) - 1 + y, evaluated without cancellation for small y.

    This combination (~y^2/2 for small y) carries the entire decoherence
    dependence of the loop correction; evaluating it naively loses all digits
    once y < 1e-6.
    """
    y = np.asarray(y)
    small = np.abs(y) < _KERNEL_SERIES_CUTOFF
    # y^2/2 - y^3/6 + y^4/24 - y^5/120 (truncation < 3e-15 relative at |y|=1e-3),
    # on the small arguments only: its y^2 overflows past |y| ~ 1e154
    s = np.where(small, y, 0.0)
    series = s * s * (1.0 / 2.0 + s * (-1.0 / 6.0 + s * (1.0 / 24.0 - s / 120.0)))
    if np.iscomplexobj(y):
        # complex arguments come from contour-deformed quadrature; same seam
        return np.where(small, series, np.exp(-y) - 1.0 + y)
    return np.where(small, series, np.expm1(-y) + y)


def _gated_bracket(params: SemiclassicalParams, t, t_E: float, t_lL: float,
                   tau_d: float | None = None):
    """The bracket of `loop_correction_ehrenfest` at gates ``t_E`` and ``t_lL``
    and decoherence time ``tau_d`` (default: the params'); at tau_d = inf its
    tau_d^2 loop_kernel(dt/tau_d) is dt^2/2, dt = t - 2 t_E - 2 t_lL.  The factor
    tau_d^2/(T_H tau_D) is taken as (tau_d/T_H)(tau_d/tau_D) where tau_d^2 or
    T_H tau_D leaves the normal float range; outside that range itself, a ``ValueError``.
    So is dt^2/(2 T_H tau_D), as (dt/T_H)(dt/tau_D)/2, on the rows where dt^2
    or 2 T_H tau_D leaves it."""
    t = _check_times(t)
    tau_D, T_H = params.dwell_time, params.heisenberg_time
    tau_d = _effective_tau_d(params.decoherence_time if tau_d is None else tau_d, t)
    dt = np.maximum(t - 2.0 * t_E - 2.0 * t_lL, 0.0)
    # exp(-(t - t_E)/tau_D), held at 1 before t_E: exp overflows there, and the gate is shut
    decay = np.exp((t_E - np.maximum(t, t_E)) / tau_D)
    low, high = sys.float_info.min, sys.float_info.max
    if math.isinf(tau_d):
        scale = 2.0 * T_H * tau_D
        top = float(dt.max(initial=0.0))
        # below scale 1 a dt^2 under the float range can still give a bracket in it
        if 1.0 <= scale <= high and top * top <= high:
            return decay * dt * dt / scale
        with np.errstate(over="ignore", invalid="ignore"):
            bracket = decay * dt * dt / scale
            square = dt * dt
        outside = (square > high) | ((square < low) & (dt > 0.0)) | (not low <= scale <= high)
        return np.where(outside, decay * (dt / T_H) * (dt / tau_D) / 2.0, bracket)
    square, scale = tau_d * tau_d, T_H * tau_D
    prefactor = (square / scale if low <= min(square, scale) and max(square, scale) <= high
                 else (tau_d / T_H) * (tau_d / tau_D))
    if not low <= prefactor <= high:
        raise ValueError("decoherence_time**2 / (heisenberg_time * dwell_time) "
                         "leaves the float range")
    return decay * math.exp(-2.0 * t_lL / tau_d) * prefactor * loop_kernel(dt / tau_d)


def loop_correction(params: SemiclassicalParams, t):
    """Leading loop correction bracket with environmental decoherence.

    bracket(t) = exp(-t/tau_D) * tau_d^2/(T_H tau_D) * (exp(-t/tau_d) - 1 + t/tau_d)

    which for tau_d -> inf reduces to the bare t^2/(2 T_H tau_D) enhancement
    and for strong decoherence is cut down to ~ tau_d * t/(T_H tau_D).  All
    regimes take the bare form when every t is below 1e-8 tau_d.  It is
    `loop_correction_ehrenfest` with both gates at zero.
    """
    return _gated_bracket(params, t, 0.0, 0.0)


def loop_correction_short_time(params: SemiclassicalParams, t):
    """Taylor expansion of the loop correction for t << min(tau_D, tau_d).

    t^2/(2 T_H tau_D) - t^3/(6 T_H tau_D tau_d), times exp(-t/tau_D); the
    first term alone is `bare_quantum_correction`.  The neglected term is
    O(t^4 / (tau_d^2 T_H tau_D)); a ``ValueError`` where 6 T_H tau_D tau_d underflows.
    """
    t = _check_times(t)
    tau_D, T_H = params.dwell_time, params.heisenberg_time
    tau_d = _effective_tau_d(params.decoherence_time, t)
    decay = np.exp(-t / tau_D)
    out = t * t / (2.0 * T_H * tau_D)
    if not math.isinf(tau_d):
        denom = 6.0 * T_H * tau_D * tau_d
        if denom < sys.float_info.min:
            raise ValueError("6 * heisenberg_time * dwell_time * decoherence_time underflows")
        out = out - t**3 / denom
    return decay * out


def ehrenfest_time(lyapunov: float, encounter_scale: float, hbar: float) -> float:
    """log(encounter_scale/hbar)/lyapunov: time to stretch a Planck cell to classical size."""
    if lyapunov <= 0 or encounter_scale <= 0 or hbar <= 0:
        raise ValueError("lyapunov, encounter_scale and hbar must be positive")
    if encounter_scale < hbar:
        raise ValueError("encounter_scale below hbar gives a negative time")
    return math.log(encounter_scale / hbar) / lyapunov


def loop_correction_ehrenfest(params: SemiclassicalParams, t):
    """Loop correction with finite-resolution gating.

    The correction only switches on once a loop has had time to form:
    t > 2*t_E + 2*t_lL with t_E = params.ehrenfest_time and
    t_lL = params.loop_formation_time.  Past the gate,

    bracket = exp(-(t - t_E)/tau_D) * exp(-2 t_lL/tau_d)
              * tau_d^2/(T_H tau_D) * kernel((t - 2 t_E - 2 t_lL)/tau_d)

    `loop_correction` is the same code at zero gates, so at t_E = t_lL = 0
    the two are equal bit for bit.
    """
    return _gated_bracket(params, t, params.ehrenfest_time, params.loop_formation_time)


def total_survival(params: SemiclassicalParams, t, regime: str = "plain"):
    """Classical survival plus the regime's loop correction."""
    return classical_survival(params, t) + _bracket_for_regime(params, t, regime)


# regime name -> its bracket; the config's regime choices are its keys
_BRACKETS = {
    "plain": loop_correction,
    "short_time": loop_correction_short_time,
    "ehrenfest": loop_correction_ehrenfest,
}
REGIMES = tuple(_BRACKETS)


def _bracket_for_regime(params: SemiclassicalParams, t, regime: str):
    if regime not in _BRACKETS:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    return _BRACKETS[regime](params, t)


# ---------------------------------------------------------------------------
# curves, peaks, tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrectionCurve:
    """Loop-correction bracket sampled on a time grid."""

    times: np.ndarray
    bracket: np.ndarray
    regime: str
    params: SemiclassicalParams

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        bracket = np.asarray(self.bracket, dtype=float)
        if times.ndim != 1 or times.shape != bracket.shape:
            raise ValueError("times and bracket must be matching 1-D arrays")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bracket", bracket)
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


def correction_curve(params: SemiclassicalParams, times, regime: str = "plain") -> CorrectionCurve:
    """Evaluate the requested bracket on a time grid."""
    times = _check_times(times)
    return CorrectionCurve(
        times=times,
        bracket=_bracket_for_regime(params, times, regime),
        regime=regime,
        params=params,
    )


def correction_peak(params: SemiclassicalParams, regime: str = "plain",
                    telemetry: dict | None = None) -> tuple[float, float]:
    """Location and value of the interior maximum of the bracket.

    Grid scan (log-spaced near the origin, linear beyond) to bracket the
    maximum, then golden-section search inside the bracket.  For
    tau_d -> inf the peak sits at exactly 2*tau_D.  A ``telemetry`` dict, if
    given, receives ``evaluations``: the bracket evaluations of the
    golden-section search.
    """
    tau_D = params.dwell_time
    tau_d = params.decoherence_time
    scale = max(tau_D, min(tau_d, 1e3 * tau_D) if not math.isinf(tau_d) else tau_D)
    t_hi = 20.0 * scale
    t_lo = 1e-9 * tau_D
    gate = 2.0 * params.ehrenfest_time + 2.0 * params.loop_formation_time
    if regime == "ehrenfest" and gate > 0:
        t_lo = gate + 1e-12 * tau_D
        t_hi = max(t_hi, gate + 20.0 * scale)

    grid = np.unique(
        np.concatenate(
            [
                np.geomspace(t_lo, t_hi, 2048),
                np.linspace(t_lo, t_hi, 2048),
            ]
        )
    )
    values = np.asarray(_bracket_for_regime(params, grid, regime), dtype=float)
    k = int(np.argmax(values))
    if k == 0 or k == len(grid) - 1 or values[k] <= 0.0:
        raise NumericError(
            "no interior maximum found for the correction bracket "
            f"(argmax at grid index {k} of {len(grid)})"
        )
    t_star, evaluations = _golden_max(
        lambda t: float(_bracket_for_regime(params, np.asarray(t), regime)),
        float(grid[k - 1]), float(grid[k + 1]), 1e-12 * scale,
    )
    if telemetry is not None:
        telemetry["evaluations"] = evaluations
    return t_star, float(_bracket_for_regime(params, np.asarray(t_star), regime))


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, int]:
    """Maximiser of a unimodal ``f`` on [a, b] by golden-section search.

    Shrinks the bracket by the golden ratio per evaluation until it is at
    most ``tol`` wide (a fixed step count, so it ends even where rounding
    stalls the bracket).  Returns its midpoint and the number of ``f``
    evaluations.
    """
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    steps = max(0, math.ceil(math.log(tol / (b - a)) / math.log(r)))
    for _ in range(steps):
        if fc >= fd:  # the maximum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:  # in [c, b]
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b), 2 + steps


@dataclass(frozen=True)
class CorrectionTable:
    """Family of loop-correction curves over a shared grid (one column per tau_d)."""

    times: np.ndarray  # in units of the Heisenberg time
    columns: dict[str, np.ndarray]
    reference: np.ndarray  # decoherence-free column
    dwell_over_heisenberg: float


def figure3_curves(
    taud_over_TH: list[float],
    tauD_over_TH: float = 0.3,
    t_max_over_TH: float = 3.0,
    n_points: int = 301,
) -> CorrectionTable:
    """Loop-correction curves for a family of decoherence times.

    Times and time scales are measured in units of the Heisenberg time; the
    decoherence-free curve is always included as ``reference``.  Entries of
    ``taud_over_TH`` may be ``inf``; such columns coincide with the reference.
    """
    if tauD_over_TH <= 0:
        raise ValueError("tauD_over_TH must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max_over_TH, n_points)
    base = SemiclassicalParams(dwell_time=tauD_over_TH, heisenberg_time=1.0)
    columns: dict[str, np.ndarray] = {}
    for ratio in taud_over_TH:
        if not (ratio > 0):
            raise ValueError("taud_over_TH entries must be positive (inf allowed)")
        p = replace(base, decoherence_time=float(ratio))
        label = "inf" if math.isinf(ratio) else f"{ratio:g}"
        columns[f"taud_{label}"] = loop_correction(p, times)
    return CorrectionTable(
        times=times,
        columns=columns,
        reference=bare_quantum_correction(base, times),
        dwell_over_heisenberg=tauD_over_TH,
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _effective_tau_d(tau_d: float, t) -> float:
    """``tau_d``, or inf when every time in ``t`` is below 1e-8 tau_d: the tau_d = inf
    forms are off there by t/(3 tau_d) at most, and the finite ones lose about as
    much to cancellation (the one-leg quadrature), or overflow in tau_d^2."""
    return math.inf if np.all(np.asarray(t) < 1e-8 * tau_d) else tau_d


def _check_times(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    return t


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))
