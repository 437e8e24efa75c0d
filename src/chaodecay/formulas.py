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
tau_d = inf, and the short-time regime is the last times 1 - t/(3 tau_d).  In
every regime a bracket row outside the float range is a ``ValueError``.
`correction_peak` takes each bracket's maximum as the root of its stationarity
condition, in closed form or by Newton.

All formula functions broadcast over numpy arrays of times.
"""

from __future__ import annotations

import functools
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

# Below this y `correction_peak` takes psi(y) = y/(1 - e^-y) - 1, which loses about 2 eps/y
# to cancellation (as does loop_kernel past its series), as its series y/2 + y^2/12 - y^4/720
# + y^6/30240, under 3e-18 relative off; its Newton loop raises past _PEAK_MAX_ITERATIONS steps.
_PSI_SERIES_CUTOFF = 0.02
_PEAK_MAX_ITERATIONS = 64


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
        if not self.damping >= 0:
            raise ValueError("damping must be non-negative")
        if not self.inverse_temperature > 0:
            raise ValueError("inverse_temperature must be positive")
        if not self.hbar > 0:
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
    if not (coupling_strength >= 0 and position_variance >= 0):
        raise ValueError("coupling and variance must be non-negative")
    # a zero factor is no decoherence, also against an infinite one (0 * inf is NaN)
    denom = (2.0 * coupling_strength * position_variance
             if coupling_strength and position_variance else 0.0)
    if math.isinf(denom):
        raise ValueError("2 * coupling_strength * position_variance overflows")
    return math.inf if denom == 0.0 else 1.0 / denom


def dwell_time(area: float, opening_length: float, speed: float = 1.0) -> float:
    """Mean escape time pi*A/(l*v) of a 2-D cavity with a small opening.

    Equals (phase-space shell volume 2*pi*m*A) / (2 * opening * momentum m*v)
    for a free particle in two dimensions, so the mass cancels.
    """
    if not (area > 0 and opening_length > 0 and speed > 0):
        raise ValueError("area, opening_length and speed must be positive")
    return math.pi * area / (opening_length * speed)


def heisenberg_time(area: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Shell volume over Planck cell: m*A/hbar for a free particle in 2-D."""
    if not (area > 0 and mass > 0 and hbar > 0):
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
        if not self.dwell_time > 0:
            raise ValueError("dwell_time must be positive")
        if not self.heisenberg_time > 0:
            raise ValueError("heisenberg_time must be positive")
        if self.lyapunov is not None and not self.lyapunov >= 0:
            raise ValueError("lyapunov must be non-negative")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        if not (self.ehrenfest_time >= 0 and self.loop_formation_time >= 0):
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
            if not self.decoherence_time > 0:
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
    with np.errstate(over="ignore"):  # t/dwell_time past the float range: exp gives 0
        return np.exp(-t / params.dwell_time)


def _in_float_range(bracket):
    """``bracket(params, t)`` without numpy's float warnings, and a
    ``ValueError`` where a row is not finite: every regime's one float-range rule."""
    @functools.wraps(bracket)
    def checked(params: SemiclassicalParams, t):
        t = _check_times(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = bracket(params, t)
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"the bracket leaves the float range at t = {float(t[bad][0])!r}")
        return values
    return checked


@_in_float_range
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
    or 2 T_H tau_D leaves it.  Where exp(-x), x = (t - t_E)/tau_D, underflows or the rest
    overflows, the bracket is exp(log(rest) - x).  Run under `_in_float_range`'s errstate."""
    tau_D, T_H, t_max = params.dwell_time, params.heisenberg_time, float(t.max(initial=0.0))
    tau_d = _effective_tau_d(params.decoherence_time if tau_d is None else tau_d, t_max)
    dt = np.maximum(t - 2.0 * t_E - 2.0 * t_lL, 0.0)
    # exp(-(t - t_E)/tau_D), held at 1 before t_E: exp overflows there, and the gate is shut
    decay = np.exp((t_E - np.maximum(t, t_E)) / tau_D)
    low, high = sys.float_info.min, sys.float_info.max
    top = max(t_max - 2.0 * t_E - 2.0 * t_lL, 0.0)  # dt's largest
    if math.isinf(tau_d):
        scale = 2.0 * T_H * tau_D
        rest = (top / T_H) * (top / tau_D) / 2.0  # the largest dt^2/(2 T_H tau_D); inf past it
        value = decay * dt * dt / scale
        # below scale 1 a dt^2 under the float range can still give a bracket in it
        if not (1.0 <= scale <= high and top * top <= high):
            square = dt * dt
            outside = (square > high) | ((square < low) & (dt > 0.0)) | (not low <= scale <= high)
            value = np.where(outside, decay * (dt / T_H) * (dt / tau_D) / 2.0, value)
    else:
        square, scale = tau_d * tau_d, T_H * tau_D
        prefactor = (square / scale if low <= min(square, scale) and max(square, scale) <= high
                     else (tau_d / T_H) * (tau_d / tau_D))
        if not low <= prefactor <= high:
            raise ValueError("decoherence_time**2 / (heisenberg_time * dwell_time) "
                             "leaves the float range")
        value = decay * math.exp(-2.0 * t_lL / tau_d) * prefactor * loop_kernel(dt / tau_d)
        rest = prefactor * (top / tau_d)  # loop_kernel(y) <= y
    if (max(t_max, t_E) - t_E) / tau_D <= 745.0 and rest <= 0.25 * high:  # every row in range
        return value
    # log(0) = -inf on rows with dt = 0; the kernel is below dt/tau_d, whose log stands in
    # where the kernel overflows
    if math.isinf(tau_d):
        log_rest = 2.0 * np.log(dt) - math.log(2.0) - math.log(T_H) - math.log(tau_D)
    else:
        log_rest = (np.fmin(np.log(loop_kernel(dt / tau_d)), np.log(dt) - math.log(tau_d))
                    - 2.0 * t_lL / tau_d + math.log(prefactor))
    return np.where((decay > 0.0) & (value < np.inf), value,
                    np.exp(log_rest + (t_E - np.maximum(t, t_E)) / tau_D))


@_in_float_range
def loop_correction(params: SemiclassicalParams, t):
    """Leading loop correction bracket with environmental decoherence.

    bracket(t) = exp(-t/tau_D) * tau_d^2/(T_H tau_D) * (exp(-t/tau_d) - 1 + t/tau_d)

    which for tau_d -> inf reduces to the bare t^2/(2 T_H tau_D) enhancement
    and for strong decoherence is cut down to ~ tau_d * t/(T_H tau_D).  All
    regimes take the bare form when every t is below 1e-8 tau_d.  It is
    `loop_correction_ehrenfest` with both gates at zero.
    """
    return _gated_bracket(params, t, 0.0, 0.0)


@_in_float_range
def loop_correction_short_time(params: SemiclassicalParams, t):
    """Taylor expansion of the loop correction for t << min(tau_D, tau_d),
    exp(-t/tau_D) (t^2/(2 T_H tau_D) - t^3/(6 T_H tau_D tau_d)): `bare_quantum_correction`
    times 1 - t/(3 tau_d).  The neglected term is O(t^4 / (tau_d^2 T_H tau_D))."""
    tau_d = _effective_tau_d(params.decoherence_time, float(t.max(initial=0.0)))
    return bare_quantum_correction(params, t) * (1.0 - t / (3.0 * tau_d))


def ehrenfest_time(lyapunov: float, encounter_scale: float, hbar: float) -> float:
    """log(encounter_scale/hbar)/lyapunov: time to stretch a Planck cell to classical size."""
    if not (lyapunov > 0 and encounter_scale > 0 and hbar > 0):
        raise ValueError("lyapunov, encounter_scale and hbar must be positive")
    if encounter_scale < hbar:
        raise ValueError("encounter_scale below hbar gives a negative time")
    return math.log(encounter_scale / hbar) / lyapunov


@_in_float_range
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
    return CorrectionCurve(
        times=times,
        bracket=_bracket_for_regime(params, times, regime),
        regime=regime,
        params=params,
    )


def correction_peak(params: SemiclassicalParams, regime: str = "plain",
                    telemetry: dict | None = None) -> tuple[float, float]:
    """Location and value of the interior maximum of the bracket, the root of its
    stationarity condition.

    Past the gate (2 t_E + 2 t_lL in the ehrenfest regime, else 0) the plain and ehrenfest
    brackets are const exp(-t/tau_D) g(y), g = `loop_kernel`, y = (t - gate)/tau_d, so the
    peak solves psi(y) = g(y)/(1 - e^-y) = y/(1 - e^-y) - 1 = c, c = tau_D/tau_d.  psi is
    increasing, convex and >= max(y/2, y - 1), so Newton from y = min(2c, 1 + c) falls to
    the root, until psi(y) - c is no longer positive and falling (rounding).  The
    short-time bracket exp(-u) u^2 (1 - u/(3r)), u = t/tau_D, r = tau_d/tau_D, peaks at
    the smaller root of u^2 - 3(1 + r)u + 6r = 0, and where tau_d is effectively infinite
    (`_effective_tau_d` at gate + 2 tau_D) every peak is at exactly gate + 2 tau_D.  A
    bracket value not above 0 there is a ``NumericError``.  A ``telemetry`` dict, if
    given, receives ``iterations``: the Newton steps, 0 in the closed forms.
    """
    tau_D = params.dwell_time
    gate = (2.0 * params.ehrenfest_time + 2.0 * params.loop_formation_time
            if regime == "ehrenfest" else 0.0)
    tau_d = _effective_tau_d(params.decoherence_time, gate + 2.0 * tau_D)
    c = tau_D / tau_d
    iterations = 0
    if math.isinf(tau_d):
        t_star = gate + 2.0 * tau_D
    elif regime == "short_time":
        r = tau_d / tau_D
        t_star = tau_d * (12.0 / (3.0 * (1.0 + r) + math.sqrt(9.0 * (1.0 + r) ** 2 - 24.0 * r)))
    elif math.isinf(c):  # y = 1 + c to far below an ulp
        t_star = gate + tau_D + tau_d
    else:
        y, residual = min(2.0 * c, 1.0 + c), math.inf
        for iterations in range(_PEAK_MAX_ITERATIONS):
            rise = -math.expm1(-y)  # 1 - e^-y
            psi = (y * (0.5 + y * (1.0 / 12.0 + y * y * (-1.0 / 720.0 + y * y / 30240.0)))
                   if y < _PSI_SERIES_CUTOFF else y / rise - 1.0)
            if not 0.0 < psi - c < residual:  # at the root, to rounding
                break
            residual = psi - c
            y -= residual / (1.0 - psi * math.exp(-y) / rise)  # psi' = 1 - psi e^-y/(1 - e^-y)
        else:
            raise NumericError("the peak's Newton iteration did not settle in "
                               f"{_PEAK_MAX_ITERATIONS} steps")
        t_star = gate + tau_d * y
    if telemetry is not None:
        telemetry["iterations"] = iterations
    value = float(_bracket_for_regime(params, np.asarray(t_star), regime))
    if not value > 0.0:
        raise NumericError(f"the correction bracket is {value!r} at its peak t = {t_star!r}")
    return t_star, value


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
    if not tauD_over_TH > 0:
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


def _effective_tau_d(tau_d: float, t_max: float) -> float:
    """``tau_d``, or inf when every time, up to ``t_max``, is below 1e-8 tau_d: the tau_d = inf
    forms are off there by t/(3 tau_d) at most, and the finite ones lose about as
    much to cancellation (the one-leg quadrature), or overflow in tau_d^2."""
    return math.inf if t_max < 1e-8 * tau_d else tau_d


def _check_times(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    return t


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
