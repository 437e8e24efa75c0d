"""Direct numerical evaluation of the encounter-loop diagrams.

The closed forms in :mod:`chaodecay.formulas` compress the leading quantum
correction into a single bracket.  Microscopically that bracket is a 4-fold
integral over the action coordinates (s, u) of a self-encounter and two free
times: the entry leg t' and the loop time t_loop.  This module computes the
integral directly -- for the ordinary diagram with both encounter stretches in
the interior (``two_leg``) and for the two boundary diagrams whose encounter
abuts the start or end of the trajectory (``one_leg_head``/``one_leg_tail``)
-- and lets tests verify convergence to the closed form as lambda*tau_D and
c^2/hbar grow while coupling/lambda shrinks.  The one-leg diagrams follow
Waltner, Gutierrez, Goussev & Richter, PRL 101, 174101 (2008).

Numerical strategy:

* The inner t' and t_loop integrals are elementary (a window length times an
  exponential) and are done analytically.
* Changing variables to x = s*u turns the (s, u) square into a 1-D integral:
  the log-density of x exactly cancels the 1/t_enc weight of the encounter.
* The remaining 1-D integral is parameterised by the encounter time itself,
  tau = ln(c^2/x)/lambda, and integrated with Gauss-Legendre panels split at
  the phase breakpoints of e^{i x/hbar}.  Each diagram hands the integrator
  its reduced envelope as one closure ``phi(tau)`` of the encounter time.
* Each Gauss rule is built once per node count and cached read-only.  The
  envelope is called once per block of whole panels (a ``(panels, n)`` node
  matrix of at most ``_BLOCK_NODES`` nodes), not once per panel; the panel
  sums are still added in panel order, so the result does not depend on the
  block size.
* The sharp upper cutoff |x| = c^2 injects a spurious boundary oscillation
  ~ hbar*sin(c^2/hbar) that exceeds the physical O(hbar) signal by a factor
  ~ lambda*tau_D.  Since c is an order-of-magnitude scale, not a hard wall,
  the physical answer is the smoothed-cutoff limit: we restore it by adding
  the complex-contour end correction i*e^{ic^2/hbar} * integral of the
  analytically-continued envelope up the imaginary axis (Gauss-Laguerre).
  By Cauchy's theorem, panels + end correction equals the same integral with
  its endpoint oscillation removed to all orders in hbar.
* One driver, ``_diagram``, runs every diagram: it checks the parameters,
  returns zero where the gate leaves no room or the convention excludes the
  diagram, builds the panels once, sums panels plus end correction at n and
  2n nodes (4n if they disagree), doubles the positive-x sector and raises
  ``NumericError`` for a non-finite value.

The one-leg tail diagram is the time reverse of the head diagram, so it
takes the head's numbers.  The raw 4-fold integrands live only in the test
suite: it checks the reduction against raw tensor rules for the two-leg and
the one-leg head diagram, and the tail against a separately coded reversed
envelope.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, _check
from .formulas import SemiclassicalParams, _effective_tau_d, loop_correction, loop_kernel

__all__ = [
    "QuadratureSpec",
    "DiagramResult",
    "integrate_2leg",
    "integrate_1leg",
    "diagram_sum",
    "convergence_study",
    "semiclassical_ladder",
]

ONE_LEG_CONVENTIONS = ("truncated_encounter", "excluded")

# Relative change between two refinements above which we refine once more,
# and then give up (non-convergence -> NumericError).
_REFINE_RTOL = 0.05

# Most Gauss-Legendre nodes per envelope call in _panel_sum; bounds its
# memory whatever the panel count.
_BLOCK_NODES = 1 << 14

# What one diagram's quadrature did (DiagramResult.telemetry): the node count
# the refinement stopped at, panels summed, envelope calls, 4n refinements.
_TELEMETRY_KEYS = ("nodes", "panels", "envelope_calls", "refinements")


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and convention knobs for the diagram integrals.

    ``su_grid`` is the node count per Gauss-Legendre panel; ``su_cut`` the
    smallest |s*u|/c^2 resolved (the x -> 0 endpoint is benign: the raw
    integrand vanishes like 1/t_enc there); ``one_leg_convention`` either
    keeps the one-leg diagrams (``truncated_encounter``) or drops them
    (``excluded``).
    """

    su_grid: int = 64
    su_cut: float = 1e-60
    one_leg_convention: str = "truncated_encounter"

    def __post_init__(self) -> None:
        if self.su_grid < 16:
            raise ValueError("su_grid must be at least 16")
        if not 0.0 < self.su_cut < 1.0:
            raise ValueError("su_cut must lie in (0, 1)")
        if self.one_leg_convention not in ONE_LEG_CONVENTIONS:
            raise ValueError(f"unknown one_leg_convention {self.one_leg_convention!r}")


@dataclass(frozen=True)
class DiagramResult:
    """One diagram's value and diagnostics.

    ``telemetry`` counts what the quadrature did: ``nodes`` (where the
    refinement stopped, 2n or 4n; 0 if no quadrature ran), ``panels`` (summed
    over all refinement levels), ``envelope_calls`` and ``refinements``
    (1 if the 4n level ran).
    """

    value: float
    est_error: float
    im_part: float
    diagram: str
    telemetry: dict = field(default_factory=lambda: dict.fromkeys(_TELEMETRY_KEYS, 0),
                            compare=False)

    def __post_init__(self) -> None:
        _check("value", self.value, None)
        _check("est_error", self.est_error, "non-negative")


def _omega(p: SemiclassicalParams) -> float:
    # phase-space volume implied by the Heisenberg time
    return 2.0 * math.pi * p.hbar * p.heisenberg_time


# ---------------------------------------------------------------------------
# analytic inner integrals (envelopes in the encounter-time variable)
# ---------------------------------------------------------------------------


def _growing_exp_integral(z, length):
    """E(z, L) = (e^{zL} - 1)/z = integral_0^L e^{z xi} d xi, series-safe, complex-capable."""
    z = np.asarray(z)
    zl = z * length
    small = np.abs(zl) < 1e-4
    series = length * (1.0 + zl * (0.5 + zl * (1.0 / 6.0 + zl / 24.0)))
    z_safe = np.where(small, 1.0, z)
    direct = (np.exp(np.where(small, 0.0, zl)) - 1.0) / z_safe
    return np.where(small, series, direct)


def _growing_exp_moment(z, length):
    """integral_0^L xi e^{z xi} d xi, series-safe, complex-capable."""
    z = np.asarray(z)
    zl = z * length
    small = np.abs(zl) < 1e-4
    series = length * length * (0.5 + zl * (1.0 / 3.0 + zl * (1.0 / 8.0 + zl / 30.0)))
    z_safe = np.where(small, 1.0, z)
    direct = (length * np.exp(np.where(small, 0.0, zl)) - _growing_exp_integral(z, length)) / z_safe
    return np.where(small, series, direct)


def _scaled_loop_area(window, tau_d: float):
    """Double time integral over the entry leg and the loop.

    integral_0^T dt' integral_0^{T-t'} e^{-t_loop/tau_d} dt_loop
    = tau_d^2 * (e^{-T/tau_d} - 1 + T/tau_d); -> T^2/2 without decoherence.
    """
    if math.isinf(tau_d):
        return 0.5 * window * window
    return tau_d * tau_d * loop_kernel(np.asarray(window) / tau_d)


def _encounter_exposure(tau, p: SemiclassicalParams):
    """Decoherence exponent accumulated across the two correlated stretches.

    beta(tau) = alpha*eta*(c^2/lambda)*(1 - (x/c^2)^2) with x = c^2 e^{-lambda tau}.
    """
    alpha = p.coupling_strength or 0.0
    lam = p.lyapunov
    expo = np.exp(-2.0 * lam * np.asarray(tau))
    return alpha * p.encounter_shape_factor * (p.encounter_scale / lam) * (1.0 - expo)


def _exposure_rate(tau, p: SemiclassicalParams):
    """beta(tau) / (2 tau), finite at tau -> 0 (limit alpha*eta*c^2)."""
    alpha = p.coupling_strength or 0.0
    lam = p.lyapunov
    tau = np.asarray(tau)
    z = 2.0 * lam * tau
    small = np.abs(z) < 1e-6
    series = lam * (1.0 - 0.5 * z + z * z / 6.0)
    tau_safe = np.where(small, 1.0, tau)
    direct = (1.0 - np.exp(-z)) / (2.0 * tau_safe)
    frac = np.where(small, series, direct)
    return alpha * p.encounter_shape_factor * (p.encounter_scale / lam) * frac


def _phi_two_leg(tau, t: float, p: SemiclassicalParams):
    """Reduced two-leg envelope at encounter time tau (complex-capable)."""
    window = t - 2.0 * tau
    survival = np.exp(-(t - tau) / p.dwell_time)
    loop_area = _scaled_loop_area(window, _effective_tau_d(p.decoherence_time, t))
    return survival * np.exp(-_encounter_exposure(tau, p)) * loop_area


def _phi_one_leg(tau, t: float, p: SemiclassicalParams):
    """Reduced one-leg envelope: encounter truncated by the trajectory endpoint.

    The exposed stretch xi runs over [0, min(tau, t - tau)]; survival counts
    the re-traversed portion once (exponent t - xi) and the encounter
    decoherence scales with the traversed fraction, (1 + xi/tau)/2.  xi_max is
    tau where Re tau < t/2 and t - tau elsewhere; the two meet smoothly (C^1) at
    t/2, a panel edge or past the last one, so no panel straddles them, and the
    contour leg (Re tau <= 0) takes xi_max = tau.
    """
    tau_d = _effective_tau_d(p.decoherence_time, t)
    xi_max = np.where(np.real(tau) < t / 2.0, tau, t - tau)
    t_free = t - tau
    a = 1.0 / p.dwell_time - _exposure_rate(tau, p)
    if math.isinf(tau_d):
        inner = t_free * _growing_exp_integral(a, xi_max) - _growing_exp_moment(a, xi_max)
    else:
        inner = tau_d * (
            _growing_exp_integral(a, xi_max)
            - np.exp(-t_free / tau_d) * _growing_exp_integral(a + 1.0 / tau_d, xi_max)
        )
    survival = np.exp(-t / p.dwell_time)
    return survival * np.exp(-0.5 * _encounter_exposure(tau, p)) * inner


# ---------------------------------------------------------------------------
# substitution machinery
# ---------------------------------------------------------------------------


def _phase_breakpoints(y_big: float, lam: float, tau_hi: float) -> list[float]:
    """tau values where the phase Y e^{-lambda tau} crosses multiples of pi/2."""
    # at most 4096 of them: Y this large is outside any sane study
    ks = itertools.takewhile(lambda k: k * 0.5 * math.pi < y_big, range(1, 4097))
    taus = (math.log(y_big / (k * 0.5 * math.pi)) / lam for k in ks)
    return [tau for tau in taus if 0.0 < tau < tau_hi]


def _build_panels(tau_hi: float, lam: float, y_big: float, extra: list[float]) -> np.ndarray:
    pts = {0.0, tau_hi}
    pts.update(p for p in extra if 0.0 < p < tau_hi)
    pts.update(_phase_breakpoints(y_big, lam, tau_hi))
    # geometric refinement near tau = 0 on the 1/lambda stretching scale
    w = 0.5 / lam
    while w < tau_hi:
        pts.add(w)
        w *= 2.0
    pts = sorted(pts)
    # cap panel width so the envelope (scales: tau_hi, 1/lambda) is resolved
    out = [pts[0]]
    cap = tau_hi / 8.0
    for right in pts[1:]:
        left = out[-1]
        n_sub = max(1, math.ceil((right - left) / cap))
        for j in range(1, n_sub + 1):
            out.append(left + (right - left) * j / n_sub)
    return np.asarray(out)


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``leggauss(n)`` (nodes, weights), built once per n."""
    return _read_only(np.polynomial.legendre.leggauss(n))


@functools.lru_cache(maxsize=None)
def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``laggauss(n)`` (nodes, weights), built once per n."""
    return _read_only(np.polynomial.laguerre.laggauss(n))


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _panel_sum(phi, tau_edges: np.ndarray, p: SemiclassicalParams, n: int):
    """Gauss-Legendre sum of e^{i x/hbar} phi over the real-axis panels (x-form).

    ``phi(tau)`` is the envelope at a ``(panels, n)`` matrix of nodes, one row
    per panel.  It is called once per block of at most ``_BLOCK_NODES`` nodes;
    the per-panel sums are added to the total in panel order.
    """
    nodes, weights = _legendre_rule(n)
    lam = p.lyapunov
    c2 = p.encounter_scale
    y_big = c2 / p.hbar
    mids = 0.5 * (tau_edges[:-1] + tau_edges[1:])
    halves = 0.5 * (tau_edges[1:] - tau_edges[:-1])
    step = max(1, _BLOCK_NODES // n)
    total = 0.0 + 0.0j
    for lo in range(0, len(mids), step):
        half = halves[lo:lo + step]
        tau = mids[lo:lo + step, None] + half[:, None] * nodes
        decay = np.exp(-lam * tau)
        phase = y_big * decay
        jac = lam * c2 * decay  # |dx/dtau|
        for panel in half * np.sum(weights * jac * np.exp(1j * phase) * phi(tau), axis=1):
            total += panel
    return total


def _end_correction(phi, p: SemiclassicalParams, n: int):
    """Contour leg at x = c^2 removing the sharp-cutoff oscillation.

    i e^{i c^2/hbar} * integral_0^inf e^{-y/hbar} phi_analytic(c^2 + i y) dy,
    evaluated with Gauss-Laguerre after y = hbar*u; the envelope is continued
    through tau = -Log(1 + i u / (c^2/hbar)) / lambda.
    """
    u, w = _laguerre_rule(min(n, 96))
    lam = p.lyapunov
    y_big = p.encounter_scale / p.hbar
    tau_c = -np.log(1.0 + 1j * u / y_big) / lam
    return 1j * cmath.exp(1j * y_big) * p.hbar * np.sum(w * phi(tau_c))


def _sector_doubled(k_plus: complex, p: SemiclassicalParams) -> tuple[float, float]:
    """Assemble the full (s, u) value from the positive-x sector.

    The x < 0 sector is the complex conjugate (the envelope is even in x and
    real on the real axis), so the doubled value is exactly real; we keep the
    imaginary residue of the numerical sum as a realness diagnostic.
    """
    k_minus = k_plus.conjugate()
    lam_over_omega = 2.0 * p.lyapunov / _omega(p)
    val = lam_over_omega * (k_plus + k_minus)
    return float(val.real), float(abs(val.imag))


def _converge(eval_at, su_grid: int, diagram: str):
    """Run eval_at(n) with n and 2n nodes; refine once more if unstable."""
    coarse, tr1 = eval_at(su_grid)
    fine, tr2 = eval_at(2 * su_grid)
    est = abs(fine - coarse) + tr2
    scale = max(abs(fine), 1e-300)
    if est > _REFINE_RTOL * scale:
        finer, tr3 = eval_at(4 * su_grid)
        est2 = abs(finer - fine) + tr3
        if est2 > _REFINE_RTOL * max(abs(finer), 1e-300) and est2 > 0.5 * est:
            raise NumericError(
                f"{diagram} quadrature did not converge: successive refinements "
                f"gave {fine!r} and {finer!r} (changes {est:.3e}, {est2:.3e})"
            )
        return finer, est2
    return fine, est


def _diagram(name: str, phi, t: float, params: SemiclassicalParams,
             spec: QuadratureSpec) -> DiagramResult:
    """The converged, sector-doubled smoothed-cutoff integral of e^{ix/hbar} phi
    over x in [c^2 e^{-lambda tau_gate}, c^2], tau_gate = t (one-leg, with a panel
    edge at t/2) or t/2 (two-leg).  Encounter times past
    ``su_cut`` are dropped, bounded by sup|phi| times the dropped x-interval.
    A panel is counted for each row of the node blocks that reach the envelope.
    """
    p = params
    _check("t", t)
    if not p.lyapunov or p.encounter_scale is None:  # a lyapunov of None or 0
        raise ValueError("diagram quadrature needs a positive lyapunov rate and a positive "
                         f"encounter_scale, got {p.lyapunov!r} and {p.encounter_scale!r}")
    lam = p.lyapunov
    one_leg = name.startswith("one_leg")
    tau_gate, breaks = (t, [t / 2.0]) if one_leg else (t / 2.0, [])
    excluded = one_leg and spec.one_leg_convention == "excluded"
    if excluded or lam * tau_gate < 1e-14:  # the gate leaves no room
        return DiagramResult(0.0, 0.0, 0.0, name)
    telemetry = dict.fromkeys(_TELEMETRY_KEYS, 0)

    def counted(tau):
        telemetry["envelope_calls"] += 1
        if np.ndim(tau) == 2:
            telemetry["panels"] += len(tau)
        return phi(tau)

    tau_hi = min(tau_gate, math.log(1.0 / spec.su_cut) / lam)
    edges = _build_panels(tau_hi, lam, p.encounter_scale / p.hbar, breaks)
    trunc = 0.0
    if tau_hi < tau_gate:
        trunc = abs(counted(tau_hi)) * p.encounter_scale * math.exp(-lam * tau_hi)

    def eval_at(n):
        telemetry["nodes"] = n
        return _panel_sum(counted, edges, p, n) + _end_correction(counted, p, n), trunc

    k_plus, est_k = _converge(eval_at, spec.su_grid, name)
    telemetry["refinements"] = int(telemetry["nodes"] > 2 * spec.su_grid)
    val, im = _sector_doubled(k_plus, p)
    est = 2.0 * (2.0 * lam / _omega(p)) * est_k
    if not (math.isfinite(val) and math.isfinite(est)):
        raise NumericError(f"{name} quadrature gave {val!r} with error estimate {est!r}")
    return DiagramResult(val, est, im, name, telemetry)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def integrate_2leg(params: SemiclassicalParams, t: float,
                   spec: QuadratureSpec = QuadratureSpec()) -> DiagramResult:
    """Two-leg encounter diagram: both stretches in the trajectory interior."""
    return _diagram("two_leg", lambda tau: _phi_two_leg(tau, t, params), t, params, spec)


def integrate_1leg(params: SemiclassicalParams, t: float,
                   spec: QuadratureSpec = QuadratureSpec()) -> tuple[DiagramResult, DiagramResult]:
    """One-leg diagrams (encounter truncated by the start / the end).

    Returns (head, tail).  The tail is the time reverse of the head and
    carries its numbers.  With ``one_leg_convention='excluded'`` both are
    identically zero by configuration.
    """
    head = _diagram("one_leg_head", lambda tau: _phi_one_leg(tau, t, params), t, params, spec)
    return head, replace(head, diagram="one_leg_tail")


def diagram_sum(params: SemiclassicalParams, t: float,
                spec: QuadratureSpec = QuadratureSpec(), telemetry: dict | None = None):
    """Convenience: (two_leg + head + tail) with pooled error and realness.

    A ``telemetry`` dict, if given, receives the ``two_leg`` and
    ``one_leg_head`` counts of ``DiagramResult.telemetry``; the tail takes
    the head's numbers and does no quadrature of its own.
    """
    two = integrate_2leg(params, t, spec)
    head, tail = integrate_1leg(params, t, spec)
    if telemetry is not None:
        telemetry.update(two_leg=two.telemetry, one_leg_head=head.telemetry)
    value = two.value + head.value + tail.value
    est = two.est_error + head.est_error + tail.est_error
    im = max(two.im_part, head.im_part, tail.im_part)
    return value, est, im


def convergence_study(params_sequence, times, spec: QuadratureSpec = QuadratureSpec(),
                      telemetry: dict | None = None):
    """Quadrature vs closed form along a semiclassical parameter ladder.

    ``params_sequence`` must be ordered by increasing lyapunov * dwell_time;
    ``times`` is shared across the ladder.  Returns one row per (params, t)
    with the columns of the convergence-table CSV.  A ``telemetry`` dict, if
    given, receives ``converged_nodes`` (per row, the node count each of
    ``two_leg`` and ``one_leg_head`` stopped at; 0 where none ran) and the
    run's ``panels``, ``envelope_calls`` and ``refinements``.
    """
    seq = list(params_sequence)
    lam_taus = [p.lyapunov * p.dwell_time for p in seq]
    if any(b <= a for a, b in zip(lam_taus, lam_taus[1:])):
        raise ValueError("params_sequence must be ordered by increasing lambda*dwell_time")
    rows = []
    counts = []
    for p in seq:
        for t in np.asarray(times, dtype=float):
            counts.append({})
            quad, est, im = diagram_sum(p, float(t), spec, counts[-1])
            closed = float(loop_correction(p, float(t)))
            rel = abs(quad - closed) / abs(closed) if closed != 0 else math.inf
            rows.append(
                {
                    "lambda_tauD": p.lyapunov * p.dwell_time,
                    "c2_over_hbar": p.encounter_scale / p.hbar,
                    "alpha_over_lambda": (p.coupling_strength or 0.0) / p.lyapunov,
                    "t_over_tauD": float(t) / p.dwell_time,
                    "quad_value": quad,
                    "closed_form": closed,
                    "rel_dev": rel,
                    "est_err": est,
                    "im_part": im,
                }
            )
    if telemetry is not None:
        telemetry["converged_nodes"] = [{d: c[d]["nodes"] for d in c} for c in counts]
        for key in _TELEMETRY_KEYS[1:]:
            telemetry[key] = sum(c[d][key] for c in counts for d in c)
    return rows


def semiclassical_ladder(
    lam_tau_values=(10.0, 20.0, 40.0),
    ehrenfest_fractions=(0.05, 0.035, 0.02),
    alpha_dwell_sigma2: float = 0.1,
    dwell_time: float = 1.0,
    heisenberg_time: float = 1.0,
    position_variance: float = 1.0,
    eta: float = 1.0,
) -> list[SemiclassicalParams]:
    """Parameter sequence approaching the semiclassical limit.

    Along the ladder lambda*tau_D grows, the Ehrenfest fraction t_E/tau_D
    (never above 0.05) shrinks, and alpha/lambda shrinks at fixed
    alpha*tau_D*sigma^2; hbar is set so that c^2/hbar = e^{lambda t_E} while
    alpha*eta*c^2*tau_D also shrinks -- every correction to the closed form
    decays along the sequence.
    """
    for name, value in (("lam_tau_values", lam_tau_values), ("dwell_time", dwell_time),
                        ("position_variance", position_variance), ("eta", eta)):
        _check(name, value)
    _check("alpha_dwell_sigma2", alpha_dwell_sigma2, "non-negative")
    if len(ehrenfest_fractions) != len(lam_tau_values):
        raise ValueError("need one ehrenfest fraction per lambda*tau_D value")
    if any(b <= a for a, b in zip(lam_tau_values, lam_tau_values[1:])):
        raise ValueError("lambda*tau_D values must increase along the ladder")
    seq = []
    for lam_tau, fr in zip(lam_tau_values, ehrenfest_fractions):
        if not 0.0 < fr <= 0.05:
            raise ValueError("ehrenfest fractions must lie in (0, 0.05]")
        lam = lam_tau / dwell_time
        t_e = fr * dwell_time
        if lam * t_e + math.log(lam_tau) > -math.log(sys.float_info.min):  # hbar underflows
            raise ValueError(f"lambda*tau_D = {lam_tau!r} with ehrenfest fraction {fr!r} puts "
                             f"c^2/hbar = e^{lam * t_e:.6g} beyond the float range")
        y_big = math.exp(lam * t_e)
        hbar = 1.0 / (y_big * lam_tau)
        c2 = hbar * y_big
        alpha = alpha_dwell_sigma2 / (dwell_time * position_variance)
        seq.append(
            SemiclassicalParams(
                dwell_time=dwell_time,
                heisenberg_time=heisenberg_time,
                lyapunov=lam,
                encounter_scale=c2,
                coupling_strength=alpha,
                position_variance=position_variance,
                encounter_shape_factor=eta,
                hbar=hbar,
                ehrenfest_time=t_e,
            )
        )
    return seq
