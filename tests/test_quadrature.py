"""Oscillatory diagram integrals vs the closed-form loop correction.

Three oracles below are not shipped by the library: the raw 4-fold tensor
rules, which code the bare integrand themselves and share no code with its
substitution path beyond the refinement loop; the reversed one-leg
envelope, which integrates the tail diagram from the other end through the
library's reduction; and a per-panel loop that the library's blocked panel
sum must match bit for bit.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chaodecay import quadrature
from chaodecay.errors import NumericError
from chaodecay.formulas import (
    SemiclassicalParams,
    bare_quantum_correction,
    loop_correction,
)
from chaodecay.quadrature import (
    ONE_LEG_CONVENTIONS,
    DiagramResult,
    QuadratureSpec,
    _build_panels,
    _converge,
    _diagram,
    _encounter_exposure,
    _exposure_rate,
    _growing_exp_integral,
    _growing_exp_moment,
    _laguerre_rule,
    _legendre_rule,
    _omega,
    _panel_sum,
    _phi_one_leg,
    _phi_two_leg,
    _sector_doubled,
    convergence_study,
    diagram_sum,
    integrate_1leg,
    integrate_2leg,
    semiclassical_ladder,
)


def quad_params(lam_tau=20.0, ehrenfest_fraction=0.035, alpha_dwell_sigma2=0.1,
                eta=1.0):
    (p,) = semiclassical_ladder(
        lam_tau_values=(lam_tau,),
        ehrenfest_fractions=(ehrenfest_fraction,),
        alpha_dwell_sigma2=alpha_dwell_sigma2,
        eta=eta,
    )
    return p


def bracket_closed_form(p, t):
    """Closed form the quadrature should converge to (alpha > 0 variant)."""
    return loop_correction(replace(p, ehrenfest_time=0.0), t)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _phi_one_leg_reversed(tau, t, p, enc):
    """Tail variant: same construction integrated from the other end.

    Algebraically identical to the head envelope (the diagram is the time
    reverse), but evaluated through a different floating-point path so the
    head/tail agreement is a genuine numerical check rather than a tautology.
    """
    tau_d = p.decoherence_time
    xi_max = np.where(enc, tau, t - tau)
    t_free = t - tau
    a = 1.0 / p.dwell_time - _exposure_rate(tau, p)
    # substitute xi -> xi_max - xi in the inner integral
    if math.isinf(tau_d):
        inner = np.exp(a * xi_max) * (
            (t_free - xi_max) * _growing_exp_integral(-a, xi_max)
            + _growing_exp_moment(-a, xi_max)
        )
    else:
        inner = np.exp(a * xi_max) * tau_d * (
            _growing_exp_integral(-a, xi_max)
            - np.exp(-(t_free - xi_max) / tau_d) * _growing_exp_integral(-(a + 1.0 / tau_d), xi_max)
        )
    survival = np.exp(-t / p.dwell_time)
    return survival * np.exp(-0.5 * _encounter_exposure(tau, p)) * inner


def reversed_tail(p, t, spec=QuadratureSpec()):
    """One-leg tail through the reversed envelope and the library's reduction."""
    def phi(tau):
        return _phi_one_leg_reversed(tau, t, p, np.real(tau) < t / 2.0)

    return _diagram("one_leg_tail", phi, t, [t / 2.0], p, spec).value


def _raw_two_leg(params: SemiclassicalParams, t: float, spec: QuadratureSpec,
                 n_su: int, t_s_fraction: float = 0.5, t_grid=(32, 32)) -> complex:
    """Raw 4-fold two-leg integral: (s, u) tensor rule, explicit t' and t_loop grids.

    Keeps the sharp cutoff |s*u| <= c^2, so it matches the panel sum without
    the end correction.
    """
    p = params
    c = math.sqrt(p.encounter_scale)
    lam = p.lyapunov
    sn, sw = np.polynomial.legendre.leggauss(n_su)
    ntp, ntl = t_grid
    pn, pw = np.polynomial.legendre.leggauss(ntp)
    ln, lw = np.polynomial.legendre.leggauss(ntl)
    alpha = p.coupling_strength or 0.0
    sigma2 = p.position_variance or 0.0
    total = 0.0 + 0.0j
    s_nodes = c * sn  # full [-c, c]
    u_nodes = c * sn
    for i, s in enumerate(s_nodes):
        su = s * u_nodes
        absu = np.abs(su)
        keep = absu > spec.su_cut * p.encounter_scale
        if not np.any(keep):
            continue
        su_k = su[keep]
        t_enc = np.log(p.encounter_scale / np.abs(su_k)) / lam
        t_s = t_s_fraction * t_enc
        t_u = t_enc - t_s
        tp_lo = t_s
        tp_hi = t - 2.0 * t_u - t_s
        live = tp_hi > tp_lo
        if not np.any(live):
            continue
        idx = np.nonzero(keep)[0][live]
        su_l = su_k[live]
        te_l = t_enc[live]
        lo = tp_lo[live]
        hi = tp_hi[live]
        # t' panel per (s,u) point: nodes shaped (n_pts, ntp)
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        tp = mid + half * pn[None, :]
        tl_hi = t - tp - (2.0 * t_u[live] + t_s[live])[:, None]
        tl_hi = np.maximum(tl_hi, 0.0)
        tl = 0.5 * tl_hi[:, :, None] * (1.0 + ln[None, None, :])
        loop_w = np.exp(-2.0 * alpha * sigma2 * tl)
        inner_tl = 0.5 * tl_hi * np.sum(loop_w * lw[None, None, :], axis=2)
        inner_tp = np.sum(inner_tl * pw[None, :], axis=1) * half[:, 0]
        enc_w = np.exp(
            -alpha * p.encounter_shape_factor * (p.encounter_scale / lam)
            * (1.0 - (su_l / p.encounter_scale) ** 2)
        )
        phase = np.exp(1j * su_l / p.hbar)
        surv = np.exp(-(t - te_l) / p.dwell_time)
        vals = phase * surv * enc_w * inner_tp / (_omega(p) * te_l)
        total += sw[i] * np.sum(sw[idx] * vals)
    return total * p.encounter_scale  # jacobian of s,u -> c*sn scaling: c * c


def _raw_one_leg(params: SemiclassicalParams, t: float, spec: QuadratureSpec,
                 n_su: int, t_grid=(32, 32)) -> complex:
    """Raw 4-fold one-leg (head) integral with the sharp cutoff."""
    p = params
    c = math.sqrt(p.encounter_scale)
    lam = p.lyapunov
    sn, sw = np.polynomial.legendre.leggauss(n_su)
    nxi, ntl = t_grid
    xn, xw = np.polynomial.legendre.leggauss(nxi)
    ln, lw = np.polynomial.legendre.leggauss(ntl)
    alpha = p.coupling_strength or 0.0
    sigma2 = p.position_variance or 0.0
    total = 0.0 + 0.0j
    s_nodes = c * sn
    u_nodes = c * sn
    for i, s in enumerate(s_nodes):
        su = s * u_nodes
        keep = np.abs(su) > spec.su_cut * p.encounter_scale
        if not np.any(keep):
            continue
        su_k = su[keep]
        t_enc = np.log(p.encounter_scale / np.abs(su_k)) / lam
        xi_max = np.minimum(t_enc, t - t_enc)
        live = xi_max > 0
        if not np.any(live):
            continue
        idx = np.nonzero(keep)[0][live]
        su_l = su_k[live]
        te_l = t_enc[live]
        xm = xi_max[live]
        xi = 0.5 * xm[:, None] * (1.0 + xn[None, :])
        tl_hi = np.maximum(t - te_l[:, None] - xi, 0.0)
        tl = 0.5 * tl_hi[:, :, None] * (1.0 + ln[None, None, :])
        loop_w = np.exp(-2.0 * alpha * sigma2 * tl)
        inner_tl = 0.5 * tl_hi * np.sum(loop_w * lw[None, None, :], axis=2)
        surv = np.exp(-(t - xi) / p.dwell_time)
        exposure = (
            alpha * p.encounter_shape_factor * (p.encounter_scale / lam)
            * (1.0 - (su_l[:, None] / p.encounter_scale) ** 2)
            * 0.5 * (1.0 + xi / te_l[:, None])
        )
        inner = 0.5 * xm * np.sum(surv * np.exp(-exposure) * inner_tl * xw[None, :], axis=1)
        phase = np.exp(1j * su_l / p.hbar)
        vals = phase * inner / (_omega(p) * te_l)
        total += sw[i] * np.sum(sw[idx] * vals)
    return total * p.encounter_scale


def panel_sum_per_panel(phi, tau_edges, p, n):
    """The panel sum one panel at a time: one envelope call and one rule
    application per panel, with the rule rebuilt on every call."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    lam = p.lyapunov
    c2 = p.encounter_scale
    y_big = c2 / p.hbar
    total = 0.0 + 0.0j
    for a, b in zip(tau_edges[:-1], tau_edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        tau = mid + half * nodes
        phase = y_big * np.exp(-lam * tau)
        jac = lam * c2 * np.exp(-lam * tau)
        total += half * np.sum(weights * jac * np.exp(1j * phase) * phi(tau))
    return total


def diagram_setup(diagram, p, t, spec=QuadratureSpec()):
    """(envelope closure, panel edges) of a diagram, as the library builds them."""
    tau_cut = math.log(1.0 / spec.su_cut) / p.lyapunov
    y_big = p.encounter_scale / p.hbar
    if diagram == "two_leg":
        edges = _build_panels(min(t / 2.0, tau_cut), p.lyapunov, y_big, [])
        return (lambda tau: _phi_two_leg(tau, t, p)), edges
    edges = _build_panels(min(t, tau_cut), p.lyapunov, y_big, [t / 2.0])
    return (lambda tau: _phi_one_leg(tau, t, p)), edges


def raw_converged(raw, p, t, su_grid):
    """(value, est_error) of a raw tensor rule under the library's refinement loop."""
    val, est = _converge(lambda n: (raw(p, t, QuadratureSpec(su_grid=su_grid), n), 0.0),
                         su_grid, "raw")
    return float(val.real), float(est)


class TestSpecValidation:
    def test_grid_minimums(self):
        with pytest.raises(ValueError):
            QuadratureSpec(su_grid=8)

    def test_cut_range(self):
        with pytest.raises(ValueError):
            QuadratureSpec(su_cut=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(su_cut=1.5)

    def test_enums(self):
        with pytest.raises(ValueError):
            QuadratureSpec(one_leg_convention="sometimes")

    def test_result_validation(self):
        with pytest.raises(ValueError):
            DiagramResult(math.nan, 0.0, 0.0, "two_leg")
        with pytest.raises(ValueError):
            DiagramResult(1.0, -0.1, 0.0, "two_leg")


class TestTwoLeg:
    def test_real_and_small_imag(self):
        p = quad_params()
        res = integrate_2leg(p, 2.0 * p.dwell_time)
        assert isinstance(res.value, float)
        assert res.im_part <= res.est_error + 1e-16

    def test_empty_domain_is_zero(self):
        p = quad_params()
        res = integrate_2leg(p, 1e-16)
        assert res.value == 0.0
        assert res.est_error == 0.0

    def test_alpha_positive_largest_rung(self):
        p = quad_params(lam_tau=40.0, ehrenfest_fraction=0.02)
        t = 3.0 * p.dwell_time
        total, est, im = diagram_sum(p, t)
        closed = bracket_closed_form(p, t)
        assert abs(total - closed) / closed < 0.10
        assert im <= est + 1e-16

    def test_alpha_zero_ladder_monotone_to_bare(self):
        # with coupling off, (2-leg + 1-leg) approaches the bare correction
        devs = []
        for lam_tau, frac in ((10.0, 0.05), (20.0, 0.035), (40.0, 0.02)):
            p = replace(quad_params(lam_tau, frac),
                        coupling_strength=None, position_variance=None,
                        decoherence_time=math.inf)
            t = 3.0 * p.dwell_time
            total, _, _ = diagram_sum(p, t)
            bare = bare_quantum_correction(p, t)
            devs.append(abs(total - bare) / bare)
        assert devs[1] < devs[0] and devs[2] < devs[1]
        assert devs[-1] < 0.10


class TestOneLeg:
    def test_head_equals_tail(self):
        # time reversal: the library tail reuses the head, and the reversed
        # envelope integrated from the other end gives the same number
        p = quad_params()
        t = 2.5 * p.dwell_time
        head, tail = integrate_1leg(p, t)
        assert head.value == pytest.approx(reversed_tail(p, t), rel=1e-12)
        assert tail.value == head.value
        assert head.diagram == "one_leg_head"
        assert tail.diagram == "one_leg_tail"

    def test_excluded_convention(self):
        p = quad_params()
        spec = QuadratureSpec(one_leg_convention="excluded")
        head, tail = integrate_1leg(p, 2.5 * p.dwell_time, spec)
        assert head.value == 0.0 and tail.value == 0.0


class TestInvariants:
    def test_alpha_monotonicity(self):
        # stronger coupling suppresses the correction, pointwise
        t_over = 2.0
        values = []
        for alpha_scale in (0.0, 0.1, 0.3):
            p = quad_params(alpha_dwell_sigma2=alpha_scale) if alpha_scale else \
                replace(quad_params(), coupling_strength=None, position_variance=None,
                        decoherence_time=math.inf)
            total, _, _ = diagram_sum(p, t_over * p.dwell_time)
            values.append(total)
        assert values[0] > values[1] > values[2]

    def test_refinement_stability(self):
        p = quad_params()
        t = 2.0 * p.dwell_time
        coarse = integrate_2leg(p, t, QuadratureSpec(su_grid=32))
        fine = integrate_2leg(p, t, QuadratureSpec(su_grid=64))
        assert abs(fine.value - coarse.value) <= 2.0 * max(coarse.est_error, 1e-15)

    def test_sign_symmetry_half_domain(self):
        # value computed from the su > 0 sector times two equals the
        # full-domain result identically (the integrator is built that way,
        # so check the substitute: doubling the conjugate-sector sum changes
        # nothing when the (s, u) -> (-s, -u) image is added explicitly)
        p = quad_params()
        t = 2.0 * p.dwell_time
        a = integrate_2leg(p, t)
        b = integrate_2leg(p, t)  # repeated call: deterministic
        assert a.value == b.value
        assert a.im_part == 0.0  # conjugate pairing is exact

    def test_eta_independent_limit(self):
        t_over = 3.0
        finals = []
        for eta in (0.5, 1.0, 2.0):
            p = quad_params(lam_tau=40.0, ehrenfest_fraction=0.02, eta=eta)
            total, _, _ = diagram_sum(p, t_over * p.dwell_time)
            closed = bracket_closed_form(p, t_over * p.dwell_time)
            finals.append(abs(total - closed) / closed)
        assert max(finals) < 0.10
        assert max(finals) - min(finals) < 0.01  # eta is subleading


class TestConvergenceStudy:
    def test_ladder_construction(self):
        ladder = semiclassical_ladder()
        lam_taus = [p.lyapunov * p.dwell_time for p in ladder]
        assert lam_taus == [10.0, 20.0, 40.0]
        for p in ladder:
            assert p.ehrenfest_time / p.dwell_time <= 0.05 + 1e-12
            assert p.coupling_strength * p.dwell_time * p.position_variance == \
                pytest.approx(0.1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            semiclassical_ladder(lam_tau_values=(10.0,), ehrenfest_fractions=(0.2,))

    def test_unordered_sequence_rejected(self):
        ladder = list(semiclassical_ladder())
        with pytest.raises(ValueError):
            convergence_study(ladder[::-1], [2.0])
        with pytest.raises(ValueError, match="increase"):
            semiclassical_ladder(lam_tau_values=(20.0, 10.0), ehrenfest_fractions=(0.05, 0.035))

    def test_rows_and_monotonicity(self):
        ladder = semiclassical_ladder(lam_tau_values=(10.0, 20.0),
                                      ehrenfest_fractions=(0.05, 0.035))
        rows = convergence_study(ladder, [2.0, 3.0])
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"lambda_tauD", "c2_over_hbar", "alpha_over_lambda",
                                "t_over_tauD", "quad_value", "closed_form",
                                "rel_dev", "est_err", "im_part"}
            assert row["im_part"] <= row["est_err"] + 1e-16
        by_t = {}
        for row in rows:
            by_t.setdefault(row["t_over_tauD"], []).append(row["rel_dev"])
        for devs in by_t.values():
            assert devs[1] < devs[0]


class TestFilonCrossCheck:
    def test_raw_matches_sharp_panel_sum(self):
        # the tensor-product path computes the sharp-cutoff integral; the
        # 1-D path's panel sum (without the endpoint-smoothing contour leg)
        # measures the same quantity through entirely different code
        from chaodecay.quadrature import _build_panels, _panel_sum, _phi_two_leg
        p = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05)
        t = 2.0 * p.dwell_time
        edges = _build_panels(t / 2.0, p.lyapunov, p.encounter_scale / p.hbar, [])
        k_sharp = _panel_sum(lambda tau: _phi_two_leg(tau, t, p), edges, p, 96)
        sharp, _ = _sector_doubled(k_sharp, p)
        raw, raw_err = raw_converged(_raw_two_leg, p, t, su_grid=48)
        assert abs(raw - sharp) <= max(2.0 * raw_err, 1e-6)

    def test_raw_one_leg_matches_sharp_panel_sum(self):
        # the same check for the one-leg head diagram; the raw rule converges
        # slowly across the kink of xi_max at t_enc = t/2 (measured 2e-3)
        from chaodecay.quadrature import _build_panels, _panel_sum, _phi_one_leg
        p = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05)
        t = 2.0 * p.dwell_time
        edges = _build_panels(t, p.lyapunov, p.encounter_scale / p.hbar, [t / 2.0])
        k_sharp = _panel_sum(lambda tau: _phi_one_leg(tau, t, p), edges, p, 96)
        sharp, _ = _sector_doubled(k_sharp, p)
        raw, _ = raw_converged(_raw_one_leg, p, t, su_grid=48)
        assert abs(raw - sharp) <= 5e-3 * abs(sharp)

    def test_contour_closure(self):
        # Cauchy: panels over [x_gate, c^2] plus the leg at c^2 equals a
        # single leg dropped at x_gate (the integrand is analytic between)
        from chaodecay.quadrature import (
            _build_panels,
            _end_correction,
            _panel_sum,
            _phi_two_leg,
        )
        p = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05)
        t = 2.0 * p.dwell_time
        lam, c2, hbar = p.lyapunov, p.encounter_scale, p.hbar
        edges = _build_panels(t / 2.0, lam, c2 / hbar, [])

        def phi(tau):
            return _phi_two_leg(tau, t, p)

        closed = _panel_sum(phi, edges, p, 96) + _end_correction(phi, p, 96)
        # leg at the gate x_g = c^2 e^{-lambda t / 2}, assembled by hand
        x_g = c2 * math.exp(-lam * t / 2.0)
        u, w = np.polynomial.laguerre.laggauss(96)
        tau_c = -np.log(x_g / c2 + 1j * u * hbar / c2) / lam
        leg_gate = 1j * np.exp(1j * x_g / hbar) * hbar \
            * np.sum(w * _phi_two_leg(tau_c, t, p))
        assert abs(closed - leg_gate) <= 2e-2 * abs(leg_gate)

    def test_split_invariance(self):
        # the raw path exposes the encounter-time split as a knob; the result
        # must not depend on it
        p = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05)
        t = 2.0 * p.dwell_time
        a = _raw_two_leg(p, t, QuadratureSpec(su_grid=32), 32, t_s_fraction=0.5)
        b = _raw_two_leg(p, t, QuadratureSpec(su_grid=32), 32, t_s_fraction=0.3)
        assert a == pytest.approx(b, rel=1e-12)


class TestBlockedPanelSum:
    """The blocked panel sum against the per-panel loop, and its cost bounds."""

    @pytest.mark.parametrize("diagram", ["two_leg", "one_leg_head"])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_bitwise_per_panel_on_ladder_edges(self, diagram, n):
        p = quad_params(lam_tau=80.0, ehrenfest_fraction=0.012)
        phi, edges = diagram_setup(diagram, p, 6.0 * p.dwell_time)
        assert _panel_sum(phi, edges, p, n) == panel_sum_per_panel(phi, edges, p, n)

    @pytest.mark.parametrize("su_cut", [1e-60, 1e-20])  # the second cuts below t/2
    @pytest.mark.parametrize("t_over_tauD", [1.5, 3.0, 6.0])
    def test_one_leg_branch_constant_per_panel(self, su_cut, t_over_tauD):
        # _phi_one_leg picks its branch per node (tau < t/2); no panel may
        # straddle t/2, so each node takes its panel centre's branch
        p = quad_params(lam_tau=80.0, ehrenfest_fraction=0.012)
        t = t_over_tauD * p.dwell_time
        _, edges = diagram_setup("one_leg_head", p, t, QuadratureSpec(su_cut=su_cut))
        mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
        for n in (64, 128, 256, 512):
            tau = mids + 0.5 * (edges[1:] - edges[:-1])[:, None] * _legendre_rule(n)[0]
            assert np.array_equal(tau < t / 2.0, np.broadcast_to(mids < t / 2.0, tau.shape))

    @pytest.mark.parametrize("diagram", ["two_leg", "one_leg_head"])
    def test_bitwise_per_panel_on_many_panels(self, diagram):
        # 4,112 panels at 256 nodes: many blocks, the last one partial
        (p,) = semiclassical_ladder([400.0], [0.05], 0.1)
        t = 2.0
        edges = _build_panels(t / 2.0, p.lyapunov, p.encounter_scale / p.hbar, [])
        assert len(edges) - 1 == 4112
        phi, _ = diagram_setup(diagram, p, t)
        tracemalloc.start()
        try:
            blocked = _panel_sum(phi, edges, p, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocked == panel_sum_per_panel(phi, edges, p, 256)
        assert peak < 8 * 2**20  # bounded by the block, not the panel count

    @pytest.mark.parametrize("block_nodes", [64, 4 * 64, 5 * 64 + 1])  # 13 panels: 13, 4, 3 blocks
    def test_block_size_does_not_change_bits(self, monkeypatch, block_nodes):
        # every panel carries weight here (x stays above e^{-20} c^2), so a
        # lost or repeated panel shows in the bits
        p = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05)
        phi, edges = diagram_setup("one_leg_head", p, 2.0 * p.dwell_time)
        whole = _panel_sum(phi, edges, p, 64)
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block_nodes)
        assert _panel_sum(phi, edges, p, 64) == whole

    @pytest.mark.parametrize("rule, numpy_rule, n", [
        *((_legendre_rule, np.polynomial.legendre.leggauss, n) for n in (16, 64, 128, 256)),
        # the end leg caps its Laguerre rule at 96 nodes
        *((_laguerre_rule, np.polynomial.laguerre.laggauss, n) for n in (16, 64, 96)),
    ])
    def test_cached_rules_are_the_numpy_rules_read_only(self, rule, numpy_rule, n):
        for cached, fresh in zip(rule(n), numpy_rule(n)):
            assert np.array_equal(cached, fresh)
            with pytest.raises(ValueError):
                cached[0] = 0.0

    @pytest.mark.parametrize("diagram", ["two_leg", "one_leg_head"])
    def test_one_envelope_call_per_block(self, monkeypatch, diagram):
        # a ladder-sized integral: one call for all its panels, one for the
        # end leg (no su_cut truncation at this rung)
        p = quad_params(lam_tau=40.0, ehrenfest_fraction=0.02)
        t = 3.0 * p.dwell_time
        envelope = "_phi_two_leg" if diagram == "two_leg" else "_phi_one_leg"
        calls = []
        real = getattr(quadrature, envelope)

        def counted(tau, *args):
            calls.append(np.shape(tau))
            return real(tau, *args)

        monkeypatch.setattr(quadrature, envelope, counted)
        spec = QuadratureSpec(su_grid=128)
        integrate = quadrature.integrate_2leg if diagram == "two_leg" else quadrature.integrate_1leg
        integrate(p, t, spec)
        # n, 2n and maybe 4n nodes; each level is one block plus the end leg
        levels = len(calls) // 2
        assert 2 <= levels <= 3 and len(calls) == 2 * levels
        _, edges = diagram_setup(diagram, p, t)
        for k, n in enumerate((128, 256, 512)[:levels]):
            assert calls[2 * k] == (len(edges) - 1, n)  # every panel in one call
            assert calls[2 * k + 1] == (min(n, 96),)  # the end leg


class TestDriver:
    """The one driver behind both diagrams: checks, panels, non-finite values."""

    def test_panels_built_once_per_diagram(self, monkeypatch):
        # every refinement level, the 4n one forced here, sums the same panels
        built, summed = [], []
        real_build, real_sum = quadrature._build_panels, quadrature._panel_sum

        def build(*args):
            built.append(real_build(*args))
            return built[-1]

        def panel_sum(phi, edges, p, n):
            summed.append(edges)
            return real_sum(phi, edges, p, n)

        def three_levels(eval_at, su_grid, diagram):
            return [eval_at(k * su_grid) for k in (1, 2, 4)][-1]

        monkeypatch.setattr(quadrature, "_build_panels", build)
        monkeypatch.setattr(quadrature, "_panel_sum", panel_sum)
        monkeypatch.setattr(quadrature, "_converge", three_levels)
        p = quad_params()
        telemetry = {}
        diagram_sum(p, 2.0 * p.dwell_time, QuadratureSpec(), telemetry)
        assert len(built) == 2  # two_leg and one_leg_head; the tail reuses the head
        assert [id(e) for e in summed] == [id(built[0])] * 3 + [id(built[1])] * 3
        assert all(counts["refinements"] == 1 for counts in telemetry.values())

    def test_non_finite_value_is_numeric_error(self, monkeypatch):
        # the NaN comes with numpy's warning, an error under this suite's filter
        monkeypatch.setattr(quadrature, "_phi_two_leg", lambda tau, t, p: np.inf * tau)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="two_leg quadrature gave nan"):
            integrate_2leg(quad_params(), 2.0)

    @pytest.mark.parametrize("change, t, message", [
        ({"lyapunov": None}, 2.0, "positive lyapunov"),
        ({"lyapunov": 0.0}, 2.0, "positive lyapunov"),
        ({"encounter_scale": None}, 2.0, "positive encounter_scale"),
        ({}, 0.0, "t must be positive"),
        ({}, -1.0, "t must be positive"),
    ])
    @pytest.mark.parametrize("convention", ONE_LEG_CONVENTIONS)
    def test_checks_before_any_shortcut(self, change, t, message, convention):
        # an excluded one-leg diagram is zero, but only for valid input
        p = replace(quad_params(), **change)
        spec = QuadratureSpec(one_leg_convention=convention)
        for integrate in (integrate_2leg, integrate_1leg):
            with pytest.raises(ValueError, match=message):
                integrate(p, t, spec)


class TestWeakCoupling:
    """alpha so small that t/tau_d < 1e-8: the decoherence-free envelopes."""

    @pytest.mark.parametrize("alpha_dwell_sigma2", [1e-300, 1e-12])
    @pytest.mark.parametrize("t", [2.0, 5.0])
    def test_matches_zero_coupling_within_error(self, alpha_dwell_sigma2, t):
        weak = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05,
                           alpha_dwell_sigma2=alpha_dwell_sigma2)
        free = quad_params(lam_tau=10.0, ehrenfest_fraction=0.05, alpha_dwell_sigma2=0.0)
        assert weak.decoherence_time > 1e8 * t
        for integrate in (integrate_2leg, lambda p, t: integrate_1leg(p, t)[0]):
            a, b = integrate(weak, t), integrate(free, t)
            assert abs(a.value - b.value) <= max(a.est_error, b.est_error)

    def test_ladder_hbar_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            semiclassical_ladder(lam_tau_values=(1e5,), ehrenfest_fractions=(0.05,))
        # lambda t_E = 500: c^2/hbar = e^500 and hbar are still normal floats
        (p,) = semiclassical_ladder(lam_tau_values=(1e4,), ehrenfest_fractions=(0.05,))
        assert p.hbar > 1e-300 and math.isfinite(p.encounter_scale / p.hbar)


class TestTelemetry:
    def test_diagram_counts(self):
        p = quad_params()
        t = 2.0 * p.dwell_time
        spec = QuadratureSpec()
        two = integrate_2leg(p, t, spec)
        head, tail = integrate_1leg(p, t, spec)
        for res in (two, head):
            tel = res.telemetry
            assert tel["nodes"] in (2 * spec.su_grid, 4 * spec.su_grid)
            levels = 2 + tel["refinements"]
            assert tel["refinements"] == int(tel["nodes"] == 4 * spec.su_grid)
            # per level: one panel block and the end leg (no truncation here)
            assert tel["envelope_calls"] == 2 * levels
            assert tel["panels"] > 0 and tel["panels"] % levels == 0
        assert tail.telemetry == head.telemetry

    def test_no_quadrature_counts_zero(self):
        p = quad_params()
        zeros = {"nodes": 0, "panels": 0, "envelope_calls": 0, "refinements": 0}
        head, _ = integrate_1leg(p, 2.0, QuadratureSpec(one_leg_convention="excluded"))
        assert head.telemetry == zeros
        assert integrate_2leg(p, 1e-16).telemetry == zeros

    def test_study_telemetry_leaves_rows_unchanged(self):
        ladder = semiclassical_ladder(lam_tau_values=(10.0, 20.0),
                                      ehrenfest_fractions=(0.05, 0.035))
        times = [2.0, 3.0]
        telemetry = {}
        rows = convergence_study(ladder, times, telemetry=telemetry)
        assert rows == convergence_study(ladder, times)
        assert set(telemetry) == {"converged_nodes", "panels", "envelope_calls",
                                  "refinements"}
        assert len(telemetry["converged_nodes"]) == len(rows)
        panels = calls = refinements = 0
        for k, p in enumerate(q for q in ladder for _ in times):
            t = times[k % len(times)]
            two = integrate_2leg(p, t)
            head, _ = integrate_1leg(p, t)
            expected = {"two_leg": two.telemetry["nodes"],
                        "one_leg_head": head.telemetry["nodes"]}
            assert telemetry["converged_nodes"][k] == expected
            for res in (two, head):
                panels += res.telemetry["panels"]
                calls += res.telemetry["envelope_calls"]
                refinements += res.telemetry["refinements"]
        assert (telemetry["panels"], telemetry["envelope_calls"],
                telemetry["refinements"]) == (panels, calls, refinements)
