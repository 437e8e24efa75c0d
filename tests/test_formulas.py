"""Closed-form layer: parameter maps, decay laws, loop-correction brackets."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaodecay.formulas import (
    REGIMES,
    BathSpec,
    SemiclassicalParams,
    alpha_from_bath,
    bare_quantum_correction,
    classical_survival,
    correction_curve,
    correction_peak,
    decoherence_time,
    dwell_time,
    ehrenfest_time,
    figure3_curves,
    heisenberg_time,
    loop_correction,
    loop_correction_ehrenfest,
    loop_correction_short_time,
    loop_kernel,
    total_survival,
)


def params(**kw):
    kw.setdefault("dwell_time", 0.3)
    kw.setdefault("heisenberg_time", 1.0)
    return SemiclassicalParams(**kw)


class TestBath:
    def test_unit_normalization(self):
        bath = BathSpec(damping=0.5, inverse_temperature=1.0)
        assert alpha_from_bath(bath) == pytest.approx(1.0)

    def test_doubling_beta_halves_alpha(self):
        a1 = alpha_from_bath(BathSpec(damping=0.3, inverse_temperature=2.0))
        a2 = alpha_from_bath(BathSpec(damping=0.3, inverse_temperature=4.0))
        assert a1 == pytest.approx(2.0 * a2)

    def test_pinned_value(self):
        bath = BathSpec(damping=0.3, inverse_temperature=2.0)
        assert alpha_from_bath(bath) == pytest.approx(0.3, rel=1e-15)

    def test_high_temperature_flag(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            BathSpec(damping=0.3, inverse_temperature=2.0,
                     characteristic_frequency=1.0)  # beta*hbar*omega = 2 >> 0.1
        assert any("high-temperature" in str(w.message) for w in caught)

    def test_invalid_bath(self):
        with pytest.raises(ValueError):
            BathSpec(damping=-1.0, inverse_temperature=1.0)

    @pytest.mark.parametrize("bath", [
        {"hbar": 1e-200},  # hbar^2 underflows to 0
        {"hbar": 1e-160},  # hbar^2 * beta is subnormal and alpha overflows
        {"inverse_temperature": 5e-324},
    ])
    def test_alpha_overflow_rejected(self, bath):
        with pytest.raises(ValueError, match="overflows"):
            alpha_from_bath(BathSpec(**{"damping": 1.0, "inverse_temperature": 1.0, **bath}))


class TestParameterMaps:
    def test_dwell_unit_cancellation(self):
        assert dwell_time(area=1.0, opening_length=math.pi) == pytest.approx(1.0)

    def test_dwell_halving_opening_doubles(self):
        assert dwell_time(2.0, 0.05) == pytest.approx(2.0 * dwell_time(2.0, 0.1))

    def test_dwell_circle_value(self):
        # unit disk, l = 0.1: pi * pi / 0.1
        assert dwell_time(math.pi, 0.1) == pytest.approx(98.69604401089359, rel=1e-13)

    def test_heisenberg(self):
        assert heisenberg_time(1.0) == pytest.approx(1.0)
        assert heisenberg_time(1.0, hbar=0.5) == pytest.approx(2.0)
        assert heisenberg_time(math.pi, hbar=0.05) == pytest.approx(62.83185307179586,
                                                                    rel=1e-13)

    def test_decoherence_time(self):
        assert decoherence_time(1.0, 1.0) == pytest.approx(0.5)
        assert decoherence_time(1.0, 2.0) == pytest.approx(0.25)
        assert decoherence_time(0.3, 0.5) == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_decoherence_time_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            decoherence_time(1e300, 1e300)

    def test_ehrenfest_time(self):
        assert ehrenfest_time(2.0, 1.0, 1.0) == 0.0
        assert ehrenfest_time(1.0, math.exp(10.0), 1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            ehrenfest_time(1.0, 0.5, 1.0)


class TestParams:
    def test_tau_d_single_source(self):
        p = params(coupling_strength=0.3, position_variance=0.5)
        assert p.decoherence_time == pytest.approx(decoherence_time(0.3, 0.5),
                                                   rel=1e-15)

    def test_tau_d_conflict_rejected(self):
        with pytest.raises(ValueError):
            params(coupling_strength=0.3, position_variance=0.5,
                   decoherence_time=1.0)

    def test_tau_d_consistent_accepted(self):
        p = params(coupling_strength=0.3, position_variance=0.5,
                   decoherence_time=10.0 / 3.0)
        assert p.decoherence_time == pytest.approx(10.0 / 3.0)

    def test_time_product_underflow_rejected(self):
        # the loop corrections divide by dwell_time * heisenberg_time
        with pytest.raises(ValueError, match="underflows"):
            params(dwell_time=1e-300, heisenberg_time=1e-300, decoherence_time=1e-300)
        assert params(dwell_time=1e-150, heisenberg_time=1e-150).dwell_time == 1e-150

    def test_with_override(self):
        p = params()
        q = replace(p, decoherence_time=2.0)
        assert q.decoherence_time == 2.0
        assert p.decoherence_time == math.inf  # no coupling info: bare limit


class TestDecayLaws:
    def test_classical_values(self):
        p = params()
        assert classical_survival(p, 0.0) == 1.0
        assert classical_survival(p, 0.3) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_bare_zero_at_origin(self):
        assert bare_quantum_correction(params(), 0.0) == 0.0

    def test_bare_scale_invariance(self):
        k = 7.3
        a = bare_quantum_correction(params(), 0.17)
        b = bare_quantum_correction(
            SemiclassicalParams(dwell_time=0.3 * k, heisenberg_time=k), 0.17 * k)
        assert a == pytest.approx(b, rel=1e-14)

    def test_bare_pinned_value(self):
        # tau_D/T_H = 0.3, t = T_H: e^{-10/3} / 0.6
        got = bare_quantum_correction(params(), 1.0)
        assert got == pytest.approx(0.05945665557875396, rel=1e-13)

    def test_bare_is_decoherence_free_loop_correction(self):
        # the bare form ignores the params' tau_d
        t = np.linspace(0.0, 5.0, 1001)
        np.testing.assert_array_equal(bare_quantum_correction(params(decoherence_time=0.2), t),
                                      loop_correction(params(), t))


class TestLoopKernel:
    @given(st.floats(1e-12, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_and_bounded(self, y):
        v = loop_kernel(y)
        assert 0.0 <= v <= 0.5 * y * y

    def test_series_seam(self):
        # both branches around the switchover agree with a 50-digit oracle
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for y in (1e-5, 9.99e-4, 1.001e-3, 1e-2):
            exact = float(mp.exp(-mp.mpf(y)) - 1 + mp.mpf(y))
            assert loop_kernel(y) == pytest.approx(exact, rel=1e-13)

    def test_complex_argument(self):
        y = 0.3 + 0.1j
        exact = np.exp(-y) - 1.0 + y
        assert loop_kernel(y) == pytest.approx(exact, rel=1e-14)

    def test_huge_argument(self):
        # the series is not taken at y = 1e200, where its y^2 would overflow
        assert loop_kernel(np.array([1e-4, 1e200]))[1] == 1e200


class TestLoopCorrection:
    def test_zero_at_origin(self):
        assert loop_correction(params(decoherence_time=0.1), 0.0) == 0.0

    def test_closed_cavity_limit(self):
        p = SemiclassicalParams(dwell_time=1e9, heisenberg_time=1.0,
                                decoherence_time=0.1)
        t = np.linspace(0.1, 5.0, 40)
        assert np.max(np.abs(loop_correction(p, t))) < 1e-6

    @pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6])
    def test_vanishing_coupling_limit(self, ratio):
        p = params(decoherence_time=ratio)
        t = np.linspace(0.01, 3.0, 50)
        bare = bare_quantum_correction(params(), t)
        rel = np.abs(loop_correction(p, t) - bare) / bare
        assert np.max(rel) < 10.0 / ratio

    def test_cancellation_safety(self):
        # t/tau_d = 1e-8 must match the order-3 expansion to 1e-6 relative
        p = params(decoherence_time=1e6)
        t = 1e-2  # t/tau_d = 1e-8
        full = loop_correction(p, t)
        order3 = loop_correction_short_time(p, t)
        assert full == pytest.approx(order3, rel=1e-6)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("weak", [
        {"decoherence_time": 1e9},  # t/tau_d < 1e-8 on the whole grid
        {"decoherence_time": 1e200},  # tau_d^2 overflows
        {"coupling_strength": 1e-300, "position_variance": 1.0},  # tau_d = 5e299
    ])
    def test_effectively_infinite_tau_d_is_bare(self, regime, weak):
        t = np.linspace(0.0, 3.0, 31)
        got = correction_curve(params(**weak), t, regime).bracket
        np.testing.assert_allclose(got, bare_quantum_correction(params(), t), rtol=1e-15)

    def test_positivity(self):
        p = params(decoherence_time=0.2)
        t = np.linspace(0.0, 10.0, 500)
        assert np.all(loop_correction(p, t) >= 0.0)


class TestShortTime:
    def test_zero_at_origin(self):
        assert loop_correction_short_time(params(decoherence_time=0.7), 0.0) == 0.0

    def test_residual_slope_four(self):
        p = params(decoherence_time=0.7)
        scale = min(p.dwell_time, 0.7)
        t = np.geomspace(1e-4 * scale, 1e-2 * scale, 25)
        resid = np.abs(loop_correction(p, t) - loop_correction_short_time(p, t))
        slope = np.polyfit(np.log(t), np.log(resid), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_consistency_chain(self):
        p = params(decoherence_time=0.7)
        t = np.linspace(1e-4, 0.02 * min(p.dwell_time, 0.7), 50)
        full = loop_correction(p, t)
        order3 = loop_correction_short_time(p, t)
        assert np.max(np.abs(full - order3) / np.abs(full)) < 1e-3

    def test_underflowing_scale_rejected(self):
        # 6 T_H tau_D tau_d = 6e-450 would make t^3 / it inf, and 0/0 at t = 0
        p = SemiclassicalParams(dwell_time=1e-100, heisenberg_time=1e-100,
                                decoherence_time=1e-250)
        with pytest.raises(ValueError, match="underflows"):
            loop_correction_short_time(p, np.linspace(0.0, 3e-100, 11))


class TestEhrenfest:
    def ep(self, t_E=0.05, t_lL=0.02):
        return SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0,
                                   decoherence_time=0.2, ehrenfest_time=t_E,
                                   loop_formation_time=t_lL)

    def test_gated_region_is_zero(self):
        p = self.ep()
        t = np.linspace(0.0, 2.0 * (p.ehrenfest_time + p.loop_formation_time) - 1e-9, 20)
        np.testing.assert_array_equal(loop_correction_ehrenfest(p, t), 0.0)

    def test_reduces_to_plain(self):
        t = np.linspace(0.0, 3.0, 1000)
        for tau_d in (0.2, math.inf):
            p = replace(self.ep(t_E=0.0, t_lL=0.0), decoherence_time=tau_d)
            np.testing.assert_array_equal(loop_correction_ehrenfest(p, t), loop_correction(p, t))

    def test_gate_far_past_dwell_time(self):
        # before t_E, exp(-(t - t_E)/tau_D) would overflow; the bracket is 0 there
        for tau_d in (0.2, math.inf):
            p = replace(self.ep(t_E=1000.0, t_lL=0.0), decoherence_time=tau_d)
            t = np.linspace(0.0, 1999.0, 41)
            np.testing.assert_array_equal(loop_correction_ehrenfest(p, t), 0.0)

    def test_threshold_value(self):
        p = self.ep()
        t0 = 2.0 * (p.ehrenfest_time + p.loop_formation_time)
        tau_d, tau_D, th = p.decoherence_time, p.dwell_time, p.heisenberg_time
        expected = (tau_d**2 / (th * tau_D)) * math.exp(-(t0 - p.ehrenfest_time) / tau_D) \
            * (math.exp(-(t0 - 2 * p.ehrenfest_time) / tau_d)
               - math.exp(-2 * p.loop_formation_time / tau_d))
        just_after = loop_correction_ehrenfest(p, t0 + 1e-12)
        assert just_after == pytest.approx(expected, abs=1e-9)

    def test_continuity_in_parameters(self):
        t = np.linspace(0.05, 3.0, 200)
        plain = loop_correction(self.ep(0.0, 0.0), t)
        tiny = loop_correction_ehrenfest(self.ep(1e-9, 1e-9), t)
        np.testing.assert_allclose(tiny, plain, rtol=1e-6)


class TestTotalSurvival:
    def test_starts_at_one(self):
        assert total_survival(params(decoherence_time=0.2), 0.0) == 1.0

    def test_vanishing_coupling_composition(self):
        p = params(decoherence_time=1e9)
        t = np.linspace(0.0, 2.0, 30)
        expected = np.exp(-t / 0.3) * (1.0 + t**2 / (2.0 * 0.3))
        np.testing.assert_allclose(total_survival(p, t), expected, rtol=1e-6)

    def test_pointwise_detriment(self):
        t = np.linspace(0.01, 2.0, 50)
        finite = total_survival(params(decoherence_time=0.2), t)
        infinite = total_survival(params(decoherence_time=1e12), t)
        assert np.all(finite <= infinite + 1e-15)


class TestPeak:
    def test_vanishing_coupling_peak_at_two_dwell(self):
        p = params(decoherence_time=1e6)
        t_star, value = correction_peak(p)
        assert t_star == pytest.approx(2.0 * 0.3, rel=1e-6)
        assert value > 0

    def test_effectively_infinite_tau_d_peak_at_two_dwell(self):
        # tau_d = 5e299: tau_d^2 overflows, and no bracket value may be NaN
        t_star, value = correction_peak(params(coupling_strength=1e-300, position_variance=1.0))
        assert t_star == pytest.approx(2.0 * 0.3, rel=1e-6)
        assert value == pytest.approx(bare_quantum_correction(params(), 2.0 * 0.3), rel=1e-12)

    def test_finite_coupling_peak_earlier(self):
        p = params(decoherence_time=0.1)
        t_star, _ = correction_peak(p)
        assert t_star < 2.0 * 0.3
        # dense-grid argmax oracle
        t = np.linspace(1e-4, 2.0, 200_001)
        t_oracle = t[np.argmax(loop_correction(p, t))]
        assert t_star == pytest.approx(t_oracle, abs=2e-5)

    def test_gated_vanishing_coupling_peak(self):
        # past the gate the bracket is e^{-(t - t_E)/tau_D} (t - gate)^2
        p = params(ehrenfest_time=0.1, loop_formation_time=0.05)
        gate = 2.0 * 0.1 + 2.0 * 0.05
        t_star, value = correction_peak(p, regime="ehrenfest")
        assert t_star == pytest.approx(gate + 2.0 * 0.3, rel=1e-6)
        assert value > 0

    def test_gated_finite_coupling_peak(self):
        p = params(decoherence_time=0.1, ehrenfest_time=0.1, loop_formation_time=0.05)
        gate = 2.0 * 0.1 + 2.0 * 0.05
        t_star, _ = correction_peak(p, regime="ehrenfest")
        assert gate < t_star < gate + 2.0 * 0.3
        # dense-grid argmax oracle
        t = np.linspace(gate + 1e-4, gate + 2.0, 200_001)
        t_oracle = t[np.argmax(loop_correction_ehrenfest(p, t))]
        assert t_star == pytest.approx(t_oracle, abs=2e-5)

    def test_telemetry_counts_golden_evaluations(self):
        p = params(decoherence_time=0.1)
        telemetry = {}
        assert correction_peak(p, telemetry=telemetry) == correction_peak(p)
        # two starting points, then one evaluation per golden-ratio step from
        # a two-grid-cell bracket (at most 2 * 20 * tau_D / 2047) down to
        # 1e-12 * tau_D
        steps = math.log(1e-12 / (40.0 / 2047)) / math.log(0.5 * (math.sqrt(5.0) - 1.0))
        assert set(telemetry) == {"evaluations"}
        assert 2 < telemetry["evaluations"] <= 2 + math.ceil(steps)

    def test_scale_invariance(self):
        k = 5.0
        t1, _ = correction_peak(params(decoherence_time=0.1))
        t2, _ = correction_peak(SemiclassicalParams(
            dwell_time=0.3 * k, heisenberg_time=k, decoherence_time=0.1 * k))
        assert t2 == pytest.approx(k * t1, rel=1e-6)  # up to root-finder tolerance


class TestFigure3:
    def test_reference_is_bare(self):
        table = figure3_curves([0.1, math.inf], n_points=101)
        p = params()
        np.testing.assert_allclose(table.reference,
                                   bare_quantum_correction(p, table.times),
                                   rtol=1e-12)
        np.testing.assert_allclose(table.columns["taud_inf"], table.reference,
                                   rtol=1e-12)

    def test_finite_columns_below_reference(self):
        table = figure3_curves([0.05, 0.1, 0.3, 1.0], n_points=301)
        for label in table.columns:
            col = table.columns[label]
            mask = table.times > 0
            assert np.all(col[mask] < table.reference[mask])

    def test_single_interior_maximum(self):
        table = figure3_curves([0.05, 0.1, 0.3, 1.0, math.inf], n_points=301)
        for label in table.columns:
            col = table.columns[label]
            d = np.diff(col)
            flips = np.sum((d[:-1] > 0) & (d[1:] < 0))
            assert flips == 1, label

    def test_peak_heights_increase_with_taud(self):
        table = figure3_curves([0.05, 0.1, 0.3, 1.0], n_points=301)
        peaks = [col.max() for col in table.columns.values()]
        assert peaks == sorted(peaks)

    def test_monotone_in_taud_pointwise(self):
        taus = [0.05, 0.1, 0.3, 1.0]
        table = figure3_curves(taus, n_points=301)
        cols = list(table.columns.values())
        for lo, hi in zip(cols[:-1], cols[1:]):
            assert np.all(hi - lo >= -1e-12)


@given(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(0.01, 3.0))
@settings(max_examples=150, deadline=None)
def test_bracket_nonnegative_property(tau_D, tau_d, t):
    p = SemiclassicalParams(dwell_time=tau_D, heisenberg_time=1.0,
                            decoherence_time=tau_d)
    assert loop_correction(p, t) >= 0.0
