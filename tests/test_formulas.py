"""Closed-form layer: parameter maps, decay laws, loop-correction brackets."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaodecay.errors import NumericError
from chaodecay.formulas import (
    REGIMES,
    BathSpec,
    CorrectionCurve,
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

    @pytest.mark.parametrize("field, message", [
        ("damping", "damping must be non-negative"),
        ("inverse_temperature", "inverse_temperature must be positive"),
        ("hbar", "hbar must be positive"),
    ])
    def test_nan_bath_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            BathSpec(**{"damping": 1.0, "inverse_temperature": 1.0, field: math.nan})

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

    @pytest.mark.parametrize("function, args, message", [
        (dwell_time, (math.nan, 0.1), "area must be positive, got nan"),
        (dwell_time, (1.0, math.nan), "opening_length must be positive and finite, got nan"),
        (dwell_time, (1.0, 0.1, math.nan), "speed must be positive and finite, got nan"),
        (heisenberg_time, (math.nan,), "area must be positive and finite, got nan"),
        (heisenberg_time, (1.0, math.nan), "mass must be positive and finite, got nan"),
        (heisenberg_time, (1.0, 1.0, math.nan), "hbar must be positive and finite, got nan"),
        (decoherence_time, (math.nan, 1.0),
         "coupling_strength must be non-negative and finite, got nan"),
        (decoherence_time, (1.0, math.nan), "position_variance must be non-negative, got nan"),
        (ehrenfest_time, (math.nan, 2.0, 1.0), "lyapunov must be positive and finite, got nan"),
        (ehrenfest_time, (1.0, math.nan, 1.0),
         "encounter_scale must be positive and finite, got nan"),
        (ehrenfest_time, (1.0, 2.0, math.nan), "hbar must be positive and finite, got nan"),
    ])
    def test_nan_argument_rejected(self, function, args, message):
        with pytest.raises(ValueError, match=message):
            function(*args)

    def test_infinite_scales_allowed(self):
        assert dwell_time(math.inf, 0.1) == math.inf
        # zero coupling is no decoherence, whatever the variance
        assert decoherence_time(0.0, math.inf) == math.inf
        p = params(coupling_strength=0.0, position_variance=math.inf)
        assert p.decoherence_time == math.inf


class TestParams:
    def test_tau_d_single_source(self):
        p = params(coupling_strength=0.3, position_variance=0.5)
        assert p.decoherence_time == pytest.approx(decoherence_time(0.3, 0.5),
                                                   rel=1e-15)

    def test_tau_d_conflict_rejected(self):
        with pytest.raises(ValueError):
            params(coupling_strength=0.3, position_variance=0.5,
                   decoherence_time=1.0)

    def test_curve_times_nan_rejected(self):
        # NaN compares false with its neighbours, so it passed the increasing-times test
        with pytest.raises(ValueError, match="times must be non-negative and finite, got nan"):
            CorrectionCurve(times=[0.0, math.nan], bracket=[0.0, 1.0], regime="plain",
                            params=params())

    def test_correction_curve_names_its_times(self):
        # the bracket's own check ran first and named its argument t
        with pytest.raises(ValueError, match="^times must be non-negative and finite, got nan$"):
            correction_curve(params(), [0.0, math.nan])

    def test_infinite_tau_d_conflict_rejected(self):
        # inf - tau_d is inf, within 1e-15 * inf: a relative test alone took them as equal
        with pytest.raises(ValueError, match="inconsistent"):
            params(coupling_strength=0.3, position_variance=0.5, decoherence_time=math.inf)

    def test_tau_d_consistent_accepted(self):
        p = params(coupling_strength=0.3, position_variance=0.5,
                   decoherence_time=10.0 / 3.0)
        assert p.decoherence_time == pytest.approx(10.0 / 3.0)

    def test_tau_d_infinite_at_zero_coupling(self):
        # zero coupling derives tau_d = inf, which a given inf agrees with
        p = params(coupling_strength=0.0, position_variance=1.0, decoherence_time=math.inf)
        assert p.decoherence_time == math.inf

    def test_time_product_underflow_rejected(self):
        # the loop corrections divide by dwell_time * heisenberg_time
        with pytest.raises(ValueError, match="underflows"):
            params(dwell_time=1e-300, heisenberg_time=1e-300, decoherence_time=1e-300)
        assert params(dwell_time=1e-150, heisenberg_time=1e-150).dwell_time == 1e-150

    @pytest.mark.parametrize("field, message", [
        ("dwell_time", "dwell_time must be positive"),
        ("heisenberg_time", "heisenberg_time must be positive"),
        ("lyapunov", "lyapunov must be non-negative"),
        ("hbar", "hbar must be positive"),
        ("ehrenfest_time", "ehrenfest_time must be non-negative"),
        ("loop_formation_time", "loop_formation_time must be non-negative"),
        ("decoherence_time", "decoherence_time must be positive"),
        ("coupling_strength", "coupling_strength must be non-negative"),
        ("position_variance", "position_variance must be non-negative"),
    ])
    def test_nan_field_rejected(self, field, message):
        # a NaN compares false both ways, so each check accepts only what it names
        kw = {"coupling_strength": 0.3, "position_variance": 0.5} if field in (
            "coupling_strength", "position_variance") else {}
        with pytest.raises(ValueError, match=message):
            params(**{**kw, field: math.nan})

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

    def test_normal_range_prefactor_bits(self):
        t = np.linspace(0.0, 3.0, 31)
        expected = np.exp(-t / 0.3) * (0.2 * 0.2 / (1.0 * 0.3)) * loop_kernel(t / 0.2)
        np.testing.assert_array_equal(loop_correction(params(decoherence_time=0.2), t), expected)

    @pytest.mark.parametrize("scale, tau_d", [(1e-100, 1e-170), (1e194, 1e200)],
                             ids=["tau_d^2 underflows", "tau_d^2 overflows"])
    def test_prefactor_outside_float_range(self, scale, tau_d):
        # every time scaled by the same factor leaves the bracket as it is
        t = np.linspace(0.0, 3.0, 31)
        unit = SemiclassicalParams(dwell_time=1.0, heisenberg_time=1.0,
                                   decoherence_time=tau_d / scale)
        scaled = SemiclassicalParams(dwell_time=scale, heisenberg_time=scale,
                                     decoherence_time=tau_d)
        np.testing.assert_allclose(loop_correction(scaled, scale * t), loop_correction(unit, t),
                                   rtol=1e-13)
        assert loop_correction(scaled, scale * t)[1:].min() > 0.0


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

    def test_underflowing_scale_is_finite(self):
        # 6 T_H tau_D tau_d = 6e-450 underflows, and the bare bracket times
        # 1 - t/(3 tau_d) does not: the same as at every time scale times 1e100
        t = np.linspace(0.0, 3.0, 11)
        p = SemiclassicalParams(dwell_time=1e-100, heisenberg_time=1e-100,
                                decoherence_time=1e-250)
        got = loop_correction_short_time(p, 1e-100 * t)
        expected = bare_quantum_correction(params(dwell_time=1.0), t) * (1.0 - t / 3e-150)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, expected, rtol=1e-13)


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

    def test_telemetry_counts_newton_iterations(self):
        p = params(decoherence_time=0.1)
        telemetry = {}
        assert correction_peak(p, telemetry=telemetry) == correction_peak(p)
        assert set(telemetry) == {"iterations"}
        assert 0 < telemetry["iterations"] <= 6
        # Newton settles in a few steps for any tau_D/tau_d; the closed forms take none
        for tau_d in np.geomspace(1e-6, 1e7, 200):
            for regime in REGIMES:
                correction_peak(params(decoherence_time=tau_d), regime, telemetry)
                assert telemetry["iterations"] <= (0 if regime == "short_time" else 6)
        correction_peak(params(), telemetry=telemetry)
        assert telemetry["iterations"] == 0

    def test_scale_invariance(self):
        k = 5.0
        t1, _ = correction_peak(params(decoherence_time=0.1))
        t2, _ = correction_peak(SemiclassicalParams(
            dwell_time=0.3 * k, heisenberg_time=k, decoherence_time=0.1 * k))
        assert t2 == pytest.approx(k * t1, rel=1e-14)

    # (tau_D, tau_d, t_E, t_lL): the bundled peak, psi's series and its closed form on
    # either side of their seam, the kernel's own seam, strong decoherence, and gates
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("tau_D, tau_d, t_E, t_lL", [
        (1.0, 1e6, 0.0, 0.0),
        (0.3, 0.1, 0.1, 0.05),
        (1.0, 101.0, 0.2, 0.0),
        (1.0, 99.0, 0.0, 0.3),
        (21.325854680761836, 37531.80502560088, 1.0, 2.0),
        (1.0, 1e-3, 0.05, 0.05),
        (2e-7, 3e-5, 1e-7, 4e-8),
        (5e4, 2e4, 3e3, 1e4),
    ])
    def test_peak_is_the_stationary_point(self, regime, tau_D, tau_d, t_E, t_lL):
        # the root of d/dt log(bracket), from the bracket's own formula at 50 digits
        mpmath = pytest.importorskip("mpmath")
        p = SemiclassicalParams(dwell_time=tau_D, heisenberg_time=1.0, decoherence_time=tau_d,
                                ehrenfest_time=t_E, loop_formation_time=t_lL)
        t_star, value = correction_peak(p, regime)
        with mpmath.workdps(50):
            D, d = mpmath.mpf(tau_D), mpmath.mpf(tau_d)
            gate = 2 * mpmath.mpf(t_E) + 2 * mpmath.mpf(t_lL) if regime == "ehrenfest" else 0

            def log_bracket(t):
                if regime == "short_time":
                    return -t / D + 2 * mpmath.log(t) + mpmath.log(1 - t / (3 * d))
                y = (t - gate) / d
                return -t / D + mpmath.log(mpmath.exp(-y) - 1 + y)
            # a sign change of the derivative within 1e-6 of the peak found
            exact = mpmath.findroot(lambda t: mpmath.diff(log_bracket, t),
                                    (t_star * (1 - 1e-6), t_star * (1 + 1e-6)), solver="anderson")
        assert t_star == pytest.approx(float(exact), rel=1e-13, abs=0.0)
        assert value == correction_curve(p, [t_star], regime).bracket[0]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_infinite_tau_d_peak_is_exact(self, regime):
        p = params(ehrenfest_time=0.1, loop_formation_time=0.05)
        gate = 2.0 * 0.1 + 2.0 * 0.05 if regime == "ehrenfest" else 0.0
        telemetry = {}
        t_star, _ = correction_peak(p, regime, telemetry)
        assert t_star == gate + 2.0 * 0.3
        assert telemetry["iterations"] == 0

    def test_peak_past_the_decoherence_scale_ratio(self):
        # tau_D/tau_d overflows: the peak is tau_D + tau_d past the gate, tau_D to rounding,
        # where the bracket is e^-1 tau_d t/(T_H tau_D)
        p = SemiclassicalParams(dwell_time=1e10, heisenberg_time=1e-305, decoherence_time=1e-300)
        t_star, value = correction_peak(p)
        assert t_star == 1e10
        assert value == pytest.approx(math.exp(-1.0) * 1e5, rel=1e-12)

    def test_underflowing_peak_raises(self):
        # exp(-2 t_lL/tau_d) = exp(-1e5) is 0: the bracket is 0 at its maximum too
        p = params(dwell_time=1.0, decoherence_time=1e-6, ehrenfest_time=0.1,
                   loop_formation_time=0.05)
        with pytest.raises(NumericError, match="the correction bracket is 0.0 at its peak"):
            correction_peak(p, regime="ehrenfest")

    def test_short_time_peak_below_the_float_range_of_its_scales(self):
        # tau_d/tau_D = 1e-150: the peak is 2 tau_d, where the bracket is 2 tau_d^2/(T_H tau_D)
        p = params(dwell_time=1e-100, heisenberg_time=1e-100, decoherence_time=1e-250)
        t_star, value = correction_peak(p, regime="short_time")
        assert t_star == 2e-250
        assert value == pytest.approx(2.0 / 3.0 * 1e-300, rel=1e-14)


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


_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("tau_d", [math.inf, 1e-12])
def test_rows_decayed_to_zero_are_zero(regime, tau_d):
    # exp(-t/tau_D) is 0 past t ~ 745 tau_D, where t/T_H or t/tau_d overflows:
    # 0 * inf there, but the bracket is 0 to any precision
    p = SemiclassicalParams(dwell_time=1.0, heisenberg_time=1e-12, decoherence_time=tau_d)
    t = np.linspace(0.0, 1e300, 16)
    if regime == "short_time" and tau_d < math.inf:
        # its factor 1 - t/(3 tau_d) overflows too, where the expansion means nothing
        with pytest.raises(ValueError, match="leaves the float range"):
            total_survival(p, t, regime)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = total_survival(p, t, regime) - classical_survival(p, t)
    assert np.isfinite(values).all()
    assert (values[1:] == 0.0).all()


@pytest.mark.parametrize("tau_d", [math.inf, 1e250])
def test_rows_decayed_to_zero_keep_their_value(tau_d):
    # exp(-760) underflows to 0, yet the bracket at t = 7.6e302 is in range:
    # e^-760 t^2/(2 T_H tau_D) = 2.5e-5 at tau_d = inf, and with the kernel
    # ~ t/tau_d, e^-760 tau_d t/(T_H tau_D) = 6.6e-58 at tau_d = 1e250
    import mpmath

    p = SemiclassicalParams(dwell_time=1e300, heisenberg_time=1e-20, decoherence_time=tau_d)
    t = np.array([7.6e302, 8e302, 1e303])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = loop_correction(p, t)
    with mpmath.workdps(40):
        for value, time in zip(values, t):
            u, d_, h = mpmath.mpf(time), mpmath.mpf(1e300), mpmath.mpf(1e-20)
            if tau_d == math.inf:
                exact = mpmath.exp(-u / d_) * u * u / (2 * h * d_)
            else:
                y = u / mpmath.mpf(tau_d)
                exact = (mpmath.exp(-u / d_) * mpmath.mpf(tau_d) ** 2 / (h * d_)
                         * (mpmath.exp(-y) - 1 + y))
            assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert (values > 0.0).all()


@pytest.mark.parametrize("tau_d", [math.inf, 1e-10])
def test_rows_overflowing_before_their_decay_keep_their_value(tau_d):
    # exp(-100) is still positive at t = 1e302, but t/T_H (tau_d = inf) or
    # t/tau_d overflows before the decay and the prefactor bring the bracket
    # back into range: 1.86e280 at tau_d = inf, 3.7e-32 at tau_d = 1e-10
    import mpmath

    p = SemiclassicalParams(dwell_time=1e300, heisenberg_time=1e-20, decoherence_time=tau_d)
    t = np.array([0.0, 5e301, 1e302])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = loop_correction(p, t)
    with mpmath.workdps(40):
        u, d_, h = mpmath.mpf(1e302), mpmath.mpf(1e300), mpmath.mpf(1e-20)
        if tau_d == math.inf:
            exact = mpmath.exp(-u / d_) * u * u / (2 * h * d_)
        else:
            y = u / mpmath.mpf(tau_d)
            exact = (mpmath.exp(-u / d_) * mpmath.mpf(tau_d) ** 2 / (h * d_)
                     * (mpmath.exp(-y) - 1 + y))
    assert values[-1] == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert values[0] == 0.0 and np.isfinite(values).all()
    if tau_d == math.inf:
        assert values[-1] == pytest.approx(1.860037988010418e280, rel=1e-12, abs=0.0)


@given(st.sampled_from(REGIMES), _LOG_UNIFORM, _LOG_UNIFORM,
       st.one_of(st.just(math.inf), _LOG_UNIFORM), _LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_bracket_float_range_property(regime, tau_D, T_H, tau_d, t_E, t_lL, t_max):
    # a result with every row finite, or a ValueError; never inf, NaN or a
    # numpy RuntimeWarning, whatever the time scales
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            p = SemiclassicalParams(dwell_time=tau_D, heisenberg_time=T_H, decoherence_time=tau_d,
                                    ehrenfest_time=t_E, loop_formation_time=t_lL)
            values = total_survival(p, np.linspace(0.0, t_max, 16), regime)
        except ValueError:
            return
    assert np.isfinite(values).all()


@given(st.sampled_from(REGIMES), _LOG_UNIFORM, _LOG_UNIFORM,
       st.one_of(st.just(math.inf), _LOG_UNIFORM), _LOG_UNIFORM, _LOG_UNIFORM)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_peak_float_range_property(regime, tau_D, T_H, tau_d, t_E, t_lL):
    # a finite positive peak, a ValueError where the bracket there leaves the float range,
    # or a NumericError where it underflows; never a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            p = SemiclassicalParams(dwell_time=tau_D, heisenberg_time=T_H, decoherence_time=tau_d,
                                    ehrenfest_time=t_E, loop_formation_time=t_lL)
            t_star, value = correction_peak(p, regime)
        except (ValueError, NumericError):
            return
    assert 0.0 < t_star < math.inf and 0.0 < value < math.inf
