"""Monte Carlo layer: sampling, survival, escape-rate fits, Lyapunov, sigma^2."""

import concurrent.futures
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from chaodecay import ensemble
from chaodecay.dynamics import escape_times, sample_positions
from chaodecay.ensemble import (
    _TAG_SAMPLING,
    EnsembleSpec,
    SurvivalCurve,
    decoherence_functional,
    _log_stretch,
    _philox,
    _sample_block,
    _sample_rows,
    estimate_lyapunov,
    fit_escape_rate,
    hybrid_time_grid,
    mean_free_time,
    position_variance,
    sample_ensemble,
    survival_curve,
)
from chaodecay.errors import NumericError, StatsError
from chaodecay.geometry import SHAPES, CavityGeometry

from benettin import benettin_lyapunov

CARDIOID_OPENING = 2.0 * math.sqrt(2.0)  # arclength of the (0, 1) boundary point


def circle(opening=0.1):
    return CavityGeometry(shape="circle", scale=1.0, opening_center=0.5,
                          opening_length=opening)


def cardioid(opening=0.2):
    return CavityGeometry(shape="cardioid", scale=1.0,
                          opening_center=CARDIOID_OPENING, opening_length=opening)


class TestSampling:
    def test_circle_mean_position(self):
        g = circle()
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=100_000, seed=1))
        # each coordinate has variance <x^2> = 1/4 for the unit disk
        se = math.sqrt(0.25 / 100_000)
        assert abs(pos[:, 0].mean()) < 3 * se
        assert abs(pos[:, 1].mean()) < 3 * se
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)

    def test_cardioid_disk_fraction(self):
        # empirical mass inside a probe disk matches a dense-grid area oracle
        g = cardioid()
        n = 100_000
        pos, _ = sample_ensemble(g, EnsembleSpec(n_samples=n, seed=2))
        centre, radius = np.array([0.9, 0.2]), 0.5
        frac = np.mean(np.linalg.norm(pos - centre, axis=-1) < radius)

        gx, gy = np.meshgrid(np.linspace(-0.3, 2.05, 1600),
                             np.linspace(-1.35, 1.35, 1600))
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        phi = np.arctan2(grid[:, 1], grid[:, 0])
        inside = np.hypot(grid[:, 0], grid[:, 1]) <= 1.0 + np.cos(phi)
        in_disk = np.linalg.norm(grid - centre, axis=-1) < radius
        oracle = np.sum(inside & in_disk) / np.sum(inside)

        se = math.sqrt(oracle * (1 - oracle) / n)
        assert abs(frac - oracle) < 3 * se + 1e-3  # grid oracle has ~1e-3 bias

    def test_seed_determinism(self):
        g = cardioid()
        a = sample_ensemble(g, EnsembleSpec(n_samples=500, seed=9))
        b = sample_ensemble(g, EnsembleSpec(n_samples=500, seed=9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_prefix_stability(self):
        # growing the ensemble leaves earlier draws untouched
        g = cardioid()
        small = sample_ensemble(g, EnsembleSpec(n_samples=300, seed=4))
        large = sample_ensemble(g, EnsembleSpec(n_samples=9000, seed=4))
        np.testing.assert_array_equal(small[0], large[0][:300])
        np.testing.assert_array_equal(small[1], large[1][:300])

    def test_all_inside(self):
        g = cardioid()
        pos, _ = sample_ensemble(g, EnsembleSpec(n_samples=20_000, seed=5))
        assert np.all(g.contains(pos))

    @pytest.mark.parametrize("n", [1, 2047, 2049, 8191, 8193, 20001])
    def test_blocks_equal_one_draw(self, n):
        # the stream drawn block by block gives the rows of one whole draw
        g = cardioid()
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=n, seed=17))
        whole_pos, whole_dirs = _sample_block(g, n, _philox(17, _TAG_SAMPLING))
        np.testing.assert_array_equal(pos, whole_pos)
        np.testing.assert_array_equal(dirs, whole_dirs)

    # 49 uniforms a row, 4 a Philox step: starts at every residue mod 4, in
    # and across the second block, of one row and of more than one block
    @pytest.mark.parametrize("start, stop", [(0, 5), (1, 6), (2, 3), (3, 40), (7, 8),
                                             (50, 99), (2046, 2051), (2047, 2048),
                                             (2048, 2049), (2046, 4100), (4099, 4100)])
    def test_rows_equal_slice_of_one_draw(self, start, stop):
        g = cardioid()
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=4100, seed=17))
        rows_pos, rows_dirs = _sample_rows(g, 17, start, stop)
        np.testing.assert_array_equal(rows_pos, pos[start:stop])
        np.testing.assert_array_equal(rows_dirs, dirs[start:stop])

    def test_rejection_budget(self, monkeypatch):
        # a stub that rejects all but each row's last candidate: the rows take
        # it and every candidate counts as tested; one that rejects them all
        # exhausts the budget
        g = cardioid()
        uniforms = _philox(3, _TAG_SAMPLING).random((5, 2 * ensemble._REJECTION_TRIES + 1))
        lo, hi = g.bounding_box()
        calls = []

        def last_only(self, points, tol=0.0):
            calls.append(len(points))
            return np.full(len(points), len(calls) == ensemble._REJECTION_TRIES)

        monkeypatch.setattr(CavityGeometry, "contains", last_only)
        telemetry = {}
        pos, _ = _sample_block(g, 5, _philox(3, _TAG_SAMPLING), telemetry)
        np.testing.assert_array_equal(pos, lo + (hi - lo) * uniforms[:, -3:-1])
        assert calls == [5] * ensemble._REJECTION_TRIES
        assert telemetry == {"candidates": 5 * ensemble._REJECTION_TRIES}
        monkeypatch.setattr(CavityGeometry, "contains",
                            lambda self, points, tol=0.0: np.zeros(len(points), dtype=bool))
        with pytest.raises(NumericError, match="exhausted its candidate budget"):
            _sample_block(g, 5, _philox(3, _TAG_SAMPLING))

    def test_seed_fits_the_key(self):
        # the seed is the low 64 bits of the Philox key, the stream tag the high ones
        EnsembleSpec(n_samples=1, seed=2**64 - 1)
        for seed in (2**64, 2**65 + 5, 2**128, -1):
            with pytest.raises(ValueError, match="seed"):
                EnsembleSpec(n_samples=1, seed=seed)

    def test_peak_memory_bounded(self):
        # numpy reports its buffers to tracemalloc; one whole-ensemble draw of
        # 100k cardioid rows peaks near 177 MB, for 3.2 MB of output
        g = cardioid()
        tracemalloc.start()
        try:
            sample_ensemble(g, EnsembleSpec(n_samples=100_000, seed=6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestTimeGrid:
    def test_shape_and_monotone(self):
        t = hybrid_time_grid(100.0, 5.0, 200)
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(100.0)
        assert np.all(np.diff(t) > 0)
        assert len(t) == 200

    def test_dense_head(self):
        t = hybrid_time_grid(100.0, 5.0, 200)
        head = np.sum(t <= 5.0)
        assert head >= 40  # geometric head resolves the transient

    def test_length_is_n_points(self):
        for n in range(16, 65):
            assert len(hybrid_time_grid(100.0, 5.0, n)) == n
        with pytest.raises(ValueError, match="n_points"):
            hybrid_time_grid(100.0, 5.0, 15)


@pytest.mark.parametrize("call", [
    lambda: EnsembleSpec(n_samples=10, seed=1, speed=math.nan),
    lambda: EnsembleSpec(n_samples=10, seed=1, speed=math.inf),
    lambda: survival_curve(circle(), EnsembleSpec(n_samples=10, seed=1), [0.0, math.nan]),
    lambda: survival_curve(circle(), EnsembleSpec(n_samples=10, seed=1), [0.0, math.inf]),
    lambda: survival_curve(circle(), EnsembleSpec(n_samples=10, seed=1), []),
    lambda: hybrid_time_grid(math.nan, 1.0, 32),
    lambda: hybrid_time_grid(10.0, math.nan, 32),
], ids=["speed-nan", "speed-inf", "times-nan", "times-inf", "times-empty", "t_max-nan",
        "dense_until-nan"])
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestSurvival:
    def test_starts_at_one_and_monotone(self):
        g = cardioid()
        times = hybrid_time_grid(80.0, 5.0, 64)
        curve = survival_curve(g, EnsembleSpec(n_samples=3000, seed=11), times)
        assert curve.survival[0] == 1.0
        assert np.all(np.diff(curve.survival) <= 0)
        np.testing.assert_allclose(
            curve.std_error,
            np.sqrt(curve.survival * (1 - curve.survival) / curve.n_samples),
            atol=1e-12)

    def test_fully_open_collapses(self):
        g = CavityGeometry(shape="circle", scale=1.0, opening_center=0.0,
                           opening_length=2 * math.pi - 1e-9)
        t_coll = mean_free_time(g)
        times = np.linspace(0.0, 6.0 * t_coll, 30)
        curve = survival_curve(g, EnsembleSpec(n_samples=2000, seed=3), times)
        assert curve.survival[-1] < 0.01

    def test_thread_count_invariance(self):
        g = cardioid()
        times = hybrid_time_grid(60.0, 5.0, 48)
        spec = EnsembleSpec(n_samples=5000, seed=21)
        one = survival_curve(g, spec, times, threads=1)
        eight = survival_curve(g, spec, times, threads=8)
        np.testing.assert_array_equal(one.survival, eight.survival)
        np.testing.assert_array_equal(one.std_error, eight.std_error)

    def test_chunk_layout_invariance(self, monkeypatch):
        # sampler blocks, chunk caps, thread and CPU counts: same bytes, with
        # 61 rows a multiple of none of the blocks or chunks
        g = cardioid(opening=1.0)
        times = hybrid_time_grid(12.0, 3.0, 40)
        spec = EnsembleSpec(n_samples=61, seed=13)
        ref = survival_curve(g, spec, times)
        assert ref.telemetry == {"collisions": ref.telemetry["collisions"], "workers": 1,
                                 "chunks": 1, "rows_per_chunk": 61,
                                 "sampler_acceptance": ref.telemetry["sampler_acceptance"]}
        for block, cap in ((8192, 65536), (16, 1), (7, 20), (10, 3)):
            monkeypatch.setattr(ensemble, "_SAMPLE_BLOCK", block)
            monkeypatch.setattr(ensemble, "_MAX_CHUNK_ROWS", cap)
            for cpus in (1, 2, 8):
                monkeypatch.setattr(ensemble, "_usable_cpus", lambda cpus=cpus: cpus)
                for threads in (1, 2, 8):
                    curve = survival_curve(g, spec, times, threads=threads)
                    np.testing.assert_array_equal(curve.survival, ref.survival)
                    np.testing.assert_array_equal(curve.std_error, ref.std_error)
                    tel = curve.telemetry
                    assert tel["collisions"] == ref.telemetry["collisions"]
                    assert tel["sampler_acceptance"] == ref.telemetry["sampler_acceptance"]
                    assert tel["rows_per_chunk"] <= cap
                    assert tel["chunks"] == -(-61 // tel["rows_per_chunk"])
                    assert tel["workers"] == min(threads, cpus, tel["chunks"])

    def test_one_worker_starts_no_process(self, monkeypatch):
        # one thread, or no fork start method: the chunks run in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 8)
        g = cardioid(opening=1.0)
        times = hybrid_time_grid(12.0, 3.0, 40)
        spec = EnsembleSpec(n_samples=61, seed=13)
        with pytest.raises(AssertionError, match="pool was started"):
            survival_curve(g, spec, times, threads=2)
        ref = survival_curve(g, spec, times, threads=1)
        assert ref.telemetry["workers"] == 1
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        curve = survival_curve(g, spec, times, threads=8)
        assert curve.telemetry == ref.telemetry
        np.testing.assert_array_equal(curve.survival, ref.survival)
        np.testing.assert_array_equal(curve.std_error, ref.std_error)
        assert multiprocessing.active_children() == []

    def test_parent_samples_no_row(self, monkeypatch):
        # each chunk samples its own rows; with a pool, none in this process
        g = cardioid(opening=1.0)
        times = hybrid_time_grid(12.0, 3.0, 40)
        spec = EnsembleSpec(n_samples=61, seed=13)
        ref = survival_curve(g, spec, times)
        parent, sample_rows = os.getpid(), ensemble._sample_rows

        def sample_whole(*args):
            raise AssertionError("the whole ensemble was sampled")

        def sample_in_worker(*args):
            assert os.getpid() != parent, "the parent sampled rows"
            return sample_rows(*args)

        monkeypatch.setattr(ensemble, "sample_ensemble", sample_whole)
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
        one = survival_curve(g, spec, times, threads=1)
        monkeypatch.setattr(ensemble, "_sample_rows", sample_in_worker)
        two = survival_curve(g, spec, times, threads=2)
        assert (one.telemetry["workers"], two.telemetry["workers"]) == (1, 2)
        for curve in (one, two):
            np.testing.assert_array_equal(curve.survival, ref.survival)
            np.testing.assert_array_equal(curve.std_error, ref.std_error)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sampler_acceptance(self, shape):
        # rows over candidates tested estimates the area's share p of the
        # sampling box; a row tests a geometric number of candidates, so the
        # estimate's standard error is p sqrt((1 - p) / n)
        g = CavityGeometry(shape=shape, opening_length=1.0)
        lo, hi = g.bounding_box()
        p = g.area / np.prod(hi - lo)
        n = 20_000
        curve = survival_curve(g, EnsembleSpec(n_samples=n, seed=23), [0.0, 0.5])
        assert abs(curve.telemetry["sampler_acceptance"] - p) < 5 * p * math.sqrt((1 - p) / n)

    def test_equals_fraction_still_inside(self):
        # survival(t) is the fraction of escape times > t, ties (escape
        # exactly at a grid time) and survivors (inf) included
        g = CavityGeometry(shape="stadium", scale=1.0, opening_center=1.0,
                           opening_length=0.3)
        spec = EnsembleSpec(n_samples=3000, seed=9)
        pos, dirs = sample_ensemble(g, spec)
        esc, _ = escape_times(g, pos, dirs, spec.speed, 60.0)
        assert np.isinf(esc).any()
        times = np.unique(np.concatenate([np.linspace(0.0, 60.0, 50), esc[:40]]))
        times = times[np.isfinite(times)]
        curve = survival_curve(g, spec, times)
        expected = (esc[None, :] > times[:, None]).mean(axis=1)
        np.testing.assert_array_equal(curve.survival, expected)


def _curve(esc, times):
    """The `SurvivalCurve` of escape times ``esc`` censored at ``times[-1]``."""
    esc = np.sort(np.where(np.asarray(esc) <= times[-1], esc, np.inf))
    n = len(esc)
    survival = (n - np.searchsorted(esc, times, side="right")) / n
    return SurvivalCurve(times=times, survival=survival,
                         std_error=np.sqrt(survival * (1.0 - survival) / n),
                         n_samples=n, escape_times=esc)


def _quantile_escapes(n, tau, k):
    """n escape times of an exponential with mean ``tau`` without noise: the
    exponential's mean over each of its first k equal-probability bins, and
    ``inf`` past them; the censoring time is the end of bin k."""
    edges = -tau * np.log1p(-np.arange(k + 1) / n)
    mass = edges * (1.0 - np.arange(k + 1) / n)  # t S(t) at each edge
    esc = np.full(n, np.inf)
    esc[:k] = tau + n * (mass[:-1] - mass[1:])  # tau + (a S(a) - b S(b)) / (S(a) - S(b))
    return esc, edges[-1]


class TestEscapeFit:
    def test_exact_exponential(self):
        # without noise the exposure is exactly tau per escape
        n = 10**5
        esc, t_cens = _quantile_escapes(n, 3.0, int(n * (1.0 - math.exp(-4.0))))
        curve = _curve(esc, np.linspace(0.0, t_cens, 200))
        fit = fit_escape_rate(curve, (0.0, 12.0))
        assert fit.rate == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_binomial_noise(self):
        rng = np.random.default_rng(17)
        n = 100_000
        curve = _curve(rng.exponential(3.0, n), np.linspace(0.0, 9.0, 80))
        fit = fit_escape_rate(curve, (0.5, 9.0))
        assert abs(fit.rate - 1.0 / 3.0) < 3.0 * fit.std_error

    def test_too_few_escapes(self):
        t = np.linspace(0.0, 1.0, 5)
        curve = _curve(np.exp(np.linspace(2.0, 4.0, 1000)), t)  # none escapes by t = 1
        with pytest.raises(StatsError, match="only 0 escapes"):
            fit_escape_rate(curve, (0.0, 1.0))

    @pytest.mark.parametrize("k", [9, 10])
    def test_ten_escapes_is_the_threshold(self, k):
        esc = np.concatenate([np.linspace(1.0, 2.0, k), np.full(50, 2.5)])
        curve = _curve(esc, np.linspace(0.0, 3.0, 16))
        if k < 10:
            with pytest.raises(StatsError, match=f"only {k} escapes"):
                fit_escape_rate(curve, (0.5, 2.0))
        else:
            fit = fit_escape_rate(curve, (0.5, 2.0))
            exposure = (esc[:k] - 0.5).sum() + 50 * 1.5
            assert (fit.n_escapes, fit.rate) == (k, k / exposure)
            assert fit.std_error == fit.rate / math.sqrt(k)

    def test_window_clipped_to_censoring_time(self):
        rng = np.random.default_rng(5)
        curve = _curve(rng.exponential(3.0, 2000), np.linspace(0.0, 6.0, 40))
        clipped = fit_escape_rate(curve, (1.0, 6.0))
        assert fit_escape_rate(curve, (1.0, 50.0)) == clipped
        assert clipped.window == (1.0, 6.0)
        with pytest.raises(StatsError, match="only 0 escapes"):  # starts past the censoring
            fit_escape_rate(curve, (7.0, 9.0))

    def test_grid_between_does_not_matter(self):
        rng = np.random.default_rng(5)
        esc = rng.exponential(3.0, 2000)
        fits = [fit_escape_rate(_curve(esc, times), (0.7, 6.0))
                for times in ([0.0, 6.0], np.linspace(0.0, 6.0, 97),
                              hybrid_time_grid(6.0, 0.5, 30))]
        assert fits[0] == fits[1] == fits[2]

    def test_error_matches_seed_spread(self):
        # the reported error is the seed-to-seed spread of the rate; a standard
        # deviation over 16 seeds scatters by about 18%, well inside [0.5, 2]
        g = cardioid(opening=0.4)
        tau = math.pi * g.area / 0.4
        times = hybrid_time_grid(2.0 * tau, 3.0 * mean_free_time(g), 200)
        fits = [fit_escape_rate(survival_curve(g, EnsembleSpec(n_samples=2000, seed=seed), times),
                                (3.0 * mean_free_time(g), 2.0 * tau))
                for seed in range(16)]
        spread = np.std([f.rate for f in fits], ddof=1)
        assert 0.5 <= spread / np.mean([f.std_error for f in fits]) <= 2.0

    def test_rate_scales_with_opening(self):
        # rate roughly proportional to l; absolute agreement with pi*A/(l*v)
        # tightens as l shrinks (the acceptance suite checks 5% at l = 0.1)
        rates = {}
        for l in (0.4, 0.2):
            g = cardioid(opening=l)
            tau = math.pi * g.area / l
            times = hybrid_time_grid(3.0 * tau, 6.0, 90)
            curve = survival_curve(g, EnsembleSpec(n_samples=20_000, seed=29), times)
            fit = fit_escape_rate(curve, (2.0 / 0.35, 3.0 * tau))
            rates[l] = fit.rate
        assert rates[0.2] == pytest.approx(1.0 / (math.pi * 1.5 * math.pi / 0.2), rel=0.10)
        assert rates[0.4] / rates[0.2] == pytest.approx(2.0, rel=0.12)


class TestLyapunov:
    def test_cardioid_positive_and_tight(self):
        g = cardioid()
        t_coll = mean_free_time(g)
        res = estimate_lyapunov(g, EnsembleSpec(n_samples=100, seed=7),
                                t_obs=150.0 * t_coll)
        assert res.value > 0
        assert res.statistical_error / res.value <= 0.05
        assert 0.2 < res.value < 0.6  # sane magnitude for the unit cardioid

    def test_stationarity_under_doubling(self):
        g = cardioid()
        spec = EnsembleSpec(n_samples=48, seed=13)
        short = estimate_lyapunov(g, spec, t_obs=120.0)
        long = estimate_lyapunov(g, spec, t_obs=240.0)
        assert abs(short.value - long.value) < 2.0 * (short.std_error + long.std_error)

    def test_scale_invariance(self):
        base = estimate_lyapunov(cardioid(), EnsembleSpec(n_samples=48, seed=19),
                                 t_obs=150.0)
        scaled_geom = CavityGeometry(shape="cardioid", scale=2.0,
                                     opening_center=2 * CARDIOID_OPENING,
                                     opening_length=0.4)
        scaled = estimate_lyapunov(scaled_geom,
                                   EnsembleSpec(n_samples=48, seed=19, speed=2.0),
                                   t_obs=150.0)
        assert abs(base.value - scaled.value) < 2.0 * (base.std_error + scaled.std_error)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_agrees_with_benettin_oracle(self, shape):
        # the bundled config's ensemble; on the stadium the two differ by 1.4
        # combined standard errors
        g = CavityGeometry(shape=shape, scale=1.0)
        spec = EnsembleSpec(n_samples=256, seed=21)
        res = estimate_lyapunov(g, spec, t_obs=400.0)
        value, std_error = benettin_lyapunov(g, spec, t_obs=400.0)
        assert abs(res.value - value) <= 3.0 * math.hypot(res.std_error, std_error)

    def test_bouncing_ball_orbit_does_not_stretch(self):
        # vertical flights between the stadium's straights (kappa = 0) keep a
        # flat wavefront flat: every flight has log|1 + tau B| = log 1
        g = CavityGeometry(shape="stadium", scale=1.0)
        pos = np.array([[0.3, 0.0], [-0.7, 0.2]])
        dirs = np.array([[0.0, 1.0], [0.0, -1.0]])
        stretch, events = _log_stretch(g, pos, dirs, 1.0, np.array([10.0, 55.0, 100.0]))
        assert np.all(stretch == 0.0)
        assert events == {"collisions": 100, "cusp_events": 0, "grazing_events": 0}

    def test_grazing_hit_keeps_curvature(self):
        # a grazing hit inserted halfway along a flight is the identity: the
        # two half flights stretch the front as the whole flight does
        g = circle()
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=3, seed=8))
        edges = np.array([2.0, 5.0, 9.0])
        plain, plain_events = _log_stretch(g, pos, dirs, 1.0, edges)
        table = _GrazesOnce(g, call=4)
        stretch, events = _log_stretch(table, pos, dirs, 1.0, edges)
        assert table.calls > 4
        np.testing.assert_allclose(stretch, plain, rtol=1e-9, atol=1e-12)
        assert events == {**plain_events, "collisions": plain_events["collisions"] + 1,
                          "grazing_events": 1}

    def test_counts_collisions(self):
        # about one collision per mean free time and trajectory
        g = cardioid()
        res = estimate_lyapunov(g, EnsembleSpec(n_samples=32, seed=3), t_obs=100.0)
        expected = res.n_pairs * res.t_obs / mean_free_time(g)
        assert abs(res.telemetry["collisions"] - expected) < 0.1 * expected
        assert res.telemetry["cusp_events"] == res.telemetry["grazing_events"] == 0


_ENGINE_CALLS = {
    "escape_times": lambda g, pos, dirs: escape_times(g, pos, dirs, 1.0, 12.0),
    "sample_positions": lambda g, pos, dirs: sample_positions(g, pos, dirs, 1.0, 0.1, 120),
    "_log_stretch": lambda g, pos, dirs: _log_stretch(g, pos, dirs, 1.0,
                                                      np.array([3.0, 6.0, 12.0])),
}


@pytest.mark.parametrize("run", list(_ENGINE_CALLS.values()), ids=list(_ENGINE_CALLS))
def test_engine_leaves_inputs_alone(run):
    # read-only inputs turn any write into an error, and a second call on
    # the same arrays starts where the first did
    g = cardioid()
    pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=16, seed=4))
    pos.setflags(write=False)
    dirs.setflags(write=False)
    np.testing.assert_equal(run(g, pos, dirs), run(g, pos, dirs))


class _GrazesOnce:
    """Table that reports one extra hit halfway along row 0's flight on a chosen
    `ray_hits` call, with the normal perpendicular to the ray (a grazing hit)."""

    def __init__(self, table, call):
        self.table = table
        self.call = call
        self.calls = 0

    def ray_hits(self, pos, dirs):
        dist, s_hit, hit, nrm, cusp = self.table.ray_hits(pos, dirs)
        self.calls += 1
        if self.calls == self.call:
            dist[0] *= 0.5
            hit[0] = pos[0] + dist[0] * dirs[0]
            nrm[0] = (-dirs[0, 1], dirs[0, 0])
        return dist, s_hit, hit, nrm, cusp

    def curvature(self, s):
        return self.table.curvature(s)


class TestPositionVariance:
    def test_circle_analytic(self):
        g = circle()
        res = position_variance(g, EnsembleSpec(n_samples=100_000, seed=23))
        assert abs(res.sigma2_area - 0.5) < 3.0 * res.sigma2_area_stderr
        assert res.ergodic_warning  # circle is not ergodic

    def test_cardioid_ergodic(self):
        g = cardioid()
        res = position_variance(g, EnsembleSpec(n_samples=50_000, seed=31))
        # closed-form area average: <r^2> - |<r>|^2 = 35/24 - 25/36 = 55/72
        assert abs(res.sigma2_area - 55.0 / 72.0) < 3.0 * res.sigma2_area_stderr
        assert res.rel_diff < 0.05
        assert not res.ergodic_warning


def _orbit(g, pos, direction, t_max, dt):
    """Closed-cavity samples of one unit-speed orbit on the grid k * dt up to t_max."""
    return sample_positions(g, np.array([pos]), np.array([direction]), 1.0, dt,
                            int(round(t_max / dt)))[0]


class TestDecoherenceFunctional:
    def test_diagonal_pair_vanishes(self):
        g = cardioid()
        orbit = _orbit(g, [0.3, 0.2], [0.6, 0.8], 20.0, 0.1)
        assert np.all(decoherence_functional(orbit, orbit, 0.7, 0.1) == 0.0)

    def test_constant_offset_exact(self):
        dt, n, d = 0.05, 401, np.array([0.3, -0.4])
        base = np.cumsum(np.full((n, 2), 0.01), axis=0)
        t = dt * (n - 1)
        alpha = 0.9
        expected = alpha * float(d @ d) * t
        running = decoherence_functional(base, base + d, alpha, dt)
        assert running[0] == 0.0
        assert running[-1] == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        g = cardioid()
        pa = _orbit(g, [0.3, 0.2], [0.6, 0.8], 15.0, 0.1)
        pb = _orbit(g, [1.1, -0.3], [0.0, 1.0], 15.0, 0.1)
        ab = decoherence_functional(pa, pb, 0.4, 0.1)
        ba = decoherence_functional(pb, pa, 0.4, 0.1)
        np.testing.assert_array_equal(ab, ba)
        assert np.all(ab >= 0.0)

    def test_additivity_in_time(self):
        g = cardioid()
        pa = _orbit(g, [0.3, 0.2], [0.6, 0.8], 20.0, 0.1)
        pb = _orbit(g, [1.1, -0.3], [0.0, 1.0], 20.0, 0.1)
        running = decoherence_functional(pa, pb, 1.3, 0.1)
        whole, first = running[200], running[80]
        second = decoherence_functional(pa[80:], pb[80:], 1.3, 0.1)[-1]
        assert first + second == pytest.approx(whole, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decoherence_functional(np.zeros((11, 2)), np.zeros((21, 2)), 1.0, 0.1)

    def test_ergodic_slope_small_ensemble(self):
        # scaled-down version of the acceptance run: 40 pairs, 30 collision times
        g = CavityGeometry(shape="cardioid", scale=1.0,
                           opening_center=CARDIOID_OPENING, opening_length=0.1)
        t_coll = mean_free_time(g)
        alpha, dt = 1e-3, 0.1 * t_coll
        n_steps = int(round(30.0 * t_coll / dt))
        t_end = n_steps * dt
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=80, seed=41))
        samples = sample_positions(g, pos, dirs, 1.0, dt, n_steps)
        vals = decoherence_functional(samples[0::2], samples[1::2], alpha, dt)[:, -1]
        slope = np.mean(vals) / (alpha * t_end)
        assert slope == pytest.approx(2.0 * 55.0 / 72.0, rel=0.15)
