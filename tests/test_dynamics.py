"""Billiard dynamics: reflection law, collision finding, sampling, escape."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaodecay.dynamics import _flights, batch_collide, escape_times, sample_positions
from chaodecay.ensemble import EnsembleSpec, mean_free_time, sample_ensemble, survival_curve
from chaodecay.errors import NumericError
from chaodecay.geometry import SHAPES, CavityGeometry

from benettin import advance_to
from boundary import boundary_point
from circle_oracle import circle_orbits


def make(shape="circle", scale=1.0, opening_center=0.5, opening_length=0.1):
    return CavityGeometry(shape=shape, scale=scale,
                          opening_center=opening_center,
                          opening_length=opening_length)


SQ2 = math.sqrt(0.5)


class _Wall:
    """A table on which every ray meets, at distance 1, a wall with one inward normal."""

    def __init__(self, normal):
        self.normal = np.asarray(normal, dtype=float)

    def ray_hits(self, pos, dirs):
        n = len(pos)
        return (np.ones(n), np.zeros(n), pos + dirs, np.tile(self.normal, (n, 1)),
                np.zeros(n, dtype=bool))


def reflected(incoming, normal):
    """Outgoing directions of `batch_collide` off a wall with the given normal."""
    incoming = np.atleast_2d(np.asarray(incoming, dtype=float))
    return batch_collide(_Wall(normal), np.zeros_like(incoming), incoming)[3]


def flights(g, pos, direction, speed, t_end):
    """Hit times, hit arclengths and outgoing directions of one ray up to ``t_end``.

    A plain loop of one-ray `batch_collide` steps, the reference the batch
    loops are checked against.
    """
    pos = np.asarray(pos, dtype=float)[None]
    direction = np.asarray(direction, dtype=float)[None]
    times, s_hits, outs = [], [], []
    t = 0.0
    while True:
        dist, s_hit, pos, direction, _ = batch_collide(g, pos, direction)
        t = t + dist[0] / speed
        if t > t_end:
            return np.array(times), np.array(s_hits), np.array(outs).reshape(-1, 2)
        times.append(t)
        s_hits.append(s_hit[0])
        outs.append(direction[0])


class TestReflect:
    """`batch_collide` reflects specularly: v - 2 (v.n) n off the inward normal."""

    @pytest.mark.parametrize("incoming, normal, expected", [
        ((-1.0, 0.0), (1.0, 0.0), (1.0, 0.0)),      # normal incidence reverses
        ((0.0, 1.0), (1.0, 0.0), (0.0, 1.0)),       # tangential unchanged
        ((-SQ2, -SQ2), (1.0, 0.0), (SQ2, -SQ2)),    # 45 degrees
    ])
    def test_pinned_cases(self, incoming, normal, expected):
        out = reflected(incoming, normal)[0]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_involution_and_norm(self, a, b):
        v = np.array([math.cos(a), math.sin(a)])
        n = np.array([math.cos(b), math.sin(b)])
        r = reflected(v, n)[0]
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(reflected(r, n)[0], v, atol=1e-14)

    def test_broadcasts(self):
        v = np.tile([-1.0, 0.0], (5, 1))
        np.testing.assert_allclose(reflected(v, [1.0, 0.0]), np.tile([1.0, 0.0], (5, 1)))


class TestNextCollision:
    """`batch_collide` as the collision step: chord lengths and hit arclengths."""

    def test_radial_chord(self):
        g = make()
        dist, s_hit, *_ = batch_collide(g, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        assert dist[0] == pytest.approx(1.0, rel=1e-14)
        assert s_hit[0] == pytest.approx(0.0, abs=1e-12)

    def test_offcenter_chord(self):
        # start (0.5, 0) moving straight up: flight sqrt(1 - 0.25), hit angle
        # atan2(sqrt(0.75), 0.5) = pi/3
        g = make()
        dist, s_hit, *_ = batch_collide(g, np.array([[0.5, 0.0]]), np.array([[0.0, 1.0]]))
        assert dist[0] == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert s_hit[0] == pytest.approx(1.0471975511965976, rel=1e-13)

    def test_speed_scales_flight_time(self):
        # the radial chord of length 1 ends in the opening: escape at 1 / speed
        g = make(opening_center=0.0)
        esc, _ = escape_times(g, np.zeros((1, 2)), np.array([[1.0, 0.0]]), 2.0, 10.0)
        assert esc[0] == pytest.approx(0.5, rel=1e-14)

    def test_circle_map_oracle(self):
        # chord length and reflection angle of the circle map in closed form:
        # for a chord hitting at incidence angle psi (to the normal), every
        # subsequent chord has identical length 2 R cos(psi) and the
        # arclength advances by R (pi - 2 psi) each bounce.
        g = make()
        rng = np.random.default_rng(11)
        pos, mom = [], []
        for _ in range(50):
            r = 0.9 * math.sqrt(rng.uniform())
            th = rng.uniform(0, 2 * math.pi)
            pos.append([r * math.cos(th), r * math.sin(th)])
            phi = rng.uniform(0, 2 * math.pi)
            mom.append([math.cos(phi), math.sin(phi)])
        pos, mom = np.array(pos), np.array(mom)
        _, s1, hit, out, _ = batch_collide(g, pos, mom)
        n_hat = -hit / np.linalg.norm(hit, axis=-1, keepdims=True)
        t2, s2, *_ = batch_collide(g, hit + 1e-12 * n_hat, out)
        for i in range(50):
            cos_psi = -float(mom[i] @ n_hat[i])
            assert t2[i] == pytest.approx(2.0 * cos_psi, abs=1e-9)
            d_s = (s2[i] - s1[i]) % g.perimeter
            step = math.pi - 2.0 * math.acos(min(cos_psi, 1.0))
            assert min(d_s, g.perimeter - d_s) == pytest.approx(
                min(step % (2 * math.pi), 2 * math.pi - step % (2 * math.pi)),
                abs=1e-9)


class TestPropagate:
    """Whole orbits: `sample_positions` in the closed cavity, `escape_times` in the open one."""

    def test_closed_circle_diameter_bounce(self):
        g = make()
        dt, n_steps = 0.01, 1000
        samples = sample_positions(g, np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0,
                                   dt, n_steps)[0]
        # analytic zig-zag: x(t) is a triangle wave between -1 and 1
        t = dt * np.arange(n_steps + 1)
        phase = (t + 1.0) % 4.0
        x_exact = np.where(phase < 2.0, phase - 1.0, 3.0 - phase)
        np.testing.assert_allclose(samples[:, 0], x_exact, atol=1e-9)
        np.testing.assert_allclose(samples[:, 1], 0.0, atol=1e-12)

    def test_fully_open_escapes_first_hit(self):
        g = CavityGeometry(shape="circle", scale=1.0, opening_center=0.0,
                           opening_length=2.0 * math.pi - 1e-9)
        esc, n_coll = escape_times(g, np.zeros((1, 2)), np.array([[0.6, 0.8]]), 1.0, 50.0)
        assert esc[0] == pytest.approx(1.0, rel=1e-9)
        assert n_coll == 1

    def test_collisions_count_hits_due_by_t_max(self):
        # from the centre of the unit circle every flight after the first is a
        # diameter: the ray along +y hits the wall at t = 1 and 3 and is still
        # in flight at t_max = 4.5; the ray at angle 0.5 leaves through the
        # opening at t = 1
        g = make("circle", opening_center=0.5, opening_length=0.1)
        dirs = np.array([[0.0, 1.0], [math.cos(0.5), math.sin(0.5)]])
        esc, n_coll = escape_times(g, np.zeros((2, 2)), dirs, 1.0, 4.5)
        assert esc[0] == math.inf and esc[1] == pytest.approx(1.0, rel=1e-12)
        assert n_coll == 2 + 1

    def test_deterministic_repeats(self):
        g = make("cardioid", opening_center=2.0 * math.sqrt(2.0))
        pos, dirs = np.array([[0.3, 0.1]]), np.array([[0.8, 0.6]])
        a = sample_positions(g, pos, dirs, 1.0, 0.05, 800)
        b = sample_positions(g, pos, dirs, 1.0, 0.05, 800)
        np.testing.assert_array_equal(a, b)
        esc_a, _ = escape_times(g, pos, dirs, 1.0, 40.0)
        esc_b, _ = escape_times(g, pos, dirs, 1.0, 40.0)
        np.testing.assert_array_equal(esc_a, esc_b)

    @pytest.mark.parametrize("shape", ["cardioid", "stadium"])
    def test_speed_conserved(self, shape):
        g = make(shape)
        _, _, outs = flights(g, [0.2, 0.05], [0.28, -0.96], 1.0, 200.0)
        speeds = np.linalg.norm(outs, axis=-1)
        assert len(speeds) > 50
        np.testing.assert_allclose(speeds, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("shape", ["cardioid", "stadium"])
    def test_containment(self, shape):
        g = make(shape)
        samples = sample_positions(g, np.array([[0.1, -0.2]]), np.array([[0.6, 0.8]]), 1.0,
                                   0.21, int(150.0 / 0.21))
        assert np.all(g.contains(samples[0], tol=1e-9 * g.scale))

    def test_time_reversal(self):
        g = make("cardioid")
        start, direction = np.array([0.4, -0.3]), np.array([0.6, 0.8])
        t_span = 25.0  # roughly 10 / lambda for the unit cardioid
        dt, n_steps = 0.5, 50
        fwd = sample_positions(g, start[None], direction[None], 1.0, dt, n_steps)[0]
        # place the reversed start exactly at the forward endpoint, moving
        # back along the direction of the last collision
        _, _, outs = flights(g, start, direction, 1.0, t_span)
        back = sample_positions(g, fwd[-1:], -outs[-1:], 1.0, dt, n_steps)[0]
        np.testing.assert_allclose(back[-1], start, atol=1e-6)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("speed", [1.0, 1.7])
    def test_advance_matches_last_sample(self, shape, speed):
        g = make(shape)
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=64, seed=3))
        dt, n_steps = 0.1 * mean_free_time(g, speed), 300
        last = sample_positions(g, pos, dirs, speed, dt, n_steps)[:, -1]
        end, end_dirs = pos.copy(), dirs.copy()
        advance_to(g, end, end_dirs, np.zeros(len(pos)), n_steps * dt, speed)
        if speed == 1.0:
            np.testing.assert_array_equal(end, last)
        else:
            np.testing.assert_allclose(end, last, rtol=0.0, atol=1e-12 * g.scale)

    def test_escape_point_in_opening(self):
        g = make("cardioid", opening_center=2.0 * math.sqrt(2.0), opening_length=0.8)
        rng = np.random.default_rng(5)
        starts, dirs = [], []
        for _ in range(40):
            pos = rng.uniform([-0.2, -1.0], [1.8, 1.0], size=2)
            if not g.contains(pos):
                continue
            th = rng.uniform(0, 2 * math.pi)
            starts.append(pos)
            dirs.append([math.cos(th), math.sin(th)])
        esc, _ = escape_times(g, np.array(starts), np.array(dirs), 1.0, 500.0)
        seen = 0
        for pos, direction, t_esc in zip(starts, dirs, esc):
            if np.isinf(t_esc):
                continue
            seen += 1
            times, s_hits, _ = flights(g, pos, direction, 1.0, t_esc * (1.0 + 1e-9))
            assert times[-1] == pytest.approx(t_esc, rel=1e-12)
            assert g.opening_contains(s_hits[-1])
            assert not any(g.opening_contains(s) for s in s_hits[:-1])
        assert seen >= 30  # nearly all escape within 500 time units


@pytest.mark.parametrize("shape", SHAPES)
def test_double_speed_halves_escape_times(shape):
    # every flight time is its length over the speed, and halving is exact
    g = make(shape, opening_length=0.4)
    pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=2048, seed=13))
    esc, hits = escape_times(g, pos, dirs, 1.0, 40.0)
    fast, fast_hits = escape_times(g, pos, dirs, 2.0, 20.0)
    assert np.isfinite(esc).sum() > 1000 and np.isinf(esc).any()
    np.testing.assert_array_equal(fast.view(np.uint64), (0.5 * esc).view(np.uint64))
    assert fast_hits == hits


@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sampler_invariants(shape, seed, speed):
    """Samples stay inside, flights are straight at constant speed, orbits reverse."""
    g = make(shape)
    pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=1, seed=seed))
    dt, n_steps = 0.1 * mean_free_time(g, speed), 100
    samples = sample_positions(g, pos, dirs, speed, dt, n_steps)[0]
    assert np.all(g.contains(samples, tol=1e-9 * g.scale))

    hits, _, outs = flights(g, pos[0], dirs[0], speed, n_steps * dt)
    np.testing.assert_allclose(speed * np.linalg.norm(outs, axis=-1), speed, rtol=1e-12)
    # consecutive samples of one flight: speed * dt apart and collinear
    flight = np.searchsorted(hits, dt * np.arange(n_steps + 1))
    step = np.diff(samples, axis=0)
    one_flight = flight[1:] == flight[:-1]
    np.testing.assert_allclose(np.linalg.norm(step[one_flight], axis=-1), speed * dt,
                               rtol=1e-12)
    cross = step[:-1, 0] * step[1:, 1] - step[:-1, 1] * step[1:, 0]
    straight = one_flight[1:] & one_flight[:-1]
    assert np.all(np.abs(cross[straight]) <= 1e-12 * (speed * dt) ** 2)

    end_dir = outs[-1:] if len(outs) else dirs
    back = sample_positions(g, samples[-1:], -end_dir, speed, dt, n_steps)[0]
    np.testing.assert_allclose(back[-1], pos[0], atol=1e-6)


@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.integers(1, 63))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_escape_invariants(shape, seed, split):
    """Escapes are censored at t_max, happen at the first opening hit, give a
    monotone survival curve, and do not depend on how the batch is split."""
    g = make(shape, opening_length=0.4)
    spec = EnsembleSpec(n_samples=64, seed=seed)
    pos, dirs = sample_ensemble(g, spec)
    t_max = 30.0
    esc, _ = escape_times(g, pos, dirs, 1.0, t_max)
    escaped = np.flatnonzero(np.isfinite(esc))
    assert np.all(esc[escaped] <= t_max)

    for i in escaped:
        times, s_hits, _ = flights(g, pos[i], dirs[i], 1.0, esc[i] * (1.0 + 1e-9))
        assert times[-1] == pytest.approx(esc[i], rel=1e-12)
        assert g.opening_contains(s_hits[-1])
        assert not any(g.opening_contains(s) for s in s_hits[:-1])

    surv = survival_curve(g, spec, np.linspace(0.0, t_max, 61)).survival
    assert surv[0] == 1.0
    assert np.all(np.diff(surv) <= 0.0)

    halves = [escape_times(g, pos[sl], dirs[sl], 1.0, t_max)[0]
              for sl in (slice(0, split), slice(split, None))]
    assert np.array_equal(np.concatenate(halves), esc)
    singles = [escape_times(g, pos[i:i + 1], dirs[i:i + 1], 1.0, t_max)[0]
               for i in range(len(pos))]
    assert np.array_equal(np.concatenate(singles), esc)


class _StuckAt:
    """Unit circle table on which rays from one point find no hit, as at a cusp."""

    def __init__(self, point):
        self.table = make()
        self.point = np.asarray(point)

    def ray_hits(self, pos, dirs):
        dist, s_hit, hit, nrm, cusp = self.table.ray_hits(pos, dirs)
        stuck = np.all(pos == self.point, axis=1)
        dist[stuck] = 0.0
        hit[stuck] = pos[stuck]
        return dist, s_hit, hit, nrm, cusp | stuck

    def opening_contains(self, s):
        return self.table.opening_contains(s)


class TestProgressGuarantee:
    """The batch loops end: every step advances time or the particle is reported."""

    def _cusp_rays(self):
        g = make("cardioid")
        starts, dirs = [], []
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        # at the cusp point itself, in every direction (half of them point out)
        for a in angles:
            starts.append([0.0, 0.0])
            dirs.append([math.cos(a), math.sin(a)])
        # along the axis into the cusp, and from boundary points next to it
        starts.append([2.0, 0.0])
        dirs.append([-1.0, 0.0])
        for s in (4.0 - 1e-6, 4.0 + 1e-6, 4.0 - 1e-9, 4.0 + 1e-9):
            pos, _ = boundary_point(g, s)
            for target in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5]):
                starts.append(pos)
                dirs.append((target - pos) / np.linalg.norm(target - pos))
        # just inside, next to the cusp
        for a in angles:
            starts.append([1e-9, 0.0])
            dirs.append([math.cos(a), math.sin(a)])
        return np.array(starts), np.array(dirs)

    def test_escape_from_cusp_terminates(self):
        g = make("cardioid", opening_center=2.0 * math.sqrt(2.0))
        pos, dirs = self._cusp_rays()
        esc, n_coll = escape_times(g, pos, dirs, 1.0, 50.0)
        assert n_coll >= len(pos)
        assert np.all((esc > 0) & ((esc <= 50.0) | np.isinf(esc)))

    def test_advance_from_cusp_terminates(self):
        g = make("cardioid")
        pos, dirs = self._cusp_rays()
        t_now = np.zeros(len(pos))
        advance_to(g, pos, dirs, t_now, 30.0, 1.0)
        assert np.all(t_now == 30.0)
        assert np.all(g.contains(pos, tol=1e-9))
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)

    def test_sample_from_cusp_terminates(self):
        g = make("cardioid")
        pos, dirs = self._cusp_rays()
        samples = sample_positions(g, pos, dirs, 1.0, 0.1, 300)
        assert samples.shape == (len(pos), 301, 2)
        assert np.all(g.contains(samples.reshape(-1, 2), tol=1e-9))

    def test_rays_aimed_at_the_cusp_stay_inside(self):
        # from 1,200 boundary points straight at the cusp or at points within
        # 1e-5 of it: no flight runs backwards or leaves the cavity
        g = make("cardioid")
        rng = np.random.default_rng(5)
        n = 1200
        pos, _ = boundary_point(g, rng.uniform(1e-3, 8.0 - 1e-3, n))
        offset = 10.0 ** rng.uniform(-12.0, -5.0, n) * (rng.random(n) < 0.8)
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        target = offset[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        dirs = (target - pos) / np.linalg.norm(target - pos, axis=-1)[:, None]
        for _, start, heading, t0, t_hit, *_ in _flights(g, pos, dirs, np.zeros(n), 1.0, 10.0):
            assert (t_hit >= t0).all()
            assert g.contains(start + 0.5 * (t_hit - t0)[:, None] * heading, tol=1e-9).all()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("start, heading", [((math.nan, 0.2), (1.0, 0.0)),
                                                ((0.1, 0.2), (math.inf, 0.0))])
    def test_non_finite_start_raises(self, shape, start, heading):
        g = make(shape)
        pos, dirs = np.tile([0.1, -0.2], (6, 1)), np.tile([0.6, 0.8], (6, 1))
        pos[4], dirs[4] = start, heading
        message = r"particle 4 starts at \[.*\] heading \[.*\]: not finite"
        with pytest.raises(NumericError, match=message):
            escape_times(g, pos, dirs, 1.0, 50.0)
        with pytest.raises(NumericError, match=message):
            sample_positions(g, pos, dirs, 1.0, 0.1, 20)

    def test_tangent_boundary_start_stalls_then_raises(self):
        # from (2, 0) straight up the ray only touches the cardioid: no hit
        # ahead, so it is retroreflected in place until the stall limit
        g = make("cardioid")
        with pytest.raises(NumericError, match="particle 0 made no progress"):
            escape_times(g, np.array([[2.0, 0.0]]), np.array([[0.0, 1.0]]), 1.0, 50.0)

    def test_stuck_particle_raises(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(-0.5, 0.5, (6, 2))
        pos[3] = (0.25, 0.25)
        theta = rng.uniform(0.0, 2.0 * math.pi, 6)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        table = _StuckAt(pos[3])
        with pytest.raises(NumericError, match="particle 3 made no progress"):
            escape_times(table, pos, dirs, 1.0, 1e3)
        with pytest.raises(NumericError, match="particle 3 made no progress"):
            advance_to(table, pos.copy(), dirs.copy(), np.zeros(6), 10.0, 1.0)
        with pytest.raises(NumericError, match="particle 3 made no progress"):
            sample_positions(table, pos, dirs, 1.0, 0.1, 100)
        assert NumericError.exit_code == 4


# a negative speed made the hit times fall and the diameter orbit from the centre never
# reaches the opening, so the negative speeds and the infinite horizon looped for ever
@pytest.mark.parametrize("call, argument", [
    (lambda g, p, d: escape_times(g, p, d, -1.0, 5.0), "speed"),
    (lambda g, p, d: escape_times(g, p, d, 0.0, 5.0), "speed"),
    (lambda g, p, d: sample_positions(g, p, d, -1.0, 0.1, 3), "speed"),
    (lambda g, p, d: escape_times(g, p, d, 1.0, math.inf), "t_max"),
    (lambda g, p, d: sample_positions(g, p, d, 1.0, math.nan, 3), "dt"),
], ids=["escape-negative-speed", "escape-zero-speed", "sample-negative-speed",
        "escape-infinite-horizon", "sample-nan-dt"])
def test_bad_speed_or_horizon_raises_at_once(call, argument):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{argument} must be "):
        call(make(), np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert time.perf_counter() - start < 1.0


# the circle's start aimed out of the wall by 1e-9 rad flew -2e-9 on every step, so its
# hit times fell for ever; aimed out by 1e-5 rad it flew 0 and was reflected in place
@pytest.mark.parametrize("shape, start, heading", [
    ("circle", (1.0, 0.0), (math.sin(1e-9), math.cos(1e-9))),
    ("circle", (1.0, 0.0), (math.sin(1e-5), math.cos(1e-5))),
    ("circle", (1.0, 0.0), (0.0, 1.0)),
    ("stadium", (2.0, 0.0), (0.0, 1.0)),
    ("stadium", (0.0, 1.5), (0.0, 1.0)),
    ("circle", (0.0, 0.0), (math.nan, 0.0)),
], ids=["circle-out-1e-9", "circle-out-1e-5", "circle-tangent", "stadium-tangent",
        "stadium-outside", "circle-nan"])
def test_no_hit_ahead_raises_at_once(shape, start, heading):
    begin = time.perf_counter()
    g = make(shape)
    message = re.escape(f"{shape} ray from {list(start)} along {list(heading)} "
                        "has no boundary exit ahead of it")
    pos, dirs = np.array([start]), np.array([heading])
    calls = [lambda: g.ray_hits(pos, dirs)]
    if np.isfinite(heading).all():
        calls += [lambda: escape_times(g, pos, dirs, 1.0, 1e-3),
                  lambda: sample_positions(g, pos, dirs, 1.0, 1e-4, 10)]
    for call in calls:
        with pytest.raises(NumericError, match=f"^{message}$"):
            call()
    assert time.perf_counter() - begin < 1.0


def test_cusp_graze_law():
    # A horizontal ray from (1, delta) meets the needle next to the cusp at
    # polar radius r = (delta/sqrt 2)^(2/3) and leaves almost tangent to the
    # wall, as a whispering-gallery orbit: by t = 9, about one lap, it makes
    # n = 2 / r^(2/3) collisions.
    delta = np.array([1e-4, 1e-5, 1e-6])
    pos, dirs = np.stack([np.ones(3), delta], axis=-1), np.tile([-1.0, 0.0], (3, 1))
    n = np.zeros(3, dtype=int)
    for rows, _, _, _, t_hit, *_ in _flights(make("cardioid"), pos, dirs, np.zeros(3), 1.0, 9.0):
        n += np.bincount(rows[t_hit <= 9.0], minlength=3)
    r = (delta / math.sqrt(2.0)) ** (2.0 / 3.0)
    np.testing.assert_allclose(n * r ** (2.0 / 3.0), 2.0, rtol=0.0, atol=0.005)


def test_acceptance_circle_oracle_bulk():
    """Circle collision map vs the analytic chord map, 1e3 random states."""
    g = make()
    rng = np.random.default_rng(2024)
    n = 1000
    r = np.sqrt(rng.uniform(0, 0.98, n))
    th = rng.uniform(0, 2 * math.pi, n)
    pos = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    phi = rng.uniform(0, 2 * math.pi, n)
    mom = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    dist, _, hit, out, _ = batch_collide(g, pos, mom)
    # closed-form chord: |p + t d| = 1 with t > 0
    b = np.sum(pos * mom, axis=-1)
    c = np.sum(pos * pos, axis=-1) - 1.0
    t_exact = -b + np.sqrt(b * b - c)
    hit_exact = pos + t_exact[:, None] * mom
    out_exact = mom - 2.0 * np.sum(mom * hit_exact, axis=-1)[:, None] * hit_exact
    worst = max(float(np.max(np.abs(dist - t_exact))),
                float(np.max(np.abs(hit - hit_exact))),
                float(np.max(np.abs(out - out_exact))))
    assert worst <= 1e-12


def test_circle_orbits_match_the_conserved_chord_oracle():
    """Every row's escape time and hit count against `circle_oracle`, 20k rows.

    The oracle steps each orbit by its conserved chord and arclength advance,
    without a ray cast.  Engine times carry one rounding per flight: they
    agree to 9.6e-11 here (times up to 257), so the tolerance is 1e-9.  Rows
    with a hit due within 1e-8 of an opening edge or of t_max, where
    rounding may put it on either side, are left out; this seed has none.
    """
    g = make(scale=1.3, opening_center=2.0, opening_length=0.13)
    n, t_max = 20_000, 2.0 * math.pi * g.area / g.opening_length
    pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=n, seed=3))
    times, total = escape_times(g, pos, dirs, 1.0, t_max)
    hits = np.zeros(n, dtype=np.int64)
    for rows, _, _, _, t_hit, *_ in _flights(g, pos, dirs, np.zeros(n), 1.0, t_max,
                                             absorbing=True):
        hits[rows] += t_hit <= t_max
    exact_times, exact_hits, ambiguous = circle_orbits(g, pos, dirs, t_max, 1e-8 * g.scale)
    assert np.count_nonzero(ambiguous) <= n // 1000
    ok = ~ambiguous
    np.testing.assert_array_equal(np.isinf(times[ok]), np.isinf(exact_times[ok]))
    np.testing.assert_allclose(times[ok], exact_times[ok], rtol=0.0, atol=1e-9)
    np.testing.assert_array_equal(hits[ok], exact_hits[ok])
    assert total == hits.sum()
    assert np.count_nonzero(np.isinf(times)) > 1000  # survivors to t_max are checked too


class TestExactIdentities:
    """Whole-engine rates that the billiard flow fixes exactly, for every shape.

    Both hold for the uniform phase-space ensemble that `sample_ensemble`
    draws, which the closed flow leaves invariant.  Their tolerances are four
    standard errors of the per-row (per-particle) estimate, not of single
    flights.
    """

    @pytest.mark.parametrize("shape", SHAPES)
    def test_santalo_collision_rate(self, shape):
        # Santalo: the closed cavity's collision rate is P v / (pi A) =
        # 1 / mean_free_time; counting each row's hits in [0, T] has no bias
        g = make(shape, opening_length=0.1)
        n, t_end = 20_000, 20.0 * mean_free_time(g)
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=n, seed=1))
        hits = np.zeros(n)
        for rows, _, _, _, t_hit, *_ in _flights(g, pos, dirs, np.zeros(n), 1.0, t_end):
            hits[rows] += t_hit <= t_end
        expected = t_end / mean_free_time(g)
        assert abs(hits.mean() - expected) <= 4.0 * hits.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_initial_escape_flux(self, shape):
        # the uniform ensemble leaves through an opening of length l at the
        # rate l v / (pi A) = 1 / tau_D at t = 0; over [0, 0.02 tau_D] the
        # censored-exponential estimate k / sum(min(t, t_w)) has error rate / sqrt(k)
        g = make(shape, opening_length=0.1)
        tau_d = math.pi * g.area / g.opening_length
        n, window = 200_000, 0.02 * tau_d
        pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=n, seed=2))
        times, _ = escape_times(g, pos, dirs, 1.0, window)
        k = np.count_nonzero(times <= window)
        rate = k / np.minimum(times, window).sum()
        assert abs(rate * tau_d - 1.0) <= 4.0 / math.sqrt(k)
