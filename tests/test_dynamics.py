"""Billiard dynamics: reflection law, collision finding, propagation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaodecay.dynamics import (
    PhasePoint,
    advance_to,
    escape_times,
    next_collision,
    propagate,
    reflect,
)
from chaodecay.errors import NumericError
from chaodecay.geometry import CavityGeometry


def make(shape="circle", scale=1.0, opening_center=0.5, opening_length=0.1):
    return CavityGeometry(shape=shape, scale=scale,
                          opening_center=opening_center,
                          opening_length=opening_length)


SQ2 = math.sqrt(0.5)


class TestReflect:
    @pytest.mark.parametrize("incoming, normal, expected", [
        ((-1.0, 0.0), (1.0, 0.0), (1.0, 0.0)),      # normal incidence reverses
        ((0.0, 1.0), (1.0, 0.0), (0.0, 1.0)),       # tangential unchanged
        ((-SQ2, -SQ2), (1.0, 0.0), (SQ2, -SQ2)),    # 45 degrees
    ])
    def test_pinned_cases(self, incoming, normal, expected):
        out = reflect(np.array(incoming), np.array(normal))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_involution_and_norm(self, a, b):
        v = np.array([math.cos(a), math.sin(a)])
        n = np.array([math.cos(b), math.sin(b)])
        r = reflect(v, n)
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(reflect(r, n), v, atol=1e-14)

    def test_broadcasts(self):
        v = np.tile([-1.0, 0.0], (5, 1))
        n = np.tile([1.0, 0.0], (5, 1))
        np.testing.assert_allclose(reflect(v, n), np.tile([1.0, 0.0], (5, 1)))


class TestNextCollision:
    def test_radial_chord(self):
        g = make()
        t, ev = next_collision(g, PhasePoint(np.zeros(2), np.array([1.0, 0.0])))
        assert t == pytest.approx(1.0, rel=1e-14)
        assert ev.arclength == pytest.approx(0.0, abs=1e-12)

    def test_offcenter_chord(self):
        # start (0.5, 0) moving straight up: flight sqrt(1 - 0.25), hit angle
        # atan2(sqrt(0.75), 0.5) = pi/3
        g = make()
        t, ev = next_collision(g, PhasePoint(np.array([0.5, 0.0]), np.array([0.0, 1.0])))
        assert t == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert ev.arclength == pytest.approx(1.0471975511965976, rel=1e-13)

    def test_speed_scales_flight_time(self):
        g = make()
        t1, _ = next_collision(g, PhasePoint(np.zeros(2), np.array([2.0, 0.0])))
        assert t1 == pytest.approx(0.5, rel=1e-14)

    def test_outside_start_rejected(self):
        g = make()
        with pytest.raises(ValueError):
            next_collision(g, PhasePoint(np.array([2.0, 0.0]), np.array([1.0, 0.0])))

    def test_circle_map_oracle(self):
        # chord length and reflection angle of the circle map in closed form:
        # for a chord hitting at incidence angle psi (to the normal), every
        # subsequent chord has identical length 2 R cos(psi) and the
        # arclength advances by R (pi - 2 psi) each bounce.
        g = make()
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = 0.9 * math.sqrt(rng.uniform())
            th = rng.uniform(0, 2 * math.pi)
            pos = np.array([r * math.cos(th), r * math.sin(th)])
            phi = rng.uniform(0, 2 * math.pi)
            mom = np.array([math.cos(phi), math.sin(phi)])
            t, ev = next_collision(g, PhasePoint(pos, mom))
            n_hat = -ev.position / np.linalg.norm(ev.position)
            cos_psi = -float(ev.incoming @ n_hat)
            t2, ev2 = next_collision(
                g, PhasePoint(ev.position + 1e-12 * n_hat, ev.outgoing))
            assert t2 == pytest.approx(2.0 * cos_psi, abs=1e-9)
            d_s = (ev2.arclength - ev.arclength) % g.perimeter
            step = math.pi - 2.0 * math.acos(min(cos_psi, 1.0))
            assert min(d_s, g.perimeter - d_s) == pytest.approx(
                min(step % (2 * math.pi), 2 * math.pi - step % (2 * math.pi)),
                abs=1e-9)


class TestPropagate:
    def test_closed_circle_diameter_bounce(self):
        g = make()
        traj = propagate(g, PhasePoint(np.zeros(2), np.array([1.0, 0.0])),
                         t_max=10.0, dt=0.01, open_cavity=False)
        # analytic zig-zag: x(t) is a triangle wave between -1 and 1
        t = traj.sample_times
        phase = (t + 1.0) % 4.0
        x_exact = np.where(phase < 2.0, phase - 1.0, 3.0 - phase)
        np.testing.assert_allclose(traj.samples[:, 0], x_exact, atol=1e-9)
        np.testing.assert_allclose(traj.samples[:, 1], 0.0, atol=1e-12)

    def test_fully_open_escapes_first_hit(self):
        g = CavityGeometry(shape="circle", scale=1.0, opening_center=0.0,
                           opening_length=2.0 * math.pi - 1e-9)
        traj = propagate(g, PhasePoint(np.zeros(2), np.array([0.6, 0.8])),
                         t_max=50.0, dt=0.1)
        assert traj.escape_time == pytest.approx(1.0, rel=1e-9)
        assert len(traj.collisions) == 1
        assert traj.collisions[0].kind == "escape"

    def test_deterministic_repeats(self):
        g = make("cardioid", opening_center=2.0 * math.sqrt(2.0))
        start = PhasePoint(np.array([0.3, 0.1]), np.array([0.8, 0.6]))
        a = propagate(g, start, t_max=40.0, dt=0.05)
        b = propagate(g, start, t_max=40.0, dt=0.05)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.escape_time == b.escape_time

    @pytest.mark.parametrize("shape", ["cardioid", "stadium"])
    def test_speed_conserved(self, shape):
        g = make(shape)
        traj = propagate(g, PhasePoint(np.array([0.2, 0.05]), np.array([0.28, -0.96])),
                         t_max=200.0, dt=0.5, open_cavity=False)
        speeds = [np.linalg.norm(c.outgoing) for c in traj.collisions]
        np.testing.assert_allclose(speeds, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("shape", ["cardioid", "stadium"])
    def test_containment(self, shape):
        g = make(shape)
        traj = propagate(g, PhasePoint(np.array([0.1, -0.2]), np.array([0.6, 0.8])),
                         t_max=150.0, dt=0.21, open_cavity=False)
        assert np.all(g.contains(traj.samples, tol=1e-9 * g.scale))

    def test_time_reversal(self):
        g = make("cardioid")
        start = PhasePoint(np.array([0.4, -0.3]), np.array([0.6, 0.8]))
        t_span = 25.0  # roughly 10 / lambda for the unit cardioid
        fwd = propagate(g, start, t_max=t_span, dt=0.5, open_cavity=False)
        # place the reversed start exactly at the forward endpoint
        end_pos = fwd.samples[-1]
        # reconstruct the momentum at t_max from the last collision
        last = fwd.collisions[-1]
        back = propagate(g, PhasePoint(end_pos.copy(), -last.outgoing),
                         t_max=t_span, dt=0.5, open_cavity=False)
        np.testing.assert_allclose(back.samples[-1], start.position, atol=1e-6)

    def test_escape_point_in_opening(self):
        g = make("cardioid", opening_center=2.0 * math.sqrt(2.0), opening_length=0.8)
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(40):
            pos = rng.uniform([-0.2, -1.0], [1.8, 1.0], size=2)
            if not g.contains(pos):
                continue
            th = rng.uniform(0, 2 * math.pi)
            traj = propagate(g, PhasePoint(pos, np.array([math.cos(th), math.sin(th)])),
                             t_max=500.0, dt=1.0)
            if traj.escape_time is None:
                continue
            seen += 1
            final = traj.collisions[-1]
            assert final.kind == "escape"
            assert g.opening_contains(final.arclength)
            assert not any(g.opening_contains(c.arclength) for c in traj.collisions[:-1])
        assert seen >= 30  # nearly all escape within 500 time units


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
            pos, _ = g.boundary_point(s)
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
        assert NumericError.exit_code == 4


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
    worst = 0.0
    for i in range(n):
        t, ev = next_collision(g, PhasePoint(pos[i], mom[i]))
        # closed-form chord: |p + t d| = 1 with t > 0
        b = float(pos[i] @ mom[i])
        c = float(pos[i] @ pos[i]) - 1.0
        t_exact = -b + math.sqrt(b * b - c)
        worst = max(worst, abs(t - t_exact))
        hit_exact = pos[i] + t_exact * mom[i]
        worst = max(worst, float(np.max(np.abs(ev.position - hit_exact))))
        out_exact = mom[i] - 2.0 * float(mom[i] @ hit_exact) * hit_exact
        worst = max(worst, float(np.max(np.abs(ev.outgoing - out_exact))))
    assert worst <= 1e-12
