"""Cavity geometry: boundary parametrization, containment, ray casting.

The independent oracle throughout is a dense polygonal approximation of the
boundary built directly from the defining polar/piecewise formulas, never
from the module under test.  The cardioid root solve is also checked against
a companion-matrix solve of the same ray quartic (for interior starts, on a
million rays, against the batched eigenvalue path the kernel used before its
closed form), and the stadium's exit-piece choice against a solve of all four
of its pieces.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from chaodecay import ensemble, geometry
from chaodecay.dynamics import batch_collide
from chaodecay.errors import NumericError
from chaodecay.geometry import SHAPES, CavityGeometry

from boundary import boundary_point, cardioid_normal
from stadium_oracle import stadium_hits


def _cardioid_polygon(a=1.0, n=400_000):
    """Dense polyline from the polar form rho(phi) = a (1 + cos phi)."""
    phi = np.linspace(0.0, 2.0 * math.pi, n + 1)
    rho = a * (1.0 + np.cos(phi))
    xy = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=-1)
    arclength = np.concatenate([[0.0], np.cumsum(seg)])
    return phi, xy, arclength


def _shoelace(xy):
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def make(shape, **kw):
    kw.setdefault("opening_length", 0.1)
    kw.setdefault("opening_center", 0.5)
    return CavityGeometry(shape=shape, scale=kw.pop("scale", 1.0), **kw)


class TestMeasures:
    def test_circle(self):
        g = make("circle", scale=2.0)
        assert g.area == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert g.perimeter == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_cardioid_against_polygon_oracle(self):
        g = make("cardioid")
        _, xy, arclength = _cardioid_polygon()
        # closed forms A = 3*pi/2, P = 8 recovered by the polygon
        assert _shoelace(xy) == pytest.approx(g.area, rel=1e-6)
        assert arclength[-1] == pytest.approx(g.perimeter, rel=1e-6)
        assert g.area == pytest.approx(1.5 * math.pi, rel=1e-15)
        assert g.perimeter == pytest.approx(8.0, rel=1e-15)

    def test_stadium_closed_forms(self):
        g = make("stadium", scale=1.5)
        assert g.area == pytest.approx((4.0 + math.pi) * 1.5**2, rel=1e-15)
        assert g.perimeter == pytest.approx((4.0 + 2.0 * math.pi) * 1.5, rel=1e-15)

    def test_scale_quadratic_linear(self):
        small, big = make("stadium", scale=1.0), make("stadium", scale=3.0)
        assert big.area == pytest.approx(9.0 * small.area)
        assert big.perimeter == pytest.approx(3.0 * small.perimeter)


class TestValidation:
    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            make("triangle")

    def test_opening_wider_than_perimeter(self):
        with pytest.raises(ValueError):
            make("circle", opening_length=10.0)

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            make("circle", scale=0.0)

    def test_shapes_registry(self):
        assert SHAPES == ("circle", "cardioid", "stadium")


class TestBoundaryPoint:
    def test_circle_start(self):
        g = make("circle")
        pos, nrm = boundary_point(g, 0.0)
        assert pos == pytest.approx([1.0, 0.0], abs=1e-15)
        assert nrm == pytest.approx([-1.0, 0.0], abs=1e-15)

    def test_circle_quarter_arc(self):
        g = make("circle")
        pos, nrm = boundary_point(g, 0.5 * math.pi)
        assert pos == pytest.approx([0.0, 1.0], abs=1e-15)
        assert nrm == pytest.approx([0.0, -1.0], abs=1e-15)

    def test_out_of_range_arclength(self):
        g = make("circle")
        with pytest.raises(ValueError):
            boundary_point(g, -0.1)
        with pytest.raises(ValueError):
            boundary_point(g, g.perimeter + 0.1)

    def test_cardioid_at_quarter_angle(self):
        # Independent arclength inversion: find s(phi = pi/2) on the dense
        # polygon, then check the parametric point.  The closed form is
        # s(phi) = 4 a sin(phi/2), so s = 2*sqrt(2) at phi = pi/2, where the
        # boundary point is (0, 1) with inward normal (1, -1)/sqrt(2).
        g = make("cardioid")
        phi, xy, arclength = _cardioid_polygon()
        s_oracle = np.interp(0.5 * math.pi, phi, arclength)
        assert s_oracle == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
        pos, nrm = boundary_point(g, 2.0 * math.sqrt(2.0))
        assert pos == pytest.approx([0.0, 1.0], abs=1e-12)
        assert nrm == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)], abs=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bounding_box_is_tight(self, shape):
        g = make(shape, scale=1.5)
        pos, _ = boundary_point(g, np.linspace(0.0, g.perimeter, 100_001))
        lo, hi = g.bounding_box()
        np.testing.assert_allclose(pos.min(axis=0), lo, atol=1e-6)
        np.testing.assert_allclose(pos.max(axis=0), hi, atol=1e-6)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_normals_unit_and_inward(self, shape):
        g = make(shape)
        s = np.linspace(0.0, g.perimeter, 733, endpoint=False)
        pos, nrm = boundary_point(g, s)
        np.testing.assert_allclose(np.linalg.norm(nrm, axis=-1), 1.0, atol=1e-12)
        probe = pos + 1e-7 * g.scale * nrm
        assert np.all(g.contains(probe))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_curvature_matches_finite_differences(self, shape):
        # kappa = -r''(s) . n(s): negative where the boundary bends toward
        # the interior.  Skip the stadium joins, where kappa jumps, and the
        # cardioid cusp, where it diverges.
        g = make(shape, scale=1.3)
        a, h = g.scale, 1e-4 * g.scale
        s = np.linspace(h, g.perimeter - h, 2001)
        joins = {"circle": [],
                 "cardioid": [4.0 * a],
                 "stadium": [0.0, 2.0 * a, (2.0 + math.pi) * a, (4.0 + math.pi) * a,
                             g.perimeter]}[shape]
        margin = 0.2 * a if shape == "cardioid" else 2.0 * h
        s = s[np.all(np.abs(s[:, None] - np.array(joins)) > margin, axis=1)]
        pos, nrm = boundary_point(g, s)
        second = (boundary_point(g, s + h)[0] - 2.0 * pos + boundary_point(g, s - h)[0]) / h**2
        kappa = -np.einsum("ij,ij->i", second, nrm)
        np.testing.assert_allclose(g.curvature(s), kappa, rtol=1e-5, atol=1e-5 / a)

    def test_cardioid_positions_match_polygon(self):
        g = make("cardioid")
        _, xy, arclength = _cardioid_polygon()
        for s in (0.5, 1.7, 3.0, 5.2, 7.4):
            pos, _ = boundary_point(g, s)
            i = np.searchsorted(arclength, s)
            assert pos == pytest.approx(xy[i], abs=1e-4)


class TestContains:
    def test_circle_radial(self):
        g = make("circle", scale=2.0)
        inside = np.array([[0.0, 0.0], [1.9, 0.0], [0.0, -1.99]])
        outside = np.array([[2.01, 0.0], [1.5, 1.5]])
        assert np.all(g.contains(inside))
        assert not np.any(g.contains(outside))

    def test_cardioid_against_polar_form(self):
        g = make("cardioid")
        rng = np.random.default_rng(1)
        pts = rng.uniform([-0.5, -2.0], [2.1, 2.0], size=(4000, 2))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        oracle = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0 + np.cos(phi)
        got = g.contains(pts)
        # disagreement allowed only within a hair of the boundary
        mismatch = pts[oracle != got]
        if mismatch.size:
            phi_m = np.arctan2(mismatch[:, 1], mismatch[:, 0])
            gap = np.abs(np.hypot(mismatch[:, 0], mismatch[:, 1]) - (1.0 + np.cos(phi_m)))
            assert gap.max() < 1e-9


class TestOpening:
    def test_interval_membership(self):
        g = make("circle", opening_center=1.0, opening_length=0.2)
        assert g.opening_contains(1.0)
        assert g.opening_contains(0.95)
        assert not g.opening_contains(1.11)

    def test_wraparound(self):
        g = make("circle", opening_center=0.0, opening_length=0.2)
        assert g.opening_contains(2.0 * math.pi - 0.05)
        assert g.opening_contains(0.05)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("center", [0.05, 0.5, 3.0, 7.99, -0.3])
    def test_matches_float_modulo(self, shape, center):
        # the same membership as the float modulo on every arclength in
        # [0, perimeter], the ends, the opening's edges and their neighbours;
        # centre 0.05 puts the start at 0, where s = perimeter is inside
        g = make(shape, scale=1.3, opening_center=center, opening_length=0.1)
        P = g.perimeter
        start = (center - 0.05) % P
        edges = np.array([0.0, P, start, (start + 0.1) % P])
        s = np.concatenate([np.random.default_rng(9).uniform(0.0, P, 20_000), edges,
                            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        s = s[(s >= 0.0) & (s <= P)]
        np.testing.assert_array_equal(g.opening_contains(s), ((s - start) % P) < 0.1)

    @pytest.mark.parametrize("shape, point", [
        ("circle", (0.0, 1.0)), ("cardioid", (0.0, 1.0)), ("stadium", (-0.5, -1.0))])
    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_default_center(self, shape, point, scale):
        g = CavityGeometry(shape=shape, scale=scale)
        pos, _ = boundary_point(g, g.opening_center)
        np.testing.assert_allclose(pos, scale * np.array(point), atol=1e-12)


class TestRayHits:
    def _polygon_ray_oracle(self, xy, origin, direction):
        """First exit distance of a ray through a closed polyline."""
        p, d = np.asarray(origin), np.asarray(direction)
        a, b = xy[:-1], xy[1:]
        e = b - a
        denom = d[0] * e[:, 1] - d[1] * e[:, 0]
        ok = np.abs(denom) > 1e-14
        ap = a - p
        t_ray = np.where(ok, (ap[:, 0] * e[:, 1] - ap[:, 1] * e[:, 0]) / denom, -1.0)
        t_seg = np.where(ok, (ap[:, 0] * d[1] - ap[:, 1] * d[0]) / denom, -1.0)
        valid = ok & (t_ray > 1e-12) & (t_seg >= 0.0) & (t_seg <= 1.0)
        return t_ray[valid].min()

    def test_circle_chord(self):
        g = make("circle")
        dist, s_hit, hit, nrm, cusp = g.ray_hits(
            np.array([[0.5, 0.0]]), np.array([[0.0, 1.0]]))
        assert dist[0] == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert s_hit[0] == pytest.approx(math.atan2(math.sqrt(0.75), 0.5), rel=1e-13)
        assert not cusp[0]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_against_polygon_oracle(self, shape):
        g = make(shape)
        if shape == "cardioid":
            _, xy, _ = _cardioid_polygon(n=200_000)
        else:
            s = np.linspace(0.0, g.perimeter, 200_001)
            xy, _ = boundary_point(g, np.minimum(s, g.perimeter))
        rng = np.random.default_rng(7)
        hits = 0
        while hits < 40:
            origin = rng.uniform(-0.3, 0.9, size=2)
            if not g.contains(origin):
                continue
            theta = rng.uniform(0.0, 2.0 * math.pi)
            direction = np.array([math.cos(theta), math.sin(theta)])
            dist, _, hit, _, _ = g.ray_hits(origin[None], direction[None])
            oracle = self._polygon_ray_oracle(xy, origin, direction)
            assert dist[0] == pytest.approx(oracle, abs=1e-6)
            np.testing.assert_allclose(hit[0], origin + dist[0] * direction, atol=1e-9)
            hits += 1

    def test_hit_point_on_boundary(self):
        g = make("cardioid")
        rng = np.random.default_rng(3)
        pts, dirs = [], []
        while len(pts) < 200:
            p = rng.uniform([-0.25, -1.3], [2.0, 1.3], size=2)
            if g.contains(p):
                th = rng.uniform(0, 2 * math.pi)
                pts.append(p)
                dirs.append([math.cos(th), math.sin(th)])
        dist, s_hit, hit, nrm, _ = g.ray_hits(np.array(pts), np.array(dirs))
        pos_check, nrm_check = boundary_point(g, s_hit % g.perimeter)
        np.testing.assert_allclose(hit, pos_check, atol=1e-9)
        np.testing.assert_allclose(nrm, nrm_check, atol=1e-7)
        assert np.all(dist > 0)


def _boundary_ray(g, s0, angle):
    """Start at arclength s0, heading ``angle`` from the tangent into the cavity."""
    pos, nrm = boundary_point(g, s0)
    tangent = np.array([-nrm[1], nrm[0]])
    return pos, math.cos(angle) * tangent + math.sin(angle) * nrm


class TestStadiumKernel:
    """Stadium rays against the four-piece oracle, bit for bit.

    The kernel solves only the piece a ray leaves by; the oracle solves all
    four and keeps the nearest hit.  They share every formula, so wherever
    they pick the same piece all four outputs agree to the last bit.  The
    stadium is of non-unit scale, so that every factor of ``a`` is exercised.
    """

    g = make("stadium", scale=1.5)
    JUNCTIONS = (0.0, 2.0, 2.0 + math.pi, 4.0 + math.pi)  # arclengths / scale

    def _check(self, p, d):
        p, d = np.atleast_2d(p), np.atleast_2d(d)
        for got, ref in zip(self.g.ray_hits(p, d), stadium_hits(p, d, self.g.scale)):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_interior_starts(self, x, y, theta):
        p = self.g.scale * np.array([x, y])
        assume(self.g.contains(p, tol=-1e-9))
        self._check(p, np.array([math.cos(theta), math.sin(theta)]))

    @given(st.floats(0.0, 1.0), st.floats(1e-5, math.pi - 1e-5))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_boundary_starts(self, frac, angle):
        self._check(*_boundary_ray(self.g, frac * self.g.perimeter, angle))

    @given(st.integers(0, 3), st.floats(0.0, 1e-9), st.floats(0.0, 2.0 * math.pi),
           st.floats(1e-5, math.pi - 1e-5))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_starts_at_junctions(self, k, offset, beta, angle):
        # inside, within 1e-9 * scale of a straight/cap junction, heading
        # inward.  (From a start just outside, the oracle can take the point
        # where the ray enters the cavity for its hit.)
        p, d = _boundary_ray(self.g, self.JUNCTIONS[k] * self.g.scale, angle)
        p = p + offset * self.g.scale * np.array([math.cos(beta), math.sin(beta)])
        assume(self.g.contains(p))
        self._check(p, d)

    @given(st.sampled_from([(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0),
                            (0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0)]),
           st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_axis_parallel_rays(self, d, x, y, frac, on_boundary):
        d = np.array(d)
        if on_boundary:
            p, nrm = boundary_point(self.g, frac * self.g.perimeter)
            assume(d @ nrm >= math.sin(1e-5))
        else:
            p = self.g.scale * np.array([x, y])
            assume(self.g.contains(p, tol=-1e-9))
        self._check(p, d)

    @given(st.floats(1e-3, 1.0 - 1e-3), st.booleans(), st.floats(1e-7, 1e-5), st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_near_tangent_cap_chords(self, frac, left, angle, backwards):
        # Within about 1e-5 rad of a cap's tangent the oracle can take the
        # near root, which is rounding noise at the start (here, at 1e-6 rad,
        # 2.96e-10 where the chord is 3.0e-6), so these rays are checked
        # against the exact chord 2a sin(angle) instead of the oracle.  The kernel's error is the
        # rounding of the start's squared radius, ~1e-16 a^2, over
        # b = a sin(angle).
        a = self.g.scale
        s0 = (2.0 + frac * math.pi + (2.0 + math.pi) * left) * a
        p, d = _boundary_ray(self.g, s0, math.pi - angle if backwards else angle)
        dist, _, hit, _, _ = self.g.ray_hits(p[None], d[None])
        assert abs(dist[0] - 2.0 * a * math.sin(angle)) <= 1e-15 * a / angle
        ds = np.linalg.norm(hit[0] - boundary_point(self.g, s0)[0])
        assert ds == pytest.approx(2.0 * a * math.sin(angle), abs=1e-15 * a / angle)

    @given(st.floats(0.0, 1.0), st.booleans(), st.floats(1e-9, 3e-8), st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_grazing_cap_starts(self, frac, left, angle, backwards):
        # Below about 3e-8 rad the rounding of the start's squared radius can
        # exceed b^2 and turn the discriminant negative; such a ray takes the
        # far root -2b of the start's exact circle and stays on its cap.
        a = self.g.scale
        cap_start = (2.0 + (2.0 + math.pi) * left) * a
        s0 = cap_start + (1e-3 + frac * (math.pi - 2e-3)) * a
        p, d = _boundary_ray(self.g, s0, math.pi - angle if backwards else angle)
        dist, s_hit, hit, _, _ = self.g.ray_hits(p[None], d[None])
        assert cap_start <= s_hit[0] <= cap_start + math.pi * a
        assert self.g.contains(hit[0], tol=1e-9)
        assert abs(dist[0] - 2.0 * a * math.sin(angle)) <= 1e-15 * a / angle

    @pytest.mark.parametrize("p, d", [
        ((10.0, 0.0), (1.0, 0.0)),          # outside: the far cap root is -8 a
        ((0.0, 0.0), (math.nan, 0.0)),      # non-finite direction
        ((0.5, 0.5), (0.6, math.nan)),
        ((2.0, 0.0), (0.0, 1.0)),           # exactly tangent to the right cap
    ])
    def test_no_exit_is_a_numeric_error(self, p, d):
        g = make("stadium")
        with pytest.raises(NumericError, match="no boundary exit"):
            g.ray_hits(np.array([p]), np.array([d]))


@pytest.mark.parametrize("shape", ["circle", "stadium"])
def test_near_tangent_circle_starts(shape):
    # Within about 1e-7 rad of the tangent, b^2 lies below the rounding of
    # c0 = |p - centre|^2 - R^2 of a start on a circle or a stadium cap.
    # Whatever the sign of that rounding, the flight is the exact chord.
    g = make(shape, scale=1.3 if shape == "circle" else 1.5)
    a = g.scale
    rng = np.random.default_rng(11)
    n = 4000
    if shape == "circle":
        s0 = rng.uniform(0.0, g.perimeter, n)
    else:  # on either cap, away from its ends
        s0 = (2.0 + (2.0 + math.pi) * (rng.random(n) < 0.5)) * a
        s0 += rng.uniform(1e-3, math.pi - 1e-3, n) * a
    angle = 10.0 ** rng.uniform(-9.0, -7.0, n)
    heading = np.where(rng.random(n) < 0.5, angle, math.pi - angle)
    pos, nrm = boundary_point(g, s0)
    dirs = (np.cos(heading)[:, None] * np.stack([-nrm[:, 1], nrm[:, 0]], axis=-1)
            + np.sin(heading)[:, None] * nrm)
    rel = pos.copy()
    if shape == "stadium":
        rel[:, 0] -= np.copysign(a, rel[:, 0])  # from the cap's centre
    c0 = rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1] - a * a
    assert np.any(c0 > 0) and np.any(c0 < 0)
    dist = g.ray_hits(pos, dirs)[0]
    np.testing.assert_allclose(dist, 2.0 * a * np.sin(angle), rtol=1e-6, atol=0.0)


def _cardioid_quartic_oracle(p, d, on_boundary=True):
    """First hit of a ray on the unit cardioid, by companion matrix.

    The quartic F(tau) = (q - x)^2 - q along the ray (q = |r|^2) is formed
    from the documented coefficients -- with b = p.d, q0 = p.p, b1 = 2b - dx
    and b0 = q0 - px: c3 = 2 b1, c2 = b1^2 + 2 b0 - 1, c1 = 2 b1 b0 - 2b,
    c0 = b0^2 - q0 -- rounded as the kernel rounds them.  That matters: for a
    near-grazing ray the chord is ~1e-6 and the rounding of c0 alone moves
    it by ~1e-5 relative, so only a solve of the same quartic can agree to
    1e-9.  All four roots come from numpy's companion-matrix eigenvalues; for
    a start ``on_boundary`` the root nearest 0 is the start itself and is
    dropped.  The roots are Newton-polished to convergence and filtered by
    the kernel's documented admissibility rules (real, ahead of the start,
    on the branch q - x >= 0, small residual).  Returns ``(dist, kappa)``:
    the smallest admissible root and its relative condition number
    sum_k |c_k tau^k| / |tau F'(tau)|.
    """
    b = np.einsum("ij,ij->i", p[None], d[None])[0]
    q0 = np.einsum("ij,ij->i", p[None], p[None])[0]
    b1, b0 = 2.0 * b - d[0], q0 - p[0]
    quartic = Polynomial([b0 * b0 - q0, 2.0 * b1 * b0 - 2.0 * b,
                          b1 * b1 + 2.0 * b0 - 1.0, 2.0 * b1, 1.0])
    roots = quartic.roots()
    if on_boundary:
        roots = np.delete(roots, np.argmin(np.abs(roots)))
    tau = roots.real
    near_real = np.abs(roots.imag) < 1e-6 * np.maximum(1.0, np.abs(tau))
    slope = quartic.deriv()
    for _ in range(8):
        tau = tau - quartic(tau) / slope(tau)
    ok = (near_real & (tau > 1e-10) & ((tau + b1) * tau + b0 >= -1e-9)
          & (np.abs(quartic(tau)) <= 1e-8 * np.maximum(1.0, tau**4)))
    assert ok.any(), "oracle found no admissible root"
    dist = tau[ok].min()
    terms = np.abs(quartic.coef) * dist ** np.arange(5)
    return dist, terms.sum() / abs(dist * slope(dist))


def _companion_dist(c3, c2, c1, c0, b1, b0):
    """Smallest admissible root of each ray's quartic from companion-matrix eigenvalues.

    The path interior starts took before the closed form: all four roots of
    the monic quartic from numpy's batched (n, 4, 4) eigenvalue solver, a
    root within 1e-6 relative of the real axis counted as real, filtered by
    the kernel's admissibility rules and the smallest one polished by the
    kernel's Newton steps.  Rows without an admissible root get inf.
    """
    quartic = (c3, c2, c1, c0, b1, b0)
    comp = np.zeros((len(c0), 4, 4))
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    comp[:, 0, 3] = -c0
    comp[:, 1, 3] = -c1
    comp[:, 2, 3] = -c2
    comp[:, 3, 3] = -c3
    best = np.full(len(c0), np.inf)
    for root in np.linalg.eigvals(comp).T:
        tau = root.real.copy()
        near_real = np.abs(root.imag) < 1e-6 * np.maximum(1.0, np.abs(tau))
        np.minimum(best, geometry._admissible(tau, quartic, near_real), out=best)
    return geometry._polish(best, quartic)


def _kernel_quartic(p, d):
    """The cardioid kernel's quartic coefficients (c3, c2, c1, c0, b1, b0), rounded as it rounds them."""
    b = np.einsum("ij,ij->i", p, d)
    q0 = np.einsum("ij,ij->i", p, p)
    b1, b0 = 2.0 * b - d[:, 0], q0 - p[:, 0]
    return 2.0 * b1, b1 * b1 + 2.0 * b0 - 1.0, 2.0 * b1 * b0 - 2.0 * b, b0 * b0 - q0, b1, b0


def _arctan2_snap(x, y):
    """The cardioid hit tail by polar angle: arctan2, then cos, sin and sin(phi/2).

    Returns ``(s_hit, snapped, normal, tip)`` like ``geometry._cardioid_snap``;
    a point within 1e-9 of the origin is pinned to the cusp, phi = pi.
    """
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0.0, phi + 2.0 * math.pi, phi)
    phi = np.where(x * x + y * y <= 1e-18, math.pi, phi)
    c, s = np.cos(phi), np.sin(phi)
    rho = 1.0 + c
    s_half = 4.0 * np.sin(0.5 * phi)
    s_hit = np.where(phi <= math.pi, s_half, 8.0 - s_half)
    return s_hit, np.stack([rho * c, rho * s], axis=-1), cardioid_normal(c, s), rho <= 1e-9


def _cusp_normal(x, y):
    """Inward normal of the cardioid at the polar angle of points with x < 0.

    At phi = pi -+ delta it is (sin(delta/2) (1 + 2 cos delta),
    +-cos(delta/2) (2 cos delta - 1)), with delta = arctan2(|y|, -x) taken
    without the cancellation that 1 + cos(phi) suffers next to the cusp.
    """
    delta = np.arctan2(np.abs(y), -x)
    return np.stack([np.sin(0.5 * delta) * (1.0 + 2.0 * np.cos(delta)),
                     np.copysign(np.cos(0.5 * delta), y) * (2.0 * np.cos(delta) - 1.0)],
                    axis=-1)


class TestCardioidSnap:
    """The trig-free snap of a hit onto the cardioid against the arctan2 tail.

    Where 1 + cos(phi) < 1e-4 the tail's normal is off by more than 1e-14 (its
    x component is sqrt((1 + cos phi)/2) (1 - 2 cos phi), and 1 + cos(phi)
    carries an absolute rounding error of 1e-16); there the normal is checked
    against the exact one of `_cusp_normal`.
    """

    def _polar(self, phi, radial=1.0):
        rho = radial * (1.0 + np.cos(phi))
        return rho * np.cos(phi), rho * np.sin(phi)

    def _compare(self, x, y):
        s_hit, snapped, nrm, tip = geometry._cardioid_snap(x, y)
        s_ref, snapped_ref, nrm_ref, tip_ref = _arctan2_snap(x, y)
        np.testing.assert_array_equal(tip, tip_ref)
        np.testing.assert_allclose(s_hit, s_ref, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(snapped, snapped_ref, rtol=0.0, atol=1e-14)
        # no normal exists on the cusp itself (the oracle parks one there)
        well = snapped_ref[:, 0] ** 2 + snapped_ref[:, 1] ** 2 >= 1e-8  # (1 + cos phi)^2
        np.testing.assert_allclose(nrm[well], nrm_ref[well], rtol=0.0, atol=1e-14)
        near = ~well & ~tip
        np.testing.assert_allclose(nrm[near], _cusp_normal(x[near], y[near]),
                                   rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0, rtol=0.0, atol=1e-15)
        return s_hit, snapped, nrm, tip

    def test_random_hits(self):
        # ray hits land within rounding of the boundary
        rng = np.random.default_rng(12)
        phi = rng.uniform(-math.pi, math.pi, 50_000)
        self._compare(*self._polar(phi, 1.0 + rng.uniform(-1e-12, 1e-12, phi.size)))

    def test_hits_near_the_positive_axis(self):
        phi = np.array([0.0, -0.0, 1e-300, 1e-15, 1e-9, 1e-6, 1e-3])
        x, y = self._polar(np.concatenate([phi, -phi]))
        s_hit, *_ = self._compare(x, y)
        assert s_hit[0] == 0.0

    def test_hits_at_the_cusp_are_pinned(self):
        # a polar angle of pi +- 1e-9 is 5e-19 from the origin: a cusp event
        # on the cusp point, whichever side it came from
        x, y = self._polar(math.pi + np.array([-1e-9, 1e-9, -1e-6, 1e-6]))
        x, y = np.append(x, [0.0, -0.0, 1e-10, -3e-10]), np.append(y, [0.0, 0.0, -1e-10, 2e-10])
        s_hit, snapped, _, tip = self._compare(x, y)
        assert tip.all()
        np.testing.assert_array_equal(s_hit, 4.0)
        np.testing.assert_array_equal(snapped, 0.0)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_normal_near_the_cusp_points_inward(self, side):
        delta = np.logspace(-4, -0.3, 40)
        x, y = self._polar(math.pi - side * delta)
        _, snapped, nrm, tip = self._compare(x, y)
        assert not tip.any()
        # a step along the normal, small against the gap between the branches
        eps = 1e-3 * np.hypot(x, y)[:, None] * delta[:, None]
        g = make("cardioid")
        assert g.contains(snapped + eps * nrm).all()
        assert not g.contains(snapped - eps * nrm).any()


def _cardioid_arclength(xy):
    phi = math.atan2(xy[1], xy[0]) % (2.0 * math.pi)
    half = 4.0 * math.sin(0.5 * phi)
    return half if phi <= math.pi else 8.0 - half


class TestCardioidKernel:
    """Cardioid rays against the companion-matrix quartic oracle.

    Boundary starts take the deflated-cubic path, interior ones the
    resolvent-cubic factorization.  Only well-conditioned roots are compared (relative
    condition number below 1e5): where a ray passes close to the cusp, the
    first hit is half of a near-double root that no double-precision solver
    pins to 1e-9.
    """

    g = make("cardioid")

    def _aimed_ray(self, s0, s_target):
        pos, _ = boundary_point(self.g, s0)
        target, _ = boundary_point(self.g, s_target)
        return pos, (target - pos) / np.linalg.norm(target - pos)

    def _check(self, p, d):
        oracle, kappa = _cardioid_quartic_oracle(p, d)
        assume(kappa < 1e5)
        dist, s_hit, hit, nrm, cusp = self.g.ray_hits(p[None], d[None])
        assert dist[0] == pytest.approx(oracle, rel=1e-9)
        ds = abs(s_hit[0] - _cardioid_arclength(p + oracle * d))
        assert min(ds, self.g.perimeter - ds) < 1e-8
        hit_oracle = p + oracle * d
        assert cusp[0] == (1.0 + math.cos(math.atan2(hit_oracle[1], hit_oracle[0])) <= 1e-9)
        # the hit lies on the ray and on the boundary, with the boundary's normal
        np.testing.assert_allclose(hit[0], p + dist[0] * d, atol=1e-9)
        pos_b, nrm_b = boundary_point(self.g, s_hit[0] % self.g.perimeter)
        np.testing.assert_allclose(hit[0], pos_b, atol=1e-9)
        np.testing.assert_allclose(nrm[0], nrm_b, atol=1e-7)
        # batch_collide reflects specularly off that normal
        _, _, _, out, kinds = batch_collide(self.g, p[None], d[None])
        assert kinds[0] == 0
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-12)
        assert out[0] @ nrm_b == pytest.approx(-(d @ nrm_b), abs=1e-7)
        tangent = np.array([-nrm_b[1], nrm_b[0]])
        assert out[0] @ tangent == pytest.approx(d @ tangent, abs=1e-7)

    @given(st.floats(0.0, 8.0), st.floats(1e-3, math.pi - 1e-3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_generic_chords(self, s0, angle):
        assume(abs(s0 - 4.0) > 1e-2)
        self._check(*_boundary_ray(self.g, s0, angle))

    @given(st.floats(0.0, 8.0), st.floats(1e-7, 1e-6), st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_near_grazing(self, s0, eps, backwards):
        # within 1e-6 rad of either tangent direction; the chord is ~2 R eps.
        # Below ~1e-7 the chord meets the rounding-level root at the start.
        assume(abs(s0 - 4.0) > 0.5)
        self._check(*_boundary_ray(self.g, s0, math.pi - eps if backwards else eps))

    @given(st.floats(1e-3, 0.3), st.booleans(), st.floats(1e-3, math.pi - 1e-3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_starts_near_cusp(self, delta, below, angle):
        self._check(*_boundary_ray(self.g, 4.0 - delta if below else 4.0 + delta, angle))

    @given(st.floats(0.0, 8.0), st.floats(1e-3, 0.3), st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_targets_near_cusp(self, s0, delta, below):
        assume(abs(s0 - 4.0) > 0.3)
        self._check(*self._aimed_ray(s0, 4.0 - delta if below else 4.0 + delta))

    @given(st.floats(0.0, 8.0), st.floats(1e-9, 1e-3), st.floats(-math.pi + 1e-3, -1e-3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_interior_starts_next_to_boundary(self, s0, depth, angle):
        # just inside, heading out: the first hit is the nearby root that a
        # boundary start would drop, so these must take the quartic path
        assume(abs(s0 - 4.0) > 1e-2)
        pos, nrm = boundary_point(self.g, s0)
        tangent = np.array([-nrm[1], nrm[0]])
        p = pos + depth * nrm
        d = math.cos(angle) * tangent + math.sin(angle) * nrm
        oracle, kappa = _cardioid_quartic_oracle(p, d, on_boundary=False)
        assume(kappa < 1e5)
        dist = self.g.ray_hits(p[None], d[None])[0]
        assert dist[0] == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("roots", [(1.0, 1.0, 3.0), (0.5, 2.0, 2.0), (2.0, 2.0, 2.0)])
    def test_deflated_cubic_repeated_roots(self, roots):
        # a ray touching the boundary tangentially gives a double root; like
        # a real eigenvalue pair it is a candidate, not a complex pair to skip
        cubic = Polynomial.fromroots(roots)
        c1, c2, c3 = (np.array([c]) for c in cubic.coef[:3])
        one = np.ones(1)
        dist = geometry._boundary_dist(c3, c2, c1, 0.0 * one, 0.0 * one, one)
        assert dist[0] == pytest.approx(min(roots), rel=1e-7)

    def test_mixed_batch_matches_single_rays(self):
        # boundary and interior starts in one batch give each ray's own answer
        rng = np.random.default_rng(4)
        s = rng.uniform(0.0, 8.0, 64)
        pos, nrm = boundary_point(self.g, s)
        pos[::2] += 0.05 * nrm[::2]  # every other start moved inside
        theta = rng.uniform(0.0, 2.0 * math.pi, 64)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        dirs = np.where((dirs * nrm).sum(-1)[:, None] < 0, -dirs, dirs)
        batch = self.g.ray_hits(pos, dirs)
        for i in range(64):
            single = self.g.ray_hits(pos[i : i + 1], dirs[i : i + 1])
            for b, one in zip(batch, single):
                np.testing.assert_array_equal(b[i : i + 1], one)

    def test_rays_aimed_at_cusp_fly_forward(self):
        # from boundary points at polar angles in [-3, 3] straight at the cusp:
        # the quartic has a double root there, and a Newton polish step off it
        # must not land behind the start
        phi = np.linspace(-3.0, 3.0, 241)
        pos = (1.0 + np.cos(phi))[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        dirs = -pos / np.linalg.norm(pos, axis=-1)[:, None]
        dist = self.g.ray_hits(pos, dirs)[0]
        assert np.all(np.isfinite(dist) & (dist >= 0.0))

    def test_ray_into_cusp_along_axis(self):
        # from (2, 0) along -x the deflated cubic is (tau - 2)^3; the hit lands
        # on the cusp point: a cusp event there, not a point snapped onto the
        # far side of the boundary
        dist, s_hit, hit, _, cusp = self.g.ray_hits(np.array([[2.0, 0.0]]),
                                                    np.array([[-1.0, 0.0]]))
        assert cusp[0]
        assert dist[0] == pytest.approx(2.0, rel=1e-12)
        assert s_hit[0] == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(hit[0], 0.0, atol=1e-12)


_CHUNK = 65_536


def _interior_chunk(kind, k):
    """Chunk ``k`` of 65,536 interior starts with unit directions, of one ``kind``.

    * ``uniform``: rows k*65,536 onwards of the criterion-1 ensemble (seed
      2718), uniform in area and isotropic;
    * ``biquadratic``: uniform starts on rays within 5e-4 of vertical, where
      the quartic in tau + c3/4 is nearly biquadratic (its linear coefficient
      is -dx): |dx| log-uniform in [1e-17, 5e-4], 1,024 rows with dx = 0;
    * ``cusp``: starts at distance 1e-9 to 1e-1 from the cusp (log-uniform),
      half at any polar angle and half hugging the exterior horn, isotropic.

    Starts the kernel counts as on the boundary (|c0| <= 1e-12 q0) are
    dropped before the chunk is cut to size.
    """
    g = make("cardioid")
    rng = np.random.default_rng([24, k, ("uniform", "biquadratic", "cusp").index(kind)])
    spare = 1024  # rows to replace starts dropped below
    if kind == "uniform":
        p, d = ensemble._sample_rows(g, 2718, k * _CHUNK, (k + 1) * _CHUNK + spare)
    elif kind == "biquadratic":
        p, _ = ensemble._sample_rows(g, 2718 + k, 0, _CHUNK + spare)
        dx = np.copysign(10.0 ** rng.uniform(-17.0, math.log10(5e-4), len(p)),
                         rng.uniform(-1.0, 1.0, len(p)))
        dx[::64] = 0.0
        d = np.stack([dx, np.copysign(np.sqrt(1.0 - dx * dx), rng.uniform(-1.0, 1.0, len(p)))],
                     axis=-1)
    else:
        n = 4 * _CHUNK
        r = 10.0 ** rng.uniform(-9.0, -1.0, n)
        horn = math.pi - rng.choice([-1.0, 1.0], n) * np.sqrt(2.0 * r) * rng.uniform(1.0, 3.0, n)
        phi = np.where(rng.random(n) < 0.5, rng.uniform(-math.pi, math.pi, n), horn)
        p = r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        inside = g.contains(p)
        p, d = p[inside], d[inside]
    quartic = _kernel_quartic(p, d)
    interior = np.abs(quartic[3]) > 1e-12 * np.einsum("ij,ij->i", p, p)
    p, d = p[interior][:_CHUNK], d[interior][:_CHUNK]
    assert len(p) == _CHUNK
    return p, d


def _exact_first_hit(p, d):
    """Smallest positive real root of one ray's kernel quartic, formed and solved in 60 digits."""
    with mpmath.workdps(60):
        px, py, dx, dy = (mpmath.mpf(float(v)) for v in (*p, *d))
        b, q0 = px * dx + py * dy, px * px + py * py
        b1, b0 = 2 * b - dx, q0 - px
        roots = mpmath.polyroots([1, 2 * b1, b1 * b1 + 2 * b0 - 1, 2 * b1 * b0 - 2 * b, b0 * b0 - q0],
                                 maxsteps=500, extraprec=500)
        return float(min(mpmath.re(r) for r in roots
                         if abs(mpmath.im(r)) <= 1e-40 and mpmath.re(r) > 0))


class TestInteriorClosedForm:
    """Interior starts: the closed-form quartic root against the companion-matrix oracle.

    Over 1,048,576 starts in 16 chunks (criterion-1 rows, near-biquadratic
    rays, starts next to the cusp) no row may lose its admissible root or
    turn into a cusp event unless the oracle's hit lies within 1e-9 of the
    cusp.  A distance may differ from the oracle's by more than 1e-12
    relative only on an ill-conditioned root, and then by at most
    16 kappa eps, kappa = sum_k |c_k tau^k| / |tau F'(tau)| the root's
    relative condition number: both solvers' errors are of that order.

    Where the two differ by more, the closed form must be nearer than the
    oracle to the root of the ray's quartic formed and solved in 60 digits.

    On a few starts within 1e-7 of the cusp the oracle's polished root lies
    behind the start: `_polish`, which both paths share, takes a Newton step
    off a near-double root that lowers the residual but crosses tau = 0.
    Those rows are not compared; there the closed form must fly backwards by
    the same step or end within 1e-9 of the cusp, as a cusp event.
    """

    @pytest.mark.parametrize("kind,k", [("uniform", k) for k in range(8)]
                             + [(kind, k) for kind in ("biquadratic", "cusp") for k in range(4)])
    def test_matches_companion_oracle(self, kind, k):
        p, d = _interior_chunk(kind, k)
        quartic = _kernel_quartic(p, d)
        oracle = _companion_dist(*quartic)
        assert np.isfinite(oracle).all(), "the oracle lost a root"
        dist, _, _, _, cusp = make("cardioid").ray_hits(p, d)
        assert np.isfinite(dist).all()
        at_cusp = np.hypot(*(p + oracle[:, None] * d).T) <= 1e-9
        behind = oracle <= 0.0
        assert not (cusp & ~at_cusp & ~behind).any(), "false cusp event"
        ends_at_cusp = cusp & (np.hypot(*(p + dist[:, None] * d).T) <= 1e-9)
        assert ((dist <= 0.0) | ends_at_cusp)[behind].all()

        keep = ~at_cusp & ~behind
        dist, oracle = dist[keep], oracle[keep]
        assert (dist > 0.0).all()
        c3, c2, c1, c0, _, _ = (c[keep] for c in quartic)
        slope = ((4.0 * oracle + 3.0 * c3) * oracle + 2.0 * c2) * oracle + c1
        terms = np.abs(c0) + oracle * (np.abs(c1) + oracle * (np.abs(c2) + oracle * (np.abs(c3) + oracle)))
        kappa = terms / np.maximum(np.abs(oracle * slope), 1e-300)
        rel = np.abs(dist - oracle) / oracle
        # where the two disagree by more, the exact root settles it
        for i in np.flatnonzero(rel > np.maximum(1e-12, 16.0 * kappa * np.finfo(float).eps)):
            row = np.flatnonzero(keep)[i]
            exact = _exact_first_hit(p[row], d[row])
            assert abs(dist[i] - exact) < abs(oracle[i] - exact), \
                f"start {p[row].tolist()} heading {d[row].tolist()}: {dist[i]!r}, oracle {oracle[i]!r}"


def test_geometry_hash_distinguishes_configs():
    a = make("circle")
    b = make("circle", opening_length=0.2)
    c = make("cardioid")
    assert len({a.geometry_hash(), b.geometry_hash(), c.geometry_hash()}) == 3
    assert a.geometry_hash() == make("circle").geometry_hash()
