"""Cavity shapes: measures, curvature, interior tests, ray-boundary intersection.

Three boundaries are supported:

* ``circle``   -- radius ``scale``; integrable, used as a control case,
* ``cardioid`` -- polar radius scale*(1 + cos(angle)); fully chaotic, has a
                  cusp on the negative-x side,
* ``stadium``  -- two semicircular caps of radius ``scale`` joined by straight
                  segments of length 2*scale; fully chaotic, piecewise smooth.

Arclength runs counterclockwise; the inward unit normal is the tangent rotated
by +90 degrees.  Ray intersection solves only for the hit it returns.  It is
exact for the circle and the stadium, where the heading picks the one piece
a ray leaves by.  The cardioid's is solved for the whole batch at once, in
closed form, in the boundary's own parameter, the half angles
(cos(phi/2), sin(phi/2)) of the polar angle phi: there the ray's line is a
quartic whose every root is a boundary point on the line.  Rays starting on
the boundary -- every ray after its first flight -- deflate it by their own
root to a cubic; rays from inside split it into two real quadratics through
its resolvent cubic (Ferrari).  One cubic solver serves both, and one map
takes the chosen root to the hit, its arclength and its normal.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, _check

__all__ = ["CavityGeometry", "SHAPES"]

# Every per-shape fact, at scale 1 (lengths scale with ``scale``, the area with
# its square): the area, the perimeter, a box ((x_lo, y_lo), (x_hi, y_hi))
# around the cavity, and the arclength of the default opening's centre.
_Shape = namedtuple("_Shape", "area perimeter box opening_center")

_SHAPE_FACTS = {
    # opening at (0, a), the top of the circle
    "circle": _Shape(math.pi, 2.0 * math.pi, ((-1.0, -1.0), (1.0, 1.0)), 0.5 * math.pi),
    # x in [-a/4, 2a], |y| <= 3*sqrt(3)/4 * a; opening at (0, a), polar angle pi/2
    "cardioid": _Shape(1.5 * math.pi, 8.0,
                       ((-0.25, -0.75 * math.sqrt(3.0)), (2.0, 0.75 * math.sqrt(3.0))),
                       2.0 * math.sqrt(2.0)),
    # 2a x 2a rectangle + two caps; opening at (-a/2, -a), on the lower straight
    "stadium": _Shape(4.0 + math.pi, 4.0 + 2.0 * math.pi, ((-2.0, -1.0), (2.0, 1.0)), 0.5),
}

SHAPES = tuple(_SHAPE_FACTS)

# Minimal admissible flight distance, in units of scale.  Filters the tau=0
# root produced by a particle sitting exactly on the boundary.
_TAU_MIN = 1e-10

# A cardioid hit with boundary radius below this (units of scale) counts as a
# cusp hit and is retroreflected instead of reflected off an undefined normal.
_CUSP_RADIUS = 1e-9

# The shared term's weight in the three roots: mc, -mc/2 +- ms and u + v, -(u + v)/2 twice.
_PAIR = np.array([[1.0], [-0.5], [-0.5]])


@dataclass(frozen=True)
class CavityGeometry:
    """A billiard table with an absorbing opening on its boundary.

    The opening is the arclength interval of length ``opening_length``
    centred at ``opening_center`` (wrapping around the perimeter is fine).
    Without an ``opening_center`` it is centred at the point (0, scale) of
    the circle and of the cardioid, and at (-scale/2, -scale) on the
    stadium's lower straight.
    """

    shape: str
    scale: float = 1.0
    opening_center: float | None = None
    opening_length: float = 0.1

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of {SHAPES}")
        _check("scale", self.scale)
        if self.opening_center is None:
            object.__setattr__(self, "opening_center",
                               _SHAPE_FACTS[self.shape].opening_center * self.scale)
        if not (0 < self.opening_length < self.perimeter):
            raise ValueError("opening_length must lie strictly between 0 and the perimeter")
        _check("opening_center", self.opening_center, None)

    # -- global measures ---------------------------------------------------

    @cached_property
    def area(self) -> float:
        return _SHAPE_FACTS[self.shape].area * self.scale * self.scale

    @cached_property
    def perimeter(self) -> float:
        return _SHAPE_FACTS[self.shape].perimeter * self.scale

    def bounding_box(self):
        """Corners ``(lo, hi)`` of an axis-aligned box around the cavity."""
        lo, hi = _SHAPE_FACTS[self.shape].box
        return np.array(lo) * self.scale, np.array(hi) * self.scale

    def geometry_hash(self) -> str:
        # the key ends in the centre (0, 0) of a retired translation, so old hashes still match
        key = (
            f"{self.shape}|{self.scale!r}|{self.opening_center!r}|"
            f"{self.opening_length!r}|0.0,0.0"
        )
        return hashlib.sha1(key.encode()).hexdigest()[:16]

    def curvature(self, s):
        """Signed boundary curvature at arclength ``s`` in [0, perimeter] (broadcasts).

        Negative where the boundary focuses (bends toward the interior): -1/a
        on the circle and the stadium caps, 0 on the stadium straights and
        -3 / (4a |cos(phi/2)|) on the cardioid, unbounded at its cusp.
        """
        a = self.scale
        s = np.asarray(s, dtype=float)
        if self.shape == "circle":
            return np.full(s.shape, -1.0 / a)
        if self.shape == "cardioid":
            half_sin = np.minimum(s, 8.0 * a - s) / (4.0 * a)  # sin(phi/2)
            with np.errstate(divide="ignore"):
                return -0.75 / (a * np.sqrt(np.maximum(1.0 - half_sin * half_sin, 0.0)))
        # straights [0, 2a) and [2a + pi a, 4a + pi a); caps in between
        straight = (s < 2.0 * a) | ((s >= (2.0 + math.pi) * a) & (s < (4.0 + math.pi) * a))
        return np.where(straight, 0.0, -1.0 / a)

    # -- interior test -------------------------------------------------------

    def contains(self, points, tol: float = 0.0):
        """True for points inside the cavity (tolerance in length units, radial sense)."""
        p = np.asarray(points, dtype=float)
        scalar = p.ndim == 1
        p = np.atleast_2d(p)
        a = self.scale
        if self.shape == "circle":
            inside = np.hypot(p[:, 0], p[:, 1]) <= a + tol
        elif self.shape == "cardioid":
            rho = np.hypot(p[:, 0], p[:, 1])
            phi = np.arctan2(p[:, 1], p[:, 0])
            inside = rho <= a * (1.0 + np.cos(phi)) + tol
        else:
            x, y = p[:, 0], p[:, 1]
            in_rect = (np.abs(x) <= a + tol) & (np.abs(y) <= a + tol)
            in_caps = (np.hypot(np.abs(x) - a, y) <= a + tol) & (np.abs(x) > a)
            inside = in_rect | in_caps
        return bool(inside[0]) if scalar else inside

    def opening_contains(self, s):
        """True for arclengths in [0, perimeter] inside the absorbing opening (wraps around).

        Equal to ``(s - start) % perimeter < opening_length`` on that range
        (and a little past its end) without the float modulo: u = s - start
        lies in (-P, P], where the modulo is u + P below 0, u on [0, P) and
        u - P, which is below the opening length, from P on.
        """
        P = self.perimeter
        u = np.asarray(s) - (self.opening_center - 0.5 * self.opening_length) % P
        return (np.where(u < 0.0, u + P, u) < self.opening_length) | (u >= P)

    # -- first collision of a batch of rays ----------------------------------

    def ray_hits(self, pos, dirs):
        """First boundary hit ahead of each start point along unit directions.

        A start lies inside the cavity or on its boundary (most rays start at
        the previous hit).  Returns ``(dist, s_hit, hit_pos, normal, cusp)``
        where ``dist`` is the chord length, ``s_hit`` the hit arclength,
        ``normal`` the inward unit normal at the hit and ``cusp`` marks
        cardioid hits on which the caller should retroreflect: those within
        ``_CUSP_RADIUS*scale`` of the cusp, pinned to it, and rays with no hit
        ahead, at distance 0.  Every other cardioid hit lies on the boundary
        and on its ray's line to rounding.  Starts up to ``1e-9*scale`` outside
        the boundary are tolerated.  Any other row not ahead by more than
        ``_TAU_MIN*scale`` (a start outside, a circle or stadium ray tangent to
        or aimed out of the wall, a NaN) raises ``NumericError``.
        """
        p = np.atleast_2d(np.asarray(pos, dtype=float))
        d = np.atleast_2d(np.asarray(dirs, dtype=float))
        kernels = {"circle": _circle_hits, "cardioid": _cardioid_hits, "stadium": _stadium_hits}
        hits = kernels[self.shape](p, d, self.scale)
        dist, short = hits[0], _TAU_MIN * self.scale
        if dist.size and not dist.min() > short:  # one reduction while all is well; NaN fails it
            bad = np.flatnonzero(~((dist > short) | hits[4]))
            if bad.size:
                raise NumericError(f"{self.shape} ray from {p[bad[0]].tolist()} along "
                                   f"{d[bad[0]].tolist()} has no boundary exit ahead of it")
        return hits


def _circle_hits(p, d, radius):
    x, y = p[:, 0], p[:, 1]
    b, c0 = x * d[:, 0] + y * d[:, 1], x * x + y * y - radius * radius
    dist = _far_root(b, np.maximum(b * b - c0, 0.0), c0, radius)
    hit = p + dist[:, None] * d
    # snap radially onto the circle
    hit *= radius / np.hypot(hit[:, 0], hit[:, 1])[:, None]
    phi = np.arctan2(hit[:, 1], hit[:, 0]) % (2.0 * math.pi)
    s_hit = radius * phi
    nrm = -hit / radius
    return dist, s_hit, hit, nrm, np.zeros(len(p), dtype=bool)


def _far_root(b, disc, c0, radius):
    """Far root ``-b + sqrt(disc)`` of a ray from p along d on a circle (b = p.d).

    Where c0 = |p|^2 - radius^2 is rounding noise (a start on the circle) and
    b^2 is no larger (within ~1e-6 rad of the tangent), the sign of that noise
    would pick the root; those rows take -2b, the chord from a start exactly on
    the circle: positive aimed inward (b < 0), 0 or negative aimed outward.
    """
    tol = 1e-12 * radius * radius
    return np.where((np.abs(c0) <= tol) & (b * b <= tol), -2.0 * b, -b + np.sqrt(disc))


def _stadium_hits(p, d, a):
    """Exit of each ray, solved on the one piece it leaves the convex stadium by.

    A ray leaves the strip |y| <= a through the line of the straight it heads for,
    y = copysign(a, dy).  If it meets it at |x| <= a that is the exit; otherwise the ray
    left earlier through the cap on that side (the side of dx when dy == 0 or it starts on
    the line), at the far root of its circle.  Written to the hot-loop rule of `dynamics`.
    """
    edge = np.copysign(a, d[:, 1])  # y of the straight each ray heads for
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dist = (edge - p[:, 1]) / d[:, 1]
        x = p[:, 0] + dist * d[:, 0]  # the straight hit's x
    ahead = dist > _TAU_MIN * a
    cap = np.flatnonzero(~(ahead & (np.abs(x) <= a + 1e-9 * a)))

    # every row as a straight hit first; the cap rows are overwritten below
    nx, ny = np.zeros(len(p)), -edge / a
    s_hit = np.clip(x * ny + a, 0.0, 2 * a)  # x + a (bottom), a - x (top)
    s_hit += (edge > 0) * (2 * a + math.pi * a)  # where the top starts

    (ox, oy), (dx, dy) = p.take(cap, axis=0).T, d.take(cap, axis=0).T
    xc = np.copysign(a, np.where(ahead.take(cap), x.take(cap), dx))  # cap centre x
    px = ox - xc
    b = px * dx + oy * dy
    c0 = px * px + oy * oy - a * a
    with np.errstate(invalid="ignore"):
        tau = _far_root(b, b * b - c0, c0, a)
    px, py = ox + tau * dx - xc, oy + tau * dy
    rr = np.hypot(px, py)
    px, py = a * px / rr, a * py / rr  # snap radially onto the cap
    th = np.arctan2(py, px)
    th += ((xc < 0) & (th < 0)) * (2.0 * math.pi)  # left-cap angles in [pi/2, 3pi/2]
    s_base = np.where(xc > 0, 2 * a, 4 * a + math.pi * a)
    s_hit[cap] = s_base + (th + np.copysign(0.5 * math.pi, xc)) * a
    # the cap rows back in place; edge becomes the hits' y
    dist[cap], x[cap], edge[cap], nx[cap], ny[cap] = tau, px + xc, py, -px / a, -py / a
    hit, nrm = np.empty((2, len(p), 2))
    hit[:, 0], hit[:, 1], nrm[:, 0], nrm[:, 1] = x, edge, nx, ny
    return dist, s_hit, hit, nrm, np.zeros(len(p), dtype=bool)


def _cardioid_hits(p, d, scale):
    """Ray-cardioid intersection in the boundary's half-angle parameter, batch form.

    In units of ``scale`` the boundary point at half angles (a, b)
    proportional to (C, S) = (cos(phi/2), sin(phi/2)), C >= 0, is
    X = (2a^2 (a^2 - b^2), 4a^3 b) / (a^2 + b^2)^2.  With n = (-dy, dx) the
    ray's line n.X = c, c = n.p, is the quartic
    (c + 2dy) a^4 - 4dx a^3 b + 2(c - dy) a^2 b^2 + c b^4 = 0, and each real
    root is a boundary point on the line: the hit is the one with the
    shortest flight tau = (X - p).d above `_TAU_MIN` (`_nearest`).
    Starts with |c0| <= 1e-12 q0, c0 = (q0 - x)^2 - q0 and q0 = |p|^2 (within
    about 5e-13 of the boundary: every start after the first flight) deflate
    the quartic by their own root (`_deflated_roots`); the others split it
    by Ferrari (`_ferrari_roots`); both take ``ray`` = (c, q0, p.d, q0 - x).
    A line through the cusp (|c| <= 1e-150, below which the quartic's
    products underflow) has the cusp as a double root and meets the boundary
    at the polar angles of d and -d (`_polar_roots`).

    A hit within ``_CUSP_RADIUS`` of the cusp is a cusp event, pinned to the
    cusp (`_cardioid_point`).  A ray with no root ahead (stuck at the cusp,
    or exactly tangent) keeps its start's polar angle and distance 0, and
    counts as a cusp event: the caller retroreflects it in place.
    """
    if scale != 1.0:  # exact no-ops at unit scale
        p = p / scale
    x, y, dx, dy = p[:, 0], p[:, 1], d[:, 0], d[:, 1]
    c, q0, pd = dx * y - dy * x, x * x + y * y, x * dx + y * dy
    b0 = q0 - x
    ray = c, q0, pd, b0
    on_boundary = np.abs(b0 * b0 - q0) <= 1e-12 * q0
    n_boundary = np.count_nonzero(on_boundary)
    # degenerate rows (a start on the cusp, a line through it) divide by 0 on
    # the way; their candidates come out non-finite and `_nearest` drops them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a batch on one side only -- the common case, and every single ray --
        # is solved whole, without masking
        if n_boundary in (0, len(p)):
            a, b, dist = (_deflated_roots if n_boundary else _ferrari_roots)(p, d, ray)
        else:
            a, b, dist = np.empty((3, len(p)))
            for solve, rows in ((_deflated_roots, on_boundary), (_ferrari_roots, ~on_boundary)):
                a[rows], b[rows], dist[rows] = solve(p[rows], d[rows], [v[rows] for v in ray])
        through = (np.abs(c) <= 1e-150).nonzero()[0]
        if through.size:
            a[through], b[through], dist[through] = _polar_roots(pd[through], d[through])

    stuck = (dist == np.inf).nonzero()[0]
    if stuck.size:
        dist[stuck] = 0.0
        a[stuck], b[stuck] = _half_angles(x.take(stuck), y.take(stuck))
    s_hit, hit, nrm, cusp = _cardioid_point(a, b)
    cusp[stuck] = True
    if scale != 1.0:
        dist, s_hit, hit = dist * scale, s_hit * scale, hit * scale
    return dist, s_hit, hit, nrm, cusp


def _half_angles(x, y):
    """(a, b) proportional to (cos(phi/2), sin(phi/2)), a >= 0, at the polar angle phi of (x, y).

    tan(phi/2) = y/(r + x) = (r - x)/y, the first taken where x > 0 and the
    second elsewhere, so that neither cancels.  The origin gets the cusp's
    (0, 1).
    """
    r = np.hypot(x, y)
    right = x > 0.0
    return (np.where(right, r + x, np.abs(y)),
            np.where(right, y, np.copysign(np.where(r > 0.0, r - x, 1.0), y)))


def _cardioid_point(a, b):
    """The boundary point at half angles (a, b) proportional to (C, S): ``(s_hit, hit, normal, tip)``.

    With cos phi = C^2 - S^2 the point is (2C^2 cos phi, 4C^3 S), its
    arclength 4S, or 8 + 4S below the axis, and its inward unit normal
    -(C + iS)^3 = (C (3S^2 - C^2), S (S^2 - 3C^2)).  ``tip`` marks points
    whose polar radius 2C^2 is within ``_CUSP_RADIUS`` of the cusp; they are
    pinned to it, (C, S) = (0, +-1), on the side they lie.
    """
    norm = np.copysign(1.0 / np.hypot(a, b), a)
    C, S = a * norm, b * norm
    CC = C * C
    tip = CC <= 0.5 * _CUSP_RADIUS  # 2C^2 <= _CUSP_RADIUS, exactly
    if np.count_nonzero(tip):
        C, S = np.where(tip, 0.0, C), np.where(tip, np.copysign(1.0, S), S)
        CC = C * C
    SS = S * S
    rho = 2.0 * CC  # 1 + cos phi
    hit, nrm = np.empty((2, len(C), 2))
    np.multiply(rho, CC - SS, hit[:, 0])
    np.multiply(2.0 * rho, C * S, hit[:, 1])
    np.multiply(C, 3.0 * SS - CC, nrm[:, 0])
    np.multiply(S, SS - 3.0 * CC, nrm[:, 1])
    S4 = 4.0 * S
    return np.where(S >= 0.0, S4, S4 + 8.0), hit, nrm, tip


def _nearest(pd, d, a, b):
    """Of the candidate roots (a, b), the one with the shortest flight above `_TAU_MIN`.

    ``a`` and ``b`` are (n,), one candidate per row, or (k, n); ``pd`` is
    p.d.  Returns ``(a, b, tau)``, each (n,), with tau = (X(a, b) - p).d.
    Among k candidates the first of the shortest wins (one ``argmin`` over
    the candidates and a flat ``take``).  Rows with no root ahead get
    tau = inf and candidate 0; non-finite candidates never qualify.
    """
    aa, bb = a * a, b * b
    h = aa + bb
    taus = 2.0 * aa * ((aa - bb) * d[:, 0] + 2.0 * a * b * d[:, 1]) / (h * h) - pd
    ahead = np.where(taus > _TAU_MIN, taus, np.inf)
    if a.ndim == 1:
        return a, b, ahead
    n = a.shape[1]
    pick = ahead.argmin(axis=0) * n + np.arange(n)
    return a.take(pick), b.take(pick), ahead.take(pick)


def _deflated_roots(p, d, ray):
    """The nearest root of a boundary start's quartic, less the start's own root (a0, b0).

    A boundary point has polar radius r = 2C^2 and y = 4C^3 S, so
    (a0, b0) = (r^2, y) = (q0, y).  The quartic is divided by a - k b,
    k = a0/b0, running the recursion from its a^4 end, or where a0 > |b0|
    by b - k a, k = b0/a0, from its b^4 end, which is the same recursion
    with a and b swapped (A, B).  The cubic left,
    e3 A^3 + e2 A^2 B + e1 A B^2 + e0 B^3, is solved in t = B/A or t = A/B,
    whichever has the larger leading coefficient: a line through the cusp
    (c -> 0) has a root at a = 0, which only the chart t = a/b sees.
    """
    dx, dy, y = d[:, 0], d[:, 1], p[:, 1]
    c, q0, pd, _ = ray
    swap = q0 > np.abs(y)
    k = np.where(swap, y / q0, q0 / y)
    q4, q3, q2 = c + 2.0 * dy, -4.0 * dx, 2.0 * (c - dy)
    e = np.empty((4, len(c)))  # e3, e2, e1, e0
    e[0] = np.where(swap, c, q4)
    e[1] = np.where(swap, k * c, q3 + k * q4)
    np.add(q2, k * e[1], e[2])
    np.add(np.where(swap, q3, 0.0), k * e[2], e[3])
    by_b = np.abs(e[3]) > np.abs(e[0])  # t = B/A
    e = np.where(by_b, e[::-1], e)  # the leading coefficient first
    np.divide(1.0, e[0], e[0])
    e[1:] *= e[0]  # monic
    lead, rows, roots = _cubic_roots(e[1:])
    t_is_b = by_b != swap  # (a, b) = (1, t), else (t, 1)
    a, b, tau = _nearest(pd, d, np.where(t_is_b, 1.0, lead), np.where(t_is_b, lead, 1.0))
    if rows.size:  # every real root on the rows that have more (NaN stands for none)
        t_is_b = t_is_b.take(rows)
        a[rows], b[rows], tau[rows] = _nearest(pd.take(rows), d.take(rows, axis=0),
                                               np.where(t_is_b, 1.0, roots),
                                               np.where(t_is_b, roots, 1.0))
    return a, b, tau


def _ferrari_roots(p, d, ray):
    """The nearest root of an interior start's quartic, by Ferrari's factorization.

    c times the quartic in u = b/a factors into the real quadratics
    c u^2 -/+ s u + (c + m -/+ sigma), s^2 = 2c mu, s sigma = 2c dx,
    mu = m + dy, where m is the largest real root of the resolvent
    m^3 + (2c + dy) m^2 - 2c = 0 if c > 0 and its smallest if c < 0, so
    that s is real.  Where mu cancels (|mu| < |dy|/2, near-vertical rays) a
    Newton step refines it in its own cubic
    mu^3 + 2(c - dy) mu^2 + dy (dy - 4c) mu - 2c dx^2 = 0.  The constant
    term that would cancel comes from their product c (c + 2dy), and each
    quadratic's roots stay homogeneous, (c, h) and (h, gamma).  The chosen
    distance takes one Newton step on the ray quartic in tau,
    F = (q - x)^2 - q, q = |p + tau d|^2, kept where it stays above
    `_TAU_MIN`: a short chord's (X - p).d cancels, F's coefficients do not.
    """
    dx, dy = d[:, 0], d[:, 1]
    c, q0, pd, b0 = ray
    m, rows, roots = _cubic_roots(np.array([2.0 * c + dy, np.zeros_like(c), -2.0 * c]))
    if rows.size:  # fmax and fmin skip the NaN that marks a missing root
        m[rows] = np.where(c.take(rows) > 0.0, np.fmax.reduce(roots), np.fmin.reduce(roots))
    mu = m + dy
    near = np.abs(mu) < 0.5 * np.abs(dy)
    mu = np.where(near, _newton_step(mu, 2.0 * (c - dy), dy * (dy - 4.0 * c), -2.0 * c * dx * dx), mu)
    m = np.where(near, mu - dy, m)

    s2 = 2.0 * c * mu
    s = np.sqrt(np.maximum(s2, 0.0))
    sigma2 = m * m + 2.0 * c * (m - dy)
    sigma = np.where(s2 >= sigma2, 2.0 * c * dx / s,
                     np.copysign(np.sqrt(np.maximum(sigma2, 0.0)), c * dx))
    k = c + m
    big = k + np.copysign(sigma, k)
    small = c * (c + 2.0 * dy) / big
    plus_big = np.signbit(k) == np.signbit(sigma)
    # the factors with -s and +s; the roots of each are (c, h) and (h, gamma)
    gamma = np.stack([np.where(plus_big, small, big), np.where(plus_big, big, small)])
    h = np.array([[0.5], [-0.5]]) * (s + np.sqrt(s * s - 4.0 * c * gamma))
    a, b, tau = _nearest(pd, d, np.concatenate([[c, c], h]), np.concatenate([h, gamma]))

    b1 = 2.0 * pd - dx
    c3, c2, c1, c0 = 2.0 * b1, b1 * b1 + 2.0 * b0 - 1.0, 2.0 * b1 * b0 - 2.0 * pd, b0 * b0 - q0
    F = (((tau + c3) * tau + c2) * tau + c1) * tau + c0
    dF = ((4.0 * tau + 3.0 * c3) * tau + 2.0 * c2) * tau + c1
    step = tau - F / dF
    return a, b, np.where((step > _TAU_MIN) & (step < np.inf), step, tau)


def _polar_roots(pd, d):
    """The nearest root on a line through the cusp: the cusp, or the polar angle of d or -d."""
    return _nearest(pd, d, *_half_angles(np.array([d[:, 0], -d[:, 0], [-1.0] * len(d)]),
                                         np.array([d[:, 1], -d[:, 1], [0.0] * len(d)])))


def _cubic_roots(coef):
    """Real roots ``(lead, rows, roots)`` of the monic cubics x^3 + e2 x^2 + e1 x + e0.

    ``coef`` holds the rows e2, e1, e0.  In depressed form t^3 + pp t + qq
    (x = t - e2/3) ``lead`` is Cardano's real root u + v.  Some rows have
    more real roots: with three (half_disc < 0), the trigonometric roots,
    in descending order mc = m cos(theta) and -mc/2 +- (sqrt3/2) m sin(theta),
    m = 2 sqrt(-pp/3); with a complex pair real up to 1e-6 relative (a
    double root), its real part -(u + v)/2 twice.  A root that cancels
    against the shift e2/3 keeps an absolute error of about eps times the
    shift: it takes one Newton step, as do all roots on the rows with more.
    ``rows`` are those two sets of rows, gathered once, and ``roots`` (3, k)
    their roots after the step, ``lead`` first, NaN where a row has no more.
    """
    e2, e1, e0 = coef
    cubic = np.empty((5, len(e2)))  # shift, pp, qq, half_disc, cardano
    shift, pp, qq, half_disc, cardano = cubic
    np.divide(e2, 3.0, shift)
    np.subtract(e1, e2 * shift, pp)
    np.add((2.0 * shift * shift - e1) * shift, e0, qq)
    np.add(0.25 * qq * qq, pp * pp * pp / 27.0, half_disc)
    # the larger cube root first, so that u + v does not cancel
    u = np.cbrt(-0.5 * qq - np.copysign(np.sqrt(np.maximum(half_disc, 0.0)), qq))
    # u = 0 only when qq = 0 and pp <= 0; the pp < 0 rays take the trig form
    v = -pp / (3.0 * np.where(u == 0.0, 1.0, u))
    np.add(u, v, cardano)
    pair_imag = 0.5 * math.sqrt(3.0) * np.abs(u - v)
    more = (half_disc < 0.0) | (pair_imag < 1e-6 * np.maximum(1.0, np.abs(0.5 * cardano + shift)))
    lead = cardano - shift
    rows = (more | (np.abs(lead) < 0.01 * np.abs(shift))).nonzero()[0]
    if not rows.size:
        return lead, rows, np.empty((3, 0))
    (e2, e1, e0), (shift, pp, qq, half_disc, cardano) = coef.take(rows, 1), cubic.take(rows, 1)
    # the trig values are taken only where half_disc < 0, and so pp < 0 and m > 0
    m = 2.0 * np.sqrt(np.maximum(-pp, 0.0) / 3.0)
    theta = np.arccos(np.minimum(np.maximum(3.0 * qq / np.where(m > 0.0, pp * m, -np.inf),
                                            -1.0), 1.0)) / 3.0
    trig = _PAIR * (m * np.cos(theta))
    ms = (0.5 * math.sqrt(3.0)) * (m * np.sin(theta))
    trig[1] += ms
    trig[2] -= ms
    pair = _PAIR * cardano
    pair[1:, ~more.take(rows)] = np.nan  # a row refined only for its cancelled root
    roots = _newton_step(np.where(half_disc < 0.0, trig, pair) - shift, e2, e1, e0)
    lead[rows] = roots[0]
    return lead, rows, roots


def _newton_step(x, e2, e1, e0):
    """x after one Newton step on x^3 + e2 x^2 + e1 x + e0, where the step lowers |f|.

    Next to a double root, or a complex pair almost on the real axis, the
    slope nearly vanishes and a step can jump far; it is refused.
    """
    f = ((x + e2) * x + e1) * x + e0
    slope = (3.0 * x + 2.0 * e2) * x + e1
    step = x - f / np.where(slope == 0.0, np.inf, slope)
    return np.where(np.abs(((step + e2) * step + e1) * step + e0) < np.abs(f), step, x)
