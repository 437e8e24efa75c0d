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
a ray leaves by, and reduces to a quartic for the cardioid, solved for the
whole batch at once, in closed form.  Rays starting on the boundary --
every ray after its first flight -- have an exact root at distance 0, so
their quartic deflates to a cubic; rays starting inside the cavity split
their quartic into two real quadratics through its resolvent cubic
(Ferrari).  One cubic solver serves both.  Only the smallest
admissible root is polished, by Newton steps on the full quartic that are
refused where they would raise its residual.  The cardioid hit is snapped onto
the boundary along its polar angle, whose cosine and sine are read off the
hit as x/r and y/r; its arclength and normal follow from them and from the
half-angle values sqrt((1 -/+ cos)/2), with no trigonometric call.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError

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
        if not (self.scale > 0):
            raise ValueError("scale must be positive")
        if self.opening_center is None:
            object.__setattr__(self, "opening_center",
                               _SHAPE_FACTS[self.shape].opening_center * self.scale)
        if not (0 < self.opening_length < self.perimeter):
            raise ValueError("opening_length must lie strictly between 0 and the perimeter")
        if not math.isfinite(self.opening_center):
            raise ValueError("opening_center must be finite")

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
        ``normal`` the inward unit normal at the (snapped) hit and ``cusp``
        marks hits effectively at the cardioid cusp, where no normal exists
        and the caller should retroreflect.  Starts up to ``1e-9*scale``
        outside the boundary are tolerated.  A stadium ray with no exit ahead
        of it (a start outside, a tangent ray, a NaN) raises ``NumericError``.
        """
        p = np.atleast_2d(np.asarray(pos, dtype=float))
        d = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.shape == "cardioid":
            return _cardioid_hits(p, d, self.scale)
        hits = _circle_hits if self.shape == "circle" else _stadium_hits
        return (*hits(p, d, self.scale), np.zeros(len(p), dtype=bool))


def _circle_hits(p, d, radius):
    b = np.einsum("ij,ij->i", p, d)
    c0 = np.einsum("ij,ij->i", p, p) - radius * radius
    dist = _far_root(b, np.maximum(b * b - c0, 0.0), c0, radius)
    hit = p + dist[:, None] * d
    # snap radially onto the circle
    hit *= radius / np.hypot(hit[:, 0], hit[:, 1])[:, None]
    phi = np.arctan2(hit[:, 1], hit[:, 0]) % (2.0 * math.pi)
    s_hit = radius * phi
    nrm = -hit / radius
    return dist, s_hit, hit, nrm


def _far_root(b, disc, c0, radius):
    """Far root ``-b + sqrt(disc)`` of a ray from p along d on a circle (b = p.d).

    Where c0 = |p|^2 - radius^2 is rounding noise (a start on the circle) and
    b^2 is no larger (within ~1e-6 rad of the tangent), the sign of that noise
    would pick the root; those rows take the exact circle's far root, -2b.
    """
    tol = 1e-12 * radius * radius
    return np.where((np.abs(c0) <= tol) & (b * b <= tol), -2.0 * b, -b + np.sqrt(disc))


def _stadium_hits(p, d, a):
    """Exit of each ray, solved on the one piece it leaves the convex stadium by.

    A ray leaves the strip |y| <= a through the line of the straight it heads
    for, y = copysign(a, dy).  If it meets it at |x| <= a that is the exit;
    otherwise the ray left earlier through the cap on that side (the side of
    dx when dy == 0 or it starts on the line), at the far root of its circle.
    """
    tau_min = _TAU_MIN * a
    edge = np.copysign(a, d[:, 1])  # y of the straight each ray heads for
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dist = (edge - p[:, 1]) / d[:, 1]
        hit = p + dist[:, None] * d
    ahead = dist > tau_min
    cap = np.flatnonzero(~(ahead & (np.abs(hit[:, 0]) <= a + 1e-9 * a)))

    # every row as a straight hit first; the cap rows are overwritten below
    hit[:, 1] = edge
    nrm = np.zeros((len(p), 2))
    nrm[:, 1] = -edge / a
    s_hit = np.clip(hit[:, 0] * nrm[:, 1] + a, 0.0, 2 * a)  # x + a (bottom), a - x (top)
    np.add(s_hit, 2 * a + math.pi * a, out=s_hit, where=edge > 0)  # where the top starts

    pc, dc = p[cap], d[cap]
    xc = np.copysign(a, np.where(ahead[cap], hit[cap, 0], dc[:, 0]))  # cap centre x
    px = pc[:, 0] - xc
    b = px * dc[:, 0] + pc[:, 1] * dc[:, 1]
    c0 = px * px + pc[:, 1] * pc[:, 1] - a * a
    with np.errstate(invalid="ignore"):
        tau = _far_root(b, b * b - c0, c0, a)
    bad = cap[~((tau > tau_min) & (tau < np.inf))]
    if bad.size:
        raise NumericError(f"stadium ray from {p[bad[0]].tolist()} along {d[bad[0]].tolist()} "
                           "has no boundary exit ahead of it")
    dist[cap] = tau
    px = pc[:, 0] + tau * dc[:, 0] - xc
    py = pc[:, 1] + tau * dc[:, 1]
    rr = np.hypot(px, py)
    px, py = a * px / rr, a * py / rr  # snap radially onto the cap
    hit[cap, 0] = px + xc
    hit[cap, 1] = py
    th = np.arctan2(py, px)
    right = xc > 0
    np.mod(th, 2.0 * math.pi, out=th, where=~right)  # left-cap angles in [pi/2, 3pi/2]
    s_base = np.where(right, 2 * a, 4 * a + math.pi * a)
    s_hit[cap] = s_base + (th + np.copysign(0.5 * math.pi, xc)) * a
    nrm[cap, 0] = -px / a
    nrm[cap, 1] = -py / a
    return dist, s_hit, hit, nrm


def _cardioid_hits(p, d, scale):
    """Quartic ray-cardioid intersection, batch form.

    In units of ``scale`` the boundary is |r| = 1 + cos(angle), equivalently
    (q - x)^2 = q with q = |r|^2 and the physical branch q - x >= 0.  Along
    the ray r(tau) = p + tau*d that is a monic quartic in tau.  Its constant
    term c0 = (q0 - x0)^2 - q0 equals q0 * ((|p| - cos(angle))^2 - 1), so it
    vanishes exactly when the start p lies on the boundary.  Rays are split
    on it:

    * boundary starts, |c0| <= 1e-12 q0 (p within about 5e-13 of the boundary
      radially; every start after the first flight): the quartic is
      tau * (tau^3 + c3 tau^2 + c2 tau + c1) + c0, so dropping the
      rounding-level c0 removes exactly the tau ~ 0 root -- the start
      itself, never admissible -- and leaves a cubic solved in closed form;
    * interior starts: the quartic is split into two real quadratics
      through its resolvent cubic (`_interior_dist`), whose four roots are
      the candidates.

    Either way the smallest admissible candidate is kept and only it is
    polished by Newton steps on the full quartic.
    """
    p = p / scale
    b = np.einsum("ij,ij->i", p, d)
    q0 = np.einsum("ij,ij->i", p, p)
    b1 = 2.0 * b - d[:, 0]
    b0 = q0 - p[:, 0]
    # quartic coefficients (monic): tau^4 + c3 tau^3 + c2 tau^2 + c1 tau + c0
    c3 = 2.0 * b1
    c2 = b1 * b1 + 2.0 * b0 - 1.0
    c1 = 2.0 * b1 * b0 - 2.0 * b
    c0 = b0 * b0 - q0
    quartic = (c3, c2, c1, c0, b1, b0)
    on_boundary = np.abs(c0) <= 1e-12 * q0
    n_boundary = np.count_nonzero(on_boundary)
    # a batch on one side only -- the common case, and every single ray --
    # is solved whole, without masking
    if n_boundary == len(p):
        dist = _boundary_dist(*quartic)
    elif n_boundary == 0:
        dist = _interior_dist(quartic, p, d, b)
    else:
        dist = np.empty(len(p))
        inner = ~on_boundary
        dist[on_boundary] = _boundary_dist(*(c[on_boundary] for c in quartic))
        dist[inner] = _interior_dist([c[inner] for c in quartic], p[inner], d[inner], b[inner])

    # rays with no admissible root (numerically stuck at the cusp or exactly
    # grazing): treat as a cusp event; the caller will retroreflect in place
    stuck = ~np.isfinite(dist)
    if stuck.any():
        dist[stuck] = 0.0

    hit = p + dist[:, None] * d
    s_hit, hit, nrm, tip = _cardioid_snap(hit[:, 0], hit[:, 1])
    return dist * scale, s_hit * scale, hit * scale, nrm, stuck | tip


def _cardioid_snap(x, y):
    """Snap points onto the unit cardioid along their polar angle phi.

    Returns ``(s_hit, snapped, normal, tip)``: the arclength, the boundary
    point and its inward unit normal at phi, and ``tip`` where that point lies
    within ``_CUSP_RADIUS`` of the cusp.  With r = |(x, y)|, cos phi = x/r
    and sin phi = y/r; 1 -/+ cos phi = (r -/+ x)/r, where the one of r - x
    and r + x that would cancel is taken as y^2 over the other.  The
    arclength is 4 sin(phi/2) = 4 sqrt((1 - cos phi)/2), mirrored to
    8 - 4 sin(phi/2) below the x axis, and the inward normal is
    (C (1 - 2c), -+S (1 + 2c)) with c = cos phi, C = |cos(phi/2)| and
    S = sin(phi/2) (minus above the axis).  A point within ``_CUSP_RADIUS``
    of the origin has no polar angle of its own: it is pinned to the cusp's,
    c = -1, so it is snapped there instead of onto the far side.
    """
    r = np.hypot(x, y)
    on_cusp = r <= _CUSP_RADIUS
    r = np.maximum(r, _CUSP_RADIUS)  # only pinned points change
    far = r + np.abs(x)
    near = y * y / far
    upper = y >= 0.0
    right = x > 0.0
    one_minus = np.where(right, near, far) / r  # 1 - cos phi
    one_plus = np.where(right, far, near) / r  # 1 + cos phi
    c, s = x / r, y / r
    if on_cusp.any():
        c[on_cusp], s[on_cusp] = -1.0, 0.0
        one_minus[on_cusp], one_plus[on_cusp] = 2.0, 0.0
    half_sin = np.sqrt(0.5 * one_minus)
    s_half = 4.0 * half_sin
    s_hit = np.where(upper, s_half, 8.0 - s_half)
    snapped = np.stack([one_plus * c, one_plus * s], axis=-1)
    nrm = np.empty_like(snapped)
    np.multiply(np.sqrt(0.5 * one_plus), 1.0 - 2.0 * c, out=nrm[:, 0])
    np.multiply(np.where(upper, -half_sin, half_sin), 1.0 + 2.0 * c, out=nrm[:, 1])
    return s_hit, snapped, nrm, one_plus <= _CUSP_RADIUS


def _interior_dist(quartic, p, d, b):
    """Smallest admissible root of the quartic of rays starting inside the cavity.

    Ferrari's factorization: for any k, F = g^2 - q equals (g + k)^2 - R_k
    with the quadratic R_k = 2k g + q + k^2, and where R_k is a perfect
    square (s tau + sigma)^2, F splits into the real quadratics
    g + k -/+ (s tau + sigma).  With A = s^2 = 2k + 1 and z = A - 1 that
    happens where z solves the resolvent cubic z^3 + (e z - 2 chi)^2 = 0,
    with chi = p x d and e = dy - 2 chi.  Its real roots lie in [-1, 0],
    and one always does.  Of three real roots the outer one farther from its
    neighbour is taken (the lower one only if A >= 0): next to the cusp two
    roots nearly meet.  The cubic's coefficients are small next to the cusp,
    and formed from chi and e they keep their relative accuracy there; one
    Newton step polishes the root, about A = 0 where z < -1/2 (rays close to
    vertical have A ~ dx^2, the near-biquadratic quartics).  Of each pair of
    factor coefficients the one that would cancel is taken from the pair's
    product: c0 for the constant terms, b1^2 - A for the linear ones, which
    is formed from z + e^2 = 4 chi (e z - chi) / z^2 where z^2 > |chi|.  The
    four roots of the two quadratics are the candidates; a complex pair
    within 1e-6 relative of the real axis counts as a real double root.
    """
    c3, c2, c1, c0, b1, b0 = quartic
    px, py, dx, dy = p[:, 0], p[:, 1], d[:, 0], d[:, 1]
    chi = px * dy - py * dx
    e = dy - 2.0 * chi
    lead, pair, _, trig, third = _cubic_roots(e * e, -4.0 * chi * e, 4.0 * chi * chi)
    z = lead
    if trig.size:
        outer = (third >= -1.0) & (pair[trig] - third > lead[trig] - pair[trig])
        z[trig] = np.where(outer, third, lead[trig])
    z = np.minimum(np.maximum(z, -1.0), 0.0)
    A = 1.0 + z
    small_a = z < -0.5  # there the step is taken about A = 0, else about z = 0
    t = e * z - 2.0 * chi
    R = np.where(small_a, ((A + (4.0 * b0 - 2.0 - b1 * b1)) * A
                             + (1.0 + 4.0 * px - 2.0 * b1 * dx)) * A - dx * dx,
                 z * z * z + t * t)
    dR = 3.0 * z * z + 2.0 * e * t
    step = -R / np.where(dR == 0.0, np.inf, dR)
    z = np.minimum(np.maximum(np.where(small_a, (A + step) - 1.0, z + step), -1.0), 0.0)
    A = np.where(small_a, np.maximum(A + step, 0.0), 1.0 + z)

    # a degenerate or extreme row may divide by 0 or overflow on the way: its
    # candidates come out non-finite, and `_admissible` drops them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sqrt(A)
        B = b + 0.5 * b1 * z  # s * sigma
        C = (0.25 * z + b0) * z + (b0 + px)  # sigma^2
        sigma = np.where(A >= C, B / np.where(s == 0.0, np.inf, s),
                         np.copysign(np.sqrt(np.maximum(C, 0.0)), B))
        # constant terms k -/+ sigma, k = b0 + z/2; their product is c0
        k = b0 + 0.5 * z
        q_big = k + np.copysign(sigma, k)
        q_small = c0 / q_big
        q_plus_big = np.signbit(k) == np.signbit(sigma)
        # linear terms b1 -/+ s; their product is b1^2 - A
        p_big = b1 + np.copysign(s, b1)
        bb = 4.0 * b * (b - dx)
        prod = bb - dy * dy - z
        shift = 4.0 * chi * (e * z - chi) / (z * z)  # z + e^2
        prod = np.where(z * z > np.abs(chi), bb - 4.0 * chi * (dy - chi) - shift, prod)
        p_small = prod / np.where(p_big == 0.0, np.inf, p_big)
        p_plus_big = ~np.signbit(b1)

        P = np.stack([np.where(p_plus_big, p_small, p_big), np.where(p_plus_big, p_big, p_small)])
        Q = np.stack([np.where(q_plus_big, q_small, q_big), np.where(q_plus_big, q_big, q_small)])
        disc = P * P - 4.0 * Q
        mid = -0.5 * P
        half_gap = 0.5 * np.sqrt(np.abs(disc))
        real = disc >= 0.0
        near_real = real | (half_gap < 1e-6 * np.maximum(1.0, np.abs(mid)))
        far = np.where(real, mid - np.copysign(half_gap, P), mid)
        close = np.where(real, Q / far, mid)
    tau = np.concatenate([far, close])
    best = _admissible(tau, quartic, np.concatenate([near_real, near_real])).min(axis=0)
    return _polish(best, quartic)


def _cubic_roots(e2, e1, e0):
    """Real roots of the monic cubics x^3 + e2 x^2 + e1 x + e0, batch form.

    Returns ``(lead, pair, pair_real, trig, third)``.  In depressed form
    t^3 + pp t + qq (x = t - e2/3) ``lead`` is Cardano's real root u + v and
    ``pair`` the real part -(u + v)/2 of the complex pair, which counts as
    real (``pair_real``) only where the pair is real up to 1e-6 relative.
    The rows ``trig`` with three real roots (half_disc < 0) take instead the
    trigonometric roots m cos(theta - 2 pi k / 3), m = 2 sqrt(-pp/3), which
    with mc = m cos(theta) and ms = (sqrt3/2) m sin(theta) are, in
    descending order, ``lead`` = mc, ``pair`` = -mc/2 + ms and ``third`` =
    -mc/2 - ms, the last given on those rows only.
    """
    shift = e2 / 3.0
    pp = e1 - e2 * shift
    qq = (2.0 * shift * shift - e1) * shift + e0
    half_disc = 0.25 * qq * qq + pp * pp * pp / 27.0
    # the larger cube root first, so that u + v does not cancel
    u = np.cbrt(-0.5 * qq - np.copysign(np.sqrt(np.maximum(half_disc, 0.0)), qq))
    # u = 0 only when qq = 0 and pp <= 0; the pp < 0 rays take the trig form
    v = -pp / (3.0 * np.where(u == 0.0, 1.0, u))
    lead = u + v
    pair_imag = 0.5 * math.sqrt(3.0) * np.abs(u - v)
    pair_real = pair_imag < 1e-6 * np.maximum(1.0, np.abs(0.5 * lead + shift))
    pair = -0.5 * lead
    trig = np.flatnonzero(half_disc < 0.0)
    third = None
    if trig.size:
        pp_t = pp[trig]
        m = 2.0 * np.sqrt(-pp_t / 3.0)
        theta = np.arccos(np.minimum(np.maximum(3.0 * qq[trig] / (pp_t * m), -1.0), 1.0)) / 3.0
        mc = m * np.cos(theta)
        ms = (0.5 * math.sqrt(3.0)) * (m * np.sin(theta))
        lead[trig] = mc
        pair[trig] = -0.5 * mc + ms
        pair_real[trig] = True
        third = -0.5 * mc - ms - shift[trig]
    return lead - shift, pair - shift, pair_real, trig, third


def _boundary_dist(c3, c2, c1, c0, b1, b0):
    """Smallest admissible root of the deflated cubic tau^3 + c3 tau^2 + c2 tau + c1.

    Its candidates are the cubic's real roots from `_cubic_roots`: Cardano's
    real root and the complex pair's real part where the pair is real up to
    1e-6 relative (a double root, a ray touching the boundary), or on the
    rays with three real roots (about one in twenty) all three.
    """
    quartic = (c3, c2, c1, c0, b1, b0)
    lead, pair, pair_real, trig, third = _cubic_roots(c3, c2, c1)
    best = np.minimum(_admissible(lead, quartic), _admissible(pair, quartic, pair_real))
    if trig.size:  # the third root, on its rays only
        best[trig] = np.minimum(best[trig], _admissible(third, [c[trig] for c in quartic]))
    return _polish(best, quartic)


def _admissible(tau, quartic, near_real=True):
    """``tau`` where it is an admissible root, else inf.

    A candidate root is admissible when it is (nearly) real, lies ahead of
    the start, is on the physical branch q - x >= 0 and leaves a small
    quartic residual.
    """
    c3, c2, c1, c0, b1, b0 = quartic
    P = (((tau + c3) * tau + c2) * tau + c1) * tau + c0
    g = (tau + b1) * tau + b0  # q - x along the ray
    tau2 = tau * tau
    ok = (near_real & (tau > _TAU_MIN) & (g >= -1e-9)
          & (np.abs(P) <= 1e-8 * np.maximum(1.0, tau2 * tau2)))
    return np.where(ok, tau, np.inf)


def _polish(tau, quartic):
    """Two Newton steps on the full quartic from each ray's chosen root.

    Rays without an admissible root keep their non-finite distance.  A step
    that would raise the residual |P| is refused: next to a double root (a
    ray through the cusp) it can jump far past the root, even behind the
    start.
    """
    c3, c2, c1, c0 = quartic[:4]
    dc3, dc2 = 3.0 * c3, 2.0 * c2
    with np.errstate(invalid="ignore"):  # inf - inf on rays without a root
        P = (((tau + c3) * tau + c2) * tau + c1) * tau + c0
        for _ in range(2):  # no step where dP vanishes
            dP = ((4.0 * tau + dc3) * tau + dc2) * tau + c1
            step = tau - P / np.where(np.abs(dP) > 1e-300, dP, np.inf)
            P_step = (((step + c3) * step + c2) * step + c1) * step + c0
            better = np.abs(P_step) <= np.abs(P)
            tau = np.where(better, step, tau)
            P = np.where(better, P_step, P)
    return tau
