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
whole batch at once.  Rays starting on the boundary -- every ray after its
first flight -- have an exact root at distance 0, so their quartic deflates
to a cubic solved in closed form; only rays starting inside the cavity take
all four roots from companion-matrix eigenvalues.  Only the smallest
admissible root is polished, by Newton steps on the full quartic.
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
        """True for arclengths inside the absorbing opening (wraps around)."""
        start = (self.opening_center - 0.5 * self.opening_length) % self.perimeter
        return ((np.asarray(s) - start) % self.perimeter) < self.opening_length

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


def _cardioid_normal(c, s):
    """Inward unit normal of the unit cardioid at polar angle phi (c = cos phi, s = sin phi)."""
    rho, drho = 1.0 + c, -s
    tx = drho * c - rho * s
    ty = drho * s + rho * c
    norm = np.hypot(tx, ty)
    # at the cusp the tangent vanishes; park a +x normal there (callers
    # retroreflect on cusp hits, so this value never steers dynamics)
    safe = norm > 1e-15
    nx = np.where(safe, -ty / np.where(safe, norm, 1.0), 1.0)
    ny = np.where(safe, tx / np.where(safe, norm, 1.0), 0.0)
    return np.stack([nx, ny], axis=-1)


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
    * interior starts: all four roots from companion-matrix eigenvalues.

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
        dist = _interior_dist(*quartic)
    else:
        dist = np.empty(len(p))
        for rows, solve in ((on_boundary, _boundary_dist), (~on_boundary, _interior_dist)):
            dist[rows] = solve(*(c[rows] for c in quartic))

    # rays with no admissible root (numerically stuck at the cusp or exactly
    # grazing): treat as a cusp event; the caller will retroreflect in place
    stuck = ~np.isfinite(dist)
    dist = np.where(stuck, 0.0, dist)

    hit = p + dist[:, None] * d
    phi = np.arctan2(hit[:, 1], hit[:, 0])
    phi = np.where(phi < 0.0, phi + 2.0 * math.pi, phi)  # into [0, 2 pi)
    # a hit on the cusp point itself has no polar angle of its own: pin it to
    # the cusp's, so it is snapped there instead of onto the far side
    on_cusp = hit[:, 0] ** 2 + hit[:, 1] ** 2 <= _CUSP_RADIUS**2
    phi = np.where(on_cusp, math.pi, phi)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    rho_b = 1.0 + cos_phi
    cusp = stuck | (rho_b <= _CUSP_RADIUS)
    hit = np.stack([rho_b * cos_phi, rho_b * sin_phi], axis=-1)  # snap
    s_half = 4.0 * np.sin(0.5 * phi)
    s_hit = np.where(phi <= math.pi, s_half, 8.0 - s_half)
    nrm = _cardioid_normal(cos_phi, sin_phi)
    return dist * scale, s_hit * scale, hit * scale, nrm, cusp


def _interior_dist(c3, c2, c1, c0, b1, b0):
    """Smallest admissible root from all four companion-matrix eigenvalues."""
    comp = np.zeros((len(c0), 4, 4))
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    comp[:, 0, 3] = -c0
    comp[:, 1, 3] = -c1
    comp[:, 2, 3] = -c2
    comp[:, 3, 3] = -c3
    roots = np.linalg.eigvals(comp).T
    tau = roots.real.copy()
    near_real = np.abs(roots.imag) < 1e-6 * np.maximum(1.0, np.abs(tau))
    return _smallest_admissible(tau, near_real, c3, c2, c1, c0, b1, b0)


def _boundary_dist(c3, c2, c1, c0, b1, b0):
    """Smallest admissible root of the deflated cubic tau^3 + c3 tau^2 + c2 tau + c1.

    In depressed form t^3 + pp t + qq (tau = t - c3/3) the three candidates
    are, for rays with three real roots, the trigonometric roots
    m cos(theta - 2 pi k / 3) with m = 2 sqrt(-pp/3); otherwise Cardano's
    real root u + v and twice the real part -(u + v)/2 of the complex pair,
    which count as real only where the pair is real up to 1e-6 relative (as
    the eigenvalue path counts it).
    """
    shift = c3 / 3.0
    pp = c2 - c3 * shift
    qq = (2.0 * shift * shift - c2) * shift + c1
    half_disc = 0.25 * qq * qq + pp * pp * pp / 27.0
    three_real = half_disc < 0.0
    with np.errstate(invalid="ignore", divide="ignore"):  # each form off its rays
        # the larger cube root first, so that u + v does not cancel
        u = np.cbrt(-0.5 * qq - np.copysign(np.sqrt(np.maximum(half_disc, 0.0)), qq))
        # u = 0 only when qq = 0 and pp <= 0; the pp < 0 rays take the trig form
        v = -pp / (3.0 * np.where(u == 0.0, 1.0, u))
        m = 2.0 * np.sqrt(-pp / 3.0)
        theta = np.arccos(np.minimum(np.maximum(3.0 * qq / (pp * m), -1.0), 1.0)) / 3.0
    real = u + v
    pair_imag = 0.5 * math.sqrt(3.0) * np.abs(u - v)
    pair_real = three_real | (pair_imag < 1e-6 * np.maximum(1.0, np.abs(0.5 * real + shift)))
    tau = np.where(three_real, m * np.cos(theta - _THIRDS), _CARDANO * real) - shift
    near_real = np.stack([np.ones_like(pair_real), pair_real, pair_real])
    return _smallest_admissible(tau, near_real, c3, c2, c1, c0, b1, b0)


_THIRDS = (2.0 * math.pi / 3.0) * np.arange(3)[:, None]
# Cardano's roots: u + v, then the pair's real part -(u + v)/2 twice
_CARDANO = np.array([[1.0], [-0.5], [-0.5]])


def _smallest_admissible(tau, near_real, c3, c2, c1, c0, b1, b0):
    """Pick the smallest admissible candidate root, then Newton-polish only it.

    ``tau`` holds one candidate per row, rays along the columns.  A candidate
    is admissible when it is (nearly) real, lies ahead of the start, is on the
    physical branch q - x >= 0 and leaves a small quartic residual.  Rays
    without one get a non-finite distance.
    """
    P = (((tau + c3) * tau + c2) * tau + c1) * tau + c0
    g = (tau + b1) * tau + b0  # q - x along the ray
    admissible = (
        near_real
        & (tau > _TAU_MIN)
        & (g >= -1e-9)
        & (np.abs(P) <= 1e-8 * np.maximum(1.0, tau**4))
    )
    tau = np.where(admissible, tau, np.inf).min(axis=0)
    dc3, dc2 = 3.0 * c3, 2.0 * c2
    with np.errstate(invalid="ignore"):  # inf - inf on rays without a root
        for _ in range(2):  # no step where dP vanishes
            P = (((tau + c3) * tau + c2) * tau + c1) * tau + c0
            dP = ((4.0 * tau + dc3) * tau + dc2) * tau + c1
            tau = tau - P / np.where(np.abs(dP) > 1e-300, dP, np.inf)
    return tau
