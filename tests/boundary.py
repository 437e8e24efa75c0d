"""Boundary parametrisation by arclength: the reference for ray casting.

``boundary_point`` maps an arclength to a boundary position and inward unit
normal straight from each shape's defining formulas: the circle's polar
angle, the cardioid's arclength s(phi) = 4a sin(phi/2) inverted, and the
stadium's four pieces laid end to end.  It shares nothing with
``CavityGeometry.ray_hits``, so tests use it to place boundary starts and to
check where rays land.
"""

import math

import numpy as np


def boundary_point(geometry, s):
    """Position and inward unit normal at arclength ``s`` (broadcasts).

    Raises for arclengths outside [0, perimeter]; use ``s % perimeter``
    first when wrapping is intended.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or np.any(s > geometry.perimeter):
        raise ValueError("arclength outside [0, perimeter]")
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    point = {"circle": _circle_point, "cardioid": _cardioid_point,
             "stadium": _stadium_point}[geometry.shape]
    pos, nrm = point(s, geometry.scale)
    if scalar:
        return pos[0], nrm[0]
    return pos, nrm


def _circle_point(s, a):
    phi = s / a
    pos = a * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return pos, -pos / a


def _cardioid_point(s, a):
    phi = _cardioid_angle_from_arclength(s, a)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    rho = a * (1.0 + cos_phi)
    pos = np.stack([rho * cos_phi, rho * sin_phi], axis=-1)
    return pos, cardioid_normal(cos_phi, sin_phi)


def cardioid_normal(c, s):
    """Inward unit normal of the unit cardioid at polar angle phi (c = cos phi, s = sin phi).

    The tangent d/dphi of (rho cos phi, rho sin phi), rho = 1 + cos phi,
    rotated by +90 degrees.  At the cusp, where the tangent vanishes, it
    parks a +x normal.
    """
    rho, drho = 1.0 + c, -s
    tx = drho * c - rho * s
    ty = drho * s + rho * c
    norm = np.hypot(tx, ty)
    safe = norm > 1e-15
    nx = np.where(safe, -ty / np.where(safe, norm, 1.0), 1.0)
    ny = np.where(safe, tx / np.where(safe, norm, 1.0), 0.0)
    return np.stack([nx, ny], axis=-1)


def _cardioid_angle_from_arclength(s, a):
    # s(phi) = 4a sin(phi/2) on [0, pi], mirrored on [pi, 2pi]
    first = s <= 4.0 * a
    arg = np.where(first, s, 8.0 * a - s) / (4.0 * a)
    half = np.arcsin(np.clip(arg, 0.0, 1.0))
    return np.where(first, 2.0 * half, 2.0 * math.pi - 2.0 * half)


def _stadium_point(s, a):
    r = a
    pos = np.empty(s.shape + (2,))
    nrm = np.empty_like(pos)
    s0, s1, s2, s3 = 2 * a, 2 * a + math.pi * r, 4 * a + math.pi * r, 4 * a + 2 * math.pi * r
    bottom = s < s0
    right = (s >= s0) & (s < s1)
    top = (s >= s1) & (s < s2)
    left = s >= s2
    pos[bottom] = np.stack([s[bottom] - a, np.full(np.sum(bottom), -r)], axis=-1)
    nrm[bottom] = (0.0, 1.0)
    th = -0.5 * math.pi + (s[right] - s0) / r
    pos[right] = np.stack([a + r * np.cos(th), r * np.sin(th)], axis=-1)
    nrm[right] = np.stack([-np.cos(th), -np.sin(th)], axis=-1)
    pos[top] = np.stack([a - (s[top] - s1), np.full(np.sum(top), r)], axis=-1)
    nrm[top] = (0.0, -1.0)
    th = 0.5 * math.pi + (np.minimum(s[left], s3) - s2) / r
    pos[left] = np.stack([-a + r * np.cos(th), r * np.sin(th)], axis=-1)
    nrm[left] = np.stack([-np.cos(th), -np.sin(th)], axis=-1)
    return pos, nrm
