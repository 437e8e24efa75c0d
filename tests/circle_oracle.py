"""Whole escape orbits in the circle from its conserved quantities: the reference for ``escape_times``.

In a circle of radius R the angular momentum L = x dy - y dx of a ray is
conserved, so after the first flight every flight is a chord of length
2 R cos(psi), sin(psi) = |L|/R, and each hit lies an arclength
R (pi - 2 psi) further on, counterclockwise where L > 0.  Hit k of a row
(k = 0 the first) is due at tau0 + 2 k R cos(psi) at the polar angle
phi0 + k sign(L) (pi - 2 psi); none of it comes from the engine's ray casts.
"""

import math

import numpy as np


def circle_orbits(geometry, pos, dirs, t_max, margin, block=256):
    """``(times, hits, near_edge)`` for interior starts at unit speed.

    ``times`` is each row's escape time (inf if none is due by ``t_max``),
    ``hits`` the number of its hits due by ``t_max``, the escape included,
    and ``near_edge`` marks rows one of whose hits, up to the escape, lies
    within ``margin`` (arclength) of an opening edge, or within ``margin``
    (time) of ``t_max``: rounding may put such a hit on either side.
    """
    R, P, width = geometry.scale, geometry.perimeter, geometry.opening_length
    start = (geometry.opening_center - 0.5 * width) % P
    x, y, dx, dy = pos[:, 0], pos[:, 1], dirs[:, 0], dirs[:, 1]
    b = x * dx + y * dy
    tau0 = -b + np.sqrt(b * b - (x * x + y * y - R * R))
    phi0 = np.arctan2(y + tau0 * dy, x + tau0 * dx)
    L = x * dy - y * dx
    chord = 2.0 * np.sqrt(R * R - L * L)
    step = np.copysign(math.pi - 2.0 * np.arcsin(np.abs(L) / R), L)
    # hits due by t_max; a hit within margin of t_max makes the row ambiguous
    last = np.floor((t_max - tau0) / chord)
    due = np.where(tau0 <= t_max, last + 1, 0).astype(np.int64)
    near_edge = ((np.abs(tau0 + last * chord - t_max) < margin)
                 | (np.abs(tau0 + (last + 1) * chord - t_max) < margin))

    times, hits = np.full(len(pos), np.inf), due.copy()
    live = np.flatnonzero(due > 0)
    for k0 in range(0, int(due.max(initial=0)), block):
        k = k0 + np.arange(block)
        phi = (phi0[live, None] + k * step[live, None]) % (2.0 * math.pi)
        u = (R * phi - start) % P  # from the opening's start, counterclockwise
        ahead = k < due[live, None]
        inside = ahead & (u < width)
        first = np.where(inside.any(axis=1), inside.argmax(axis=1), block)
        upto = ahead & (np.arange(block) <= first[:, None])
        edge = np.minimum(np.minimum(u, np.abs(u - width)), P - u) < margin
        near_edge[live] |= (edge & upto).any(axis=1)
        out = first < block
        times[live[out]] = tau0[live[out]] + (k0 + first[out]) * chord[live[out]]
        hits[live[out]] = k0 + first[out] + 1
        live = live[~out & (due[live] > k0 + block)]
        if not live.size:
            break
    return times, hits, near_edge
