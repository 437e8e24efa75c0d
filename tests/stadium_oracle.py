"""Stadium ray casting by all four boundary pieces: the reference for ``ray_hits``.

``stadium_hits`` intersects every ray with both straights and with both roots
of both cap circles, keeps each candidate that lies ahead of the start and on
its piece (to ``1e-9 * a``), and takes the nearest.  It needs no convexity
argument, so tests use it to check the exit-piece choice of
``geometry._stadium_hits``; its distance, hit, arclength and normal formulas
are the kernel's, so the two agree bit for bit wherever they pick the same
piece.
"""

import math

import numpy as np

from chaodecay.geometry import _TAU_MIN


def stadium_hits(p, d, a):
    """``(dist, s_hit, hit, normal)`` of rays from ``p`` along ``d`` (centred stadium)."""
    n = len(p)
    tau_min = _TAU_MIN * a
    tol = 1e-9 * a
    x, y = p[:, 0], p[:, 1]
    dx, dy = d[:, 0], d[:, 1]
    INF = np.inf
    cand = np.full((4, n), INF)

    # bottom (piece 0) and top (piece 1) straight segments
    for k, ysign in ((0, -1.0), (1, 1.0)):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tau = (ysign * a - y) / dy
        xh = x + tau * dx
        ok = (dy != 0) & (tau > tau_min) & (np.abs(xh) <= a + tol)
        cand[k] = np.where(ok, tau, INF)

    # right (piece 2) and left (piece 3) caps
    for k, xsign in ((2, 1.0), (3, -1.0)):
        px = x - xsign * a
        b = px * dx + y * dy
        c0 = px * px + y * y - a * a
        disc = b * b - c0
        ok_disc = disc >= 0
        sq = np.sqrt(np.maximum(disc, 0.0))
        best = np.full(n, INF)
        for tau in (-b - sq, -b + sq):
            xh = px + tau * dx
            ok = ok_disc & (tau > tau_min) & (xsign * xh >= -tol)
            best = np.where(ok & (tau < best), tau, best)
        cand[k] = best

    piece = np.argmin(cand, axis=0)
    dist = cand[piece, np.arange(n)]
    if not np.all(np.isfinite(dist)):
        raise ArithmeticError("stadium ray intersection found no boundary hit")

    hit = p + dist[:, None] * d
    s_hit = np.empty(n)
    nrm = np.empty((n, 2))
    s0, s1, s2 = 2 * a, 2 * a + math.pi * a, 4 * a + math.pi * a

    m = piece == 0
    hit[m, 1] = -a
    s_hit[m] = np.clip(hit[m, 0] + a, 0.0, 2 * a)
    nrm[m] = (0.0, 1.0)
    m = piece == 1
    hit[m, 1] = a
    s_hit[m] = s1 + np.clip(a - hit[m, 0], 0.0, 2 * a)
    nrm[m] = (0.0, -1.0)
    for pc, xsign, s_base in ((2, 1.0, s0), (3, -1.0, s2)):
        m = piece == pc
        if not np.any(m):
            continue
        px = hit[m, 0] - xsign * a
        py = hit[m, 1]
        rr = np.hypot(px, py)
        px, py = a * px / rr, a * py / rr  # snap radially onto the cap
        hit[m, 0] = px + xsign * a
        hit[m, 1] = py
        th = np.arctan2(py, px)
        if pc == 2:
            s_hit[m] = s_base + (th + 0.5 * math.pi) * a
        else:
            th = th % (2.0 * math.pi)  # left-cap angles in [pi/2, 3pi/2]
            s_hit[m] = s_base + (th - 0.5 * math.pi) * a
        nrm[m, 0] = -px / a
        nrm[m, 1] = -py / a
    return dist, s_hit, hit, nrm
