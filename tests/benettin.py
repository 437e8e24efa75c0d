"""Two-trajectory (Benettin) Lyapunov estimator: the reference for the tangent map.

Each reference trajectory carries a partner offset by 1e-9 in the
dimensionless phase-space metric |dr|^2/scale^2 + |dv|^2/v^2.  The pair
separation is measured and renormalised once per mean collision time; the
per-step log stretchings telescope into the per-pair exponent (Benettin &
Strelcyn, PRA 17, 773 (1978)).  It shares nothing with
`ensemble.estimate_lyapunov` but the sampler, the collision engine and the
windows: burn-in, full window against late half, and
``std_error = hypot(se, drift)``.
"""

import math

import numpy as np

from chaodecay.dynamics import _flights
from chaodecay.ensemble import _philox, mean_free_time, sample_ensemble

# Philox stream tag of the partner offsets, apart from the sampler's.
_TAG_OFFSETS = 1


def advance_to(geometry, pos, dirs, t_now, t_target, speed):
    """Advance a closed-cavity batch in place to the common time ``t_target``.

    ``pos``/``dirs``/``t_now`` are modified in place; collisions are resolved
    until every particle's next hit lies beyond the target, then everyone
    drifts straight to it.  Raises ``NumericError`` for a particle stuck in
    place.
    """
    # a row's last flight is the one that ends past the target: its start is
    # the state to drift from
    for rows, start, heading, t_start, *_ in _flights(geometry, pos, dirs, t_now, speed,
                                                       t_target):
        pos[rows], dirs[rows], t_now[rows] = start, heading, t_start
    pos += (t_target - t_now)[:, None] * dirs * speed
    t_now[:] = t_target


def benettin_lyapunov(geometry, spec, t_obs):
    """``(value, std_error)`` of the mean divergence rate of nearby pairs."""
    dt = mean_free_time(geometry, spec.speed)
    n_steps = max(int(round(t_obs / dt)), 8)
    burn = min(20, n_steps // 8)
    d0 = 1e-9
    scale, v = geometry.scale, spec.speed

    pos, dirs = sample_ensemble(geometry, spec)
    n = spec.n_samples
    # initial offset: random phase-space direction, split between position
    # (tangentially safe: tiny) and velocity angle
    mix = _philox(spec.seed, _TAG_OFFSETS).random((n, 2))
    theta = 2.0 * math.pi * mix[:, 0]
    frac = mix[:, 1]
    dr = (d0 * scale * np.sqrt(frac))[:, None] * np.stack([np.cos(theta), np.sin(theta)], -1)
    dang = d0 * np.sqrt(1.0 - frac)
    p_pos = pos + dr
    outside = ~geometry.contains(p_pos, tol=-1e-12 * scale)
    p_pos[outside] = pos[outside]
    ca, sa = np.cos(dang), np.sin(dang)
    p_dirs = np.stack(
        [dirs[:, 0] * ca - dirs[:, 1] * sa, dirs[:, 0] * sa + dirs[:, 1] * ca], -1
    )

    # reference rows first, partners after, advanced as one batch per
    # renormalisation step; pos/dirs and p_pos/p_dirs are views of that batch
    state_pos = np.concatenate([pos, p_pos])
    state_dirs = np.concatenate([dirs, p_dirs])
    t_now = np.zeros(2 * n)
    pos, p_pos = state_pos[:n], state_pos[n:]
    dirs, p_dirs = state_dirs[:n], state_dirs[n:]
    prev_sep = _pair_separation(pos, dirs, p_pos, p_dirs, scale)
    log_sums = np.zeros((n_steps, n))

    for k in range(n_steps):
        advance_to(geometry, state_pos, state_dirs, t_now, (k + 1) * dt, v)
        sep = _pair_separation(pos, dirs, p_pos, p_dirs, scale)
        sep = np.maximum(sep, 1e-300)
        log_sums[k] = np.log(sep / prev_sep)
        # pull the partner back to separation d0 along the current offset
        shrink = (d0 / sep)[:, None]
        p_pos[:] = pos + shrink * (p_pos - pos)
        p_dirs[:] = dirs + shrink * (p_dirs - dirs)
        p_dirs /= np.hypot(p_dirs[:, 0], p_dirs[:, 1])[:, None]
        outside = ~geometry.contains(p_pos, tol=-1e-12 * scale)
        if np.any(outside):
            p_pos[outside] = pos[outside]
        prev_sep = _pair_separation(pos, dirs, p_pos, p_dirs, scale)
        prev_sep = np.maximum(prev_sep, 1e-300)

    window = log_sums[burn:]
    t_window = dt * len(window)
    lam_full = window.sum(axis=0) / t_window
    half = len(window) // 2
    lam_late = window[half:].sum(axis=0) / (dt * (len(window) - half))
    value = float(lam_full.mean())
    se = float(lam_full.std(ddof=1) / math.sqrt(n))
    drift = abs(value - float(lam_late.mean()))
    return value, math.hypot(se, drift)


def _pair_separation(pos, dirs, p_pos, p_dirs, scale):
    dr = (p_pos - pos) / scale
    dv = p_dirs - dirs  # unit directions: |dv| = velocity mismatch / speed
    return np.sqrt(
        dr[:, 0] ** 2 + dr[:, 1] ** 2 + dv[:, 0] ** 2 + dv[:, 1] ** 2
    )
