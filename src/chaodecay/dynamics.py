"""Point-particle billiard dynamics: free flight, specular reflection, escape.

One batched engine: `batch_collide` moves every particle of a batch to its
next boundary hit.  `escape_times` repeats it until each particle leaves
through the opening (survival curves), `advance_to` brings a closed-cavity
batch to a common time (Lyapunov pairs) and `sample_positions` records
closed-cavity positions on a uniform time grid (pair decoherence, the
variance time average).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .geometry import CavityGeometry

__all__ = [
    "batch_collide",
    "escape_times",
    "advance_to",
    "sample_positions",
]

# |v . n| / |v| below this counts as a grazing collision: the reflection is
# numerically the identity, we keep the tangential flight and log the event.
_GRAZING_TOL = 1e-12

# A particle whose collision step makes no progress this many times in a row
# (no admissible boundary root: it is retroreflected in place) is stuck.
_MAX_STALLS = 8


def batch_collide(geometry: CavityGeometry, pos, dirs):
    """One collision step for a batch: returns (flight_dist, s_hit, new_pos, new_dirs, kinds).

    ``kinds``: 0 regular, 1 grazing, 2 cusp.  Directions are unit vectors;
    flight time is flight_dist / speed.
    """
    dist, s_hit, hit, nrm, cusp = geometry.ray_hits(pos, dirs)
    vn = np.einsum("ij,ij->i", dirs, nrm)
    grazing = np.abs(vn) < _GRAZING_TOL
    out = dirs - 2.0 * vn[:, None] * nrm
    out = np.where(grazing[:, None], dirs, out)
    out = np.where(cusp[:, None], -dirs, out)
    kinds = np.zeros(len(pos), dtype=np.int8)
    kinds[grazing] = 1
    kinds[cusp] = 2
    return dist, s_hit, hit, out, kinds


def escape_times(
    geometry: CavityGeometry,
    positions,
    directions,
    speed: float,
    t_max: float,
):
    """Escape time through the opening for each particle, censored at ``t_max``.

    Returns ``(times, n_collisions_total)``; survivors get ``inf``.  Particles
    are absorbed at the collision instant when the hit arclength falls inside
    the opening.  Raises ``NumericError`` for a particle stuck in place.
    """
    pos = np.array(positions, dtype=float)
    dirs = np.array(directions, dtype=float)
    n = len(pos)
    t_now = np.zeros(n)
    esc = np.full(n, np.inf)
    alive = np.arange(n)
    stalls = None
    total_collisions = 0

    while alive.size:
        dist, s_hit, hit, out, kinds = batch_collide(geometry, pos[alive], dirs[alive])
        stalls = _count_stalls(stalls, dist, alive)
        total_collisions += alive.size
        t_hit = t_now[alive] + dist / speed
        past = t_hit > t_max
        escaped = geometry.opening_contains(s_hit) & ~past & (kinds != 2)
        esc[alive[escaped]] = t_hit[escaped]
        keep = ~(past | escaped)
        pos[alive[keep]] = hit[keep]
        dirs[alive[keep]] = out[keep]
        t_now[alive[keep]] = t_hit[keep]
        alive = alive[keep]
        if stalls is not None:
            stalls = stalls[keep]
    return esc, total_collisions


def advance_to(geometry: CavityGeometry, pos, dirs, t_now, t_target, speed: float):
    """Advance a closed-cavity batch in place to the common time ``t_target``.

    ``pos``/``dirs``/``t_now`` are modified in place; collisions are resolved
    until every particle's next hit lies beyond the target, then everyone
    drifts straight to it.  Raises ``NumericError`` for a particle stuck in
    place.
    """
    active = np.arange(len(pos))
    stalls = None
    while active.size:
        dist, s_hit, hit, out, kinds = batch_collide(geometry, pos[active], dirs[active])
        stalls = _count_stalls(stalls, dist, active)
        t_hit = t_now[active] + dist / speed
        collide = t_hit <= t_target
        idx = active[collide]
        pos[idx] = hit[collide]
        dirs[idx] = out[collide]
        t_now[idx] = t_hit[collide]
        active = idx
        if stalls is not None:
            stalls = stalls[collide]
    drift = (t_target - t_now)[:, None] * dirs * speed
    pos += drift
    t_now[:] = t_target


def sample_positions(
    geometry: CavityGeometry,
    positions,
    directions,
    speed: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Closed-cavity positions of a batch at the times ``k * dt``, ``k = 0..n_steps``.

    Returns an ``(n, n_steps + 1, 2)`` array; row ``i`` starts at
    ``positions[i]`` with unit direction ``directions[i]``.  Each flight fills
    the samples of its time span at once, measured from its start on the
    boundary, so the state is never drifted off the boundary.  Raises
    ``NumericError`` for a particle stuck in place.
    """
    if dt <= 0 or n_steps < 1:
        raise ValueError("dt must be positive and n_steps at least 1")
    pos = np.array(positions, dtype=float)
    dirs = np.array(directions, dtype=float)
    n = len(pos)
    times = dt * np.arange(n_steps + 1)
    t_end = times[-1]
    samples = np.empty((n, n_steps + 1, 2))
    samples[:, 0] = pos
    t_now = np.zeros(n)
    filled = np.ones(n, dtype=np.intp)  # samples[i, :filled[i]] are final
    active = np.arange(n)
    stalls = None

    while active.size:
        pa, da = pos[active], dirs[active]
        dist, _, hit, out, _ = batch_collide(geometry, pa, da)
        stalls = _count_stalls(stalls, dist, active)
        t0 = t_now[active]
        t_hit = t0 + dist / speed
        going = t_hit < t_end
        # this flight covers the samples filled..last; the final one the rest
        first = filled[active]
        last = np.where(going, np.floor(t_hit / dt + 1e-12), n_steps).astype(np.intp)
        count = np.maximum(last - first + 1, 0)
        row = np.repeat(np.arange(active.size), count)
        k = np.arange(count.sum()) + np.repeat(first + count - np.cumsum(count), count)
        samples[active[row], k] = pa[row] + (times[k] - t0[row])[:, None] * (speed * da[row])
        filled[active] = np.maximum(first, last + 1)

        idx = active[going]
        pos[idx] = hit[going]
        dirs[idx] = out[going]
        t_now[idx] = t_hit[going]
        active = idx
        if stalls is not None:
            stalls = stalls[going]
    return samples


def _count_stalls(stalls, dist, index):
    """Consecutive zero-length flights per particle of the current batch.

    ``stalls`` is row-aligned with ``dist`` (particle ids ``index``), or None
    while no particle has stalled; as long as every flight is non-empty this
    costs one reduction per step.  Raises ``NumericError`` once a particle
    has stalled ``_MAX_STALLS`` times in a row.
    """
    if stalls is None and dist.all():
        return None
    stalls = np.where(dist > 0, 0, 1 if stalls is None else stalls + 1)
    worst = int(np.argmax(stalls))
    if stalls[worst] >= _MAX_STALLS:
        raise NumericError(
            f"particle {int(index[worst])} made no progress in {_MAX_STALLS} consecutive "
            "collisions (no admissible boundary hit)"
        )
    return stalls if stalls.any() else None
