"""Point-particle billiard dynamics: free flight, specular reflection, escape.

One batched engine: `batch_collide` moves every particle of a batch to its
next boundary hit, and one loop, `_flights`, repeats it on arrays that hold
only the live particles up to a time horizon.  Its three callers differ
only in what they take from each flight: `escape_times` absorbs particles in
the opening (survival curves), `sample_positions` records closed-cavity
positions on a uniform time grid (pair decoherence, the variance time
average) and `ensemble.estimate_lyapunov` carries the wavefront curvature of
each trajectory through its flights and reflections (the tangent map).

Per-flight code (here and in the `ray_hits` kernels) gathers rows with ``take``, uses no
``where=`` masked ufunc (it adds ``mask * term`` instead) and spells row dot products out,
not ``einsum``; it picks among candidates with one ``argmin`` and a flat ``take``, not
``take_along_axis``, fills (n, 2) results column by column, not by an (n, 1) x (n, 2)
broadcast, and computes a row product that several helpers share (p.d, q0 - x) once.  It
leaves ``hypot`` and ``arctan2`` alone: another spelling moves output bits.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .geometry import CavityGeometry

__all__ = [
    "batch_collide",
    "escape_times",
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
    dx, dy, nx, ny = dirs[:, 0], dirs[:, 1], nrm[:, 0], nrm[:, 1]
    vn = dx * nx + dy * ny
    twice = 2.0 * vn
    out = np.empty((len(pos), 2))
    np.subtract(dx, twice * nx, out[:, 0])
    np.subtract(dy, twice * ny, out[:, 1])
    grazing = np.abs(vn) < _GRAZING_TOL
    kinds = np.zeros(len(pos), dtype=np.int8)
    # the rare grazing and cusp rows are patched in place
    if np.count_nonzero(grazing):
        out[grazing] = dirs[grazing]
        kinds[grazing] = 1
    if np.count_nonzero(cusp):
        out[cusp] = -dirs[cusp]
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
    the opening.  The count takes the hits due by ``t_max``, the escapes
    included.  Raises ``NumericError`` for a particle stuck in place.
    """
    esc = np.full(len(positions), np.inf)
    flights = 0
    for rows, _, _, _, t_hit, left, *_ in _flights(
        geometry, positions, directions, np.zeros(len(positions)), speed, t_max, absorbing=True
    ):
        flights += rows.size
        left = left.nonzero()[0]
        esc[rows.take(left)] = t_hit.take(left)
    # each survivor's last flight ends past t_max: no collision
    return esc, flights - int(np.isinf(esc).sum())


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
    n = len(positions)
    times = dt * np.arange(n_steps + 1)
    samples = np.empty((n, n_steps + 1, 2))
    samples[:, 0] = positions
    filled = np.ones(n, dtype=np.intp)  # samples[i, :filled[i]] are final

    for rows, pa, da, t0, t_hit, *_ in _flights(
        geometry, positions, directions, np.zeros(n), speed, times[-1]
    ):
        # this flight covers the samples filled..last; one that ends past the
        # last grid time has t_hit / dt > n_steps and so covers the rest
        first = filled[rows]
        last = np.minimum(np.floor(t_hit / dt + 1e-12), n_steps).astype(np.intp)
        count = np.maximum(last - first + 1, 0)
        row = np.repeat(np.arange(rows.size), count)
        k = np.arange(count.sum()) + np.repeat(first + count - np.cumsum(count), count)
        samples[rows[row], k] = pa[row] + (times[k] - t0[row])[:, None] * (speed * da[row])
        filled[rows] = np.maximum(first, last + 1)
    return samples


def _flights(geometry: CavityGeometry, pos, dirs, t_now, speed: float, t_end: float,
             absorbing: bool = False):
    """Collide a batch until no particle's next hit is due by ``t_end``.

    ``pos``/``dirs``/``t_now`` are the particles' start states; they are read,
    never written.  Each step yields ``(rows, start, heading, t_start, t_hit,
    left, s_hit, out, kinds)`` for the live particle ids ``rows``: the
    flight's start point, unit heading and start time, its hit time, and the
    hit arclength, outgoing direction and `batch_collide` kind of its hit.
    With ``absorbing`` set, ``left`` marks the flights that end in the opening
    (cusp hits excepted) and those particles stop there; otherwise it is
    None.  The particles whose hit is due by ``t_end`` go on from it; the
    others drop out.  Raises ``NumericError`` for a particle that starts at a
    non-finite point or heading, checked once per call, or is stuck in place.
    """
    pos, dirs = np.asarray(pos, dtype=float), np.asarray(dirs, dtype=float)
    finite = np.isfinite(pos).all(axis=1) & np.isfinite(dirs).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError(f"particle {i} starts at {pos[i].tolist()} heading "
                           f"{dirs[i].tolist()}: not finite")
    rows = np.arange(len(pos))
    stalls = None
    while rows.size:
        dist, s_hit, hit, out, kinds = batch_collide(geometry, pos, dirs)
        stalls = _count_stalls(stalls, dist, rows)
        t_hit = t_now + dist / speed
        keep = t_hit <= t_end
        left = None
        if absorbing:
            left = geometry.opening_contains(s_hit) & keep & (kinds != 2)
            keep ^= left  # left is a subset of keep
        yield rows, pos, dirs, t_now, t_hit, left, s_hit, out, kinds
        keep = keep.nonzero()[0]
        rows, t_now = rows.take(keep), t_hit.take(keep)
        pos, dirs = hit.take(keep, axis=0), out.take(keep, axis=0)
        if stalls is not None:
            stalls = stalls.take(keep)


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
