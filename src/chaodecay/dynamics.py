"""Point-particle billiard dynamics: free flight, specular reflection, escape.

The single-trajectory API (`propagate`) records every collision and uniform-dt
position samples, which downstream statistics (pair decoherence, variance)
consume.  Bulk work -- survival curves, Lyapunov pairs -- goes through the
vectorized batch helpers at the bottom, which advance an entire ensemble one
collision at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .geometry import CavityGeometry

__all__ = [
    "PhasePoint",
    "CollisionEvent",
    "Trajectory",
    "reflect",
    "next_collision",
    "propagate",
]

# |v . n| / |v| below this counts as a grazing collision: the reflection is
# numerically the identity, we keep the tangential flight and log the event.
_GRAZING_TOL = 1e-12

# A particle whose collision step makes no progress this many times in a row
# (no admissible boundary root: it is retroreflected in place) is stuck.
_MAX_STALLS = 8


@dataclass(frozen=True)
class PhasePoint:
    """Position and momentum of a unit-mass particle."""

    position: np.ndarray
    momentum: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(2))
        object.__setattr__(self, "momentum", np.asarray(self.momentum, dtype=float).reshape(2))

    @property
    def speed(self) -> float:
        return float(np.hypot(*self.momentum))


@dataclass(frozen=True)
class CollisionEvent:
    """One boundary event along a trajectory."""

    time: float
    arclength: float
    position: np.ndarray
    incoming: np.ndarray
    outgoing: np.ndarray
    kind: str = "collision"  # collision | grazing | cusp | escape


@dataclass
class Trajectory:
    """A propagated billiard orbit with uniform-dt samples.

    ``samples[k]`` is the position at ``sample_times[k]``; sampling stops at
    escape (open cavity) or at ``total_time``.  ``escape_time`` is None for
    trajectories that never left.
    """

    initial: PhasePoint
    dt: float
    sample_times: np.ndarray
    samples: np.ndarray
    collisions: list[CollisionEvent] = field(default_factory=list)
    escape_time: float | None = None
    total_time: float = 0.0


def reflect(velocity, normal):
    """Specular reflection v - 2 (v.n) n off a unit inward normal.

    Broadcasts over leading axes.  Energy conservation is exact up to
    floating-point rounding because the normal component is flipped in a
    single fused expression.
    """
    velocity = np.asarray(velocity, dtype=float)
    normal = np.asarray(normal, dtype=float)
    vn = np.sum(velocity * normal, axis=-1, keepdims=True)
    return velocity - 2.0 * vn * normal


def is_grazing(velocity, normal) -> bool:
    """True when the normal velocity component is negligible."""
    v = np.asarray(velocity, dtype=float)
    n = np.asarray(normal, dtype=float)
    speed = float(np.hypot(*v))
    return abs(float(v @ n)) < _GRAZING_TOL * speed


def next_collision(geometry: CavityGeometry, state: PhasePoint):
    """First boundary hit from an interior phase point.

    Returns ``(flight_time, event)`` where the event's ``outgoing`` momentum
    already includes the reflection (or tangential/retroreflected
    continuation for grazing/cusp hits).  The event time is the flight time
    from the given state.
    """
    if not geometry.contains(state.position, tol=1e-9 * geometry.scale):
        raise ValueError("next_collision requires a state inside the cavity")
    speed = state.speed
    if speed <= 0:
        raise ValueError("momentum must be non-zero")
    direction = state.momentum / speed
    dist, s_hit, hit, nrm, cusp = geometry.ray_hits(state.position[None], direction[None])
    flight = float(dist[0]) / speed
    incoming = state.momentum.copy()
    if cusp[0]:
        outgoing = -incoming
        kind = "cusp"
    elif is_grazing(incoming, nrm[0]):
        outgoing = incoming.copy()
        kind = "grazing"
    else:
        outgoing = reflect(incoming, nrm[0])
        kind = "collision"
    event = CollisionEvent(
        time=flight,
        arclength=float(s_hit[0]),
        position=hit[0],
        incoming=incoming,
        outgoing=outgoing,
        kind=kind,
    )
    return flight, event


def propagate(
    geometry: CavityGeometry,
    state: PhasePoint,
    t_max: float,
    dt: float,
    open_cavity: bool = True,
) -> Trajectory:
    """Propagate to ``t_max`` (or escape), sampling positions every ``dt``.

    With ``open_cavity`` the particle is absorbed the instant it hits the
    opening interval; the escape collision is recorded with kind ``escape``
    and sampling stops there.
    """
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    n_samples = int(math.floor(t_max / dt)) + 1
    sample_times = dt * np.arange(n_samples)
    samples = np.empty((n_samples, 2))
    samples[0] = state.position

    collisions: list[CollisionEvent] = []
    escape_time = None
    pos = state.position.copy()
    mom = state.momentum.copy()
    speed = state.speed
    t_now = 0.0
    filled = 1  # samples[:filled] are final

    while t_now < t_max:
        flight, event = next_collision(
            geometry, PhasePoint(position=pos, momentum=mom)
        )
        t_hit = t_now + flight
        seg_end = min(t_hit, t_max)
        # fill samples on the straight segment [t_now, seg_end]
        k_hi = int(math.floor(seg_end / dt + 1e-12))
        while filled <= min(k_hi, n_samples - 1):
            ts = sample_times[filled]
            samples[filled] = pos + (ts - t_now) * mom  # unit mass: momentum = velocity
            filled += 1
        if t_hit > t_max:
            t_now = t_max
            break
        escaped = open_cavity and bool(geometry.opening_contains(event.arclength))
        collisions.append(
            CollisionEvent(
                time=t_hit,
                arclength=event.arclength,
                position=event.position,
                incoming=event.incoming,
                outgoing=event.incoming if escaped else event.outgoing,
                kind="escape" if escaped else event.kind,
            )
        )
        pos = event.position.copy()
        mom = event.outgoing.copy()
        t_now = t_hit
        if escaped:
            escape_time = t_hit
            break

    total_time = escape_time if escape_time is not None else t_max
    return Trajectory(
        initial=state,
        dt=dt,
        sample_times=sample_times[:filled],
        samples=samples[:filled],
        collisions=collisions,
        escape_time=escape_time,
        total_time=total_time,
    )


# ---------------------------------------------------------------------------
# vectorized batch engine
# ---------------------------------------------------------------------------


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
