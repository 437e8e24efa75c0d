"""Monte Carlo ensembles over billiard cavities and the statistics built on them.

Sampling is counter-based: one Philox stream per (seed, purpose), drawn in
order with a fixed number of uniforms per trajectory row.  Row i is therefore
a pure function of (seed, i) -- never of the sampler's block size, the work
chunks, the worker count or the ensemble size (point i of a 10^3-sample
ensemble equals point i of a 10^5-sample one).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _flights, escape_times, sample_positions
from .errors import NumericError, StatsError
from .geometry import CavityGeometry

__all__ = [
    "EnsembleSpec",
    "SurvivalCurve",
    "EscapeFit",
    "LyapunovResult",
    "VarianceResult",
    "sample_ensemble",
    "survival_curve",
    "fit_escape_rate",
    "estimate_lyapunov",
    "position_variance",
    "area_variance",
    "decoherence_functional",
    "hybrid_time_grid",
    "mean_free_time",
]

# Candidate (x, y) draws reserved per trajectory row for rejection sampling.
# Acceptance is >= 0.78 for every supported shape, so the chance a row
# exhausts its candidates is < 1e-16; if it happens anyway we raise.
_REJECTION_TRIES = 24

# Most rows per `_sample_block` draw.  The sampler's temporaries (49 uniforms
# per row, and the candidates of the rows still without a position) scale
# with this, not with the ensemble; drawing the one Philox stream block by
# block, in order, gives the same rows as a single draw.  With candidates
# tested only on the rows that need them, 65,536 stadium rows took 28-46 ms
# for blocks of 1024 to 8192 rows, within this VM's noise of each other
# (2-vCPU Xeon, one pinned CPU), so 2048 stays.
_SAMPLE_BLOCK = 2048

# Most rows per work chunk of `survival_curve`, which otherwise cuts the
# ensemble into one contiguous chunk per worker process.  It bounds the
# propagation temporaries of each process; output does not depend on it,
# because a particle's escape time is bit-identical whatever batch it rides
# in.  Chosen by measurement on a 2-vCPU VM, when the workers were threads of
# one process: for 100k cardioid rows over 2 workers, 16k- and 32k-row caps
# took about 35% and 10% longer than 64k (more, shorter chunks, each with
# its own tail of small steps) for about 40 and 30 MB less peak memory.
_MAX_CHUNK_ROWS = 65536

# Closed trajectories whose time average cross-checks the area average of
# `position_variance`.
_TIME_TRAJECTORIES = 4

# stream tags for independent Philox substreams per purpose
_TAG_SAMPLING = 0
_TAG_VARIANCE = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, seed and speed of a Monte Carlo ensemble (uniform in area, isotropic)."""

    n_samples: int
    seed: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        # the seed fills the low 64 bits of a Philox key whose high bits tag the stream
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if not (0 < self.speed < math.inf):
            raise ValueError("speed must be positive and finite")


@dataclass(frozen=True)
class SurvivalCurve:
    """Survival on a time grid, counted from ``escape_times``: every particle's
    escape time, sorted, ``inf`` for those inside at ``times[-1]``."""

    times: np.ndarray
    survival: np.ndarray
    std_error: np.ndarray
    n_samples: int
    escape_times: np.ndarray
    # collisions, workers, chunks, rows_per_chunk, sampler_acceptance
    telemetry: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EscapeFit:
    rate: float
    std_error: float
    n_escapes: int
    window: tuple[float, float]


@dataclass(frozen=True)
class LyapunovResult:
    """Ensemble Lyapunov exponent and its error budget.

    ``n_pairs`` counts the trajectories the mean is taken over (one tangent
    map per trajectory, no partner rows); the name is kept because it is
    the header of the ``lyapunov`` CSV column that carries it.
    """

    value: float
    std_error: float
    n_pairs: int
    t_obs: float
    statistical_error: float
    stationarity_drift: float
    telemetry: dict  # collisions, cusp_events, grazing_events


@dataclass(frozen=True)
class VarianceResult:
    sigma2_area: float
    sigma2_area_stderr: float
    sigma2_time: float
    rel_diff: float
    ergodic_warning: bool


def _philox(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(tag << 64) | seed))


def sample_ensemble(geometry: CavityGeometry, spec: EnsembleSpec):
    """Initial conditions: positions uniform over the area, directions isotropic.

    Returns ``(positions, directions)`` with unit direction vectors; momenta
    are ``spec.speed`` times the directions.  Row ``i`` is a pure function of
    ``(spec.seed, i)`` (see `_sample_rows`).
    """
    return _sample_rows(geometry, spec.seed, 0, spec.n_samples)


def _sample_rows(geometry: CavityGeometry, seed: int, start: int, stop: int,
                 telemetry: dict | None = None):
    """Rows ``start:stop`` of the seed's ensemble, without drawing the rows before them.

    Row ``i`` takes uniforms ``49 i`` to ``49 i + 48`` of the seed's sampling
    stream.  Philox is counter-based, four uniforms per counter step, so the
    stream jumps whole steps to the first row's uniforms and discards the
    rest; from there it is drawn in order, at most ``_SAMPLE_BLOCK`` rows per
    block, so the sampler's temporaries stay bounded while the rows equal
    those of one whole-ensemble draw.  ``telemetry`` is passed to
    `_sample_block`.
    """
    rng = _philox(seed, _TAG_SAMPLING)
    skip = (2 * _REJECTION_TRIES + 1) * start
    rng.bit_generator.advance(skip // 4)
    rng.random(skip % 4)
    blocks = [_sample_block(geometry, min(_SAMPLE_BLOCK, stop - i), rng, telemetry)
              for i in range(start, stop, _SAMPLE_BLOCK)]
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _sample_block(geometry: CavityGeometry, n: int, rng: np.random.Generator,
                  telemetry: dict | None = None):
    """The next ``n`` rows of ``rng``'s stream: positions and unit directions.

    Each row draws ``2 * _REJECTION_TRIES`` candidate coordinates and one
    angle; its position is the first candidate inside the cavity.  Candidate
    ``k`` is tested only on the rows that rejected the ones before it.  A
    ``telemetry`` dict, if given, has the number of candidates tested added
    to its ``candidates``.
    """
    block = rng.random((n, 2 * _REJECTION_TRIES + 1))
    lo, hi = geometry.bounding_box()
    positions = np.empty((n, 2))
    todo = np.arange(n)  # rows still without a position
    tested = 0
    for k in range(_REJECTION_TRIES):
        cand = lo + (hi - lo) * block[todo, 2 * k : 2 * k + 2]
        inside = geometry.contains(cand)
        positions[todo[inside]] = cand[inside]
        tested += len(todo)
        todo = todo[~inside]
        if not len(todo):
            break
    if len(todo):
        raise NumericError(
            "rejection sampling exhausted its candidate budget; "
            "geometry occupies too little of its bounding box"
        )
    if telemetry is not None:
        telemetry["candidates"] = telemetry.get("candidates", 0) + tested
    angles = 2.0 * math.pi * block[:, -1]
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return positions, directions


def hybrid_time_grid(t_max: float, dense_until: float, n_points: int = 200) -> np.ndarray:
    """``n_points`` times: 0, geometric spacing up to ``dense_until``, then linear to ``t_max``."""
    if not (0 < t_max < math.inf and 0 < dense_until < math.inf) or n_points < 16:
        raise ValueError("t_max and dense_until must be positive and finite, n_points >= 16")
    dense_until = min(dense_until, 0.5 * t_max)
    n_geo = max(n_points // 4, 8)
    n_lin = n_points - 1 - n_geo  # the leading zero is one of the points
    geo = np.geomspace(dense_until / 64.0, dense_until, n_geo)
    lin = np.linspace(dense_until, t_max, n_lin + 1)[1:]
    return np.concatenate([[0.0], geo, lin])


def mean_free_time(geometry: CavityGeometry, speed: float = 1.0) -> float:
    """Mean time between collisions: pi*A/(P*v) for a 2-D billiard."""
    return math.pi * geometry.area / (geometry.perimeter * speed)


def survival_curve(
    geometry: CavityGeometry,
    spec: EnsembleSpec,
    times,
    threads: int = 1,
) -> SurvivalCurve:
    """Fraction of the ensemble still inside at each grid time.

    ``workers`` is ``threads`` but at most the usable CPUs, and 1 where the
    platform has no ``fork`` start method.  The ensemble is cut into
    contiguous chunks of equal size (the last one shorter), one per worker,
    or whole rounds of one per worker when that would exceed
    ``_MAX_CHUNK_ROWS`` rows.  One worker runs the chunks in this process;
    more run them in a pool of at most one forked process per worker and per
    chunk, and this process samples no row.  Each chunk samples its own rows
    (`_sample_rows`): each row is a pure function of ``(spec.seed, index)``
    and its escape time is bit-identical whatever batch it rides in, so
    results are byte-identical for any worker count, CPU count or chunk
    size.  ``telemetry`` holds the run's collision total, that layout and
    ``sampler_acceptance``, the rows over the rejection candidates tested.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and 0 <= times[0] and np.isfinite(times[-1])
            and np.all(np.diff(times) > 0)):
        raise ValueError("times must be non-empty, finite, non-negative and strictly increasing")
    t_max = float(times[-1])
    n = spec.n_samples
    workers = min(threads, _usable_cpus())
    if workers > 1:
        import multiprocessing  # here, so that importing the package does not pay for it

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    # whole rounds of one chunk per worker, so that no worker is left with
    # a full chunk after the others run out
    rounds = -(-n // (workers * _MAX_CHUNK_ROWS))
    rows = -(-n // (rounds * workers))
    chunks = [(geometry, spec, t_max, start, min(start + rows, n)) for start in range(0, n, rows)]

    pool_size = min(workers, len(chunks))
    if pool_size == 1:
        esc, collisions, candidates = zip(*map(_escape_chunk, chunks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker imports numpy and chaodecay
        # again, about 0.23 s, a third of a 16k-row cardioid run
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(pool_size, mp_context=fork) as pool:
            esc, collisions, candidates = zip(*pool.map(_escape_chunk, chunks))
    esc = np.concatenate(esc)
    esc.sort()

    survival = (n - np.searchsorted(esc, times, side="right")) / n
    std_error = np.sqrt(survival * (1.0 - survival) / n)
    return SurvivalCurve(
        times=times,
        survival=survival,
        std_error=std_error,
        n_samples=n,
        escape_times=esc,
        telemetry={"collisions": sum(collisions), "workers": pool_size,
                   "chunks": len(chunks), "rows_per_chunk": rows,
                   "sampler_acceptance": n / sum(candidates)},
    )


def _escape_chunk(args):
    """Escape times, collision count and rejection candidates tested of the rows of one
    `survival_curve` chunk; an escape failure names the chunk's first row and the seed."""
    geometry, spec, t_max, start, stop = args
    sampled = {"candidates": 0}
    positions, directions = _sample_rows(geometry, spec.seed, start, stop, sampled)
    try:
        esc, collisions = escape_times(geometry, positions, directions, spec.speed, t_max)
    except NumericError as exc:
        raise NumericError(f"{exc} (index within the chunk from particle {start}; "
                           f"seed {spec.seed})") from exc
    return esc, collisions, sampled["candidates"]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fit_escape_rate(curve: SurvivalCurve, window: tuple[float, float]) -> EscapeFit:
    """Censored-exponential maximum-likelihood escape rate over a time window.

    The window's end is clipped to the censoring time ``times[-1]``.  The rate
    is the k escapes in ``(t0, t1]`` over the time the particles inside at
    ``t0`` spend inside up to ``t1``, its standard error rate/sqrt(k) (J. F.
    Lawless, *Statistical Models and Methods for Lifetime Data*, Wiley 2003);
    the grid before ``times[-1]`` plays no part.  Fewer than 10 escapes is a
    statistics error.
    """
    t0, t1 = window
    if not (0 <= t0 < t1):
        raise ValueError("window must satisfy 0 <= t0 < t1")
    t1 = min(t1, float(curve.times[-1]))
    esc = curve.escape_times
    first, end = np.searchsorted(esc, (t0, t1), side="right")
    k = max(int(end - first), 0)
    if k < 10:
        raise StatsError(f"only {k} escapes in fit window [{t0:g}, {t1:g}]; need >= 10")
    rate = k / float((esc[first:end] - t0).sum() + (len(esc) - end) * (t1 - t0))
    return EscapeFit(rate, rate / math.sqrt(k), k, (float(t0), float(t1)))


def estimate_lyapunov(
    geometry: CavityGeometry,
    spec: EnsembleSpec,
    t_obs: float,
) -> LyapunovResult:
    """Mean Lyapunov exponent of the closed cavity, one trajectory per sample.

    A trajectory's exponent is the log stretch of a wavefront carried along
    it by the billiard's tangent map (`_log_stretch`) over the window after a
    burn-in of ``min(20, n_steps // 8)`` mean free times, divided by the
    window's length.  ``telemetry`` counts the run's collisions and its cusp
    and grazing hits.

    The returned ``std_error`` combines the ensemble standard error with a
    stationarity drift (full-window vs second-half estimate).  For integrable
    dynamics the estimate decays like log(t)/t and the drift term is what
    keeps "consistent with zero" an honest statement.
    """
    if t_obs <= 0:
        raise ValueError("t_obs must be positive")
    dt = mean_free_time(geometry, spec.speed)
    n_steps = max(int(round(t_obs / dt)), 8)
    burn = min(20, n_steps // 8)
    half = (n_steps - burn) // 2
    edges = dt * np.array([burn, burn + half, n_steps])

    pos, dirs = sample_ensemble(geometry, spec)
    stretch, telemetry = _log_stretch(geometry, pos, dirs, spec.speed, edges)
    lam_full = (stretch[2] - stretch[0]) / (edges[2] - edges[0])
    lam_late = (stretch[2] - stretch[1]) / (edges[2] - edges[1])
    n = spec.n_samples
    value = float(lam_full.mean())
    se = float(lam_full.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    drift = abs(value - float(lam_late.mean()))
    return LyapunovResult(
        value=value,
        std_error=float(math.hypot(se, drift)),
        n_pairs=n,
        t_obs=float(n_steps * dt),
        statistical_error=se,
        stationarity_drift=drift,
        telemetry=telemetry,
    )


def _log_stretch(geometry: CavityGeometry, pos, dirs, speed: float, edges):
    """Log stretch of a wavefront along each closed-cavity trajectory up to each of ``edges``.

    The tangent map (Chernov & Markarian, *Chaotic Billiards*, ch. 3;
    Dellago, Posch & Hoover, PRE 53, 1485 (1996)) carries the front's
    curvature ``B``, flat at the start.  A flight of length ``tau`` stretches
    the front by ``|1 + tau B|`` and maps ``B -> B / (1 + tau B)``; a
    reflection at incidence angle ``phi`` off boundary curvature ``kappa``
    maps ``B -> B + 2 kappa / cos(phi)``.  A grazing hit, which the engine
    treats as the identity, leaves ``B`` alone, and a cusp hit resets it.
    A flight is cut exactly at each edge: the ``log|1 + tau B|`` of its
    pieces sum to the whole flight's.

    Returns ``(stretch, telemetry)``: ``stretch[k, i]`` is the log stretch of
    row ``i`` from time 0 to ``edges[k]`` (increasing, the last one the end
    of the run), and ``telemetry`` counts the collisions, cusp and grazing
    hits made by then.
    """
    n = len(pos)
    curv = np.zeros(n)  # B at the start of each row's flight
    stretch = np.zeros((len(edges), n))
    per_kind = np.zeros(3, dtype=np.int64)  # hits by `batch_collide` kind
    t_end, edges = edges[-1], edges[:, None]
    for rows, _, heading, t0, t_hit, _, s_hit, out, kinds in _flights(
        geometry, pos, dirs, np.zeros(n), speed, t_end
    ):
        b = curv[rows]
        flown = speed * (np.clip(edges, t0, t_hit) - t0)  # path length before each edge
        stretch[:, rows] += np.log(np.abs(1.0 + flown * b))
        b = b / (1.0 + speed * (t_hit - t0) * b)
        regular = kinds == 0
        # a specular reflection turns the heading by -2 (v . n) n
        cos_phi = 0.5 * np.hypot(*(out[regular] - heading[regular]).T)
        b[regular] += 2.0 * geometry.curvature(s_hit[regular]) / cos_phi
        b[kinds == 2] = 0.0
        curv[rows] = b
        per_kind += np.bincount(kinds[t_hit <= t_end], minlength=3)
    return stretch, {"collisions": int(per_kind.sum()), "grazing_events": int(per_kind[1]),
                     "cusp_events": int(per_kind[2])}


def area_variance(geometry: CavityGeometry, spec: EnsembleSpec) -> tuple[float, float]:
    """Area average <|r - <r>|^2> over the sampled positions, and its standard error."""
    positions, _ = sample_ensemble(geometry, spec)
    mean = positions.mean(axis=0)
    dev2 = ((positions - mean) ** 2).sum(axis=1)
    stderr = float(dev2.std(ddof=1) / math.sqrt(len(dev2))) if len(dev2) > 1 else float("inf")
    return float(dev2.mean()), stderr


def position_variance(
    geometry: CavityGeometry,
    spec: EnsembleSpec,
    t_obs: float | None = None,
) -> VarianceResult:
    """Spatial variance <|r - <r>|^2> of the ergodic measure.

    The canonical estimate samples uniformly over the area.  A time-average
    along a few long closed trajectories cross-checks ergodicity; when the
    two disagree by more than 5% the result carries ``ergodic_warning`` (the
    circle, which is not ergodic, is expected to warn).  Fewer than 2
    samples, which have no spread to compare with, are a statistics error.
    """
    if spec.n_samples < 2:
        raise StatsError(f"the position variance needs at least 2 samples, got {spec.n_samples}")
    sigma2_area, stderr = area_variance(geometry, spec)

    tcoll = mean_free_time(geometry, spec.speed)
    if t_obs is None:
        t_obs = 400.0 * tcoll
    dt = 0.1 * tcoll
    pos0, dirs0 = _sample_block(geometry, _TIME_TRAJECTORIES, _philox(spec.seed, _TAG_VARIANCE))
    n_steps = max(int(math.floor(t_obs / dt)), 1)
    allpos = sample_positions(geometry, pos0, dirs0, spec.speed, dt, n_steps).reshape(-1, 2)
    tmean = allpos.mean(axis=0)
    sigma2_time = float(((allpos - tmean) ** 2).sum(axis=1).mean())

    rel = abs(sigma2_time - sigma2_area) / sigma2_area
    return VarianceResult(
        sigma2_area=sigma2_area,
        sigma2_area_stderr=stderr,
        sigma2_time=sigma2_time,
        rel_diff=float(rel),
        ergodic_warning=bool(rel > 0.05),
    )


def decoherence_functional(samples_a, samples_b, coupling_strength: float, dt: float) -> np.ndarray:
    """Running exponent coupling * integral_0^t |r_a(s) - r_b(s)|^2 ds of trajectory pairs.

    ``samples_a`` and ``samples_b`` hold positions at the shared grid times
    ``k * dt`` (shape ``(..., n_steps + 1, 2)``, as from `sample_positions`).
    Returns the exponent at every grid time, shape ``(..., n_steps + 1)``,
    starting at 0.  The integral is the cumulative trapezoid rule, so the
    exponent over ``[t_j, t_k]`` is exactly the difference of the two nodes.
    """
    if coupling_strength < 0:
        raise ValueError("coupling_strength must be non-negative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != 2 or a.shape[-2] < 2:
        raise ValueError("samples must share one (..., n_steps + 1, 2) grid with n_steps >= 1")
    sq = ((a - b) ** 2).sum(axis=-1)
    running = np.zeros(sq.shape)
    running[..., 1:] = coupling_strength * np.cumsum(dt * (sq[..., 1:] + sq[..., :-1]) / 2.0,
                                                     axis=-1)
    return running
