"""Monte Carlo ensembles over billiard cavities and the statistics built on them.

Sampling is counter-based: one Philox stream per (seed, purpose), with a fixed
block row per trajectory index.  Results therefore depend only on the seed and
the trajectory index -- never on chunking, thread count, or ensemble size
(point i of a 10^3-sample ensemble equals point i of a 10^5-sample one).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import advance_to, escape_times, sample_positions
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

SAMPLING_MODES = ("uniform_area_isotropic",)

# Candidate (x, y) draws reserved per trajectory row for rejection sampling.
# Acceptance is >= 0.78 for every supported shape, so the chance a row
# exhausts its candidates is < 1e-16; if it happens anyway we raise.
_REJECTION_TRIES = 24

# Fixed work-chunk size for parallel ensemble propagation.  Chunk boundaries
# never depend on the thread count, which keeps output byte-identical.
_CHUNK = 8192

# stream tags for independent Philox substreams per purpose
_TAG_SAMPLING = 0
_TAG_LYAPUNOV = 1
_TAG_VARIANCE = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, seed and sampling law of a Monte Carlo ensemble."""

    n_samples: int
    seed: int
    speed: float = 1.0
    sampling: str = "uniform_area_isotropic"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")


@dataclass(frozen=True)
class SurvivalCurve:
    times: np.ndarray
    survival: np.ndarray
    std_error: np.ndarray
    n_samples: int
    geometry_hash: str


@dataclass(frozen=True)
class EscapeFit:
    rate: float
    std_error: float
    n_points: int
    window: tuple[float, float]


@dataclass(frozen=True)
class LyapunovResult:
    value: float
    std_error: float
    n_pairs: int
    t_obs: float
    statistical_error: float
    stationarity_drift: float


@dataclass(frozen=True)
class VarianceResult:
    sigma2_area: float
    sigma2_area_stderr: float
    sigma2_time: float
    rel_diff: float
    ergodic_warning: bool


def _philox(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(tag << 64) | seed))


def _bounding_box(geometry: CavityGeometry):
    a = geometry.scale
    cx, cy = geometry.center
    if geometry.shape == "circle":
        lo, hi = (-a, -a), (a, a)
    elif geometry.shape == "cardioid":
        # x in [-a/4, 2a]; |y| <= 3*sqrt(3)/4 * a
        ymax = 0.75 * math.sqrt(3.0) * a
        lo, hi = (-0.25 * a, -ymax), (2.0 * a, ymax)
    else:
        lo, hi = (-2.0 * a, -a), (2.0 * a, a)
    return np.array([lo[0] + cx, lo[1] + cy]), np.array([hi[0] + cx, hi[1] + cy])


def sample_ensemble(geometry: CavityGeometry, spec: EnsembleSpec):
    """Initial conditions: positions uniform over the area, directions isotropic.

    Returns ``(positions, directions)`` with unit direction vectors; momenta
    are ``spec.speed`` times the directions.  Row ``i`` is a pure function of
    ``(spec.seed, i)``.
    """
    return _sample_block(geometry, spec.n_samples, _philox(spec.seed, _TAG_SAMPLING))


def _sample_block(geometry: CavityGeometry, n: int, rng: np.random.Generator):
    block = rng.random((n, 2 * _REJECTION_TRIES + 1))
    lo, hi = _bounding_box(geometry)
    cand = lo + (hi - lo) * block[:, : 2 * _REJECTION_TRIES].reshape(n, _REJECTION_TRIES, 2)
    inside = geometry.contains(cand.reshape(-1, 2)).reshape(n, _REJECTION_TRIES)
    if not np.all(inside.any(axis=1)):
        raise NumericError(
            "rejection sampling exhausted its candidate budget; "
            "geometry occupies too little of its bounding box"
        )
    first = np.argmax(inside, axis=1)
    positions = cand[np.arange(n), first]
    angles = 2.0 * math.pi * block[:, -1]
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return positions, directions


def hybrid_time_grid(t_max: float, dense_until: float, n_points: int = 200) -> np.ndarray:
    """Geometric spacing up to ``dense_until`` then linear to ``t_max``, starting at 0."""
    if t_max <= 0 or dense_until <= 0:
        raise ValueError("t_max and dense_until must be positive")
    dense_until = min(dense_until, 0.5 * t_max)
    n_geo = max(n_points // 4, 8)
    n_lin = max(n_points - n_geo - 1, 8)  # the leading zero is one of the points
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

    Work is split into fixed-size chunks processed by a thread pool; the
    reduction is a chunk-ordered concatenation, so results are byte-identical
    for any thread count.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be non-negative and strictly increasing")
    positions, directions = sample_ensemble(geometry, spec)
    t_max = float(times[-1])

    chunks = [
        (i, positions[i : i + _CHUNK], directions[i : i + _CHUNK])
        for i in range(0, spec.n_samples, _CHUNK)
    ]

    def work(args):
        start, pos, dirs = args
        try:
            esc, _ = escape_times(geometry, pos, dirs, spec.speed, t_max)
        except NumericError as exc:
            raise NumericError(f"{exc} (index within the chunk from particle {start}; "
                               f"seed {spec.seed})") from exc
        return esc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        esc = np.concatenate(list(pool.map(work, chunks)))

    n = spec.n_samples
    survival = (n - np.searchsorted(np.sort(esc), times, side="right")) / n
    std_error = np.sqrt(survival * (1.0 - survival) / n)
    return SurvivalCurve(
        times=times,
        survival=survival,
        std_error=std_error,
        n_samples=spec.n_samples,
        geometry_hash=geometry.geometry_hash(),
    )


def fit_escape_rate(curve: SurvivalCurve, window: tuple[float, float]) -> EscapeFit:
    """Weighted least-squares slope of log survival over a time window.

    Weights are the inverse variances of log survival under binomial
    counting.  Points with survival <= 10/N (too noisy) or with no escapes
    yet (zero empirical variance) are excluded; fewer than 10 usable points
    is a statistics error.
    """
    t0, t1 = window
    if not (0 <= t0 < t1):
        raise ValueError("window must satisfy 0 <= t0 < t1")
    n = curve.n_samples
    m = (
        (curve.times >= t0)
        & (curve.times <= t1)
        & (curve.survival > 10.0 / n)
        & (curve.survival < 1.0 - 0.5 / n)
    )
    if int(m.sum()) < 10:
        raise StatsError(
            f"only {int(m.sum())} usable points in fit window [{t0:g}, {t1:g}]; need >= 10"
        )
    t = curve.times[m]
    s = curve.survival[m]
    y = np.log(s)
    w = n * s / (1.0 - s)
    wsum = w.sum()
    tb = (w * t).sum() / wsum
    yb = (w * y).sum() / wsum
    sxx = (w * (t - tb) ** 2).sum()
    slope = (w * (t - tb) * (y - yb)).sum() / sxx
    return EscapeFit(
        rate=float(-slope),
        std_error=float(math.sqrt(1.0 / sxx)),
        n_points=int(m.sum()),
        window=(float(t0), float(t1)),
    )


def estimate_lyapunov(
    geometry: CavityGeometry,
    spec: EnsembleSpec,
    t_obs: float,
    renorm_interval: float | None = None,
) -> LyapunovResult:
    """Mean divergence rate of nearby trajectory pairs (closed cavity).

    Each reference trajectory carries a partner offset by 1e-9 in the
    dimensionless phase-space metric |dr|^2/scale^2 + |dv|^2/v^2.  The pair
    separation is measured and renormalised once per mean collision time;
    per-step log stretchings telescope into the per-pair exponent.

    The returned ``std_error`` combines the ensemble standard error with a
    stationarity drift (full-window vs second-half estimate).  For integrable
    dynamics the estimate decays like log(t)/t and the drift term is what
    keeps "consistent with zero" an honest statement.
    """
    if t_obs <= 0:
        raise ValueError("t_obs must be positive")
    dt = renorm_interval or mean_free_time(geometry, spec.speed)
    n_steps = max(int(round(t_obs / dt)), 8)
    burn = min(20, n_steps // 8)
    d0 = 1e-9
    scale, v = geometry.scale, spec.speed

    pos, dirs = sample_ensemble(geometry, spec)
    n = spec.n_samples
    # initial offset: random phase-space direction, split between position
    # (tangentially safe: tiny) and velocity angle
    mix = _philox(spec.seed, _TAG_LYAPUNOV).random((n, 2))
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
    se = float(lam_full.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    drift = abs(value - float(lam_late.mean()))
    return LyapunovResult(
        value=value,
        std_error=float(math.hypot(se, drift)),
        n_pairs=n,
        t_obs=float(n_steps * dt),
        statistical_error=se,
        stationarity_drift=drift,
    )


def _pair_separation(pos, dirs, p_pos, p_dirs, scale):
    dr = (p_pos - pos) / scale
    dv = p_dirs - dirs  # unit directions: |dv| = velocity mismatch / speed
    return np.sqrt(
        dr[:, 0] ** 2 + dr[:, 1] ** 2 + dv[:, 0] ** 2 + dv[:, 1] ** 2
    )


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
    n_time_trajectories: int = 4,
) -> VarianceResult:
    """Spatial variance <|r - <r>|^2> of the ergodic measure.

    The canonical estimate samples uniformly over the area.  A time-average
    along a few long closed trajectories cross-checks ergodicity; when the
    two disagree by more than 5% the result carries ``ergodic_warning`` (the
    circle, which is not ergodic, is expected to warn).
    """
    sigma2_area, stderr = area_variance(geometry, spec)

    tcoll = mean_free_time(geometry, spec.speed)
    if t_obs is None:
        t_obs = 400.0 * tcoll
    dt = 0.1 * tcoll
    n_traj = max(n_time_trajectories, 1)
    pos0, dirs0 = _sample_block(geometry, n_traj, _philox(spec.seed, _TAG_VARIANCE))
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
