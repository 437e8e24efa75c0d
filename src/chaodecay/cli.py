"""Command-line entry point: config in, CSV + manifest out.

Usage: ``chaodecay <command> --config <path> [--out <dir>] [--threads N]``.
Every command writes ``<command>.csv`` (data, with an embedded reproducibility
line) and ``manifest.json`` (full resolved config, derived quantities, results
and wall-clock) into the output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import COMMANDS, DEFAULTS_TABLE, STOCHASTIC_COMMANDS, RunConfig, parse_config
from .dynamics import sample_positions
from .ensemble import (
    EnsembleSpec,
    area_variance,
    decoherence_functional,
    estimate_lyapunov,
    fit_escape_rate,
    hybrid_time_grid,
    mean_free_time,
    position_variance,
    sample_ensemble,
    survival_curve,
)
from .errors import ChaodecayError, NumericError, StatsError, SyntaxUsageError, ValidationError
from .formulas import (
    SemiclassicalParams,
    correction_curve,
    correction_peak,
    classical_survival,
    dwell_time,
    figure3_curves,
    heisenberg_time,
)
from .io import write_csv, write_manifest
from .quadrature import QuadratureSpec, convergence_study, semiclassical_ladder

__all__ = ["main"]

# pair-decoherence holds every trajectory's position at every grid time at once
# (16 bytes each, 512 MiB here); a larger grid is refused before it is allocated
_MAX_PAIR_SAMPLES = 2**25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaodecay",
        description="Open chaotic cavities: classical decay, loop corrections, decoherence.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config document")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="most worker processes for simulate (forked; one runs in this "
                             "process); it uses at most one per usable CPU and per chunk, and "
                             "output never depends on it (default: 1)")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise SyntaxUsageError("--threads must be at least 1")
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ChaodecayError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ValidationError(
                f"config.command: {cfg.command!r} does not match the CLI command {args.command!r}"
            )
        out_dir = args.out or cfg.output
        cfg.resolved["output"] = out_dir
        _write(cfg, out_dir, _RUNNERS[cfg.command](cfg, args.threads))
        return 0
    except ChaodecayError as exc:
        print(f"chaodecay: error: {exc}", file=sys.stderr)
        return exc.exit_code


class _Output(NamedTuple):
    """A runner's CSV table (name -> column, or scalar for one row), manifest
    blocks, CSV-line extras and run warnings."""

    table: dict
    results: dict
    derived: dict
    telemetry: dict | None = None
    line: dict | None = None
    warnings: tuple = ()


def _write(cfg: RunConfig, out_dir: str, out: _Output) -> None:
    """Write ``<command>.csv``, whose line holds the config blocks that set the
    numbers plus the runner's extras, and ``manifest.json``."""
    monte_carlo = cfg.command in STOCHASTIC_COMMANDS
    # of the other commands only correction has a grid
    blocks = (("geometry", "ensemble", "grid") if monte_carlo
              else ("params", "grid") if cfg.grid else ("params",))
    line = {"command": cfg.command, "tool_version": __version__,
            **{name: cfg.resolved[name] for name in blocks}, **(out.line or {})}
    manifest = {
        "command": cfg.command,
        "config": cfg.resolved,
        "defaults": DEFAULTS_TABLE,
        "tool_version": __version__,
        "warnings": [*cfg.warnings, *out.warnings],
        "derived": out.derived,
        "results": out.results,
    }
    if monte_carlo:
        manifest["seed"] = cfg.ensemble["seed"]
    if out.telemetry is not None:
        manifest["telemetry"] = out.telemetry
    if "geometry_hash" in line:
        manifest["geometry_hash"] = line["geometry_hash"]
    write_csv(os.path.join(out_dir, f"{cfg.command}.csv"), out.table, manifest_line=line)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)


def _geometry_derived(cfg: RunConfig) -> dict:
    geom = cfg.geometry
    speed = cfg.ensemble["speed"]
    return {
        "area": geom.area,
        "perimeter": geom.perimeter,
        "opening_length": geom.opening_length,
        "dwell_time": dwell_time(geom.area, geom.opening_length, speed),
        "mean_free_time": mean_free_time(geom, speed),
        "heisenberg_time": heisenberg_time(geom.area, DEFAULTS_TABLE["mass"],
                                           DEFAULTS_TABLE["hbar"]),
    }


# SemiclassicalParams field -> key of the config's params block
_PARAMS_KEYS = {
    "dwell_time": "dwell_time", "heisenberg_time": "heisenberg_time", "lyapunov": "lyapunov",
    "encounter_scale": "encounter_scale", "coupling_strength": "alpha",
    "position_variance": "sigma2", "decoherence_time": "tau_d", "encounter_shape_factor": "eta",
    "hbar": "hbar", "ehrenfest_time": "ehrenfest_time",
    "loop_formation_time": "loop_formation_time",
}


def _from_params(build, *args, **kwargs):
    """``build(*args, **kwargs)`` from ``params`` values, its ``ValueError`` a
    ``ValidationError`` that names the config's keys: the values passed the field
    table but not the library's own checks."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        message = re.sub(r"\w+", lambda word: _PARAMS_KEYS.get(word[0], word[0]), str(exc))
        raise ValidationError(f"config.params: {message}") from exc


def _semiclassical_from_config(params: dict) -> SemiclassicalParams:
    """Parameters of a resolved ``params`` block; the config layer has filled its defaults."""
    return _from_params(SemiclassicalParams,
                        **{name: params.get(key) for name, key in _PARAMS_KEYS.items()})


def _params_derived(p: SemiclassicalParams) -> dict:
    """The time scales the brackets use, as ``SemiclassicalParams`` resolved them."""
    out = {"dwell_time": p.dwell_time, "heisenberg_time": p.heisenberg_time,
           "tau_d": p.decoherence_time, "ehrenfest_time": p.ehrenfest_time}
    if p.lyapunov:
        out["lyapunov"] = p.lyapunov
    if p.position_variance is not None:
        out["sigma2"] = p.position_variance
    return out


def _run_simulate(cfg: RunConfig, threads: int) -> _Output:
    derived = _geometry_derived(cfg)
    tau_dwell = derived["dwell_time"]
    t_coll = derived["mean_free_time"]
    t_max = cfg.grid.get("t_max", 4.0 * tau_dwell)
    dense = cfg.grid.get("dense_until", 3.0 * t_coll)
    times = hybrid_time_grid(t_max, dense, cfg.grid["n_points"])
    window = tuple(cfg.grid.get("fit_window", (3.0 * t_coll, t_max)))
    if window[0] >= window[1]:  # the default window starts at 3 mean free times
        raise ValidationError(f"config.grid.t_max: {t_max!r} ends before the default "
                              f"fit_window starts, at {window[0]!r}")
    curve = survival_curve(cfg.geometry, EnsembleSpec(**cfg.ensemble), times, threads=threads)
    fit = fit_escape_rate(curve, window)
    results = {
        "fitted_rate": fit.rate,
        "fitted_rate_stderr": fit.std_error,
        "fit_window": list(fit.window),
        "fit_escapes": fit.n_escapes,
        "analytic_rate": 1.0 / tau_dwell,
        "rel_deviation": abs(fit.rate - 1.0 / tau_dwell) * tau_dwell,
        **_fit_health(curve, fit.window),
    }
    table = {"time": curve.times, "survival": curve.survival, "std_error": curve.std_error}
    return _Output(table, results, derived, curve.telemetry,
                   {"geometry_hash": cfg.geometry.geometry_hash()})


def _fit_health(curve, window) -> dict:
    """The escape rate fitted to each half of the fit window, and the late half's
    rate minus the early half's in units of their combined standard error; a
    half with fewer than 10 escapes has no rate (None), and then no gap."""
    t0, t1 = window
    halves = []
    for half in ((t0, 0.5 * (t0 + t1)), (0.5 * (t0 + t1), t1)):
        try:
            halves.append(fit_escape_rate(curve, half))
        except StatsError:
            halves.append(None)
    early, late = halves
    gap = (None if early is None or late is None
           else (late.rate - early.rate) / math.hypot(early.std_error, late.std_error))
    return {"fit_half_rates": [None if h is None else h.rate for h in halves],
            "fit_half_gap_sigma": gap}


def _run_lyapunov(cfg: RunConfig, threads: int) -> _Output:
    derived = _geometry_derived(cfg)
    t_obs = cfg.grid.get("t_obs", 400.0 * derived["mean_free_time"])
    res = estimate_lyapunov(cfg.geometry, EnsembleSpec(**cfg.ensemble), t_obs)
    results = {  # in CSV column order
        "lyapunov": res.value,
        "std_error": res.std_error,
        "n_pairs": res.n_pairs,
        "t_obs": res.t_obs,
        "statistical_error": res.statistical_error,
        "stationarity_drift": res.stationarity_drift,
    }
    return _Output(results, results, derived, res.telemetry)


def _run_variance(cfg: RunConfig, threads: int) -> _Output:
    res = position_variance(cfg.geometry, EnsembleSpec(**cfg.ensemble),
                            t_obs=cfg.grid.get("t_obs"))
    results = {  # in CSV column order
        "sigma2_area": res.sigma2_area,
        "sigma2_time": res.sigma2_time,
        "rel_diff": res.rel_diff,
        "sigma2_area_stderr": res.sigma2_area_stderr,
        "ergodic_warning": res.ergodic_warning,
    }
    table = {**results, "ergodic_warning": int(res.ergodic_warning)}  # the CSV flag is 0/1
    warnings = (("area and time averages of the position variance disagree by "
                 f"{res.rel_diff:.1%}; the dynamics may not be ergodic",)
                if res.ergodic_warning else ())
    return _Output(table, results, _geometry_derived(cfg), warnings=warnings)


def _run_pair_decoherence(cfg: RunConfig, threads: int) -> _Output:
    geom = cfg.geometry
    spec = EnsembleSpec(**cfg.ensemble)
    alpha = cfg.params["alpha"]
    n_pairs = spec.n_samples
    t_coll = mean_free_time(geom, spec.speed)
    dt = cfg.grid.get("dt", 0.1 * t_coll)
    steps = cfg.grid["t_collisions"] * t_coll / dt
    if not 2 * n_pairs * (steps + 1.0) <= _MAX_PAIR_SAMPLES:  # inf for a subnormal dt
        raise ValidationError(
            f"config.grid.dt: {dt!r} makes {steps:.3g} time steps for each of {2 * n_pairs} "
            f"trajectories, more than the {_MAX_PAIR_SAMPLES} positions this command holds")
    n_steps = max(int(round(steps)), 1)
    t_end = n_steps * dt

    positions, directions = sample_ensemble(geom, replace(spec, n_samples=2 * n_pairs))
    # Running exponent alpha * int_0^t |r_a - r_b|^2 ds per pair (rows 2i and
    # 2i + 1), on the shared dt grid, so the CSV is a time series and the last
    # row is the full budget.  It is taken per unit alpha first, so that
    # alpha = 0 has a rate per alpha too.
    samples = sample_positions(geom, positions, directions, spec.speed, dt, n_steps)
    per_alpha = decoherence_functional(samples[0::2], samples[1::2], 1.0, dt)
    times = dt * np.arange(n_steps + 1)
    try:
        with np.errstate(over="raise"):
            running = alpha * per_alpha
            mean_t = running.mean(axis=0)
            stderr_t = (running.std(axis=0, ddof=1) / math.sqrt(n_pairs) if n_pairs > 1
                        else np.full(n_steps + 1, math.inf))  # one pair has no spread
    except FloatingPointError as exc:
        raise NumericError(f"config.params.alpha: {alpha!r} makes the running exponent or "
                           "its standard error overflow") from exc

    sigma2_area, _ = area_variance(geom, replace(spec, n_samples=max(n_pairs * 10, 1000)))
    mean = float(mean_t[-1])
    results = {
        "n_pairs": n_pairs,
        "t_end": t_end,
        "alpha": alpha,
        "mean_exponent": mean,
        "stderr_exponent": float(stderr_t[-1]),
        "exponent_rate_per_alpha": float(per_alpha[:, -1].mean()) / t_end,
        "sigma2_area": sigma2_area,
        "expected_rate_per_alpha": 2.0 * sigma2_area,
    }
    return _Output({"time": times, "exponent": mean_t, "std_error": stderr_t}, results,
                   _geometry_derived(cfg), line={"alpha": alpha, "t_end": t_end})


def _run_correction(cfg: RunConfig, threads: int) -> _Output:
    params = _semiclassical_from_config(cfg.params)
    regime = cfg.params["regime"]
    t_max = cfg.grid.get("t_max", 3.0 * params.heisenberg_time)
    times = np.linspace(0.0, t_max, cfg.grid["n_points"])
    bracket = _from_params(correction_curve, params, times, regime).bracket
    classical = classical_survival(params, times)
    return _Output({"time": times, "classical": classical, "correction": bracket,
                    "total": classical + bracket},
                   {"regime": regime, "t_max": t_max}, _params_derived(params))


def _run_fig3(cfg: RunConfig, threads: int) -> _Output:
    p = cfg.params
    table = figure3_curves(p["taud_over_TH"], tauD_over_TH=p["tauD_over_TH"],
                           t_max_over_TH=p["t_max_over_TH"], n_points=p["n_points"])
    columns = {"reference_inf": table.reference, **table.columns}
    return _Output({"t_over_TH": table.times, **columns}, {"columns": list(columns)},
                   {"dwell_over_heisenberg": table.dwell_over_heisenberg})


def _run_quadrature(cfg: RunConfig, threads: int) -> _Output:
    p = cfg.params
    ladder = _from_params(
        semiclassical_ladder,
        lam_tau_values=p["lambda_tauD"],
        ehrenfest_fractions=p["ehrenfest_fractions"],
        alpha_dwell_sigma2=p["alpha_tauD_sigma2"],
        eta=p["eta"],
    )
    spec = _from_params(QuadratureSpec, su_grid=p["su_grid"], su_cut=p["su_cut"],
                        one_leg_convention=p["one_leg_convention"])
    telemetry = {}
    rows = convergence_study(ladder, p["t_over_tauD"], spec, telemetry)
    table = {key: [r[key] for r in rows] for key in rows[0]}
    derived = {
        "ladder": [
            {"lambda_tauD": q.lyapunov * q.dwell_time, "hbar": q.hbar,
             "encounter_scale": q.encounter_scale, "ehrenfest_time": q.ehrenfest_time,
             "tau_d": q.decoherence_time}
            for q in ladder
        ]
    }
    results = {
        "max_rel_dev_final": max(r["rel_dev"] for r in rows
                                 if r["lambda_tauD"] == p["lambda_tauD"][-1]),
        "max_im_part": max(table["im_part"]),
    }
    return _Output(table, results, derived, telemetry)


def _run_peak(cfg: RunConfig, threads: int) -> _Output:
    params = _semiclassical_from_config(cfg.params)
    regime = cfg.params["regime"]
    telemetry = {}
    t_star, value = _from_params(correction_peak, params, regime, telemetry)
    table = {"t_star": t_star, "value": value, "t_star_over_dwell": t_star / params.dwell_time}
    return _Output(table, {"regime": regime, **table}, _params_derived(params), telemetry)


_RUNNERS = {
    "simulate": _run_simulate,
    "lyapunov": _run_lyapunov,
    "variance": _run_variance,
    "pair-decoherence": _run_pair_decoherence,
    "correction": _run_correction,
    "fig3": _run_fig3,
    "quadrature": _run_quadrature,
    "peak": _run_peak,
}


if __name__ == "__main__":
    sys.exit(main())
