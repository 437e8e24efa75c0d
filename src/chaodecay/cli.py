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
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import COMMANDS, DEFAULTS_TABLE, RunConfig, parse_config
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
from .errors import ChaodecayError, SyntaxUsageError, ValidationError
from .formulas import (
    SemiclassicalParams,
    correction_curve,
    correction_peak,
    classical_survival,
    decoherence_time,
    dwell_time,
    ehrenfest_time,
    figure3_curves,
    heisenberg_time,
    min_loop_time,
    total_survival,
)
from .io import write_csv, write_manifest
from .quadrature import QuadratureSpec, convergence_study, semiclassical_ladder

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaodecay",
        description="Open chaotic cavities: classical decay, loop corrections, decoherence.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config document")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="most worker threads for simulate; it starts at most one per "
                             "usable CPU and per chunk, and output never depends on it "
                             "(default: 1)")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise SyntaxUsageError("thread count must be at least 1")
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
        _run(cfg, out_dir, args.threads)
        return 0
    except ChaodecayError as exc:
        print(f"chaodecay: error: {exc}", file=sys.stderr)
        return exc.exit_code


_RUNNERS = {}


def _runner(name):
    def deco(fn):
        _RUNNERS[name] = fn
        return fn
    return deco


def _run(cfg: RunConfig, out_dir: str, threads: int) -> None:
    _RUNNERS[cfg.command](cfg, out_dir, threads)


def _base_manifest(cfg: RunConfig) -> dict:
    manifest = {
        "command": cfg.command,
        "config": cfg.resolved,
        "defaults": DEFAULTS_TABLE,
        "tool_version": __version__,
        "warnings": list(cfg.warnings),
    }
    if cfg.ensemble is not None:
        manifest["seed"] = cfg.ensemble["seed"]
    return manifest


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


def _semiclassical_from_config(params: dict) -> SemiclassicalParams:
    """Parameters of a resolved ``params`` block; the config layer has filled its defaults."""
    return SemiclassicalParams(
        dwell_time=params["dwell_time"],
        heisenberg_time=params["heisenberg_time"],
        lyapunov=params.get("lyapunov"),
        encounter_scale=params.get("encounter_scale"),
        coupling_strength=params.get("alpha"),
        position_variance=params.get("sigma2"),
        decoherence_time=params.get("tau_d"),
        encounter_shape_factor=params["eta"],
        hbar=params["hbar"],
        ehrenfest_time=params["ehrenfest_time"],
        loop_formation_time=params["loop_formation_time"],
        cavity_size=params.get("cavity_size"),
    )


def _params_derived(p: SemiclassicalParams, opening_length: float | None = None) -> dict:
    out = {"dwell_time": p.dwell_time, "heisenberg_time": p.heisenberg_time}
    if p.coupling_strength is not None and p.position_variance is not None:
        out["tau_d"] = decoherence_time(p.coupling_strength, p.position_variance)
    elif p.decoherence_time is not None:
        out["tau_d"] = p.decoherence_time
    if p.lyapunov:
        out["lyapunov"] = p.lyapunov
        if p.encounter_scale is not None and p.encounter_scale >= p.hbar:
            out["ehrenfest_time"] = ehrenfest_time(p.lyapunov, p.encounter_scale, p.hbar)
        if p.cavity_size is not None and opening_length is not None \
                and p.cavity_size >= opening_length:
            out["min_loop_time"] = min_loop_time(p.lyapunov, p.cavity_size, opening_length)
    if p.position_variance is not None:
        out["sigma2"] = p.position_variance
    return out


def _ensemble_line(cfg: RunConfig, **extra) -> dict:
    """Embedded CSV line of a Monte Carlo command: every block that sets its numbers."""
    return {"command": cfg.command, "geometry": cfg.resolved["geometry"],
            "ensemble": cfg.resolved["ensemble"], "grid": cfg.resolved["grid"],
            "tool_version": __version__, **extra}


@_runner("simulate")
def _run_simulate(cfg: RunConfig, out_dir: str, threads: int) -> None:
    geom = cfg.geometry
    spec = EnsembleSpec(**cfg.ensemble)
    derived = _geometry_derived(cfg)
    tau_dwell = derived["dwell_time"]
    t_coll = derived["mean_free_time"]
    t_max = cfg.grid.get("t_max", 4.0 * tau_dwell)
    dense = cfg.grid.get("dense_until", 3.0 * t_coll)
    times = hybrid_time_grid(t_max, dense, cfg.grid["n_points"])
    curve = survival_curve(geom, spec, times, threads=threads)
    window = tuple(cfg.grid.get("fit_window", (3.0 * t_coll, t_max)))
    fit = fit_escape_rate(curve, window)

    manifest = _base_manifest(cfg)
    manifest["derived"] = derived
    manifest["geometry_hash"] = geom.geometry_hash()
    manifest["results"] = {
        "fitted_rate": fit.rate,
        "fitted_rate_stderr": fit.std_error,
        "fit_window": list(fit.window),
        "fit_points": fit.n_points,
        "analytic_rate": 1.0 / tau_dwell,
        "rel_deviation": abs(fit.rate - 1.0 / tau_dwell) * tau_dwell,
    }
    manifest["telemetry"] = curve.telemetry
    line = _ensemble_line(cfg, geometry_hash=geom.geometry_hash())
    rows = zip(curve.times, curve.survival, curve.std_error)
    _emit(out_dir, cfg.command, ["time", "survival", "std_error"], rows, line, manifest)


@_runner("lyapunov")
def _run_lyapunov(cfg: RunConfig, out_dir: str, threads: int) -> None:
    geom = cfg.geometry
    spec = EnsembleSpec(**cfg.ensemble)
    derived = _geometry_derived(cfg)
    t_obs = cfg.grid.get("t_obs", 400.0 * derived["mean_free_time"])
    res = estimate_lyapunov(geom, spec, t_obs)
    manifest = _base_manifest(cfg)
    manifest["derived"] = derived
    manifest["results"] = {
        "lyapunov": res.value,
        "std_error": res.std_error,
        "statistical_error": res.statistical_error,
        "stationarity_drift": res.stationarity_drift,
        "n_pairs": res.n_pairs,
        "t_obs": res.t_obs,
    }
    manifest["telemetry"] = res.telemetry
    line = _ensemble_line(cfg)
    header = ["lyapunov", "std_error", "n_pairs", "t_obs",
              "statistical_error", "stationarity_drift"]
    rows = [(res.value, res.std_error, res.n_pairs, res.t_obs,
             res.statistical_error, res.stationarity_drift)]
    _emit(out_dir, cfg.command, header, rows, line, manifest)


@_runner("variance")
def _run_variance(cfg: RunConfig, out_dir: str, threads: int) -> None:
    geom = cfg.geometry
    spec = EnsembleSpec(**cfg.ensemble)
    t_obs = cfg.grid.get("t_obs")
    res = position_variance(geom, spec, t_obs=t_obs)
    manifest = _base_manifest(cfg)
    manifest["derived"] = _geometry_derived(cfg)
    manifest["results"] = {
        "sigma2_area": res.sigma2_area,
        "sigma2_area_stderr": res.sigma2_area_stderr,
        "sigma2_time": res.sigma2_time,
        "rel_diff": res.rel_diff,
        "ergodic_warning": res.ergodic_warning,
    }
    if res.ergodic_warning:
        manifest["warnings"].append(
            "area and time averages of the position variance disagree by "
            f"{res.rel_diff:.1%}; the dynamics may not be ergodic"
        )
    line = _ensemble_line(cfg)
    header = ["sigma2_area", "sigma2_time", "rel_diff", "sigma2_area_stderr",
              "ergodic_warning"]
    rows = [(res.sigma2_area, res.sigma2_time, res.rel_diff, res.sigma2_area_stderr,
             int(res.ergodic_warning))]
    _emit(out_dir, cfg.command, header, rows, line, manifest)


@_runner("pair-decoherence")
def _run_pair_decoherence(cfg: RunConfig, out_dir: str, threads: int) -> None:
    geom = cfg.geometry
    spec = EnsembleSpec(**cfg.ensemble)
    alpha = cfg.params["alpha"]
    n_pairs = spec.n_samples
    t_coll = mean_free_time(geom, spec.speed)
    dt = cfg.grid.get("dt", 0.1 * t_coll)
    n_steps = max(int(round(cfg.grid["t_collisions"] * t_coll / dt)), 1)
    t_end = n_steps * dt

    positions, directions = sample_ensemble(geom, replace(spec, n_samples=2 * n_pairs))
    # Running exponent alpha * int_0^t |r_a - r_b|^2 ds per pair (rows 2i and
    # 2i + 1), on the shared dt grid, so the CSV is a time series and the last
    # row is the full budget.
    samples = sample_positions(geom, positions, directions, spec.speed, dt, n_steps)
    running = decoherence_functional(samples[0::2], samples[1::2], alpha, dt)
    times = dt * np.arange(n_steps + 1)
    mean_t = running.mean(axis=0)
    if n_pairs > 1:
        stderr_t = running.std(axis=0, ddof=1) / math.sqrt(n_pairs)
    else:  # one pair has no spread to estimate
        stderr_t = np.full(n_steps + 1, math.inf)

    sigma2_area, _ = area_variance(geom, replace(spec, n_samples=max(n_pairs * 10, 1000)))
    mean = float(mean_t[-1])
    manifest = _base_manifest(cfg)
    manifest["derived"] = _geometry_derived(cfg)
    manifest["results"] = {
        "n_pairs": n_pairs,
        "t_end": t_end,
        "alpha": alpha,
        "mean_exponent": mean,
        "stderr_exponent": float(stderr_t[-1]),
        "exponent_rate_per_alpha": mean / (alpha * t_end),
        "sigma2_area": sigma2_area,
        "expected_rate_per_alpha": 2.0 * sigma2_area,
    }
    line = _ensemble_line(cfg, alpha=alpha, t_end=t_end)
    rows = zip(times, mean_t, stderr_t)
    _emit(out_dir, cfg.command, ["time", "exponent", "std_error"], rows, line, manifest)


@_runner("correction")
def _run_correction(cfg: RunConfig, out_dir: str, threads: int) -> None:
    params = _semiclassical_from_config(cfg.params)
    regime = cfg.params["regime"]
    t_max = cfg.grid.get("t_max", 3.0 * params.heisenberg_time)
    times = np.linspace(0.0, t_max, cfg.grid["n_points"])
    curve = correction_curve(params, times, regime=regime)
    classical = classical_survival(params, times)
    total = total_survival(params, times, regime=regime)
    manifest = _base_manifest(cfg)
    manifest["derived"] = _params_derived(params)
    manifest["results"] = {"regime": regime, "t_max": t_max}
    line = {"command": cfg.command, "params": cfg.resolved["params"],
            "regime": regime, "tool_version": __version__}
    rows = zip(times, classical, curve.bracket, total)
    _emit(out_dir, cfg.command, ["time", "classical", "correction", "total"],
          rows, line, manifest)


@_runner("fig3")
def _run_fig3(cfg: RunConfig, out_dir: str, threads: int) -> None:
    p = cfg.params
    table = figure3_curves(
        p["taud_over_TH"],
        tauD_over_TH=p["tauD_over_TH"],
        t_max_over_TH=p["t_max_over_TH"],
        n_points=p["n_points"],
    )
    header = ["t_over_TH", "reference_inf", *table.columns]
    rows = zip(table.times, table.reference, *table.columns.values())
    manifest = _base_manifest(cfg)
    manifest["derived"] = {"dwell_over_heisenberg": table.dwell_over_heisenberg}
    manifest["results"] = {"columns": header[1:]}
    line = {"command": cfg.command, "params": cfg.resolved["params"],
            "tool_version": __version__}
    _emit(out_dir, cfg.command, header, rows, line, manifest)


@_runner("quadrature")
def _run_quadrature(cfg: RunConfig, out_dir: str, threads: int) -> None:
    p = cfg.params
    ladder = semiclassical_ladder(
        lam_tau_values=p["lambda_tauD"],
        ehrenfest_fractions=p["ehrenfest_fractions"],
        alpha_dwell_sigma2=p["alpha_tauD_sigma2"],
        eta=p["eta"],
    )
    spec = QuadratureSpec(
        su_grid=p["su_grid"],
        su_cut=p["su_cut"],
        one_leg_convention=p["one_leg_convention"],
    )
    telemetry = {}
    rows = convergence_study(ladder, p["t_over_tauD"], spec, telemetry)
    header = ["lambda_tauD", "c2_over_hbar", "alpha_over_lambda", "t_over_tauD",
              "quad_value", "closed_form", "rel_dev", "est_err", "im_part"]
    data = [[r[k] for k in header] for r in rows]
    manifest = _base_manifest(cfg)
    manifest["derived"] = {
        "ladder": [
            {"lambda_tauD": q.lyapunov * q.dwell_time, "hbar": q.hbar,
             "encounter_scale": q.encounter_scale, "ehrenfest_time": q.ehrenfest_time,
             "tau_d": q.decoherence_time}
            for q in ladder
        ]
    }
    manifest["results"] = {
        "max_rel_dev_final": max(r["rel_dev"] for r in rows
                                 if r["lambda_tauD"] == p["lambda_tauD"][-1]),
        "max_im_part": max(r["im_part"] for r in rows),
    }
    manifest["telemetry"] = telemetry
    line = {"command": cfg.command, "params": cfg.resolved["params"],
            "tool_version": __version__}
    _emit(out_dir, cfg.command, header, data, line, manifest)


@_runner("peak")
def _run_peak(cfg: RunConfig, out_dir: str, threads: int) -> None:
    params = _semiclassical_from_config(cfg.params)
    regime = cfg.params["regime"]
    telemetry = {}
    t_star, value = correction_peak(params, regime=regime, telemetry=telemetry)
    manifest = _base_manifest(cfg)
    manifest["derived"] = _params_derived(params)
    manifest["results"] = {
        "regime": regime,
        "t_star": t_star,
        "value": value,
        "t_star_over_dwell": t_star / params.dwell_time,
    }
    manifest["telemetry"] = telemetry
    line = {"command": cfg.command, "params": cfg.resolved["params"],
            "regime": regime, "tool_version": __version__}
    rows = [(t_star, value, t_star / params.dwell_time)]
    _emit(out_dir, cfg.command, ["t_star", "value", "t_star_over_dwell"], rows, line, manifest)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _emit(out_dir, command, header, rows, line, manifest) -> None:
    csv_path = os.path.join(out_dir, f"{command}.csv")
    write_csv(csv_path, header, rows, manifest_line=_jsonable(line))
    manifest = _jsonable(manifest)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)


if __name__ == "__main__":
    sys.exit(main())
