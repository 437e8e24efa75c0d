"""JSON run configurations: parsing, validation, defaults.

A config document selects one command and supplies the blocks that command
needs.  Validation is strict: unknown keys are rejected with their full field
path, so a typo never silently falls back to a default.  ``resolve`` returns
the fully-defaulted document; feeding that resolved document back in
reproduces the identical run (the manifest round-trip property).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import SyntaxUsageError, ValidationError
from .formulas import BathSpec, alpha_from_bath
from .geometry import SHAPES, CavityGeometry
from .quadrature import ONE_LEG_CONVENTIONS

__all__ = ["RunConfig", "parse_config", "COMMANDS", "STOCHASTIC_COMMANDS", "DEFAULTS_TABLE"]

COMMANDS = (
    "simulate",
    "lyapunov",
    "variance",
    "pair-decoherence",
    "correction",
    "fig3",
    "quadrature",
    "peak",
)
STOCHASTIC_COMMANDS = ("simulate", "lyapunov", "variance", "pair-decoherence")

# Physical conventions applied when a config omits them; echoed into every
# manifest so no unit assumption stays silent.
DEFAULTS_TABLE = {"mass": 1.0, "speed": 1.0, "eta": 1.0, "hbar": 1.0}

# opening_center defaults per shape: circle at the top of the circle,
# cardioid opposite the cusp, stadium on the lower straight segment
_OPENING_CENTER_DEFAULT = {
    "circle": lambda a: 0.25 * (2.0 * math.pi * a),
    "cardioid": lambda a: 2.0 * math.sqrt(2.0) * a,
    "stadium": lambda a: 0.5 * a,
}

_SEMICLASSICAL_KEYS = (
    "dwell_time",
    "heisenberg_time",
    "lyapunov",
    "encounter_scale",
    "alpha",
    "sigma2",
    "tau_d",
    "eta",
    "hbar",
    "ehrenfest_time",
    "loop_formation_time",
    "cavity_size",
    "regime",
    "bath",
)

_PARAMS_KEYS = {
    "simulate": (),
    "lyapunov": (),
    "variance": (),
    "pair-decoherence": ("alpha", "bath"),
    "correction": _SEMICLASSICAL_KEYS,
    "peak": _SEMICLASSICAL_KEYS,
    "fig3": ("tauD_over_TH", "taud_over_TH", "t_max_over_TH", "n_points"),
    "quadrature": (
        "lambda_tauD",
        "ehrenfest_fractions",
        "alpha_tauD_sigma2",
        "t_over_tauD",
        "eta",
        "su_grid",
        "su_cut",
        "one_leg_convention",
    ),
}

_GRID_KEYS = {
    "simulate": ("t_max", "n_points", "dense_until", "fit_window"),
    "lyapunov": ("t_obs",),
    "variance": ("t_obs",),
    "pair-decoherence": ("t_collisions", "dt"),
    "correction": ("t_max", "n_points"),
    "fig3": (),
    "quadrature": (),
    "peak": (),
}

@dataclass
class RunConfig:
    """A validated, fully-defaulted run description."""

    command: str
    geometry: CavityGeometry | None
    ensemble: dict | None
    params: dict
    grid: dict
    output: str
    warnings: list = field(default_factory=list)
    resolved: dict = field(default_factory=dict)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SyntaxUsageError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValidationError("config root must be a JSON object")
    return _validate(doc)


def _reject_unknown(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown key")


def _number(block, key, path, default=None, minimum=None, strict_min=False, required=False):
    if key not in block or block[key] is None:
        if required:
            raise ValidationError(f"{path}.{key}: required")
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{path}.{key}: expected a number, got {val!r}")
    val = float(val)
    if minimum is not None and (val <= minimum if strict_min else val < minimum):
        op = ">" if strict_min else ">="
        raise ValidationError(f"{path}.{key}: must be {op} {minimum}")
    return val


def _integer(block, key, path, default=None, minimum=None, required=False):
    if key not in block or block[key] is None:
        if required:
            raise ValidationError(f"{path}.{key}: required")
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValidationError(f"{path}.{key}: expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ValidationError(f"{path}.{key}: must be >= {minimum}")
    return val


def _validate(doc: dict) -> RunConfig:
    _reject_unknown(doc, ("command", "geometry", "ensemble", "params", "grid", "output"), "config")
    command = doc.get("command")
    if command is None:
        raise ValidationError("config.command: required")
    if command not in COMMANDS:
        raise ValidationError(f"config.command: unknown command {command!r}")

    warnings: list[str] = []
    geometry = None
    geometry_block = None
    if command in STOCHASTIC_COMMANDS:
        if "geometry" not in doc:
            raise ValidationError("config.geometry: required for this command")
        geometry, geometry_block = _validate_geometry(doc["geometry"])
    elif "geometry" in doc:
        raise ValidationError("config.geometry: not accepted by this command")

    ensemble = None
    if command in STOCHASTIC_COMMANDS:
        if "ensemble" not in doc:
            raise ValidationError("config.ensemble: required for this command")
        ensemble = _validate_ensemble(doc["ensemble"])
    elif "ensemble" in doc:
        raise ValidationError("config.ensemble: not accepted by this command")

    params = _validate_params(command, doc.get("params", {}), warnings)
    grid = _validate_grid(command, doc.get("grid", {}))
    output = doc.get("output", f"out-{command}")
    if not isinstance(output, str) or not output:
        raise ValidationError("config.output: expected a non-empty string")

    resolved = {"command": command, "params": params, "grid": grid, "output": output}
    if geometry_block is not None:
        resolved["geometry"] = geometry_block
    if ensemble is not None:
        resolved["ensemble"] = ensemble
    return RunConfig(
        command=command,
        geometry=geometry,
        ensemble=ensemble,
        params=params,
        grid=grid,
        output=output,
        warnings=warnings,
        resolved=resolved,
    )


def _validate_geometry(block) -> tuple[CavityGeometry, dict]:
    if not isinstance(block, dict):
        raise ValidationError("config.geometry: expected an object")
    _reject_unknown(block, ("shape", "scale", "opening_center", "opening_length"), "config.geometry")
    shape = block.get("shape")
    if shape not in SHAPES:
        raise ValidationError(f"config.geometry.shape: must be one of {SHAPES}")
    scale = _number(block, "scale", "config.geometry", default=1.0, minimum=0.0, strict_min=True)
    opening_length = _number(
        block, "opening_length", "config.geometry", default=0.1, minimum=0.0, strict_min=True
    )
    center = _number(block, "opening_center", "config.geometry")
    if center is None:
        center = _OPENING_CENTER_DEFAULT[shape](scale)
    try:
        geom = CavityGeometry(
            shape=shape, scale=scale, opening_center=center, opening_length=opening_length
        )
    except ValueError as exc:
        raise ValidationError(f"config.geometry: {exc}") from exc
    resolved = {
        "shape": shape,
        "scale": scale,
        "opening_center": center,
        "opening_length": opening_length,
    }
    return geom, resolved


def _validate_ensemble(block) -> dict:
    if not isinstance(block, dict):
        raise ValidationError("config.ensemble: expected an object")
    _reject_unknown(block, ("seed", "n_samples", "speed"), "config.ensemble")
    seed = _integer(block, "seed", "config.ensemble", minimum=0, required=True)
    n_samples = _integer(block, "n_samples", "config.ensemble", default=10000, minimum=1)
    speed = _number(
        block, "speed", "config.ensemble", default=DEFAULTS_TABLE["speed"],
        minimum=0.0, strict_min=True,
    )
    return {"seed": seed, "n_samples": n_samples, "speed": speed}


def _validate_params(command: str, block, warnings: list) -> dict:
    if not isinstance(block, dict):
        raise ValidationError("config.params: expected an object")
    allowed = _PARAMS_KEYS[command]
    _reject_unknown(block, allowed, "config.params")
    if command in ("correction", "peak"):
        return _semiclassical_params(block, warnings, require_core=True)
    if command == "pair-decoherence":
        out = _semiclassical_params(block, warnings, require_core=False)
        if out.get("alpha") is None:
            raise ValidationError(
                "config.params.alpha: required (directly or via params.bath)"
            )
        return out
    if command == "fig3":
        taud = block.get("taud_over_TH")
        if taud is None:
            raise ValidationError("config.params.taud_over_TH: required")
        if not isinstance(taud, list) or not taud:
            raise ValidationError("config.params.taud_over_TH: expected a non-empty list")
        cleaned = []
        for i, v in enumerate(taud):
            if v in ("inf", "Infinity") or v == math.inf:
                cleaned.append(math.inf)
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
                raise ValidationError(
                    f"config.params.taud_over_TH[{i}]: expected a positive number or 'inf'"
                )
            cleaned.append(float(v))
        return {
            "tauD_over_TH": _number(block, "tauD_over_TH", "config.params", default=0.3,
                                    minimum=0.0, strict_min=True),
            "taud_over_TH": cleaned,
            "t_max_over_TH": _number(block, "t_max_over_TH", "config.params", default=3.0,
                                     minimum=0.0, strict_min=True),
            "n_points": _integer(block, "n_points", "config.params", default=301, minimum=16),
        }
    if command == "quadrature":
        return _quadrature_params(block)
    return {}


def _semiclassical_params(block: dict, warnings: list, require_core: bool) -> dict:
    bath_out = None
    alpha = _number(block, "alpha", "config.params", minimum=0.0)
    if "bath" in block and block["bath"] is not None:
        bath = block["bath"]
        if not isinstance(bath, dict):
            raise ValidationError("config.params.bath: expected an object")
        _reject_unknown(
            bath,
            ("damping", "inverse_temperature", "hbar", "characteristic_frequency"),
            "config.params.bath",
        )
        spec = BathSpec(
            damping=_number(bath, "damping", "config.params.bath", minimum=0.0, required=True),
            inverse_temperature=_number(
                bath, "inverse_temperature", "config.params.bath",
                minimum=0.0, strict_min=True, required=True,
            ),
            hbar=_number(bath, "hbar", "config.params.bath",
                         default=DEFAULTS_TABLE["hbar"], minimum=0.0, strict_min=True),
            characteristic_frequency=_number(
                bath, "characteristic_frequency", "config.params.bath",
                minimum=0.0, strict_min=True,
            ),
        )
        bath_out = {
            "damping": spec.damping,
            "inverse_temperature": spec.inverse_temperature,
            "hbar": spec.hbar,
        }
        if spec.characteristic_frequency is not None:
            bath_out["characteristic_frequency"] = spec.characteristic_frequency
        bath_alpha = alpha_from_bath(spec)
        if alpha is not None:
            warnings.append(
                "params.alpha and params.bath both given; the direct alpha "
                f"({alpha!r}) takes precedence over the bath-derived value ({bath_alpha!r})"
            )
        else:
            alpha = bath_alpha

    out = {
        "dwell_time": _number(block, "dwell_time", "config.params",
                              minimum=0.0, strict_min=True, required=require_core),
        "heisenberg_time": _number(block, "heisenberg_time", "config.params",
                                   minimum=0.0, strict_min=True, required=require_core),
        "lyapunov": _number(block, "lyapunov", "config.params", minimum=0.0),
        "encounter_scale": _number(block, "encounter_scale", "config.params",
                                   minimum=0.0, strict_min=True),
        "alpha": alpha,
        "sigma2": _number(block, "sigma2", "config.params", minimum=0.0, strict_min=True),
        "tau_d": _number(block, "tau_d", "config.params", minimum=0.0, strict_min=True),
        "eta": _number(block, "eta", "config.params", default=DEFAULTS_TABLE["eta"],
                       minimum=0.0, strict_min=True),
        "hbar": _number(block, "hbar", "config.params", default=DEFAULTS_TABLE["hbar"],
                        minimum=0.0, strict_min=True),
        "ehrenfest_time": _number(block, "ehrenfest_time", "config.params", default=0.0,
                                  minimum=0.0),
        "loop_formation_time": _number(block, "loop_formation_time", "config.params",
                                       default=0.0, minimum=0.0),
        "cavity_size": _number(block, "cavity_size", "config.params",
                               minimum=0.0, strict_min=True),
    }
    regime = block.get("regime", "plain")
    if regime not in ("plain", "short_time", "ehrenfest"):
        raise ValidationError(
            "config.params.regime: must be one of ('plain', 'short_time', 'ehrenfest')"
        )
    out["regime"] = regime
    if bath_out is not None:
        out["bath"] = bath_out
    return {k: v for k, v in out.items() if v is not None}


def _quadrature_params(block: dict) -> dict:
    lam_taus = block.get("lambda_tauD", [10.0, 20.0, 40.0])
    fracs = block.get("ehrenfest_fractions", [0.05, 0.035, 0.02])
    times = block.get("t_over_tauD", [2.0, 2.5, 3.0, 4.0, 5.0])
    for name, seq in (("lambda_tauD", lam_taus), ("ehrenfest_fractions", fracs),
                      ("t_over_tauD", times)):
        if not isinstance(seq, list) or not seq or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in seq
        ):
            raise ValidationError(f"config.params.{name}: expected a list of positive numbers")
    if len(fracs) != len(lam_taus):
        raise ValidationError(
            "config.params.ehrenfest_fractions: must match lambda_tauD in length"
        )
    convention = block.get("one_leg_convention", "truncated_encounter")
    if convention not in ONE_LEG_CONVENTIONS:
        raise ValidationError(
            f"config.params.one_leg_convention: must be one of {ONE_LEG_CONVENTIONS}"
        )
    return {
        "lambda_tauD": [float(v) for v in lam_taus],
        "ehrenfest_fractions": [float(v) for v in fracs],
        "alpha_tauD_sigma2": _number(block, "alpha_tauD_sigma2", "config.params",
                                     default=0.1, minimum=0.0),
        "t_over_tauD": [float(v) for v in times],
        "eta": _number(block, "eta", "config.params", default=DEFAULTS_TABLE["eta"],
                       minimum=0.0, strict_min=True),
        "su_grid": _integer(block, "su_grid", "config.params", default=64, minimum=16),
        "su_cut": _number(block, "su_cut", "config.params", default=1e-60,
                          minimum=0.0, strict_min=True),
        "one_leg_convention": convention,
    }


def _validate_grid(command: str, block) -> dict:
    if not isinstance(block, dict):
        raise ValidationError("config.grid: expected an object")
    allowed = _GRID_KEYS[command]
    _reject_unknown(block, allowed, "config.grid")
    out: dict = {}
    if command == "simulate":
        t_max = _number(block, "t_max", "config.grid", minimum=0.0, strict_min=True)
        if t_max is not None:
            out["t_max"] = t_max
        out["n_points"] = _integer(block, "n_points", "config.grid", default=200, minimum=16)
        dense = _number(block, "dense_until", "config.grid", minimum=0.0, strict_min=True)
        if dense is not None:
            out["dense_until"] = dense
        window = block.get("fit_window")
        if window is not None:
            if (not isinstance(window, list) or len(window) != 2
                    or not all(isinstance(v, (int, float)) for v in window)
                    or not 0 <= window[0] < window[1]):
                raise ValidationError(
                    "config.grid.fit_window: expected [t_lo, t_hi] with 0 <= t_lo < t_hi"
                )
            out["fit_window"] = [float(window[0]), float(window[1])]
    elif command in ("lyapunov", "variance"):
        t_obs = _number(block, "t_obs", "config.grid", minimum=0.0, strict_min=True)
        if t_obs is not None:
            out["t_obs"] = t_obs
    elif command == "pair-decoherence":
        out["t_collisions"] = _number(block, "t_collisions", "config.grid", default=50.0,
                                      minimum=0.0, strict_min=True)
        dt = _number(block, "dt", "config.grid", minimum=0.0, strict_min=True)
        if dt is not None:
            out["dt"] = dt
    elif command == "correction":
        out["t_max"] = _number(block, "t_max", "config.grid", minimum=0.0, strict_min=True)
        out["n_points"] = _integer(block, "n_points", "config.grid", default=301, minimum=16)
        if out["t_max"] is None:
            del out["t_max"]
    return out
