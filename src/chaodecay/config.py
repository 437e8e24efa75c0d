"""JSON run configurations: parsing, validation, defaults.

A config document selects one command and supplies the blocks that command
needs.  Each block is checked against one field table, which names every key
the block accepts with its kind, default, bound and whether it is required.
Validation is strict: unknown keys are rejected with their full field path,
so a typo never silently falls back to a default, and every number must be
finite.  ``RunConfig.resolved`` is the fully-defaulted document; feeding it
back in (it is the manifest's ``config``) reproduces the identical run.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import SyntaxUsageError, ValidationError
from .formulas import REGIMES, BathSpec, alpha_from_bath
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


class _Field(NamedTuple):
    """One key of a config block."""

    # number, integer, choice, positives (a non-empty list of positive
    # numbers), fit_window, taud_over_TH, or block (a nested object)
    kind: str
    default: object = None  # None: left out of the resolved block when absent
    minimum: float | None = None
    strict: bool = False  # the value must exceed the minimum, not just reach it
    required: bool = False
    options: tuple | dict = ()  # the choices of a choice, the fields of a block
    maximum: int | None = None


def _positive(default=None, required=False) -> _Field:
    return _Field("number", default, 0.0, strict=True, required=required)


def _nonnegative(default=None) -> _Field:
    return _Field("number", default, 0.0)


_GEOMETRY = {
    "shape": _Field("choice", required=True, options=SHAPES),
    "scale": _positive(1.0),
    "opening_center": _Field("number"),  # default: the shape's, from CavityGeometry
    "opening_length": _positive(0.1),
}

_ENSEMBLE = {
    # the low 64 bits of a Philox key whose high bits tag the stream
    "seed": _Field("integer", minimum=0, required=True, maximum=2**64 - 1),
    "n_samples": _Field("integer", 10000, 1),
    "speed": _positive(DEFAULTS_TABLE["speed"]),
}

_BATH = {
    "damping": _Field("number", minimum=0.0, required=True),
    "inverse_temperature": _positive(required=True),
    "hbar": _positive(DEFAULTS_TABLE["hbar"]),
    "characteristic_frequency": _positive(),
}

_ALPHA = {"alpha": _nonnegative(), "bath": _Field("block", options=_BATH)}

_SEMICLASSICAL = {
    "dwell_time": _positive(required=True),
    "heisenberg_time": _positive(required=True),
    "lyapunov": _nonnegative(),
    "encounter_scale": _positive(),
    **_ALPHA,
    "sigma2": _positive(),
    "tau_d": _positive(),
    "eta": _positive(DEFAULTS_TABLE["eta"]),
    "hbar": _positive(DEFAULTS_TABLE["hbar"]),
    "ehrenfest_time": _nonnegative(0.0),
    "loop_formation_time": _nonnegative(0.0),
    "regime": _Field("choice", "plain", options=REGIMES),
}

_PARAMS = {
    "simulate": {},
    "lyapunov": {},
    "variance": {},
    "pair-decoherence": _ALPHA,
    "correction": _SEMICLASSICAL,
    "peak": _SEMICLASSICAL,
    "fig3": {
        "tauD_over_TH": _positive(0.3),
        "taud_over_TH": _Field("taud_over_TH", required=True),
        "t_max_over_TH": _positive(3.0),
        "n_points": _Field("integer", 301, 16),
    },
    "quadrature": {
        "lambda_tauD": _Field("positives", [10.0, 20.0, 40.0]),
        "ehrenfest_fractions": _Field("positives", [0.05, 0.035, 0.02]),
        "alpha_tauD_sigma2": _nonnegative(0.1),
        "t_over_tauD": _Field("positives", [2.0, 2.5, 3.0, 4.0, 5.0]),
        "eta": _positive(DEFAULTS_TABLE["eta"]),
        "su_grid": _Field("integer", 64, 16),
        "su_cut": _positive(1e-60),
        "one_leg_convention": _Field("choice", "truncated_encounter",
                                     options=ONE_LEG_CONVENTIONS),
    },
}

_GRID = {
    "simulate": {
        "t_max": _positive(),
        "n_points": _Field("integer", 200, 16),
        "dense_until": _positive(),
        "fit_window": _Field("fit_window"),
    },
    "lyapunov": {"t_obs": _positive()},
    "variance": {"t_obs": _positive()},
    "pair-decoherence": {"t_collisions": _positive(50.0), "dt": _positive()},
    "correction": {"t_max": _positive(), "n_points": _Field("integer", 301, 16)},
    "fig3": {},
    "quadrature": {},
    "peak": {},
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


def _validate(doc: dict) -> RunConfig:
    _reject_unknown(doc, ("command", "geometry", "ensemble", "params", "grid", "output"), "config")
    command = doc.get("command")
    if command is None:
        raise ValidationError("config.command: required")
    if command not in COMMANDS:
        raise ValidationError(f"config.command: unknown command {command!r}")

    resolved = {"command": command}
    for name, fields in (("geometry", _GEOMETRY), ("ensemble", _ENSEMBLE)):
        if command not in STOCHASTIC_COMMANDS:
            if name in doc:
                raise ValidationError(f"config.{name}: not accepted by this command")
        elif name not in doc:
            raise ValidationError(f"config.{name}: required for this command")
        else:
            resolved[name] = _block(doc[name], fields, f"config.{name}")
    geometry = None
    if "geometry" in resolved:
        block = resolved["geometry"]
        try:
            geometry = CavityGeometry(**block)
        except ValueError as exc:
            raise ValidationError(f"config.geometry: {exc}") from exc
        block["opening_center"] = geometry.opening_center  # the shape's default when absent

    messages: list[str] = []  # the run's warnings
    params = _block(doc.get("params", {}), _PARAMS[command], "config.params")
    if "bath" in params:
        # a BathSpec warning goes to the manifest, not to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                bath_alpha = alpha_from_bath(BathSpec(**params["bath"]))
            except ValueError as exc:
                raise ValidationError(f"config.params.bath: {exc}") from exc
        messages.extend(str(w.message) for w in caught)
        if "alpha" in params:
            messages.append(
                "params.alpha and params.bath both given; the direct alpha "
                f"({params['alpha']!r}) takes precedence over the bath-derived value "
                f"({bath_alpha!r})"
            )
        else:
            params["alpha"] = bath_alpha
    if command == "pair-decoherence" and "alpha" not in params:
        raise ValidationError("config.params.alpha: required (directly or via params.bath)")

    grid = _block(doc.get("grid", {}), _GRID[command], "config.grid")
    output = doc.get("output", f"out-{command}")
    if not isinstance(output, str) or not output:
        raise ValidationError("config.output: expected a non-empty string")
    resolved.update(params=params, grid=grid, output=output)
    return RunConfig(
        command=command,
        geometry=geometry,
        ensemble=resolved.get("ensemble"),
        params=params,
        grid=grid,
        output=output,
        warnings=messages,
        resolved=resolved,
    )


def _reject_unknown(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown key")


def _block(block, fields: dict, path: str) -> dict:
    """Check a block against its field table; the resolved block, defaults filled in.

    A key given as ``null`` counts as absent.
    """
    if not isinstance(block, dict):
        raise ValidationError(f"{path}: expected an object")
    _reject_unknown(block, fields, path)
    out = {}
    for key, spec in fields.items():
        value = block.get(key)
        if value is None:
            if spec.required:
                raise ValidationError(f"{path}.{key}: required")
            value = spec.default  # checked like a given value, so default lists are copies
        if value is not None:
            out[key] = _value(value, spec, f"{path}.{key}")
    return out


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _value(v, spec: _Field, name: str):
    """The checked, converted value of one field."""
    if spec.kind == "block":
        return _block(v, spec.options, name)
    if spec.kind == "choice":
        if v not in spec.options:
            raise ValidationError(f"{name}: must be one of {spec.options}")
        return v
    if spec.kind == "positives":
        if not isinstance(v, list) or not v or not all(_finite(x) and x > 0 for x in v):
            raise ValidationError(f"{name}: expected a list of positive numbers")
        return [float(x) for x in v]
    if spec.kind == "fit_window":
        if not (isinstance(v, list) and len(v) == 2 and all(map(_finite, v))
                and 0 <= v[0] < v[1]):
            raise ValidationError(f"{name}: expected [t_lo, t_hi] with 0 <= t_lo < t_hi")
        return [float(x) for x in v]
    if spec.kind == "taud_over_TH":
        if not isinstance(v, list) or not v:
            raise ValidationError(f"{name}: expected a non-empty list")
        out = []
        for i, x in enumerate(v):
            # infinity is the decoherence-free reference curve
            if x in ("inf", "Infinity") or x == math.inf:
                out.append(math.inf)
            elif _finite(x) and x > 0:
                out.append(float(x))
            else:
                raise ValidationError(f"{name}[{i}]: expected a positive number or 'inf'")
        return out
    if spec.kind == "integer":
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(f"{name}: expected an integer, got {v!r}")
    elif not _finite(v):
        raise ValidationError(f"{name}: expected a finite number, got {v!r}")
    else:
        v = float(v)
    if spec.minimum is not None and (v <= spec.minimum if spec.strict else v < spec.minimum):
        raise ValidationError(f"{name}: must be {'>' if spec.strict else '>='} {spec.minimum}")
    if spec.maximum is not None and v > spec.maximum:
        raise ValidationError(f"{name}: must be <= {spec.maximum}")
    return v
