"""Public names: every ``__all__`` entry exists, the package re-exports only those,
every ``chaodecay.<module>[.<name>]`` path the README quotes resolves, and every
``python`` block of the README runs.  No module names numpy's ``linalg``: the
library's root solves are closed forms, and the eigenvalue oracle lives in the
tests.  Every float argument of every ``__all__`` callable follows its documented
sign and range rule, and only ``errors`` spells that rule out."""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaodecay
from chaodecay import CavityGeometry, EnsembleSpec, SemiclassicalParams, SurvivalCurve

MODULES = [importlib.import_module(f"chaodecay.{m.name}")
           for m in pkgutil.iter_modules(chaodecay.__path__)]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_exported():
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, value in vars(chaodecay).items()
              if not name.startswith("_") and value not in MODULES}
    assert public <= exported, sorted(public - exported)


def test_readme_dotted_paths_resolve():
    # MODULES imported every submodule, so each is an attribute of the package
    paths = sorted(set(re.findall(r"\bchaodecay(?:\.\w+)+", README)))
    assert paths

    def resolves(dotted):
        obj = chaodecay
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    missing = [p for p in paths if not resolves(p)]
    assert not missing, f"README names paths that do not exist: {missing}"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("module", [chaodecay, *MODULES], ids=lambda m: m.__name__)
def test_no_linalg(module):
    source = Path(module.__file__).read_text()
    assert "linalg" not in source, f"{module.__name__} names linalg"


# ---------------------------------------------------------------------------
# the argument rule
# ---------------------------------------------------------------------------

# Records of computed output: the library fills them from checked inputs.
RECORDS = {"CorrectionTable", "SurvivalCurve", "EscapeFit", "LyapunovResult", "VarianceResult",
           "DiagramResult"}

_CIRCLE = CavityGeometry("circle")
_SPEC = EnsembleSpec(n_samples=4, seed=1)
_PARAMS = SemiclassicalParams(dwell_time=1.0, heisenberg_time=1.0, lyapunov=10.0,
                              encounter_scale=1.0, hbar=0.01)
_CURVE = SurvivalCurve(times=np.array([0.0, 1.0]), survival=np.array([1.0, 0.0]),
                       std_error=np.zeros(2), escape_times=np.linspace(0.05, 0.95, 20))
_START = {"geometry": _CIRCLE, "positions": [[0.0, 0.0]], "directions": [[1.0, 0.0]]}

# callable -> keyword arguments of a valid call
BASE = {
    "BathSpec": {"damping": 0.5, "inverse_temperature": 1.0},
    "SemiclassicalParams": {"dwell_time": 1.0, "heisenberg_time": 1.0},
    "dwell_time": {"area": 1.0, "opening_length": 0.1},
    "heisenberg_time": {"area": 1.0},
    "decoherence_time": {"coupling_strength": 0.0, "position_variance": 1.0},
    "ehrenfest_time": {"lyapunov": 1.0, "encounter_scale": 2.0, "hbar": 1.0},
    "figure3_curves": {"taud_over_TH": [1.0]},
    "classical_survival": {"params": _PARAMS, "t": 1.0},
    "total_survival": {"params": _PARAMS, "t": 1.0},
    "bare_quantum_correction": {"params": _PARAMS, "t": 1.0},
    "loop_correction": {"params": _PARAMS, "t": 1.0},
    "loop_correction_short_time": {"params": _PARAMS, "t": 1.0},
    "loop_correction_ehrenfest": {"params": _PARAMS, "t": 1.0},
    "CavityGeometry": {"shape": "circle"},
    "EnsembleSpec": {"n_samples": 4, "seed": 1},
    "hybrid_time_grid": {"t_max": 10.0, "dense_until": 1.0},
    "mean_free_time": {"geometry": _CIRCLE},
    "correction_curve": {"params": _PARAMS, "times": [1.0]},
    "survival_curve": {"geometry": _CIRCLE, "spec": _SPEC, "times": [1.0]},
    "fit_escape_rate": {"curve": _CURVE, "window": (0.0, 1.0)},
    "estimate_lyapunov": {"geometry": _CIRCLE, "spec": _SPEC, "t_obs": 10.0},
    "position_variance": {"geometry": _CIRCLE, "spec": _SPEC},
    "decoherence_functional": {"samples_a": np.zeros((2, 2)), "samples_b": np.ones((2, 2)),
                               "coupling_strength": 1.0, "dt": 0.1},
    "escape_times": {**_START, "speed": 1.0, "t_max": 5.0},
    "sample_positions": {**_START, "speed": 1.0, "dt": 0.1, "n_steps": 3},
    "QuadratureSpec": {},
    "integrate_2leg": {"params": _PARAMS, "t": 2.0},
    "integrate_1leg": {"params": _PARAMS, "t": 2.0},
    "diagram_sum": {"params": _PARAMS, "t": 2.0},
    "semiclassical_ladder": {},
}

POSITIVE, NON_NEGATIVE, ANY = "positive", "non-negative", "any"
# (callable, argument) -> (sign, whether +inf is allowed).  A list or tuple
# argument takes the value as its first entry.  The times ``t`` of the closed
# forms and the grids of `correction_curve` and `survival_curve` are not
# annotated, so they are listed by hand; every annotated float argument must be here.
RULES = {
    ("BathSpec", "damping"): (NON_NEGATIVE, False),
    ("BathSpec", "inverse_temperature"): (POSITIVE, False),
    ("BathSpec", "hbar"): (POSITIVE, False),
    ("BathSpec", "characteristic_frequency"): (POSITIVE, False),
    ("SemiclassicalParams", "dwell_time"): (POSITIVE, False),
    ("SemiclassicalParams", "heisenberg_time"): (POSITIVE, False),
    ("SemiclassicalParams", "lyapunov"): (NON_NEGATIVE, False),
    ("SemiclassicalParams", "encounter_scale"): (POSITIVE, False),
    ("SemiclassicalParams", "coupling_strength"): (NON_NEGATIVE, False),
    ("SemiclassicalParams", "position_variance"): (NON_NEGATIVE, True),
    ("SemiclassicalParams", "decoherence_time"): (POSITIVE, True),  # inf: no decoherence
    ("SemiclassicalParams", "encounter_shape_factor"): (POSITIVE, False),
    ("SemiclassicalParams", "hbar"): (POSITIVE, False),
    ("SemiclassicalParams", "ehrenfest_time"): (NON_NEGATIVE, False),
    ("SemiclassicalParams", "loop_formation_time"): (NON_NEGATIVE, False),
    ("dwell_time", "area"): (POSITIVE, True),
    ("dwell_time", "opening_length"): (POSITIVE, False),
    ("dwell_time", "speed"): (POSITIVE, False),
    ("heisenberg_time", "area"): (POSITIVE, False),
    ("heisenberg_time", "mass"): (POSITIVE, False),
    ("heisenberg_time", "hbar"): (POSITIVE, False),
    ("decoherence_time", "coupling_strength"): (NON_NEGATIVE, False),
    ("decoherence_time", "position_variance"): (NON_NEGATIVE, True),  # 0 * inf: no decoherence
    ("ehrenfest_time", "lyapunov"): (POSITIVE, False),
    ("ehrenfest_time", "encounter_scale"): (POSITIVE, False),
    ("ehrenfest_time", "hbar"): (POSITIVE, False),
    ("figure3_curves", "taud_over_TH"): (POSITIVE, True),  # inf: the reference curve
    ("figure3_curves", "tauD_over_TH"): (POSITIVE, False),
    ("figure3_curves", "t_max_over_TH"): (POSITIVE, False),
    ("classical_survival", "t"): (NON_NEGATIVE, False),
    ("total_survival", "t"): (NON_NEGATIVE, False),
    ("bare_quantum_correction", "t"): (NON_NEGATIVE, False),
    ("loop_correction", "t"): (NON_NEGATIVE, False),
    ("loop_correction_short_time", "t"): (NON_NEGATIVE, False),
    ("loop_correction_ehrenfest", "t"): (NON_NEGATIVE, False),
    ("CavityGeometry", "scale"): (POSITIVE, False),
    ("CavityGeometry", "opening_center"): (ANY, False),
    ("CavityGeometry", "opening_length"): (POSITIVE, False),  # and below the perimeter
    ("EnsembleSpec", "speed"): (POSITIVE, False),
    ("hybrid_time_grid", "t_max"): (POSITIVE, False),
    ("hybrid_time_grid", "dense_until"): (POSITIVE, False),
    ("mean_free_time", "speed"): (POSITIVE, False),
    ("correction_curve", "times"): (NON_NEGATIVE, False),
    ("survival_curve", "times"): (NON_NEGATIVE, False),
    ("fit_escape_rate", "window"): (NON_NEGATIVE, False),  # t0, below t1
    ("estimate_lyapunov", "t_obs"): (POSITIVE, False),
    ("position_variance", "t_obs"): (POSITIVE, False),
    ("decoherence_functional", "coupling_strength"): (NON_NEGATIVE, False),
    ("decoherence_functional", "dt"): (POSITIVE, False),
    ("escape_times", "speed"): (POSITIVE, False),
    ("escape_times", "t_max"): (NON_NEGATIVE, False),
    ("sample_positions", "speed"): (POSITIVE, False),
    ("sample_positions", "dt"): (POSITIVE, False),
    ("QuadratureSpec", "su_cut"): (POSITIVE, False),  # and below 1
    ("integrate_2leg", "t"): (POSITIVE, False),
    ("integrate_1leg", "t"): (POSITIVE, False),
    ("diagram_sum", "t"): (POSITIVE, False),
    ("semiclassical_ladder", "alpha_dwell_sigma2"): (NON_NEGATIVE, False),
    ("semiclassical_ladder", "dwell_time"): (POSITIVE, False),
    ("semiclassical_ladder", "heisenberg_time"): (POSITIVE, False),
    ("semiclassical_ladder", "position_variance"): (POSITIVE, False),
    ("semiclassical_ladder", "eta"): (POSITIVE, False),
}
SPECIALS = [math.nan, -math.inf, math.inf, -1.0, 0.0]


def _allowed(rule, value):
    sign, inf = rule
    if math.isinf(value) and value > 0:
        return inf
    if not math.isfinite(value):
        return False
    return value > 0 if sign == POSITIVE else value >= 0 if sign == NON_NEGATIVE else True


def _nan_free(obj):
    if obj is None or isinstance(obj, str):
        return True
    if dataclasses.is_dataclass(obj):
        return all(_nan_free(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return all(map(_nan_free, obj))
    return not np.isnan(np.asarray(obj, dtype=float)).any()


def _follows_rule(case, value):
    """A value outside the argument's rule is a ValueError naming the argument;
    one inside it gives a result without NaN."""
    name, argument = case
    kwargs = dict(BASE[name])
    given = kwargs.get(argument)
    kwargs[argument] = (type(given)([value, *given[1:]]) if isinstance(given, (list, tuple))
                        else value)
    call = getattr(chaodecay, name)
    if _allowed(RULES[case], value):
        assert _nan_free(call(**kwargs)), (case, value)
    else:
        with pytest.raises(ValueError, match=rf"\b{argument}\b"):
            call(**kwargs)


def test_every_float_argument_has_a_rule():
    public = [(name, getattr(module, name)) for module in MODULES for name in module.__all__
              if name not in RECORDS]
    annotated = {(name, p.name) for name, obj in public
                 if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)
                 for p in inspect.signature(obj).parameters.values()
                 if "float" in str(p.annotation)}
    assert annotated <= set(RULES), sorted(annotated - set(RULES))
    assert {name for name, _ in RULES} <= set(BASE)


@pytest.mark.parametrize("value", SPECIALS, ids=repr)
def test_special_values_follow_the_argument_rule(value):
    for case in RULES:
        _follows_rule(case, value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan]))
def test_non_positive_and_non_finite_values_follow_the_argument_rule(value):
    for case in RULES:
        _follows_rule(case, value)


@pytest.mark.parametrize("module", [m for m in MODULES if m.__name__ != "chaodecay.errors"],
                         ids=lambda m: m.__name__)
def test_argument_rule_has_one_owner(module):
    # errors._check words every sign and finiteness message; no other module spells one
    phrases = re.compile("must be positive|must be non-negative|positive and finite")
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ValueError"):
            text = " ".join(c.value for c in ast.walk(node.exc)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str))
            assert not phrases.search(text), f"{module.__name__}:{node.lineno}: {text}"
