"""Timing wrappers around chaodecay's layer functions, installed from outside.

``install()`` replaces each traced function on every chaodecay module that
holds it (``cli`` and ``ensemble`` bind names with ``from .x import y``, so the
importers are patched too) and the traced ``CavityGeometry`` methods on the
class.  Each call records a span: operation, name, parent span name, thread,
start, end, self time and per-call counts.  Self time is the span's duration
minus the time its traced children took on the same thread; the span stack is
per thread, so calls made inside pool workers start their own stacks and the
pool wait shows up as self time of the caller.  Spans stay in memory until
``write`` dumps them.

Functions that a version of chaodecay no longer has are listed in ``absent``
and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time

# (module, attribute) of every traced function; "Class.method" for methods.
TRACED = (
    ("geometry", "CavityGeometry.ray_hits"),
    ("geometry", "CavityGeometry.contains"),
    ("dynamics", "batch_collide"),
    ("dynamics", "escape_times"),
    ("dynamics", "advance_to"),
    ("dynamics", "propagate"),
    ("dynamics", "next_collision"),
    ("ensemble", "sample_ensemble"),
    ("ensemble", "survival_curve"),
    ("ensemble", "fit_escape_rate"),
    ("ensemble", "estimate_lyapunov"),
    ("ensemble", "position_variance"),
    ("quadrature", "integrate_2leg"),
    ("quadrature", "integrate_1leg"),
    ("quadrature", "diagram_sum"),
    ("quadrature", "convergence_study"),
    ("formulas", "correction_peak"),
    ("formulas", "figure3_curves"),
    ("config", "parse_config"),
    ("io", "write_csv"),
    ("io", "write_manifest"),
    ("cli", "main"),
)

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_UNITS = {}
for _shape in ("cardioid", "stadium"):
    LAYER_UNITS.update({
        f"geometry.ray_hits.{_shape}.self_s": "s",
        f"geometry.ray_hits.{_shape}.calls": "count",
        f"geometry.ray_hits.{_shape}.rays": "count",
        f"geometry.ray_hits.{_shape}.ns_per_ray": "ns",
    })
LAYER_UNITS.update({
    "geometry.ray_hits.mean_batch": "rays/call",
    "geometry.contains.self_s": "s",
    "geometry.contains.points": "count",
    "dynamics.escape_times.self_s": "s",
    "dynamics.escape_times.collisions": "count",
    "dynamics.batch_collide.calls": "count",
    "dynamics.batch_collide.self_s": "s",
    "dynamics.cusp_events": "count",
    "dynamics.grazing_events": "count",
    "dynamics.advance_to.self_s": "s",
    "dynamics.advance_to.calls": "count",
    "dynamics.propagate.self_s": "s",
    "dynamics.propagate.calls": "count",
    "dynamics.next_collision.calls": "count",
    "ensemble.sample_ensemble.self_s": "s",
    "ensemble.survival_curve.self_s": "s",
    "ensemble.fit_escape_rate.self_s": "s",
    "ensemble.estimate_lyapunov.self_s": "s",
    "ensemble.position_variance.self_s": "s",
    "quadrature.integrate_2leg.self_s": "s",
    "quadrature.integrate_1leg.self_s": "s",
    "quadrature.convergence_study.self_s": "s",
    "quadrature.diagram_sum.calls": "count",
    "formulas.correction_peak.self_s": "s",
    "formulas.correction_peak.calls": "count",
    "formulas.figure3_curves.self_s": "s",
    "config.parse_config.self_s": "s",
    "io.write_csv.self_s": "s",
    "io.write_manifest.self_s": "s",
    "io.csv_bytes": "bytes",
    "cli.main.self_s": "s",
})


def _rays(args, result):
    return {"rays": len(result[0])}


def _points(args, result):
    return {"points": getattr(args[1], "size", 2) // 2}


def _collisions(args, result):
    return {"collisions": int(result[1])}


def _kinds(args, result):
    kinds = result[4]
    return {"cusp": int((kinds == 2).sum()), "grazing": int((kinds == 1).sum())}


def _csv_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# counts taken from each call's arguments and result
COUNTERS = {
    "geometry.ray_hits": _rays,
    "geometry.contains": _points,
    "dynamics.escape_times": _collisions,
    "dynamics.batch_collide": _kinds,
    "io.write_csv": _csv_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = ""
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        shaped = name == "geometry.ray_hits"  # split per cavity shape
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]  # [span name, time spent in traced children]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                label = f"{name}.{args[0].shape}" if shaped else name
                counts = counter(args, result) if ok and counter else None
                tracer.spans.append((tracer.op, label, parent, threading.get_ident(),
                                     t0, t1, t1 - t0 - frame[1], counts))

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far (see LAYER_UNITS)."""
        self_s: dict = {}
        calls: dict = {}
        counts: dict = {}
        for _op, label, _parent, _thread, _t0, _t1, own, extra in self.spans:
            self_s[label] = self_s.get(label, 0.0) + own
            calls[label] = calls.get(label, 0) + 1
            for key, value in (extra or {}).items():
                counts[(label, key)] = counts.get((label, key), 0) + value

        out = {}
        total_rays = total_calls = 0
        for shape in ("cardioid", "stadium"):
            label = f"geometry.ray_hits.{shape}"
            rays = counts.get((label, "rays"), 0)
            out[f"{label}.self_s"] = self_s.get(label, 0.0)
            out[f"{label}.calls"] = calls.get(label, 0)
            out[f"{label}.rays"] = rays
            out[f"{label}.ns_per_ray"] = 1e9 * self_s.get(label, 0.0) / rays if rays else 0.0
        for label in calls:
            if label.startswith("geometry.ray_hits."):
                total_calls += calls[label]
                total_rays += counts.get((label, "rays"), 0)
        out["geometry.ray_hits.mean_batch"] = total_rays / total_calls if total_calls else 0.0
        out["geometry.contains.points"] = counts.get(("geometry.contains", "points"), 0)
        out["dynamics.escape_times.collisions"] = counts.get(
            ("dynamics.escape_times", "collisions"), 0)
        out["dynamics.cusp_events"] = counts.get(("dynamics.batch_collide", "cusp"), 0)
        out["dynamics.grazing_events"] = counts.get(("dynamics.batch_collide", "grazing"), 0)
        out["io.csv_bytes"] = counts.get(("io.write_csv", "bytes"), 0)
        for metric in LAYER_UNITS:
            if metric in out:
                continue
            label, _, kind = metric.rpartition(".")
            out[metric] = self_s.get(label, 0.0) if kind == "self_s" else calls.get(label, 0)
        return out

    def write(self, path: str) -> None:
        keys = ("op", "name", "parent", "thread", "start", "end", "self_s", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install() -> Tracer:
    """Wrap every traced function of the already-imported chaodecay package."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "chaodecay" or n.startswith("chaodecay."))]
    for module_name, attr in TRACED:
        module = importlib.import_module(f"chaodecay.{module_name}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name)
            fn = cls.__dict__.get(method)
            name = f"{module_name}.{method}"
        else:
            fn = getattr(module, attr, None)
            name = f"{module_name}.{attr}"
        if fn is None:
            tracer.absent.append(name)
            continue
        traced = tracer.wrap(name, fn)
        if cls_name:
            setattr(cls, method, traced)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
    return tracer


def median_metrics(runs: list[dict]) -> dict:
    """Metric-wise median over several traced passes."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
