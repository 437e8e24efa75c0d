"""Child process of the benchmark: one fresh interpreter per workload pass.

Usage: ``python3 worker.py <spec.json>``

The spec names chaodecay's source directory and the operations to run.  In
``setup`` mode the worker imports ``chaodecay.cli``, parses every config and
prints ``ready`` with the CLOCK_MONOTONIC time; the parent subtracts the time
it launched the worker to get the cold-start time.  In ``pass`` mode it runs
the warm-up operations, then the timed ones through ``chaodecay.cli.main``,
optionally under the tracer, and prints one JSON line: per-operation exit
codes and times, the timed stretches of operations with the speed probe
around each (see ``calibration.py``), and the peak resident memory of this
process.

A spec with ``"cpu": n`` pins the worker to CPU ``n`` before anything else,
so that a single-threaded measurement and its probes share one core.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

# Operations run back to back until this many seconds have passed; then the
# speed is probed again, closing a timed stretch.
STRETCH_S = 0.5


def _run_op(cli, argv):
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        return (exc.code if isinstance(exc.code, int) else 2), f"usage error: {exc}"
    except Exception:  # a crashing op is a failed op; the pass goes on
        return -1, traceback.format_exc(limit=4)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import chaodecay.cli as cli
    import_s = time.perf_counter() - t0
    scipy_loaded = "scipy" in sys.modules
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"chaodecay was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    if spec["mode"] == "setup":
        from chaodecay.config import parse_config
        from chaodecay.errors import ChaodecayError
        for path in spec["configs"]:
            try:
                with open(path) as fh:
                    parse_config(fh.read())
            except (OSError, ChaodecayError):
                pass  # the timed pass counts this op as failed
        print("ready", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        return 0

    import calibration  # after chaodecay, so that import_s includes numpy

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    for argv in spec["warmup"]:
        code, error = _run_op(cli, argv)
        if code != 0:
            print(f"warm-up {argv} failed with exit code {code}: {error}", file=sys.stderr)
    if tracer is not None:
        tracer.spans.clear()

    ops, stretches = [], []
    probe_s = calibration.probe()
    t_stretch = time.perf_counter()
    for i, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = op["name"]
        t = time.perf_counter()
        code, error = _run_op(cli, op["argv"])
        now = time.perf_counter()
        ops.append({"name": op["name"], "code": code, "seconds": now - t, "error": error})
        if now - t_stretch >= STRETCH_S or i == len(spec["ops"]) - 1:
            probe_after = calibration.probe()
            stretches.append({"seconds": now - t_stretch,
                              "probe_s": 0.5 * (probe_s + probe_after)})
            probe_s = probe_after
            t_stretch = time.perf_counter()

    result = {
        "ops": ops,
        "stretches": stretches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "scipy_loaded": scipy_loaded,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
