"""The chaodecay benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``.  A run

1. times cold start: it launches fresh interpreters that import
   ``chaodecay.cli`` and parse the workload's configs (one untimed launch to
   compile bytecode, then ``SETUP_SAMPLES`` timed ones; ``setup_s`` is their
   median);
2. repeats the workload pass, each in a fresh worker process that warms up
   first, until ``--seconds`` are spent (at least ``MIN_PASSES`` passes);
   with ``--trace 1`` the passes alternate between untraced and traced;
3. checks every operation of every pass: exit code 0, the physics checks in
   ``workloads.py``, and CSV bytes identical to the first pass;
4. prints a report line (machine facts, per-operation times, CSV sha256
   digests, ``fail_frac`` and ``result_rel_dev``) and, as the last line, the
   result: ``correct``, ``attempted``, ``failed`` and the metrics -- the
   end-to-end ones untraced, the per-layer ones traced.

Times are scaled to a reference machine speed with the probe in
``calibration.py``, timed on the measured CPUs right before and after each
cold start and each stretch of operations; the report line also carries the
raw seconds.  Cold starts and single-threaded passes are pinned to one CPU
so that they share it with their probes.

Everything it writes goes to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 5
MIN_PASSES = 2
# A run, hung workers included, ends within this many seconds.
RUN_BUDGET_S = 170


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "cpu_model": "unknown",
             "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"l{level}_cache"] = size
    return facts


def prepare(run_dir: Path, ops: list) -> list:
    """Write every op's config (and a warm-up config per command) into a
    fresh ``run_dir``; returns the warm-up argv lists."""
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    warmup, commands = [], set()
    for op in ops:
        op["config"] = str(run_dir / "configs" / f"{op['name']}.json")
        Path(op["config"]).write_text(json.dumps(op["doc"]))
        if op["doc"]["command"] in commands:
            continue
        commands.add(op["doc"]["command"])
        path = run_dir / "configs" / f"warmup-{op['name']}.json"
        path.write_text(json.dumps(workloads.warmup_doc(op["doc"])))
        warmup.append(workloads.argv_for(op, str(path), str(run_dir / "warmup" / op["name"])))
    return warmup


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CHAODECAY_THREADS", None)  # thread counts come from --threads only
    env.pop("PYTHONPATH", None)
    return env


def _write_spec(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec))
    return str(path)


def _run_worker(spec: str, deadline: float) -> subprocess.CompletedProcess:
    """Run a worker to completion; it is killed at ``deadline`` (monotonic)."""
    return subprocess.run([sys.executable, str(WORKER), spec], capture_output=True, text=True,
                          env=_worker_env(), cwd=str(ROOT),
                          timeout=max(deadline - time.monotonic(), 1.0))


def measure_setup(run_dir: Path, ops: list, deadline: float) -> list[tuple[float, float]]:
    """(seconds from launching a fresh interpreter to 'ready', probe seconds)
    per sample.  Raises RuntimeError if chaodecay cannot start."""
    cpu = min(os.sched_getaffinity(0))
    spec = _write_spec(run_dir / "setup.json", {
        "mode": "setup", "src": str(SRC), "cpu": cpu,
        "configs": [op["config"] for op in ops]})
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # probe the CPU the cold starts run on
    try:
        samples = []
        probe_s = calibration.probe()
        for i in range(SETUP_SAMPLES + 1):
            launched = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = _run_worker(spec, deadline)
            words = proc.stdout.split()
            if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
                raise RuntimeError(f"cold-start worker exit {proc.returncode}: "
                                   f"{proc.stderr[-2000:]}")
            if i:  # the first launch compiles bytecode and is not timed
                probe_after = calibration.probe()
                samples.append((float(words[1]) - launched, 0.5 * (probe_s + probe_after)))
                probe_s = probe_after
        return samples
    finally:
        os.sched_setaffinity(0, allowed)


def run_pass(run_dir: Path, ops: list, warmup: list, index: int, traced: bool,
             deadline: float) -> dict:
    """One workload pass in a fresh worker; returns its report and out dirs."""
    pass_dir = run_dir / f"pass{index}"
    out_dirs = {op["name"]: str(pass_dir / op["name"]) for op in ops}
    single_threaded = all(op["threads"] == 1 for op in ops)
    spec = _write_spec(run_dir / f"pass{index}.json", {
        "mode": "pass", "src": str(SRC), "trace": traced, "warmup": warmup,
        "cpu": min(os.sched_getaffinity(0)) if single_threaded else None,
        "spans_path": str(run_dir / f"spans-pass{index}.jsonl"),
        "ops": [{"name": op["name"],
                 "argv": workloads.argv_for(op, op["config"], out_dirs[op["name"]])}
                for op in ops]})
    try:
        proc = _run_worker(spec, deadline)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        error = None if report else f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        report, error = None, "worker killed at the run's time budget"
    return {"report": report, "error": error, "out_dirs": out_dirs, "traced": traced}


def _pass_seconds(report: dict, raw: bool = False) -> float:
    """Timed seconds of one pass, scaled to the reference speed unless raw."""
    return sum(st["seconds"] if raw else calibration.scaled(st["seconds"], st["probe_s"])
               for st in report["stretches"])


def check_pass(ops: list, result: dict, digests: dict, failures: list) -> tuple[int, list]:
    """Check every op of one pass; returns (failed ops, deviations).

    ``digests`` maps op name to the sha256 of its CSV in the first pass that
    produced one; later passes must reproduce those bytes.
    """
    report = result["report"]
    if report is None:
        failures.append(result["error"])
        return len(ops), []
    failed, devs = 0, []
    for op, res in zip(ops, report["ops"]):
        try:
            if res["code"] != 0:
                raise workloads.CheckFailed(f"exit code {res['code']}: {res['error']}")
            dev = workloads.check_op(op, result["out_dirs"])
            csv = os.path.join(result["out_dirs"][op["name"]], f"{op['doc']['command']}.csv")
            digest = workloads.sha256_of(csv)
            if digests.setdefault(op["name"], digest) != digest:
                raise workloads.CheckFailed("CSV bytes differ from the first pass")
        except Exception as exc:  # any broken output is a failed op, never a crash
            failed += 1
            failures.append(f"{op['name']}: {type(exc).__name__}: {exc}")
            continue
        if dev is not None:
            devs.append(dev)
    return failed, devs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "chaodecay" / "cli.py").is_file():
        print(f"perfbench: no chaodecay sources under {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build_ops(args.workload, args.seed)
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_BUDGET_S
    warmup = prepare(run_dir, ops)
    try:
        setup = measure_setup(run_dir, ops, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot start chaodecay: {exc}", file=sys.stderr)
        return 1

    passes = []
    spent = 0.0
    while time.monotonic() < deadline and (
            len(passes) < MIN_PASSES or spent * (len(passes) + 1) / len(passes) <= args.seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(run_dir, ops, warmup, len(passes),
                               bool(args.trace) and len(passes) % 2 == 1, deadline))
        spent += time.perf_counter() - t0

    digests: dict = {}
    failures: list = []
    failed, devs = 0, []
    for result in passes:
        f, d = check_pass(ops, result, digests, failures)
        failed += f
        devs += d
    attempted = len(ops) * len(passes)
    reports = [p["report"] for p in passes if p["report"] is not None]
    plain = [p["report"] for p in passes if p["report"] is not None and not p["traced"]]
    traced = [p["report"] for p in passes if p["report"] is not None and p["traced"]]
    if not plain or (args.trace and not traced):
        print(json.dumps({"failures": failures}))
        print("perfbench: no pass produced a report", file=sys.stderr)
        return 1

    wall_s = statistics.median(_pass_seconds(r) for r in plain)
    summary = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(calibration.scaled(*sample) for sample in setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "fail_frac": (failed / attempted, "ratio"),
        "result_rel_dev": (max(devs, default=0.0), "ratio"),
    }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "threads": workloads.THREADS[args.workload], "machine": machine_facts(),
        "passes": len(passes),
        "pass_wall_s": [_pass_seconds(r) for r in reports],
        "raw_pass_wall_s": [_pass_seconds(r, raw=True) for r in reports],
        "raw_setup_s": [t for t, _ in setup],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "ops": [{"name": op["name"], "sha256": digests.get(op["name"]),
                 "median_s": statistics.median(r["ops"][i]["seconds"] for r in plain)}
                for i, op in enumerate(ops)],
        "absent": traced[0]["absent"] if traced else [],
        "failures": failures[:20],
    }))

    if args.trace:
        values = tracing.median_metrics([r["layers"] for r in traced])
        units = dict(tracing.LAYER_UNITS)
        values["import.chaodecay_s"] = statistics.median(
            calibration.scaled(r["import_s"], r["stretches"][0]["probe_s"]) for r in reports)
        values["import.scipy_loaded"] = int(any(r["scipy_loaded"] for r in reports))
        values["trace.overhead_frac"] = statistics.median(
            _pass_seconds(r) for r in traced) / wall_s - 1.0
        units.update({"import.chaodecay_s": "s", "import.scipy_loaded": "flag",
                      "trace.overhead_frac": "ratio"})
        for key in ("fail_frac", "result_rel_dev"):
            values[key], units[key] = summary[key]
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": summary[k][0], "unit": summary[k][1]}
                   for k in ("wall_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
