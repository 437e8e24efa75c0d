"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench -q``; they
run real workload passes and take about a minute.
"""

from __future__ import annotations

import copy
import time

import run
import workloads


def _pass(tmp_path, ops, name="run"):
    """Run one pass of ``ops`` in a fresh worker and check it."""
    run_dir = tmp_path / name
    warmup = run.prepare(run_dir, ops)
    result = run.run_pass(run_dir, ops, warmup, 0, False, time.monotonic() + 120)
    digests, failures = {}, []
    failed, _ = run.check_pass(ops, result, digests, failures)
    return failed, digests, failures


def test_same_seed_gives_identical_csv_digests(tmp_path):
    first = _pass(tmp_path, workloads.build_ops("escape_cardioid", 7), "a")
    second = _pass(tmp_path, workloads.build_ops("escape_cardioid", 7), "b")
    assert first[0] == second[0] == 0, first[2] + second[2]
    assert first[1] == second[1]


def test_stadium_digests_do_not_depend_on_thread_count(tmp_path):
    two = workloads.build_ops("escape_stadium", 3)
    one = copy.deepcopy(two)
    for op in one:
        op["threads"] = 1
    assert two[0]["threads"] == 2
    result_two = _pass(tmp_path, two, "two")
    result_one = _pass(tmp_path, one, "one")
    assert result_two[0] == result_one[0] == 0, result_two[2] + result_one[2]
    assert result_two[1] == result_one[1]


def test_bad_seed_and_missing_config_count_as_failed_ops(tmp_path):
    good = next(op for op in workloads.build_ops("closed_cavity", 5) if op["name"] == "variance")
    bad_seed = copy.deepcopy(good)
    bad_seed["name"] = "variance-bad-seed"
    bad_seed["doc"]["ensemble"]["seed"] = -1
    missing = copy.deepcopy(good)
    missing["name"] = "variance-missing-config"
    ops = [good, bad_seed, missing]
    run_dir = tmp_path / "run"
    warmup = run.prepare(run_dir, ops)
    missing["config"] = str(run_dir / "configs" / "does-not-exist.json")
    result = run.run_pass(run_dir, ops, warmup, 0, False, time.monotonic() + 120)
    failures = []
    failed, devs = run.check_pass(ops, result, {}, failures)
    assert failed == 2
    assert len(devs) == 1  # the good op still reports its deviation
    assert any(f.startswith("variance-bad-seed: CheckFailed: exit code 3") for f in failures)
    assert any(f.startswith("variance-missing-config: CheckFailed: exit code 1")
               for f in failures)
