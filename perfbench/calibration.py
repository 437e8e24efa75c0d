"""Machine-speed probe that normalises the benchmark's timings.

On a machine shared with other tenants each core's speed flips between a
fast and a slow state (about 1.5x apart) for stretches of a few seconds, so
raw wall times of identical work spread too much from run to run to compare
two commits.  The probe times a fixed burst of the two kinds of work
chaodecay does -- batched 4x4 eigenvalue problems and an interpreted Python
loop -- on each CPU the measured work may use, right before and right after
each stretch of work.  A timing is reported as ``raw * REFERENCE_S / probe``:
seconds at the speed at which one burst takes ``REFERENCE_S``.  The probe
never calls chaodecay, so no change to the program can move it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Median burst time on an Intel Xeon (Sapphire Rapids) 2-vCPU VM, numpy 2.4.
REFERENCE_S = 0.035

_MATRICES = np.random.default_rng(0).random((2000, 4, 4))


def burst() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvals(_MATRICES)
    acc = 0
    for i in range(40000):
        acc += i * i
    return time.perf_counter() - t0


def probe(bursts: int = 3) -> float:
    """Median burst seconds on each CPU this thread may run on, averaged
    over those CPUs (the thread is pinned to each in turn)."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(burst() for _ in range(bursts)))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(per_cpu) / len(per_cpu)


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the reference machine speed."""
    return seconds * REFERENCE_S / probe_s
