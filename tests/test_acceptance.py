"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a single CRITERION-k PASS/FAIL line so a log scrape shows
the scoreboard at a glance.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from chaodecay.cli import main
from chaodecay.dynamics import batch_collide, sample_positions
from chaodecay.ensemble import (
    EnsembleSpec,
    area_variance,
    decoherence_functional,
    estimate_lyapunov,
    fit_escape_rate,
    hybrid_time_grid,
    mean_free_time,
    sample_ensemble,
    survival_curve,
)
from chaodecay.formulas import (
    SemiclassicalParams,
    bare_quantum_correction,
    loop_correction,
    loop_correction_ehrenfest,
    loop_correction_short_time,
)
from chaodecay.geometry import CavityGeometry
from chaodecay.quadrature import convergence_study, semiclassical_ladder

pytestmark = pytest.mark.acceptance

CARDIOID_OPENING_CENTER = 2.0 * math.sqrt(2.0)


def report(k, ok, detail=""):
    print(f"CRITERION-{k} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {k}: {detail}"


def cardioid(opening_length):
    return CavityGeometry(shape="cardioid", scale=1.0,
                          opening_center=CARDIOID_OPENING_CENTER,
                          opening_length=opening_length)


def test_criterion_1_classical_decay_law():
    """Fitted cardioid escape rate matches pi*A/(l*v): 5% at l, 7% at l/2."""
    t0 = time.monotonic()
    devs, rates = {}, {}
    for l, n_samples in ((0.1, 100_000), (0.05, 100_000)):
        g = cardioid(l)
        tau = math.pi * g.area / l
        times = hybrid_time_grid(4.0 * tau, 3.0 * mean_free_time(g), 220)
        curve = survival_curve(g, EnsembleSpec(n_samples=n_samples, seed=2718),
                               times, threads=8)
        fit = fit_escape_rate(curve, (2.0 / 0.35, 4.0 * tau))
        rates[l] = fit.rate
        devs[l] = abs(fit.rate - 1.0 / tau) * tau
    elapsed = time.monotonic() - t0
    ratio = rates[0.1] / rates[0.05]
    ok = devs[0.1] <= 0.05 and devs[0.05] <= 0.07 and abs(ratio - 2.0) <= 0.14 \
        and elapsed <= 120.0
    report(1, ok, f"dev(l=0.1)={devs[0.1]:.2%} dev(l=0.05)={devs[0.05]:.2%} "
                  f"rate-ratio={ratio:.3f} elapsed={elapsed:.0f}s")


def test_criterion_2_bracket_curve_family():
    """tau_d/T_H in {0.05, 0.1, 0.3, 1, inf}: ordering, single peak, heights."""
    t0 = time.monotonic()
    ratios = [0.05, 0.1, 0.3, 1.0]
    t = np.linspace(0.0, 3.0, 301)
    ref = bare_quantum_correction(
        SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0), t)
    curves = [loop_correction(
        SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0,
                            decoherence_time=r), t) for r in ratios]
    below = all(np.all(ref[1:] - c[1:] > 1e-12) for c in curves)
    single_peak = True
    for c in curves + [ref]:
        d = np.diff(c)
        single_peak &= int(np.sum((d[:-1] > 0) & (d[1:] < 0))) == 1
    peaks = [c.max() for c in curves]
    increasing = all(b - a > 1e-12 for a, b in zip(peaks, peaks[1:]))
    elapsed = time.monotonic() - t0
    ok = below and single_peak and increasing and elapsed < 1.0
    report(2, ok, f"below-ref={below} single-peak={single_peak} "
                  f"peak-order={increasing} elapsed={elapsed:.2f}s")


def test_criterion_3_vanishing_coupling_limit():
    """tau_d/T_H = 1e6 bracket within 1e-5 of the bare correction on (0, 5]."""
    t0 = time.monotonic()
    p_inf = SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0,
                                decoherence_time=1e6)
    p_bare = SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0)
    t = np.linspace(1e-6, 5.0, 2001)
    bare = bare_quantum_correction(p_bare, t)
    rel = np.abs(loop_correction(p_inf, t) - bare) / bare
    worst = float(np.max(rel))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 1.0
    report(3, ok, f"max-rel-dev={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_4_short_time_slope():
    """|full - order-3| scales as t^4: log-log slope 4.0 +- 0.1."""
    t0 = time.monotonic()
    p = SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0,
                            decoherence_time=0.7)
    scale = min(p.dwell_time, p.decoherence_time)
    t = np.geomspace(1e-4 * scale, 1e-2 * scale, 40)
    resid = np.abs(loop_correction(p, t) - loop_correction_short_time(p, t))
    slope = float(np.polyfit(np.log(t), np.log(resid), 1)[0])
    elapsed = time.monotonic() - t0
    ok = abs(slope - 4.0) <= 0.1 and elapsed < 1.0
    report(4, ok, f"slope={slope:.4f} elapsed={elapsed:.2f}s")


def test_criterion_5_ehrenfest_reduction():
    """Gate times zero: Ehrenfest bracket equals the plain bracket to 1e-14."""
    t0 = time.monotonic()
    p = SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0,
                            decoherence_time=0.2, ehrenfest_time=0.0,
                            loop_formation_time=0.0)
    t = np.linspace(1e-4, 3.0, 1000)
    plain = loop_correction(p, t)
    gated = loop_correction_ehrenfest(p, t)
    worst = float(np.max(np.abs(gated - plain) / np.maximum(np.abs(plain), 1e-300)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-14 and elapsed < 1.0
    report(5, ok, f"max-rel-dev={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_6_closed_cavity_cancellation():
    """tau_D/T_H = 1e6 bracket below 1e-5 of the tau_D/T_H = 0.3 peak.

    tau_d/T_H is fixed at 0.05, the strongest-decoherence member of the
    criterion-2 family (the closed-cavity bracket scales with tau_d, so this
    is where the cancellation statement is sharpest).
    """
    t0 = time.monotonic()
    t = np.linspace(0.0, 3.0, 301)
    reference_peak = float(np.max(loop_correction(
        SemiclassicalParams(dwell_time=0.3, heisenberg_time=1.0,
                            decoherence_time=0.05), t)))
    closed = loop_correction(
        SemiclassicalParams(dwell_time=1e6, heisenberg_time=1.0,
                            decoherence_time=0.05), t)
    worst = float(np.max(np.abs(closed))) / reference_peak
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 1.0
    report(6, ok, f"max-ratio={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_7_quadrature_convergence():
    """Diagram quadrature approaches the closed form along the ladder."""
    t0 = time.monotonic()
    ladder = semiclassical_ladder()  # lambda*tau_D in {10, 20, 40}
    times = [2.0, 2.5, 3.0, 4.0, 5.0]
    rows = convergence_study(ladder, times)
    by_t = {}
    for row in rows:
        by_t.setdefault(row["t_over_tauD"], []).append(row["rel_dev"])
    monotone = sum(all(b < a for a, b in zip(d, d[1:])) for d in by_t.values())
    frac = monotone / len(by_t)
    final = max(d[-1] for d in by_t.values())
    im_ok = all(row["im_part"] <= row["est_err"] + 1e-16 for row in rows)
    elapsed = time.monotonic() - t0
    ok = frac >= 0.8 and final < 0.10 and im_ok and elapsed <= 600.0
    report(7, ok, f"monotone-frac={frac:.0%} final-max-dev={final:.2%} "
                  f"im<=est={im_ok} elapsed={elapsed:.0f}s")


def test_criterion_8_decoherence_ergodic_slope():
    """200 cardioid pairs, t = 50 collision times: slope near 2 sigma^2."""
    t0 = time.monotonic()
    g = cardioid(0.1)
    t_coll = mean_free_time(g)
    alpha = 1e-3
    dt = 0.1 * t_coll
    n_steps = int(round(50.0 * t_coll / dt))
    t_end = n_steps * dt
    pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=400, seed=4242))
    samples = sample_positions(g, pos, dirs, 1.0, dt, n_steps)
    vals = decoherence_functional(samples[0::2], samples[1::2], alpha, dt)[:, -1]
    slope = float(vals.mean()) / (alpha * t_end)
    sigma2, _ = area_variance(g, EnsembleSpec(n_samples=100_000, seed=4242))
    rel = abs(slope - 2.0 * sigma2) / (2.0 * sigma2)
    elapsed = time.monotonic() - t0
    ok = rel <= 0.10 and elapsed <= 120.0
    report(8, ok, f"slope={slope:.4f} 2sigma2={2 * sigma2:.4f} "
                  f"rel={rel:.2%} elapsed={elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    """A stochastic command at 1 and 8 threads: byte-identical CSV."""
    doc = {"command": "simulate",
           "geometry": {"shape": "cardioid", "opening_length": 0.2},
           "ensemble": {"seed": 99, "n_samples": 3000},
           "grid": {"t_max": 120.0}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outputs = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / run
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        outputs.append((out / "simulate.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, ok, f"bytes={len(outputs[0])} identical across reruns and threads")


def test_criterion_10_circle_controls():
    """Integrable control: Lyapunov consistent with zero; exact chord map."""
    g = CavityGeometry(shape="circle", scale=1.0, opening_center=0.5,
                       opening_length=0.1)
    res = estimate_lyapunov(g, EnsembleSpec(n_samples=64, seed=31415),
                            t_obs=400.0)
    lyap_ok = abs(res.value) <= 3.0 * res.std_error

    rng = np.random.default_rng(27182)
    pos, mom = [], []
    for _ in range(1000):
        r = math.sqrt(rng.uniform(0, 0.98))
        th = rng.uniform(0, 2 * math.pi)
        pos.append([r * math.cos(th), r * math.sin(th)])
        phi = rng.uniform(0, 2 * math.pi)
        mom.append([math.cos(phi), math.sin(phi)])
    pos, mom = np.array(pos), np.array(mom)
    dist, _, hit, out, _ = batch_collide(g, pos, mom)
    b = np.sum(pos * mom, axis=-1)
    c = np.sum(pos * pos, axis=-1) - 1.0
    t_exact = -b + np.sqrt(b * b - c)
    hit_exact = pos + t_exact[:, None] * mom
    out_exact = mom - 2.0 * np.sum(mom * hit_exact, axis=-1)[:, None] * hit_exact
    worst = max(float(np.max(np.abs(dist - t_exact))),
                float(np.max(np.abs(hit - hit_exact))),
                float(np.max(np.abs(out - out_exact))))
    map_ok = worst <= 1e-12
    ok = lyap_ok and map_ok
    report(10, ok, f"lambda={res.value:.2e}+-{res.std_error:.2e} "
                   f"chord-dev={worst:.2e}")
