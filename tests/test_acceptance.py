"""End-to-end statistical verification of the closed-loop design.

Each test pins one advertised guarantee at its stated tolerance and prints a
single pass/fail line (run with ``pytest -s`` or ``-rA`` to see them on
success).  The 50-run ensemble at the bundled settings is computed once per
session and shared.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from ancsim.config import load_bundled
from ancsim.harness import monte_carlo, run_closed_loop
from ancsim.ineq import (diffusion_energy_margin, max_tanh_absorption_gap,
                         quartic_product_margin, tanh_absorption_gap)
from ancsim.monitor import (convergence_stat, empirical_drift, lambda_K,
                            reference_truth_norms, tail_sups)
from ancsim.plant import preset_section4
from ancsim.rng import derive_stream, wiener_increments
from ancsim.verify import derivative_agreement_check


def _report(name, ok, detail=""):
    print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_tanh_absorption_bound_and_peak():
    t0 = time.time()
    stream = derive_stream(101, 0)
    v = stream.uniform(100_000, -50.0, 50.0)
    eps = stream.uniform(100_000, 1e-6, 10.0)
    gap = tanh_absorption_gap(v, eps)
    violations = int(np.sum((gap < 0.0) | (gap > 0.2785 * eps)))
    peak = max_tanh_absorption_gap(eps=1.0)
    elapsed = time.time() - t0
    _report("tanh-absorption",
            violations == 0 and 0.2776 <= peak <= 0.2785 and elapsed < 1.0,
            f"violations={violations} peak={peak:.6f} elapsed={elapsed:.2f}s")


def test_quartic_young_splits():
    t0 = time.time()
    stream = derive_stream(102, 0)
    a = stream.uniform(100_000, -100.0, 100.0)
    z = stream.uniform(100_000, -5.0, 5.0)
    b = stream.uniform(100_000, -10.0, 10.0)
    v1 = int(np.sum(quartic_product_margin(a, z, b) < -1e-9))
    zz = stream.uniform(100_000, -5.0, 5.0)
    p2 = stream.uniform(100_000, 0.0, 25.0)
    eps = stream.uniform(100_000, 1e-3, 10.0)
    v2 = int(np.sum(diffusion_energy_margin(zz, p2, eps) < -1e-9))
    elapsed = time.time() - t0
    _report("young-splits", v1 == 0 and v2 == 0 and elapsed < 1.0,
            f"violations={v1}+{v2} elapsed={elapsed:.2f}s")


def test_derivative_modes_agree():
    t0 = time.time()
    res = derivative_agreement_check(states=100, rtol_first=1e-4,
                                     rtol_second=1e-2)
    elapsed = time.time() - t0
    _report("derivative-oracle", res.passed and elapsed < 5.0,
            f"{res.detail} elapsed={elapsed:.2f}s")


def test_decay_rate_bookkeeping():
    cfg = load_bundled("section4")
    truth = reference_truth_norms(cfg.plant, cfg.networks)
    bounds = lambda_K(cfg.gains, truth)
    g1 = cfg.gains[0]
    ties = [g1.gamma_eps * g1.sigma_eps,
            g1.sigma_vartheta * 0.3,
            g1.sigma_p * 0.3]
    ok = (bounds.lam[0] == pytest.approx(0.09, abs=1e-15)
          and all(t == pytest.approx(0.09, abs=1e-15) for t in ties)
          and bounds.lam[0] == min(ties))
    _report("decay-rate-constants", ok,
            f"lambda1={bounds.lam[0]:.6f} ties={ties}")


def test_ensemble_regulation(section4_ensemble):
    cfg, report, records, _ = section4_ensemble
    quant = convergence_stat(tail_sups([r for r in records if not r.diverged],
                                       tail_start=15.0))
    worst_est = report.max_estimate_norm
    ok = (quant["median"] < 0.05
          and len(report.diverged) == 0
          and worst_est < 1e3
          and report.exceedance[10.0] == 0.0)
    _report("ensemble-regulation", ok,
            f"median_tail_sup={quant['median']:.2e} diverged={len(report.diverged)} "
            f"max_estimate_norm={worst_est:.2f} "
            f"exceedance_at_10={report.exceedance[10.0]}")


def test_noise_free_regulation():
    cfg = load_bundled("section4")
    cfg.plant = preset_section4(noise_scale=0.0, disturbance_scale=0.0)
    rec = run_closed_loop(cfg, 0)
    final = float(np.linalg.norm(rec.states[-1]))
    _report("noise-free-regulation", (not rec.diverged) and final < 1e-2,
            f"|x(20)|={final:.2e}")


def test_energy_drift_negative_above_residual(section4_ensemble):
    cfg, report, records, _ = section4_ensemble
    ok_records = [r for r in records if not r.diverged]
    times, drift = empirical_drift(ok_records, window=0.5)
    vbar = np.mean([r.diagnostics["Vx"] for r in ok_records], axis=0)
    lo = np.searchsorted(ok_records[0].times, times[0])
    vbar = vbar[lo: lo + len(times)]
    truth = reference_truth_norms(cfg.plant, cfg.networks)
    bounds = lambda_K(cfg.gains, truth)
    level = 10.0 * bounds.residual_bound
    mask = vbar > level
    drift_ok = bool(np.all(drift[mask] < 0.0)) if np.any(mask) else True
    # observed settle level, side by side with the (loose) prediction
    tail_ok = report.tail_mean_Vx <= level
    _report("energy-drift-residual", drift_ok and tail_ok,
            f"samples_above_10K_over_lambda={int(np.sum(mask))} "
            f"level={level:.3g} max_Vx={vbar.max():.3g} "
            f"tail_mean_Vx={report.tail_mean_Vx:.3g} "
            f"(state-only energy; bound is loose)")


def test_rerun_byte_identical(section4_ensemble, tmp_path):
    cfg, report, _, out_dir = section4_ensemble
    second = str(tmp_path / "second")
    report2, _ = monte_carlo(cfg, out_dir=second)
    names = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    identical = all(filecmp.cmp(os.path.join(out_dir, f),
                                os.path.join(second, f), shallow=False)
                    for f in names)
    with open(os.path.join(out_dir, names[0])) as fh:
        rows = sum(1 for _ in fh) - 1          # default decimation keeps 2001
    ok = identical and rows == 2001 \
        and report.csv_digest == report2.csv_digest \
        and report.digest == report2.digest
    _report("rerun-determinism", ok,
            f"files={len(names)} rows={rows} "
            f"digests_equal={report.digest == report2.digest}")


def test_wiener_increment_statistics():
    dt = 1e-3
    path = wiener_increments(derive_stream(103, 0), 2, 1_000_000, dt)
    var = np.var(path, axis=0)
    corr = np.corrcoef(path.T)[0, 1]
    ok = bool(np.all(np.abs(var / dt - 1.0) < 0.05) and abs(corr) < 0.01)
    _report("wiener-statistics", ok,
            f"var/dt={var / dt} |corr|={abs(corr):.5f}")
