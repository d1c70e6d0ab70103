"""Output checks computed apart from the program, run after the timed region.

Each closed-loop run is checked on its own; a run that fails any of these
counts as a failed operation:

* it did not diverge;
* its CSV has the documented columns and ``floor(H/dt)`` steps' worth of rows
  (after decimation), its ``t`` column is ``k*dt``, and its values are the
  in-memory record's values to the last bit (17 significant digits);
* ``z1 = x1``, ``z_{i+1} = x_{i+1} - alpha_i`` and ``Vx = sum z^4 / 4``
  recomputed from the CSV columns;
* every Euler-Maruyama step, recomputed from the plant formulas written out
  below and Wiener increments regenerated from the documented pipeline
  (Philox4x64 keyed by ``SeedSequence(master_seed, spawn_key=(run,))``,
  ``((w >> 11) + 0.5) * 2^-53``, ``ndtri``, times ``sqrt(dt)``), without
  ``ancsim.rng``.

Ensemble checks make the result incorrect when they fail: ``csv_digest`` and
the report digest recomputed from the files, one run rerun at ``jobs=1``
reproducing its CSV byte for byte, dual against numeric derivatives at states
and estimates visited by that rerun (at the tolerances of the test suite), and
the method's properties (no divergence, ``exceedance_at_10 = 0``, estimate
norms below 1e3, negative energy drift above the residual level, and on the
cascade ``|x(T)| < 0.5 |x0|``).
"""

import filecmp
import hashlib
import math
import os

import numpy as np
from numpy.random import Philox, SeedSequence
from scipy.special import ndtri

__all__ = ["CheckLog", "check_ensemble"]

EM_RTOL = 1e-14            # Euler-Maruyama recomputation, summation order may differ
ALPHA_RTOL = 1e-9          # z_{i+1} vs x_{i+1} - alpha_i (alphas are re-evaluated at depth)
VX_RTOL = 1e-12
# dual vs numeric scratch: level 1 as in verify.derivative_agreement_check,
# level 2 as in test_third_order_forward_pass_and_scratch_consistency
LEVEL1_RTOL_FIRST, LEVEL1_RTOL_SECOND = 1e-4, 1e-2
LEVEL2_GRAD_TOL, LEVEL2_HESS_TOL = (1e-4, 1e-6), (5e-2, 1e-3)


class CheckLog:
    def __init__(self):
        self.passed = 0
        self.run_problems = {}     # run index -> messages
        self.problems = []         # ensemble-level messages

    def run(self, idx, ok, message):
        if ok:
            self.passed += 1
        else:
            self.run_problems.setdefault(idx, []).append(message)

    def ensemble(self, ok, message):
        if ok:
            self.passed += 1
        else:
            self.problems.append(message)


# -- the plants, written out ------------------------------------------------

def _section4_drift(x, u, t):
    # bundled preset: noise_scale = disturbance_scale = 1, theta* = (0, 0.02)
    x1, x2 = x
    return (x2 + x1 * math.sin(x1) + 0.5 * x1 * math.sin(x2 * t),
            (1.0 + 0.5 * math.sin(x1)) * u + 0.02 * x2 + x2 * math.cos(x2))


def _section4_diffusion(x):
    x1, x2 = x
    return (x1 * math.cos(x1), math.sin(x2))


def _cascade3_drift(x, u, t):
    x1, x2, x3 = x
    return (x2 + 0.2 * math.sin(x1), x3 + 0.1 * x2 * math.cos(x1), u + 0.1 * x3)


def _cascade3_diffusion(x):
    return (0.0, 0.0, 0.0)


PLANT_FORMULAS = {"section4": (_section4_drift, _section4_diffusion),
                  "cascade3": (_cascade3_drift, _cascade3_diffusion)}


def wiener_increments(master_seed, run_index, steps, r, dt):
    words = Philox(SeedSequence(master_seed, spawn_key=(run_index,))).random_raw(steps * r)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u).reshape(steps, r) * math.sqrt(dt)


def csv_columns(n):
    cols = ["t"] + [f"x{i}" for i in range(1, n + 1)] + ["u"]
    cols += [f"z{i}" for i in range(1, n + 1)]
    cols += [f"alpha{i}" for i in range(1, n)]
    for kind in ("W{}_norm", "eps{}_hat", "p{}_norm", "vartheta{}_norm"):
        cols += [kind.format(i) for i in range(1, n + 1)]
    return cols + ["Vx"]


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# -- per-run checks -----------------------------------------------------------

def _check_csv(log, idx, rec, path, cfg, decimation):
    n = cfg.plant.n
    names = csv_columns(n)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    log.run(idx, lines[0] == ",".join(names), f"run {idx}: CSV header {lines[0]!r}")
    kept = range(0, math.floor(cfg.horizon / cfg.dt) + 1, decimation)
    fields = [line.split(",") for line in lines[1:]]
    ok = len(fields) == len(kept) and all(len(f) == len(names) for f in fields)
    log.run(idx, ok, f"run {idx}: {len(fields)} CSV rows, expected {len(kept)} "
                     f"rows of {len(names)} fields")
    if not ok:
        return
    rows = np.array([[float(v) for v in f] for f in fields])
    ks = np.asarray(kept)
    log.run(idx, np.array_equal(rows[:, 0], ks * cfg.dt), f"run {idx}: t != k*dt")
    mem = np.column_stack([rec.times[ks], rec.states[ks], rec.controls[ks]]
                          + [rec.diagnostics[c][ks] for c in names[n + 2:]])
    log.run(idx, np.array_equal(rows, mem), f"run {idx}: CSV values differ from the record")

    col = {name: rows[:, j] for j, name in enumerate(names)}
    log.run(idx, np.array_equal(col["z1"], col["x1"]), f"run {idx}: z1 != x1")
    for i in range(1, n):
        z, x, a = col[f"z{i + 1}"], col[f"x{i + 1}"], col[f"alpha{i}"]
        ok = all(_close(zk, xk - ak, ALPHA_RTOL, ALPHA_RTOL) for zk, xk, ak in zip(z, x, a))
        log.run(idx, ok, f"run {idx}: z{i + 1} != x{i + 1} - alpha{i}")
    vx = [sum(row[j] ** 4 for j in range(n)) / 4.0
          for row in zip(*(col[f"z{i}"] for i in range(1, n + 1)))]
    ok = all(_close(a, b, VX_RTOL, 1e-300) for a, b in zip(vx, col["Vx"]))
    log.run(idx, ok, f"run {idx}: Vx != sum z^4/4")


def _check_em_steps(log, idx, rec, cfg, plant_name):
    drift, diffusion = PLANT_FORMULAS[plant_name]
    steps = len(rec) - 1
    dw = wiener_increments(cfg.master_seed, idx, steps, cfg.plant.r, cfg.dt)[:, 0]
    dt = cfg.dt
    worst = 0.0
    for k in range(steps):
        x = rec.states[k]
        f = drift(x, rec.controls[k], rec.times[k])
        s = diffusion(x)
        for i in range(len(x)):
            want = x[i] + f[i] * dt + s[i] * dw[k]
            got = rec.states[k + 1, i]
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    log.run(idx, worst <= EM_RTOL,
            f"run {idx}: Euler-Maruyama step off by {worst:.3e} (relative)")


# -- ensemble checks ----------------------------------------------------------

def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    fields = dict(line.split(" = ", 1) for line in lines)
    return lines, fields


def _rel(a, b):
    a, b = np.atleast_1d(np.asarray(a, float)), np.atleast_1d(np.asarray(b, float))
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0))


def _check_scratch_modes(log, cfg, snapshots):
    from ancsim.controller import compute_scratch
    for x, adaptive in snapshots:
        for i in range(2, cfg.plant.n + 1):
            dual, num = (compute_scratch(i, x, adaptive, cfg.gains, cfg.plant,
                                         cfg.networks, mode=mode)
                         for mode in ("dual", "numeric"))
            if i == 2:
                first = max([_rel(dual.grad_x, num.grad_x), _rel(dual.d_eps[0], num.d_eps[0])]
                            + [_rel(getattr(dual, a)[0], getattr(num, a)[0])
                               for a in ("d_vartheta", "d_p", "d_W")])
                second = _rel(dual.hess_x, num.hess_x)
                ok = first < LEVEL1_RTOL_FIRST and second < LEVEL1_RTOL_SECOND
                detail = f"first={first:.2e} second={second:.2e}"
            else:
                ok = (np.allclose(dual.grad_x, num.grad_x, *LEVEL2_GRAD_TOL)
                      and np.allclose(dual.hess_x, num.hess_x, *LEVEL2_HESS_TOL))
                detail = f"grad={dual.grad_x} vs {num.grad_x}"
            log.ensemble(ok, f"scratch {i}: dual and numeric disagree at x={x}: {detail}")


def _rerun(cfg, idx, path, decimation, keep_steps):
    """Rerun one run serially, writing its CSV and capturing visited (x, estimates)."""
    from ancsim import harness
    original = harness.forward_pass
    snapshots, calls = [], [0]

    def capturing(x, adaptive, *args, **kwargs):
        if calls[0] in keep_steps:
            snapshots.append((np.array(x, dtype=float), adaptive.copy()))
        calls[0] += 1
        return original(x, adaptive, *args, **kwargs)

    harness.forward_pass = capturing
    try:
        rec = harness.run_closed_loop(cfg, idx)
    finally:
        harness.forward_pass = original
    harness.emit_csv(rec, path, cfg.plant.n, decimation)
    return snapshots


def check_ensemble(cfg, plant_name, records, out_dir, decimation, snapshot_count):
    """Run every check on the last round's output; returns a CheckLog."""
    log = CheckLog()
    paths = [os.path.join(out_dir, f"run_{i:03d}.csv") for i in range(cfg.runs)]
    for idx, rec in enumerate(records):
        log.run(idx, not rec.diverged, f"run {idx}: diverged at step {rec.diverged_step}")
        _check_csv(log, idx, rec, paths[idx], cfg, decimation)
        _check_em_steps(log, idx, rec, cfg, plant_name)

    sha = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            sha.update(fh.read())
    lines, fields = _read_report(os.path.join(out_dir, "report.txt"))
    log.ensemble(fields.get("csv_digest") == sha.hexdigest(), "report csv_digest != sha256 of the CSVs")
    body_sha = hashlib.sha256("\n".join(lines[:-1]).encode()).hexdigest()
    log.ensemble(fields.get("digest") == body_sha, "report digest != sha256 of the report body")
    log.ensemble(fields.get("diverged_count") == "0", "report counts diverged runs")
    log.ensemble(float(fields.get("exceedance_at_10.0", "nan")) == 0.0, "exceedance_at_10 != 0")
    log.ensemble(float(fields.get("max_estimate_norm", "nan")) < 1e3, "estimate norm >= 1e3")
    log.ensemble(fields.get("drift_negative_above_residual") == "True",
                 "energy drift not negative above the residual level")
    if plant_name == "cascade3":
        for idx, rec in enumerate(records):
            shrink = np.linalg.norm(rec.states[-1]) / np.linalg.norm(rec.states[0])
            log.ensemble(shrink < 0.5, f"run {idx}: |x(T)|/|x0| = {shrink:.3f} >= 0.5")

    idx = cfg.runs - 1
    rerun_dir = os.path.join(out_dir, "rerun")
    os.makedirs(rerun_dir, exist_ok=True)
    rerun_path = os.path.join(rerun_dir, os.path.basename(paths[idx]))
    steps = math.floor(cfg.horizon / cfg.dt)
    keep = {round(steps * j / max(1, snapshot_count - 1)) for j in range(snapshot_count)}
    snapshots = _rerun(cfg, idx, rerun_path, decimation, keep)
    log.ensemble(filecmp.cmp(paths[idx], rerun_path, shallow=False),
                 f"run {idx} rerun at jobs=1 is not byte-identical")
    _check_scratch_modes(log, cfg, snapshots)
    return log
