"""Closed-loop runs, Monte-Carlo ensembles and file emission.

``run_closed_loop`` drives one seeded trajectory: the control and all
adaptive rates are evaluated at the current sample, the state advances by one
Euler-Maruyama step and the estimates by one explicit Euler step on the same
grid.  ``monte_carlo`` fans runs out over a process pool (each run owns its
derived stream, so results are identical at any worker count), writes one CSV
per run and a key-value report with a reproducibility digest.
"""

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .config import TAIL_FRACTION, ExperimentConfig
from .controller import (AdaptiveState, NonFiniteDerivative, SingularGainError,
                         forward_pass)
from .monitor import (bounded_in_probability_stat, convergence_stat,
                      empirical_drift, lambda_K, reference_truth_norms,
                      state_energy)
from .plant import diffusion, drift
from .rng import derive_stream, wiener_increments
from .sde import DIVERGENCE_LIMIT, TrajectoryRecord, em_update

__all__ = ["RunReport", "run_closed_loop", "monte_carlo", "emit_csv",
           "emit_report", "csv_header", "csv_path"]

EXCEEDANCE_LEVELS = (0.5, 1.0, 10.0)


@dataclass
class RunReport:
    """Ensemble summary: tail statistics, bound constants, digests."""

    runs: int
    diverged: List[int]
    tail_start: float
    tail_quantiles: dict
    exceedance: dict
    lam: np.ndarray
    K: np.ndarray
    lambda_min: float
    K_total: float
    residual_bound: float
    tail_mean_Vx: float
    max_estimate_norm: float
    drift_negative_above_residual: bool
    csv_digest: str
    digest: str = ""
    extra: dict = field(default_factory=dict)

    def as_lines(self) -> List[str]:
        rows = {
            "runs": self.runs,
            "diverged_count": len(self.diverged),
            "diverged_indices": ",".join(map(str, self.diverged)) or "-",
            "tail_start_s": _fmt(self.tail_start),
            "tail_sup_min": _fmt(self.tail_quantiles["min"]),
            "tail_sup_median": _fmt(self.tail_quantiles["median"]),
            "tail_sup_q90": _fmt(self.tail_quantiles["q90"]),
            "tail_sup_max": _fmt(self.tail_quantiles["max"]),
            "lambda_per_step": ",".join(_fmt(v) for v in self.lam),
            "K_per_step": ",".join(_fmt(v) for v in self.K),
            "lambda_min": _fmt(self.lambda_min),
            "K_total": _fmt(self.K_total),
            "residual_bound_K_over_lambda": _fmt(self.residual_bound),
            "tail_mean_Vx": _fmt(self.tail_mean_Vx),
            "max_estimate_norm": _fmt(self.max_estimate_norm),
            "drift_negative_above_residual": self.drift_negative_above_residual,
            "csv_digest": self.csv_digest,
        }
        for k, v in sorted(self.extra.items()):
            rows[k] = v
        for level, frac in sorted(self.exceedance.items()):
            rows[f"exceedance_at_{level}"] = _fmt(frac)
        lines = [f"{k} = {v}" for k, v in rows.items()]
        lines.append(f"digest = {self.digest}")
        return lines


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def csv_header(n: int) -> str:
    return ",".join(["t"] + [f"x{i}" for i in range(1, n + 1)] + ["u"]
                    + _diag_names(n))


def run_closed_loop(config: ExperimentConfig, run_index: int) -> TrajectoryRecord:
    """One seeded trajectory of the controlled plant over [0, horizon].

    Integration halts (and the partial record is flagged diverged) when any
    state or estimate magnitude exceeds the divergence limit, goes non-finite,
    the controller hits a singular gain / non-finite derivative, or the
    controller or the plant overflows (``OverflowError``); see
    :class:`~ancsim.sde.TrajectoryRecord` for which samples a halted run keeps.
    """
    plant = config.plant
    n = plant.n
    steps = int(np.floor(config.horizon / config.dt))
    stream = derive_stream(config.master_seed, run_index)
    path = wiener_increments(stream, plant.r, steps, config.dt)

    x = config.x0.copy()
    adaptive = config.initial_estimates.copy()

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, n))
    controls = np.empty(steps + 1)
    diag = {name: np.empty(steps + 1) for name in _diag_names(n)}

    diverged = False
    diverged_step: Optional[int] = None
    kept = 0
    for k in range(steps + 1):
        t = k * config.dt
        try:
            ev = forward_pass(x, adaptive, config.gains, plant,
                              config.networks, mode=config.scratch_mode)
        except (SingularGainError, NonFiniteDerivative, OverflowError):
            diverged, diverged_step = True, k
            break
        times[k] = t
        states[k] = x
        controls[k] = ev.u
        worst_est = _fill_diag(diag, k, ev, adaptive, n)
        kept = k + 1
        if not np.isfinite(ev.u) or _magnitudes_diverged(x, worst_est):
            diverged, diverged_step = True, k
            break
        if k == steps:
            break
        dw = path.increments[k]
        try:
            x = em_update(x, drift(plant, x, ev.u, t), diffusion(plant, x),
                          config.dt, dw)
        except OverflowError:            # plant functions that call math.exp
            diverged, diverged_step = True, k
            break
        adaptive = adaptive.euler(ev.rates, config.dt)

    return TrajectoryRecord(times[:kept], states[:kept], controls[:kept],
                            {name: ch[:kept] for name, ch in diag.items()},
                            diverged=diverged, diverged_step=diverged_step)


def _magnitudes_diverged(x: np.ndarray, worst_est: float) -> bool:
    worst_x = float(np.max(np.abs(x)))
    if np.isnan(worst_x) or np.isnan(worst_est):
        return True
    return worst_x > DIVERGENCE_LIMIT or worst_est > DIVERGENCE_LIMIT


def _diag_names(n: int) -> List[str]:
    names = [f"z{i}" for i in range(1, n + 1)]
    names += [f"alpha{i}" for i in range(1, n)]
    names += [f"W{i}_norm" for i in range(1, n + 1)]
    names += [f"eps{i}_hat" for i in range(1, n + 1)]
    names += [f"p{i}_norm" for i in range(1, n + 1)]
    names += [f"vartheta{i}_norm" for i in range(1, n + 1)]
    names.append("Vx")
    return names


def _fill_diag(diag, k, ev, adaptive: AdaptiveState, n: int) -> float:
    """Record channels for one sample; returns the worst estimate norm seen."""
    for i in range(n):
        diag[f"z{i + 1}"][k] = ev.z[i]
    for i in range(n - 1):
        diag[f"alpha{i + 1}"][k] = ev.alphas[i]
    worst = 0.0
    for i, est in enumerate(adaptive.steps, start=1):
        wn = float(np.sqrt(est.W_hat @ est.W_hat))
        pn = float(np.sqrt(est.p_hat @ est.p_hat))
        vn = float(np.sqrt(est.vartheta_hat @ est.vartheta_hat))
        diag[f"W{i}_norm"][k] = wn
        diag[f"eps{i}_hat"][k] = est.eps_hat
        diag[f"p{i}_norm"][k] = pn
        diag[f"vartheta{i}_norm"][k] = vn
        worst = max(worst, wn, pn, vn, abs(est.eps_hat))
    diag["Vx"][k] = state_energy(ev.z)
    return worst


def emit_csv(record: TrajectoryRecord, path: str, n: int, decimation: int = 1):
    """Fixed-column CSV; 17-significant-digit values so parsing round-trips."""
    rows = range(0, len(record.times), max(1, decimation))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_header(n) + "\n")
            for k in rows:
                vals = [record.times[k]]
                vals += list(record.states[k])
                vals.append(record.controls[k])
                for name in _diag_names(n):
                    vals.append(record.diagnostics[name][k])
                fh.write(",".join(_fmt(v) for v in vals) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def csv_path(out_dir: str, run_index: int) -> str:
    return os.path.join(out_dir, f"run_{run_index:03d}.csv")


def emit_report(report: RunReport, path: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(report.as_lines()) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# Plants hold closures, which do not pickle; workers therefore receive the
# active config by fork inheritance rather than by argument.
_ACTIVE_CONFIG: Optional[ExperimentConfig] = None


def _worker(idx: int):
    return idx, run_closed_loop(_ACTIVE_CONFIG, idx)


def monte_carlo(config: ExperimentConfig, out_dir: Optional[str] = None,
                jobs: int = 1, full_rate: bool = False):
    """Run the ensemble, write per-run CSVs plus a report; returns
    (report, records).

    Each run derives its own stream from (master_seed, run_index), so the
    results are identical at any worker count.
    """
    global _ACTIVE_CONFIG
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    indices = list(range(config.runs))
    records: List[Optional[TrajectoryRecord]] = [None] * config.runs
    use_pool = (jobs > 1 and config.runs > 1
                and "fork" in multiprocessing.get_all_start_methods())
    if use_pool:
        _ACTIVE_CONFIG = config
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
                for idx, rec in pool.map(_worker, indices):
                    records[idx] = rec
        finally:
            _ACTIVE_CONFIG = None
    else:
        for i in indices:
            records[i] = run_closed_loop(config, i)

    decim = 1 if full_rate else config.csv_decimation
    sha = hashlib.sha256()
    for i, rec in enumerate(records):
        p = csv_path(out_dir, i)
        emit_csv(rec, p, config.n, decim)
        with open(p, "rb") as fh:
            sha.update(fh.read())
    csv_digest = sha.hexdigest()

    report = summarize(config, records, csv_digest)
    emit_report(report, os.path.join(out_dir, "report.txt"))
    return report, records


def summarize(config: ExperimentConfig, records: List[TrajectoryRecord],
              csv_digest: str = "") -> RunReport:
    diverged = [i for i, r in enumerate(records) if r.diverged]
    ok = [r for r in records if not r.diverged]
    tail_start = TAIL_FRACTION * config.horizon

    truth = reference_truth_norms(config.plant, config.networks)
    bounds = lambda_K(config.gains, truth)

    per_run_tail = {}
    if ok:
        quant = convergence_stat(ok, tail_start)
        for i, r in enumerate(records):
            if not r.diverged:
                mask = r.times >= tail_start
                per_run_tail[i] = float(np.max(np.linalg.norm(r.states[mask],
                                                              axis=1)))
        exceed = {lvl: bounded_in_probability_stat(ok, lvl)
                  for lvl in EXCEEDANCE_LEVELS}
        tail_mask = ok[0].times >= tail_start
        tail_mean_vx = float(np.mean([np.mean(r.diagnostics["Vx"][tail_mask])
                                      for r in ok]))
        max_est = max(_max_estimate_channel(r, config.n) for r in ok)
        drift_ok = _drift_negative_above(ok, bounds)
    else:
        quant = {"min": np.nan, "median": np.nan, "q90": np.nan, "max": np.nan}
        exceed = {lvl: np.nan for lvl in EXCEEDANCE_LEVELS}
        tail_mean_vx = np.nan
        max_est = np.nan
        drift_ok = False

    report = RunReport(
        runs=config.runs, diverged=diverged, tail_start=tail_start,
        tail_quantiles=quant, exceedance=exceed,
        lam=bounds.lam, K=bounds.K,
        lambda_min=bounds.lambda_min, K_total=bounds.K_total,
        residual_bound=bounds.residual_bound,
        tail_mean_Vx=tail_mean_vx, max_estimate_norm=max_est,
        drift_negative_above_residual=drift_ok,
        csv_digest=csv_digest,
        extra={"tail_sup_per_run": ";".join(
            f"{i}:{_fmt(v)}" for i, v in sorted(per_run_tail.items()))},
    )
    body = "\n".join(report.as_lines()[:-1])
    report.digest = hashlib.sha256(body.encode()).hexdigest()
    return report


def _max_estimate_channel(record: TrajectoryRecord, n: int) -> float:
    worst = 0.0
    for i in range(1, n + 1):
        for kind in ("W", "p", "vartheta"):
            worst = max(worst, float(np.max(record.diagnostics[f"{kind}{i}_norm"])))
        worst = max(worst, float(np.max(np.abs(record.diagnostics[f"eps{i}_hat"]))))
    return worst


def _drift_negative_above(records: List[TrajectoryRecord],
                          bounds) -> bool:
    """True iff the smoothed energy drift is negative wherever the mean
    energy exceeds ten times the residual bound (state-only energy caveat)."""
    times, drift_series = empirical_drift(records, window=0.5)
    vbar = np.mean([r.diagnostics["Vx"] for r in records], axis=0)
    lo = np.searchsorted(records[0].times, times[0])
    vbar = vbar[lo: lo + len(times)]
    level = 10.0 * bounds.residual_bound
    mask = vbar > level
    return bool(np.all(drift_series[mask] < 0.0)) if np.any(mask) else True
