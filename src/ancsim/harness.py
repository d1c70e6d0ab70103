"""Closed-loop runs, Monte-Carlo ensembles and file emission.

``run_closed_loop`` drives seeded trajectories in lockstep: the control and
all adaptive rates are evaluated at the current sample, the state advances by
one Euler-Maruyama step and the estimates by one explicit Euler step on the
same grid.  One run steps in unbatched shapes; a batch of runs steps as the
rows of the same arrays, and each row rounds as it would alone, so a run's
result does not depend on the batch it is in.  ``monte_carlo`` steps all of
a sweep's runs as one batch in the calling process (each run owns its
derived stream, so results are identical at any batch size), writes one CSV
per run and a key-value report with a reproducibility digest.
"""

import hashlib
import os
from dataclasses import dataclass
from numbers import Integral
from typing import List, Optional

import numpy as np

from .config import MAX_SWEEP_BYTES, TAIL_FRACTION, ConfigError, ExperimentConfig
from .controller import AdaptiveState, forward_pass
from .monitor import (bounded_in_probability_stat, convergence_stat,
                      empirical_drift, lambda_K, reference_truth_norms,
                      state_energy, tail_sups)
from .plant import diffusion, drift
from .rng import derive_stream, wiener_increments
from .sde import DIVERGENCE_LIMIT, TrajectoryRecord, em_update

__all__ = ["RunReport", "run_closed_loop", "monte_carlo", "summarize", "emit_csv",
           "emit_report", "columns", "csv_header", "csv_path"]

EXCEEDANCE_LEVELS = (0.5, 1.0, 10.0)
_ESTIMATE_KINDS = ("W{}_norm", "eps{}_hat", "p{}_norm", "vartheta{}_norm")


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
    tail_sup_per_run: str = ""           # "run:sup;..." over the runs that did not halt

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
            "tail_sup_per_run": self.tail_sup_per_run,
        }
        for level, frac in sorted(self.exceedance.items()):
            rows[f"exceedance_at_{level}"] = _fmt(frac)
        lines = [f"{k} = {v}" for k, v in rows.items()]
        lines.append(f"digest = {self.digest}")
        return lines


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def columns(n: int) -> List[str]:
    """The columns of a run's sample table and of its CSV: t, x, u, z, alpha,
    the estimate norms (W, eps, p, vartheta, each by step) and Vx."""
    steps = range(1, n + 1)
    return (["t"] + [f"x{i}" for i in steps] + ["u"]
            + [f"z{i}" for i in steps] + [f"alpha{i}" for i in range(1, n)]
            + _estimate_columns(n) + ["Vx"])


def _estimate_columns(n: int) -> List[str]:
    return [kind.format(i) for kind in _ESTIMATE_KINDS for i in range(1, n + 1)]


def csv_header(n: int) -> str:
    return ",".join(columns(n))


def run_closed_loop(config: ExperimentConfig, run_index):
    """Seeded trajectories of the controlled plant over [0, horizon].

    ``run_index`` is one run (an int; returns its record) or a sequence of
    runs, stepped together as the rows of one batch (returns their records in
    that order).  A row halts (its partial record is flagged diverged) when
    any state or estimate magnitude exceeds the divergence limit or is not
    finite, the control is not finite, the controller fails there (singular
    gain, non-finite derivative, an overflowing designer-known function), or
    the plant overflows; see :class:`~ancsim.sde.TrajectoryRecord`.  Only a
    halted row's state is frozen while the others carry on: its estimates
    still take the batch's Euler steps, and none of its later samples is
    kept.  Raises ConfigError, before allocating anything, when the batch's
    increments and sample tables would take more than ``MAX_SWEEP_BYTES``.
    """
    plant = config.plant
    n = plant.n
    steps = int(np.floor(config.horizon / config.dt))
    batched = not isinstance(run_index, Integral)
    count = len(run_index) if batched else 1
    need = 8 * count * (steps * plant.r + (steps + 1) * len(columns(n)))
    if need > MAX_SWEEP_BYTES:
        raise ConfigError([f"runs x horizon: {count} runs of {steps} steps need "
                           f"{need} bytes, over the {MAX_SWEEP_BYTES} byte cap"])
    runs = list(run_index) if batched else [run_index]
    lead = (len(runs),) if batched else ()
    noise = np.empty(lead + (steps, plant.r))
    for block, i in zip(noise.reshape(-1, steps, plant.r), runs):
        block[:] = wiener_increments(derive_stream(config.master_seed, i), plant.r,
                                     steps, config.dt)

    def rows(v):                          # v repeated for every run of the batch
        return np.array(np.broadcast_to(v, lead + np.shape(v)))
    x = rows(config.x0)
    adaptive = config.initial_estimates.with_values(rows(config.initial_estimates.values))

    cols, est_cols = columns(n), _estimate_columns(n)
    table = np.empty(lead + (steps + 1, len(cols)))
    # the magnitude guard reads the state and estimate columns; u need only be finite
    guarded = np.array([j for j, c in enumerate(cols) if c[0] == "x" or c in est_cols])

    live = np.ones(lead, dtype=bool)
    kept = np.zeros(lead, dtype=int)
    halted_at = np.full(lead, -1)
    with np.errstate(all="ignore"):       # non-finite rows are flagged, not warned about
        for k in range(steps + 1):
            t = k * config.dt
            ev = forward_pass(x, adaptive, config.gains, plant,
                              config.networks, mode=config.scratch_mode)
            # a controller failure leaves no control: sample k is not kept
            halted_at = np.where(live & ev.failed, k, halted_at)
            live = live & ~ev.failed
            row = table[..., k, :]
            row[..., 0], row[..., 1:n + 1], row[..., n + 1] = t, x, ev.u
            _fill_diag(row, ev, adaptive, n)
            kept = np.where(live, k + 1, kept)
            bad = ~(np.isfinite(ev.u)
                    & (np.max(np.abs(row[..., guarded]), axis=-1) <= DIVERGENCE_LIMIT))
            halted_at = np.where(live & bad, k, halted_at)
            live = live & ~bad
            if k == steps or not live.any():
                break
            try:
                nxt = em_update(x, drift(plant, x, ev.u, t), diffusion(plant, x),
                                config.dt, noise[..., k, :])
            except OverflowError:        # plant functions that raise instead
                nxt = np.full(x.shape, np.nan)
            # a plant overflow leaves no next state: sample k is the last one
            over = live & ~np.all(np.isfinite(nxt), axis=-1)
            halted_at = np.where(over, k, halted_at)
            live = live & ~over
            x = np.where(live[..., None], nxt, x)
            adaptive = adaptive.euler(ev.rates, config.dt)

    records = [_record(block[:m], cols, n, h) for block, m, h in
               zip(table.reshape((-1,) + table.shape[-2:]), kept.ravel(), halted_at.ravel())]
    return records if batched else records[0]


def _record(rows: np.ndarray, cols: List[str], n: int, halted_at: int) -> TrajectoryRecord:
    """A run's record as column views of its kept table rows."""
    return TrajectoryRecord(rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1],
                            dict(zip(cols[n + 2:], rows[:, n + 2:].T)),
                            diverged=halted_at >= 0,
                            diverged_step=int(halted_at) if halted_at >= 0 else None)


def _fill_diag(row, ev, adaptive: AdaptiveState, n: int):
    """Write one sample's z, alpha, estimate norms and Vx into its table row
    (or a batch's rows)."""
    row[..., n + 2:2 * n + 2] = ev.z
    row[..., 2 * n + 2:3 * n + 1] = ev.alphas
    v = adaptive.values
    vartheta, p, eps, W = zip(*adaptive.layout)     # each kind's slices, step by step
    est = row[..., 3 * n + 1:-1]                    # W, eps, p, vartheta columns, by step
    est[..., n:2 * n] = v[..., list(eps)]
    sq = v * v
    for c, s in zip([*range(n), *range(2 * n, 4 * n)], W + p + vartheta):
        est[..., c] = np.sqrt(sq[..., s].sum(axis=-1))
    row[..., -1] = state_energy(ev.z)


def emit_csv(record: TrajectoryRecord, path: str, n: int, decimation: int = 1):
    """Fixed-column CSV; 17-significant-digit values so parsing round-trips."""
    chans = [record.times, *record.states.T, record.controls,
             *(record.diagnostics[name] for name in columns(n)[n + 2:])]
    line = ",".join(["%.17g"] * len(chans)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_header(n) + "\n")
            for k in range(0, len(record), max(1, decimation)):
                fh.write(line % tuple([ch[k] for ch in chans]))
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


# Kept only because the benchmark's tracer wraps it by name; nothing calls it.
_worker = run_closed_loop


def monte_carlo(config: ExperimentConfig, out_dir: Optional[str] = None,
                jobs: int = 1, full_rate: bool = False):
    """Run the ensemble, write per-run CSVs plus a report; returns
    (report, records).

    All runs step as one batch in this process; a one-run sweep passes its
    index, so it steps in unbatched shapes (a plant written with scalar
    ``math`` functions still runs).  ``jobs`` is accepted and ignored; it is
    kept only because the benchmark passes it.
    """
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    records = (run_closed_loop(config, range(config.runs)) if config.runs > 1
               else [run_closed_loop(config, 0)])

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
    kept = [i for i, r in enumerate(records) if not r.diverged]
    ok = [records[i] for i in kept]
    tail_start = TAIL_FRACTION * config.horizon

    truth = reference_truth_norms(config.plant, config.networks)
    bounds = lambda_K(config.gains, truth)

    sups = tail_sups(ok, tail_start)
    if ok:
        quant = convergence_stat(sups)
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
        tail_sup_per_run=";".join(f"{i}:{_fmt(v)}" for i, v in zip(kept, sups)),
    )
    body = "\n".join(report.as_lines()[:-1])
    report.digest = hashlib.sha256(body.encode()).hexdigest()
    return report


def _max_estimate_channel(record: TrajectoryRecord, n: int) -> float:
    return float(np.max(np.abs([record.diagnostics[name]
                                for name in _estimate_columns(n)])))


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
