"""One benchmark workload, in a process of its own.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH
    python3 bench/workload.py --workload NAME --seed N --setup-probe

A round is one call of ``ancsim.harness.monte_carlo`` on the workload's
config: every run of the ensemble, its CSVs and its report.  The process
repeats whole rounds for ``--seconds`` and reports the median round; every
round runs the same operations, so the share of failed runs does not depend
on the run length.  Set-up (import of the program plus config and network
construction) is timed by ``--setup-probe`` in fresh processes started by
``run.py``.

With ``--trace 1`` untraced and traced rounds alternate (see ``spans.py``);
the per-layer numbers come from the traced rounds and the tracing overhead is
the difference of the two medians.  The output checks (``checks.py``) run
after the timed region on the last round's output.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"         # CSVs, reports and the result file
TRACE_DIR = BENCH_DIR / "trace"     # per-worker span and memory files

# Why each workload exists is in README.md.  Horizons are short so that a
# run of the benchmark measures several rounds; the paper's 20 s horizon is
# not kept, so its tail-sup acceptance threshold is not checked.
WORKLOADS = {
    "s4-ensemble": {"plant": "section4", "runs": 8, "horizon": 1.0,
                    "pooled": True, "full_rate": False, "snapshots": 5},
    "s4-serial-fullrate": {"plant": "section4", "runs": 16, "horizon": 0.25,
                           "pooled": False, "full_rate": True, "snapshots": 5},
    "cascade3-deep": {"plant": "cascade3", "runs": 1, "horizon": 3.0, "dt": 0.01,
                      "pooled": False, "full_rate": False, "snapshots": 3},
}
MAX_JOBS = 2
CONFIG_BUILDS = 5           # traced run: config.load_s is the median of these


def build_config(name, seed):
    """The workload's config; every input derives from ``seed``."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    master_seed = rng.randrange(1, 2 ** 31)
    if spec["plant"] == "section4":
        from ancsim.config import bundled_preset_text, parse_config
        data = json.loads(bundled_preset_text("section4"))
        data.update(horizon=spec["horizon"], runs=spec["runs"], master_seed=master_seed)
        return parse_config(data)
    import numpy as np
    from ancsim.config import ExperimentConfig
    from cascade3 import cascade3
    plant, nets, gains, est = cascade3()
    x0 = [rng.uniform(0.1, 0.3) * rng.choice((-1.0, 1.0)) for _ in range(plant.n)]
    return ExperimentConfig(plant=plant, x0=np.array(x0), horizon=spec["horizon"],
                            dt=spec["dt"], master_seed=master_seed, runs=spec["runs"],
                            gains=gains, networks=nets, initial_estimates=est,
                            output_dir="out")


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import ancsim
    if Path(ancsim.__file__).resolve().parent != ROOT / "src" / "ancsim":
        raise ImportError(f"ancsim imported from {ancsim.__file__}, not from this checkout")


def one_round(cfg, spec, jobs, out_dir, tracer):
    """One timed call of ``monte_carlo``; returns (round figures, its result)."""
    from ancsim.harness import monte_carlo
    tracer.marks.clear()
    t0 = time.perf_counter()
    result = monte_carlo(cfg, out_dir=out_dir, jobs=jobs, full_rate=spec["full_rate"])
    wall = time.perf_counter() - t0
    report, records = result
    workers_kb = tracer.collect_workers()
    marks = tracer.marks
    return {
        "wall_s": wall,
        "steps": sum(len(r) - 1 for r in records),
        "csv_digest": report.csv_digest,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(workers_kb),
        "run_phase_s": marks.get("harness.emit_csv", t0) - t0,
        "csv_phase_s": marks.get("harness.summarize", t0) - marks.get("harness.emit_csv", t0),
    }, result


def measure(cfg, spec, jobs, out_dir, budget, tracer, traced):
    """Whole rounds until the next would overrun ``budget`` seconds (at least one).

    With ``traced``, untraced and traced rounds alternate, so that a drift in
    the machine's speed does not pass for tracing overhead.  Returns the
    untraced rounds, the traced rounds and the last round's result.
    """
    plain, spanned = [], []
    started = time.perf_counter()
    while True:
        last = None                      # free the previous round's records first
        figures, last = one_round(cfg, spec, jobs, out_dir, tracer)
        plain.append(figures)
        cycle = statistics.median(r["wall_s"] for r in plain)
        if traced:
            mark = tracer.checkpoint()
            install_spans(tracer)
            last = None
            try:
                figures, last = one_round(cfg, spec, jobs, out_dir, tracer)
            finally:
                tracer.restore(mark)
            spanned.append(figures)
            cycle += statistics.median(r["wall_s"] for r in spanned)
        if time.perf_counter() - started + cycle > budget:
            return plain, spanned, last


def install_spans(tracer):
    from ancsim import controller, harness
    from ancsim.controller import AdaptiveState
    tracer.patch(harness, "run_closed_loop", "harness.run", keep_samples=True)
    tracer.patch(harness, "derive_stream", "rng.wiener")
    tracer.patch(harness, "wiener_increments", "rng.wiener")
    tracer.patch(harness, "forward_pass", "controller.forward_pass")
    tracer.patch(harness, "drift", "plant.drift")
    tracer.patch(harness, "diffusion", "plant.diffusion")
    tracer.patch(harness, "em_update", "sde.em_update")
    tracer.patch(harness, "_fill_diag", "harness.fill_diag")
    tracer.patch(AdaptiveState, "euler", "controller.euler")
    tracer.patch(harness, "emit_csv", "harness.emit_csv")
    tracer.patch(harness, "summarize", "harness.summarize")
    tracer.patch(harness, "reference_truth_norms", "monitor.truth_norms")
    # the level-1 jet pass is part of the scratch; both spans wrap it
    tracer.patch(controller, "_scratch_first_level_jets", "controller.jet_pass")
    tracer.patch(controller, "_scratch_first_level_jets", "controller.scratch")
    tracer.patch(controller, "compute_scratch", "controller.scratch")
    tracer.patch(controller, "_chain_alpha_value", "controller.chain_eval")
    tracer.patch(controller, "adaptive_rates", "controller.adaptive_rates")
    tracer.patch(controller, "basis_components", "rbf.basis")
    tracer.patch_width(controller, "variable", "autodiff.jet_width")
    tracer.patch_width(controller, "variable_block", "autodiff.jet_width")


def layer_metrics(tracer, traced, untraced, config_build_s):
    stats = tracer.stats
    steps = sum(r["steps"] for r in traced)
    runs = stats["harness.run"].count

    def total(name):
        return stats[name].total if name in stats else 0.0

    def per_step_us(name):
        return 1e6 * total(name) / steps

    def med(key, rounds):
        return statistics.median(r[key] for r in rounds)

    rows = sum(r["csv_rows"] for r in traced)
    m = {
        "config.load_s": (config_build_s, "s"),
        "controller.forward_pass_us": (per_step_us("controller.forward_pass"), "us"),
        "controller.scratch_us": (per_step_us("controller.scratch"), "us"),
        "controller.adaptive_rates_us": (per_step_us("controller.adaptive_rates"), "us"),
        "controller.jet_pass_us": (per_step_us("controller.jet_pass"), "us"),
        "autodiff.jet_width": (tracer.gauges.get("autodiff.jet_width", 0), "count"),
        "controller.chain_evals_per_step": (   # per controller evaluation
            stats["controller.chain_eval"].count / stats["controller.forward_pass"].count,
            "count"),
        "rbf.basis_us": (per_step_us("rbf.basis"), "us"),
        "plant.drift_us": (per_step_us("plant.drift"), "us"),
        "plant.diffusion_us": (per_step_us("plant.diffusion"), "us"),
        "sde.em_update_us": (per_step_us("sde.em_update"), "us"),
        "controller.euler_us": (per_step_us("controller.euler"), "us"),
        "harness.fill_diag_us": (per_step_us("harness.fill_diag"), "us"),
        "harness.loop_self_us": (1e6 * stats["harness.run"].self_time / steps, "us"),
        "rng.wiener_ms_per_run": (1e3 * total("rng.wiener") / runs, "ms"),
        "harness.run_s": (statistics.median(stats["harness.run"].samples), "s"),
        "harness.emit_csv_us_per_row": (1e6 * total("harness.emit_csv") / rows, "us"),
        "harness.csv_mb": (med("csv_bytes", traced) / 1e6, "MB"),
        "harness.csv_phase_s": (med("csv_phase_s", traced), "s"),
        "harness.records_mb": (med("records_bytes", traced) / 1e6, "MB"),
        "harness.run_phase_s": (med("run_phase_s", traced), "s"),
        "monitor.summarize_s": (total("harness.summarize") / len(traced), "s"),
        "monitor.truth_norms_ms": (
            1e3 * total("monitor.truth_norms") / stats["monitor.truth_norms"].count, "ms"),
        "trace.overhead_s": (med("wall_s", traced) - med("wall_s", untraced), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def output_sizes(out_dir, records):
    """CSV rows and bytes in ``out_dir`` and the bytes the records hold."""
    csv_rows = csv_bytes = 0
    for f in os.listdir(out_dir):
        if f.endswith(".csv"):
            with open(os.path.join(out_dir, f), "rb") as fh:
                data = fh.read()
            csv_rows += data.count(b"\n") - 1
            csv_bytes += len(data)
    rec_bytes = 0
    for r in records:
        arrays = [r.times, r.states, r.controls, *r.diagnostics.values()]
        rec_bytes += sum(a.nbytes for a in arrays)
    return {"csv_rows": csv_rows, "csv_bytes": csv_bytes, "records_bytes": rec_bytes}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_program()
    cfg = build_config(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter() - t0))
        return 0

    import numpy
    import scipy
    from ancsim import harness
    import checks
    from spans import Tracer, install_worker_hook

    spec = WORKLOADS[args.workload]
    out_dir = str(OUT_DIR / args.workload)
    trace_dir = str(TRACE_DIR / args.workload)
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    jobs = min(MAX_JOBS, nproc) if spec["pooled"] else 1

    tracer = Tracer(trace_dir)
    install_worker_hook(tracer, harness)
    try:
        builds = []
        if args.trace:
            for _ in range(CONFIG_BUILDS):
                b0 = time.perf_counter()
                build_config(args.workload, args.seed)
                builds.append(time.perf_counter() - b0)
        untraced, traced, last = measure(cfg, spec, jobs, out_dir, args.seconds, tracer,
                                         bool(args.trace))
        rounds = untraced + traced
        if traced:
            sizes = output_sizes(out_dir, last[1])
            for r in traced:          # rounds are identical: sizes measured once
                r.update(sizes)
    finally:
        tracer.restore()

    decimation = 1 if spec["full_rate"] else cfg.csv_decimation
    log = checks.check_ensemble(cfg, spec["plant"], last[1], out_dir, decimation,
                                spec["snapshots"])
    if len({r["csv_digest"] for r in rounds}) != 1:
        log.ensemble(False, "rounds wrote different CSVs")

    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced, statistics.median(builds))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "steps_per_s": {"value": statistics.median(r["steps"] / r["wall_s"] for r in rounds),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": max(r["rss_kb"] for r in rounds) / 1024.0, "unit": "MB"},
        }
    result = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "runs_per_round": cfg.runs, "steps_per_round": rounds[0]["steps"], "jobs": jobs,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "attempted": len(rounds) * cfg.runs,
        "failed": len(rounds) * len(log.run_problems),
        "correct": not log.problems,
        "checks_passed": log.passed,
        "problems": log.problems + [m for ms in log.run_problems.values() for m in ms],
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": nproc},
        "metrics": metrics,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
