"""Command-line entry points.

Exit codes: 0 success (``-h`` included), 1 configuration or usage error,
2 divergence quota exceeded, 3 verification failure.
"""

import argparse
import os
import sys

from .config import ConfigError, bundled_preset_names, bundled_preset_text, load_config
from .harness import csv_path, emit_csv, monte_carlo, run_closed_loop
from .verify import run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3


def _load(args):
    cfg = load_config(args.config)
    violations = []
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            violations.append(f"--seed: must be >= 0, got {args.seed}")
        cfg.master_seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.output_dir = args.out
    if getattr(args, "runs", None) is not None:
        if args.runs < 1:
            violations.append(f"--runs: must be >= 1, got {args.runs}")
        cfg.runs = args.runs
    if getattr(args, "run_index", 0) < 0:
        violations.append(f"--run-index: must be >= 0, got {args.run_index}")
    if violations:
        raise ConfigError(violations)
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    rec = run_closed_loop(cfg, args.run_index)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = csv_path(cfg.output_dir, args.run_index)
    emit_csv(rec, path, cfg.n, 1 if args.full_rate else cfg.csv_decimation)
    print(f"run {args.run_index}: {len(rec)} samples -> {path}")
    if len(rec):
        print(f"final state: {rec.states[-1]}")
    if rec.diverged:
        if rec.diverged_step < len(rec):
            why = "the divergence guard tripped; that sample is the last one kept"
        else:
            why = "the controller failed; no sample was kept for that step"
        print(f"DIVERGED at step {rec.diverged_step}: {why}")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    report, _ = monte_carlo(cfg, full_rate=args.full_rate)
    for line in report.as_lines():
        print(line)
    if len(report.diverged) > 0.1 * cfg.runs:
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(quick=args.quick)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_presets(args) -> int:
    if args.name:
        print(bundled_preset_text(args.name), end="")
    else:
        for name in bundled_preset_names():
            print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ancsim",
                                description="Adaptive neural backstepping "
                                            "simulation harness")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one closed-loop trajectory")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="master seed override")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--run-index", type=int, default=0)
    run.add_argument("--full-rate", action="store_true",
                     help="write every integration step to the CSV")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="Monte-Carlo ensemble")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--runs", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--full-rate", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the property suites")
    ver.add_argument("--quick", action="store_true")
    ver.set_defaults(func=cmd_verify)

    pre = sub.add_parser("presets", help="list or print bundled configs")
    pre.add_argument("name", nargs="?", default=None)
    pre.set_defaults(func=cmd_presets)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:        # argparse exits 0 after -h and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:           # unreadable config, unwritable output
        print(exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
