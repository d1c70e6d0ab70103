"""Closed-loop simulation benchmark for ancsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``setup_s``, ``wall_s``, ``steps_per_s``,
``peak_rss_mb``); with ``--trace 1`` it holds the per-layer metrics instead.
Lines before it give the environment fingerprint and every metric with its
unit.  README.md describes the workloads, the metrics and the checks.

This process imports nothing from the program.  It starts each set-up probe
and the workload in a process group of its own, and stops the group (and
waits for it) on return, on timeout, on failure and on SIGINT or SIGTERM.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TRACE_DIR = BENCH_DIR / "trace"
WORKLOADS = ("s4-ensemble", "s4-serial-fullrate", "cascade3-deep")
SETUP_PROBES = 9
DEADLINE_S = 170.0          # every run returns within 180 s
PROBE_TIMEOUT_S = 30.0
GRACE_S = 5.0


def _stop_group(proc):
    """Terminate ``proc``'s process group, kill it after a grace period, and wait."""
    try:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.wait(GRACE_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # pool workers of a child that died abnormally are still in its group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + GRACE_S
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args, timeout, capture=False):
    """Run ``workload.py args`` in its own process group; returns (code, stdout)."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"error: {' '.join(args[:2])} timed out after {timeout:.0f} s", file=sys.stderr)
        return None, None
    finally:
        _stop_group(proc)
    return proc.returncode, out


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description="ancsim closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ancsim" / "__init__.py").is_file():
        print(f"error: no ancsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _sigterm)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, out = run_child(common + ["--setup-probe"], PROBE_TIMEOUT_S, capture=True)
            if code != 0:
                print("error: set-up probe failed", file=sys.stderr)
                return 1
            setup.append(float(out.decode().strip().splitlines()[-1]))

    shutil.rmtree(OUT_DIR / args.workload, ignore_errors=True)
    shutil.rmtree(TRACE_DIR / args.workload, ignore_errors=True)
    result_path = OUT_DIR / f"{args.workload}.result.json"
    result_path.unlink(missing_ok=True)
    code, _ = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--result", str(result_path)],
                        deadline - time.monotonic())
    if code != 0 or not result_path.is_file():
        print(f"error: workload {args.workload} failed (exit {code})", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    env = res["env"]
    print(f"env: python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']}")
    print(f"workload: {res['workload']} seed={res['seed']} jobs={res['jobs']} "
          f"rounds={res['rounds']} runs/round={res['runs_per_round']} "
          f"steps/round={res['steps_per_round']}")
    print(f"operations: attempted={res['attempted']} failed={res['failed']} "
          f"correct={res['correct']} checks_passed={res['checks_passed']}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
