"""The traced benchmark wraps program functions by module and name.

``bench/workload.py:install_spans`` patches those names on the real modules;
these tests install every span and remove it again, so they fail as soon as
a change deletes or renames a name the benchmark relies on, and run one
traced controller evaluation, so they fail when the spans or the jet-width
gauge stop reading what they expect of the program.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import checks      # noqa: E402  (bench modules are imported from their directory)
import spans       # noqa: E402
import workload    # noqa: E402
from cascade3 import cascade3  # noqa: E402

from ancsim import controller, harness  # noqa: E402
from ancsim.config import ExperimentConfig, load_bundled  # noqa: E402
from ancsim.controller import AdaptiveState, forward_pass  # noqa: E402
from ancsim.rng import derive_stream  # noqa: E402


def test_install_spans_patches_and_restores_the_real_modules(tmp_path):
    owners = (harness, controller, AdaptiveState)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer(str(tmp_path))
    try:
        spans.install_worker_hook(tracer, harness)
        workload.install_spans(tracer)
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert {(harness, "_worker"), (harness, "em_update"),
                (controller, "_scratch_first_level_jets")} <= patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in tracer._patches)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_traced_forward_pass_feeds_the_jet_spans_and_gauge(tmp_path):
    # one section4 controller evaluation under the benchmark's spans: the
    # jet pass is timed once and the width gauge reads the one tagged x_1
    cfg = load_bundled("section4")
    owners = (harness, controller, AdaptiveState)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer(str(tmp_path))
    try:
        workload.install_spans(tracer)
        harness.forward_pass(np.array([0.4, -0.3]), cfg.initial_estimates, cfg.gains,
                             cfg.plant, cfg.networks)
    finally:
        tracer.restore()
    assert tracer.gauges["autodiff.jet_width"] == 1
    assert tracer.stats["controller.jet_pass"].count == 1
    assert tracer.stats["controller.forward_pass"].count == 1
    assert [dict(vars(owner)) for owner in owners] == before


def test_bench_cascade3_is_the_bundled_preset():
    # the benchmark builds its cascade in code; the bundled preset must give
    # the same controller output bit for bit (same centers, same gains)
    plant, nets, gains, est = cascade3()
    cfg = load_bundled("cascade3")
    stream = derive_stream(51, 0)
    for _ in range(5):
        x = stream.uniform(3, -1.0, 1.0)
        ours = forward_pass(x, cfg.initial_estimates, cfg.gains, cfg.plant, cfg.networks)
        theirs = forward_pass(x, est, gains, plant, nets)
        assert ours.u == theirs.u
        assert np.array_equal(ours.z, theirs.z) and np.array_equal(ours.alphas, theirs.alphas)
        for a, b in zip(ours.rates, theirs.rates):
            assert all(np.array_equal(getattr(a, f), getattr(b, f))
                       for f in ("vartheta_hat", "p_hat", "eps_hat", "W_hat"))


def test_sample_columns_are_the_benchmark_csv_columns():
    # the benchmark writes its expected CSV columns out on its own
    for n in (2, 3):
        assert harness.columns(n) == checks.csv_columns(n)


def test_rerun_snapshots_feed_the_scratch_mode_check(tmp_path):
    # the benchmark reruns one run with harness.forward_pass wrapped, keeps
    # the (x, estimates) of the requested steps and compares the scratch
    # modes there; with no snapshots that check would pass vacuously
    for name in ("section4", "cascade3"):
        cfg = load_bundled(name)
        cfg.horizon = 12 * cfg.dt
        keep = {0, 4, 11}
        snapshots = checks._rerun(cfg, 0, str(tmp_path / f"{name}.csv"), 1, keep)
        assert len(snapshots) == len(keep)
        assert all(x.shape == (cfg.n,) for x, _ in snapshots)
        log = checks.CheckLog()
        checks._check_scratch_modes(log, cfg, snapshots)
        assert not log.problems and log.passed == len(keep) * (cfg.n - 1)


def test_traced_round_counts_the_spans_it_divides_by(tmp_path):
    # --trace 1 divides by the call counts of these spans
    cfg = load_bundled("section4")
    cfg.horizon, cfg.runs = 0.01, 3
    owners = (harness, controller, AdaptiveState)
    before = [dict(vars(owner)) for owner in owners]
    os.makedirs(tmp_path / "trace")
    tracer = spans.Tracer(str(tmp_path / "trace"))
    try:
        workload.install_spans(tracer)
        harness.monte_carlo(cfg, out_dir=str(tmp_path / "out"), jobs=1)
    finally:
        tracer.restore()
    for name in ("harness.run", "controller.forward_pass", "monitor.truth_norms"):
        assert tracer.stats[name].count >= 1, name
    assert [dict(vars(owner)) for owner in owners] == before


def test_one_run_sweep_keeps_unbatched_shapes(tmp_path):
    # cascade3-deep is a one-run sweep of the benchmark's own cascade, whose
    # plant calls math.sin and math.cos: that only works on lone values
    plant, nets, gains, est = cascade3()
    cfg = ExperimentConfig(plant=plant, x0=np.array([0.2, -0.1, 0.3]), horizon=0.1,
                           dt=0.01, master_seed=7, runs=1, gains=gains,
                           networks=nets, initial_estimates=est,
                           output_dir=str(tmp_path))
    _, records = harness.monte_carlo(cfg)
    alone = harness.run_closed_loop(cfg, 0)
    assert len(records) == 1 and len(alone) == 11 and not alone.diverged
    rec = records[0]
    assert (rec.diverged, rec.diverged_step) == (alone.diverged, alone.diverged_step)
    for a, b in [(rec.times, alone.times), (rec.states, alone.states),
                 (rec.controls, alone.controls)] + \
            [(rec.diagnostics[k], alone.diagnostics[k]) for k in alone.diagnostics]:
        assert a.shape == b.shape and np.array_equal(a, b)
