"""The traced benchmark wraps program functions by module and name.

``bench/workload.py:install_spans`` patches those names on the real modules;
these tests install every span and remove it again, so they fail as soon as
a change deletes or renames a name the benchmark relies on, and run one
traced controller evaluation, so they fail when the spans or the jet-width
gauge stop reading what they expect of the program.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import spans       # noqa: E402  (bench modules are imported from their directory)
import workload    # noqa: E402
from cascade3 import cascade3  # noqa: E402

from ancsim import controller, harness  # noqa: E402
from ancsim.config import load_bundled  # noqa: E402
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
