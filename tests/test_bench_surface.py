"""The traced benchmark wraps program functions by module and name.

``bench/workload.py:install_spans`` patches those names on the real modules;
this test installs every span and removes it again, so it fails as soon as a
change deletes or renames a name the benchmark relies on.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import spans       # noqa: E402  (bench modules are imported from their directory)
import workload    # noqa: E402

from ancsim import controller, harness  # noqa: E402
from ancsim.controller import AdaptiveState  # noqa: E402


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
