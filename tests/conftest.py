import numpy as np
import pytest

from ancsim.config import load_bundled
from ancsim.controller import AdaptiveState, StepEstimates
from ancsim.harness import monte_carlo


@pytest.fixture()
def section4_config():
    # fresh instance per test: several tests tweak horizon/runs in place
    return load_bundled("section4")


@pytest.fixture()
def zero_estimates(section4_config):
    return AdaptiveState([
        StepEstimates(np.zeros(2), np.zeros(1), 0.0, np.zeros(27)),
        StepEstimates(np.zeros(2), np.zeros(2), 0.0, np.zeros(64)),
    ])


@pytest.fixture(scope="session")
def section4_ensemble(tmp_path_factory):
    """The full 50-run ensemble at the bundled settings (shared; expensive)."""
    cfg = load_bundled("section4")
    out = tmp_path_factory.mktemp("ensemble")
    report, records = monte_carlo(cfg, out_dir=str(out))
    return cfg, report, records, str(out)
