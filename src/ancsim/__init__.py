"""Adaptive neural backstepping control of strict-feedback stochastic plants.

Library layout:

* :mod:`ancsim.rng`, :mod:`ancsim.sde` -- deterministic streams, the
  Euler-Maruyama update and the trajectory record;
* :mod:`ancsim.rbf` -- Gaussian radial basis networks;
* :mod:`ancsim.plant` -- truth models and bound envelopes, with presets;
* :mod:`ancsim.controller` -- the backstepping law and adaptive updates;
* :mod:`ancsim.monitor` -- energy/drift diagnostics and bound bookkeeping;
* :mod:`ancsim.config`, :mod:`ancsim.harness`, :mod:`ancsim.cli` -- config
  validation, the closed-loop stepping loop with its divergence guard,
  Monte-Carlo sweeps and file emission.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config
from .controller import AdaptiveState, GainConfig, forward_pass
from .harness import monte_carlo, run_closed_loop
from .monitor import lambda_K, state_energy
from .plant import make_plant, preset_remark, preset_section4
from .rbf import RbfNetwork, make_centers
from .rng import derive_stream, wiener_increments
from .sde import TrajectoryRecord

__all__ = [
    "__version__",
    "ExperimentConfig", "load_config",
    "AdaptiveState", "GainConfig", "forward_pass",
    "monte_carlo", "run_closed_loop",
    "lambda_K", "state_energy",
    "make_plant", "preset_remark", "preset_section4",
    "RbfNetwork", "make_centers",
    "derive_stream", "wiener_increments",
    "TrajectoryRecord",
]
