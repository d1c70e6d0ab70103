"""Euler-Maruyama integration of Ito SDEs  dx = drift(x,t) dt + diffusion(x,t) dW.

The closed-loop driver (:func:`ancsim.harness.run_closed_loop`) owns the only
stepping loop and divergence guard; this module holds the update it applies
and the record it fills.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["TrajectoryRecord", "DIVERGENCE_LIMIT", "em_update"]

# Any state or estimate magnitude beyond this (or non-finite) tags the run as
# diverged and halts integration.
DIVERGENCE_LIMIT = 1e6


@dataclass
class TrajectoryRecord:
    """Time-indexed states plus named diagnostic channels for one seeded run.

    All channels have equal length.  A closed-loop run fills them as column
    views of one sample table, whose columns are
    :func:`ancsim.harness.columns`.  ``diverged`` flags a run that halted
    early, and ``diverged_step`` is the step index k at which it halted:

    * the guard (a state or an estimate norm beyond ``DIVERGENCE_LIMIT`` or
      not finite, NaN included, or a non-finite control) keeps sample k, so
      ``diverged_step == len(record) - 1``; so does an ``OverflowError`` in
      the plant's drift or diffusion at sample k, which leaves no next state;
    * a controller error at step k (singular gain, non-finite derivative,
      ``OverflowError``) leaves no control for that step, so sample k is not
      kept and ``diverged_step == len(record)``.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    diverged: bool = False
    diverged_step: Optional[int] = None

    def __len__(self) -> int:
        return len(self.times)


def em_update(x: np.ndarray, drift_vec: np.ndarray, diffusion_mat: np.ndarray,
              dt: float, dW: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama update: x + drift*dt + diffusion @ dW."""
    return x + drift_vec * dt + diffusion_mat @ dW
