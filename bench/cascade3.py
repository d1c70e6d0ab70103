"""The noise-free third-order cascade used by the ``cascade3-deep`` workload.

A copy of ``cascade3()`` from ``tests/test_controller.py``: plant, networks,
gains and initial estimates.  It is kept here so the benchmark needs nothing
from ``tests/``; once the plant moves into ``src/`` both can import it from
there.
"""

import math

import numpy as np

from ancsim.controller import AdaptiveState, GainConfig, StepEstimates, StepGains
from ancsim.plant import StrictFeedbackPlant
from ancsim.rbf import CenterLayout, RbfNetwork, make_centers

__all__ = ["cascade3"]


def cascade3():
    plant = StrictFeedbackPlant(
        name="cascade3", n=3, r=1, q=1,
        g=[lambda xb: 1.0, lambda xb: 1.0, lambda xb: 1.0],
        f=[lambda xb: 0.2 * math.sin(xb[0]),
           lambda xb: 0.1 * xb[1] * math.cos(xb[0]),
           lambda xb: 0.1 * xb[2]],
        theta_star=np.zeros(1),
        Psi=[lambda xb: np.zeros(1)] * 3,
        Delta=[lambda x, t: 0.0] * 3,
        phi=[lambda xb: [0.0]] * 3,
        Phi_bound=[lambda xb: 0.0] * 3,
        p_star=np.zeros(3),
        varphi_bound=[lambda xb: [0.0]] * 3,
        b_star=np.zeros((3, 1)),
        domain_box=np.tile([-1.0, 1.0], (3, 1)))
    nets = []
    for i, dim in enumerate((1, 4, 6), start=1):
        layout = CenterLayout("quasi-random", [(-1.5, 1.5)] * dim,
                              total=6, layout_seed=i)
        centers = make_centers(layout)
        nets.append(RbfNetwork(dim, centers, 1.5, np.zeros(6)))
    gains = GainConfig([
        StepGains(1.0, 0.3 * np.eye(1), 0.3 * np.eye(i), 0.3,
                  0.3 * np.eye(6), 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3)
        for i in (1, 2, 3)])
    est = AdaptiveState([StepEstimates(np.zeros(1), np.zeros(i), 0.0,
                                       np.zeros(6)) for i in (1, 2, 3)])
    return plant, nets, gains, est
