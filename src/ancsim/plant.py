"""Strict-feedback stochastic plants and their disturbance/regressor envelopes.

A plant is the truth model

    dx_i = (g_i(xbar_i) x_{i+1} + theta^T Psi_i(xbar_i) + f_i(xbar_i)
            + Delta_i(x, t)) dt + phi_i(xbar_i)^T dW        (x_{n+1} := u)

together with the envelope machinery the controller is allowed to know:
|Delta_i| <= p_i* Phi_i*(xbar_i) and |Psi_ij| <= b_ij* varphi_ij*(xbar_i).
Only g, phi, Phi_bound and varphi_bound are designer-known; f, Psi, Delta and
the starred constants exist for simulation and monitoring.

Plants are immutable after construction and all function fields are pure, so
concurrent evaluation is safe.  The designer-known functions accept
forward-mode jets (see :mod:`ancsim.autodiff`).

Function fields receive state components, each a float or an array over a
batch of runs (``xbar[j]``, ``x[..., j]``), so one call evaluates a whole
batch.  The presets use numpy ufuncs throughout: they round a batch row as
they round a lone value, and they overflow to inf instead of raising.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import jabs, jcos, jexp, jsin, stack_entries
from .rng import NormalStream

__all__ = [
    "StrictFeedbackPlant", "AssumptionReport",
    "drift", "diffusion", "check_assumptions",
    "preset_section4", "preset_remark", "preset_cascade3", "PRESETS", "make_plant",
]


@dataclass
class StrictFeedbackPlant:
    """Truth model plus Assumption-style bound data for one plant."""

    name: str
    n: int
    r: int
    q: int
    g: Sequence[Callable]             # g_i(xbar_i) -> nonzero scalar, known
    f: Sequence[Callable]             # f_i(xbar_i) -> scalar, f_i(0) = 0
    theta_star: np.ndarray            # (q,) unknown parameter vector
    Psi: Sequence[Callable]           # Psi_i(xbar_i) -> (q,)
    Delta: Sequence[Callable]         # Delta_i(x, t) -> scalar
    phi: Sequence[Callable]           # phi_i(xbar_i) -> list of r scalars, known
    Phi_bound: Sequence[Callable]     # Phi_i*(xbar_i) >= 0, known
    p_star: np.ndarray                # (n,) smallest constants for |Delta_i|
    varphi_bound: Sequence[Callable]  # varphi_i*(xbar_i) -> list of q scalars, known
    b_star: np.ndarray                # (n, q) smallest constants for |Psi_ij|
    domain_box: np.ndarray = field(default=None)  # (n, 2) default check box

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        self.p_star = np.asarray(self.p_star, dtype=float)
        self.b_star = np.asarray(self.b_star, dtype=float)
        if self.domain_box is None:
            self.domain_box = np.tile([-1.0, 1.0], (self.n, 1))
        self.domain_box = np.asarray(self.domain_box, dtype=float)

    def theta_envelope(self, upto_step: int) -> np.ndarray:
        """Entrywise |theta| * b* envelope coefficients active through a step."""
        b = np.max(self.b_star[:upto_step], axis=0)
        return np.abs(self.theta_star) * b

    def p_truth(self, upto_step: int) -> np.ndarray:
        return self.p_star[:upto_step]


def drift(plant: StrictFeedbackPlant, x: np.ndarray, u, t: float) -> np.ndarray:
    """Drift vector of the truth model; the last component uses u.

    ``x`` is one state (n,) or a batch (..., n) with one u per state.
    """
    x = np.asarray(x, dtype=float)
    xs = [x[..., j] for j in range(plant.n)]
    out = np.empty(x.shape)
    for i in range(plant.n):
        xbar = xs[: i + 1]
        nxt = u if i == plant.n - 1 else xs[i + 1]
        out[..., i] = (plant.g[i](xbar) * nxt
                       + (plant.theta_star * np.asarray(plant.Psi[i](xbar))).sum(axis=-1)
                       + plant.f[i](xbar)
                       + plant.Delta[i](x, t))
    return out


def diffusion(plant: StrictFeedbackPlant, x: np.ndarray) -> np.ndarray:
    """Diffusion matrix (..., n, r); row i is phi_i(xbar_i)^T."""
    x = np.asarray(x, dtype=float)
    xs = [x[..., j] for j in range(plant.n)]
    out = np.empty(x.shape + (plant.r,))
    for i in range(plant.n):
        for k, v in enumerate(plant.phi[i](xs[: i + 1])):
            out[..., i, k] = v
    return out



@dataclass
class AssumptionReport:
    """Worst observed envelope ratios over a sampled domain box."""

    delta_ratios: np.ndarray      # (n,) max |Delta_i| / (p_i* Phi_i*)
    psi_ratios: np.ndarray        # (n, q) max |Psi_ij| / (b_ij* varphi_ij*)
    passed: bool


def check_assumptions(plant: StrictFeedbackPlant, box: np.ndarray,
                      sample_count: int, stream: NormalStream,
                      t_max: float = 20.0) -> AssumptionReport:
    """Sample the box and report envelope-domination ratios (0/0 skipped).

    Passes iff every observed ratio is <= 1 + 1e-9.  Failures are reported,
    not raised.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    box = np.asarray(box, dtype=float)
    xs = np.stack([stream.uniform(sample_count, lo, hi) for lo, hi in box], axis=1)
    ts = stream.uniform(sample_count, 0.0, t_max)
    cols = [xs[:, j] for j in range(plant.n)]
    rows = (sample_count,)

    d_ratios = np.zeros(plant.n)
    s_ratios = np.zeros((plant.n, plant.q))
    for i in range(plant.n):
        xbar = cols[: i + 1]
        delta = np.broadcast_to(plant.Delta[i](xs, ts), rows)
        Phi = np.broadcast_to(plant.Phi_bound[i](xbar), rows)
        psi = np.broadcast_to(plant.Psi[i](xbar), rows + (plant.q,))
        env = stack_entries(plant.varphi_bound[i](xbar), rows)
        d_ratios[i] = _worst_ratio(np.abs(delta), plant.p_star[i] * Phi)
        s_ratios[i] = _worst_ratio(np.abs(psi), plant.b_star[i] * env)

    tol = 1.0 + 1e-9
    passed = bool(np.all(d_ratios <= tol) and np.all(s_ratios <= tol))
    return AssumptionReport(d_ratios, s_ratios, passed)


def _worst_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Largest num / den over the samples (the leading axis): 0/0 is skipped
    and x/0 with x > 0 counts as inf."""
    zero = den == 0.0
    ratio = np.where(zero, np.where(num > 0.0, np.inf, 0.0), num / np.where(zero, 1.0, den))
    return ratio.max(axis=0, initial=0.0)


def preset_section4(noise_scale: float = 1.0,
                    disturbance_scale: float = 1.0) -> StrictFeedbackPlant:
    """Second-order benchmark: state-dependent noise, sinusoidal disturbance.

    ``noise_scale`` multiplies the diffusion rows and ``disturbance_scale`` the
    matched disturbances, so the noise-free / disturbance-free variants are a
    config knob away.
    """
    ns, ds = float(noise_scale), float(disturbance_scale)
    return StrictFeedbackPlant(
        name="section4",
        n=2, r=1, q=2,
        g=[lambda xb: 1.0,
           lambda xb: 1.0 + 0.5 * jsin(xb[0])],
        f=[lambda xb: xb[0] * np.sin(xb[0]),
           lambda xb: xb[1] * np.cos(xb[1])],
        theta_star=np.array([0.0, 0.02]),
        Psi=[lambda xb: np.zeros(2),
             lambda xb: stack_entries((0.0, xb[1]))],
        Delta=[lambda x, t: ds * 0.5 * x[..., 0] * np.sin(x[..., 1] * t),
               lambda x, t: 0.0],
        phi=[lambda xb: [ns * xb[0] * jcos(xb[0])],
             lambda xb: [ns * jsin(xb[1])]],
        Phi_bound=[lambda xb: jabs(xb[0]),
                   lambda xb: 0.0],
        p_star=np.array([0.5 * ds, 0.0]),
        varphi_bound=[lambda xb: [0.0, 0.0],
                      lambda xb: [0.0, jabs(xb[1])]],
        b_star=np.array([[0.0, 0.0], [0.0, 1.0]]),
        domain_box=np.array([[-3.0, 3.0], [-3.0, 3.0]]),
    )


def preset_remark(theta: Sequence[float] = (0.1, 0.1, 0.2, 0.2),
                  noise_scale: float = 1.0,
                  disturbance_scale: float = 1.0) -> StrictFeedbackPlant:
    """Second-order plant outside linear parametrization: shared parameters
    across steps, a bounded time-varying disturbance and an exponential gain.

    Disturbance constants follow p1 = |theta3|, p2 = |theta3| + |theta4|.
    """
    t1, t2, t3, t4 = (float(v) for v in theta)
    ns, ds = float(noise_scale), float(disturbance_scale)
    return StrictFeedbackPlant(
        name="remark1",
        n=2, r=1, q=2,
        g=[lambda xb: xb[0] * xb[0] + 1.0,
           lambda xb: jexp(-xb[1])],
        f=[lambda xb: 0.0,
           lambda xb: np.exp(-xb[1])],
        theta_star=np.array([t1, t2]),
        Psi=[lambda xb: stack_entries((xb[0] * xb[0], 0.0)),
             lambda xb: stack_entries((xb[1] * xb[1], np.exp(xb[0])))],
        Delta=[lambda x, t: ds * t3 * np.sin(t * t4 * x[..., 1]),
               lambda x, t: ds * (t4 + t3 * np.sin(x[..., 0])) * (x[..., 1] * x[..., 1])],
        phi=[lambda xb: [ns * xb[0]],
             lambda xb: [0.0]],
        Phi_bound=[lambda xb: 1.0,
                   lambda xb: xb[1] * xb[1]],
        p_star=np.array([abs(t3) * ds, (abs(t3) + abs(t4)) * ds]),
        varphi_bound=[lambda xb: [xb[0] * xb[0], 0.0],
                      lambda xb: [xb[1] * xb[1], jexp(xb[0])]],
        b_star=np.array([[1.0, 0.0], [1.0, 1.0]]),
        domain_box=np.array([[-0.6, 0.6], [-0.6, 0.6]]),
    )


def preset_cascade3() -> StrictFeedbackPlant:
    """Noise-free third-order cascade with unit gains and no disturbance.

    The one bundled plant with a middle backstepping step, so the recursion
    terms of steps 2 and 3 (estimate flow, second partials of alpha_2) run.
    """
    return StrictFeedbackPlant(
        name="cascade3",
        n=3, r=1, q=1,
        g=[lambda xb: 1.0, lambda xb: 1.0, lambda xb: 1.0],
        f=[lambda xb: 0.2 * np.sin(xb[0]),
           lambda xb: 0.1 * xb[1] * np.cos(xb[0]),
           lambda xb: 0.1 * xb[2]],
        theta_star=np.zeros(1),
        Psi=[lambda xb: np.zeros(1)] * 3,
        Delta=[lambda x, t: 0.0] * 3,
        phi=[lambda xb: [0.0]] * 3,
        Phi_bound=[lambda xb: 0.0] * 3,
        p_star=np.zeros(3),
        varphi_bound=[lambda xb: [0.0]] * 3,
        b_star=np.zeros((3, 1)),
        domain_box=np.tile([-1.0, 1.0], (3, 1)),
    )


PRESETS = {"section4": preset_section4, "remark1": preset_remark,
           "cascade3": preset_cascade3}


def make_plant(name: str, **params) -> StrictFeedbackPlant:
    """Instantiate a registered preset by name with numeric knobs."""
    if name not in PRESETS:
        raise ValueError(f"unknown plant preset {name!r}; "
                         f"available: {sorted(PRESETS)}")
    return PRESETS[name](**params)
