"""Adaptive neural backstepping control law with sigma-modified update laws.

The design is recursive.  Step i works in the error coordinate
z_i = x_i - alpha_{i-1} and builds an intermediate (virtual) control

    alpha_i = g_i^{-1} [ -c_i z_i - (1/4) z_i - (3/4)|g_i|^{4/3} z_i
                         - beta_i0 - beta_i1 - beta_i2 - W_i^T S(Z_i)
                         + (1/2) sum_{k,j} d2(alpha_{i-1})/dx_k dx_j phi_k.phi_j
                         + sum_j [ d(alpha_{i-1})/dx_j g_j x_{j+1}
                                   + d(alpha_{i-1})/d(estimates_j) . rates_j ]
                         - (3 z_i / 4 eps_y) || phi_i - sum_j da/dx_j phi_j ||^4 ]

where the (1/4) z term and the recursion terms appear from step 2 on, and the
(3/4)|g|^{4/3} z term is dropped at the final step (no error is passed
onward; the final-step formula returns the actual control u).  The beta terms
are tanh-smoothed compensations fed by three adaptive scalars/vectors per
step (disturbance bound p_hat, regressor bound vartheta_hat, approximation
error eps_hat) plus the network weights W_hat.  All adaptive laws share the
leaky form  rate = Gamma (z^3 s - sigma * estimate).

Notes on the recursion terms:

* The second-derivative coupling is contracted against diffusion rows (the
  Ito correction of the error coordinate), not against the gain functions.
* The flow-cancellation term carries the known gain g_j; dropping it is only
  valid for unit-gain cascades.
* The regressor envelope stack is accumulated as a single q-vector (the sum
  of gradient-weighted per-step envelopes).  For block-embedded regressors
  this is exactly the concatenated form with the zero blocks removed.

Derivatives of alpha_{i-1} come from :func:`compute_scratch`.  alpha_{i-1}
is affine in its own step's estimates and g_{i-1} does not depend on them, so
d alpha_{i-1} / d(vartheta, p, eps, W)_{i-1} = -(w2, w1, w0, S) / g_{i-1}
exactly, in both modes, from the regressors the adaptive laws use anyway.
The state derivatives and the partials in earlier steps' estimates come in
one of two modes: "dual" propagates a second-order forward jet in x_1 through
step 1 (machine precision for the first recursion level, which covers
second-order plants); "numeric" uses central differences with fixed relative
steps.
Everything here is a pure function of (x, AdaptiveState, GainConfig); the
closed-loop driver owns the single mutable AdaptiveState per run.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

# variable_block is not called here; it stays importable from this module
# because the benchmark's traced run wraps controller.variable_block by name
from .autodiff import Jet, jsum, jtanh, variable, variable_block  # noqa: F401
from .ineq import TANH_ABSORPTION_DELTA, tanh_absorption_gap
from .rbf import RbfNetwork, basis_components

__all__ = [
    "StepGains", "GainConfig", "StepEstimates", "StepRates", "AdaptiveState",
    "StepScratch", "ControlEval", "SingularGainError", "NonFiniteDerivative",
    "nn_input", "tanh_bound_terms", "adaptive_rates",
    "alpha_1", "compute_scratch", "forward_pass",
]

GAIN_FLOOR = 1e-9

# Central-difference steps, relative to max(1, |coordinate|).
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-3


class SingularGainError(RuntimeError):
    """|g_i| fell below the gain floor at the evaluation point."""


class NonFiniteDerivative(RuntimeError):
    """A scratch derivative came out NaN/Inf; the run should be tagged diverged."""


@dataclass
class StepGains:
    """Designer constants for one backstepping step."""

    c: float
    Gamma_vartheta: np.ndarray       # (q, q) SPD
    Gamma_p: np.ndarray              # (i, i) PSD diagonal-nonnegative
    gamma_eps: float
    Gamma_w: np.ndarray              # (l, l) SPD
    sigma_vartheta: float
    sigma_p: float
    sigma_eps: float
    sigma_w: float
    eps0: float                      # tanh widths
    eps1: float
    eps2: float
    young_eps1: float                # quartic diffusion split slack


@dataclass
class GainConfig:
    steps: List[StepGains]

    def __getitem__(self, i: int) -> StepGains:
        return self.steps[i]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class StepEstimates:
    vartheta_hat: np.ndarray         # (q,)
    p_hat: np.ndarray                # (i,)
    eps_hat: float
    W_hat: np.ndarray                # (l_i,)

    def copy(self) -> "StepEstimates":
        return StepEstimates(self.vartheta_hat.copy(), self.p_hat.copy(),
                             float(self.eps_hat), self.W_hat.copy())


@dataclass
class StepRates:
    vartheta_hat: np.ndarray
    p_hat: np.ndarray
    eps_hat: float
    W_hat: np.ndarray


@dataclass
class AdaptiveState:
    """All online estimates, one block of (vartheta, p, eps, W) per step."""

    steps: List[StepEstimates]

    def copy(self) -> "AdaptiveState":
        return AdaptiveState([s.copy() for s in self.steps])

    def euler(self, rates: List[StepRates], dt: float) -> "AdaptiveState":
        out = []
        for est, rate in zip(self.steps, rates):
            out.append(StepEstimates(
                est.vartheta_hat + dt * rate.vartheta_hat,
                est.p_hat + dt * rate.p_hat,
                est.eps_hat + dt * rate.eps_hat,
                est.W_hat + dt * rate.W_hat,
            ))
        return AdaptiveState(out)


@dataclass
class StepScratch:
    """Derivatives of alpha_{i-1} at the current point.

    grad_x / hess_x cover x_1..x_{i-1}; the d_* lists hold the partials with
    respect to each earlier step's estimate blocks.
    """

    alpha: float
    grad_x: np.ndarray               # (i-1,)
    hess_x: np.ndarray               # (i-1, i-1)
    d_vartheta: List[np.ndarray]
    d_p: List[np.ndarray]
    d_eps: List[float]
    d_W: List[np.ndarray]


@dataclass
class ControlEval:
    """One full forward evaluation of the controller at a state."""

    z: np.ndarray
    alphas: np.ndarray               # alpha_1..alpha_{n-1}
    u: float
    rates: List[StepRates]


def _val(x):
    return x.val if isinstance(x, Jet) else x


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def nn_input(i: int, x, alpha_prev=None, grad_prev=None):
    """Network input for step i: [xbar_i, alpha_{i-1}, da_{i-1}/dx_1.. ].

    Step 1 uses [x_1]; step i >= 2 has 2i entries.  Config parsing rejects
    any network whose input dimension differs from this layout.
    """
    if i == 1:
        return [x[0]]
    return list(x[:i]) + [alpha_prev] + list(grad_prev)


def tanh_bound_terms(i, z_i, Phi_stack, varphi_stack, est: StepEstimates,
                     gains_i: StepGains):
    """Smoothed compensations (beta_i0, beta_i1, beta_i2, w_i0, w_i1, w_i2).

    w_i0 = tanh(z^3/eps0); w_i1, w_i2 apply v -> v*tanh(z^3 v / eps)
    entrywise to the disturbance stack and regressor-envelope stack.
    """
    z3 = z_i * z_i * z_i
    w0 = jtanh(z3 / gains_i.eps0)
    w1 = [_smoothed(z3, v, gains_i.eps1) for v in Phi_stack]
    w2 = [_smoothed(z3, v, gains_i.eps2) for v in varphi_stack]
    beta0 = est.eps_hat * w0
    beta1 = _dot_seq(est.p_hat, w1)
    beta2 = _dot_seq(est.vartheta_hat, w2)
    return beta0, beta1, beta2, w0, w1, w2


def _smoothed(z3, v, eps):
    # identically-zero envelope entries contribute nothing (and have zero
    # derivative), so skip the tanh machinery for them
    if type(v) is float and v == 0.0:
        return 0.0
    return v * jtanh(z3 * v / eps)


def _dot_seq(coeffs, terms):
    acc = 0.0
    for c, tm in zip(coeffs, terms):
        if type(tm) is float and tm == 0.0:
            continue
        acc = acc + c * tm
    return acc


def adaptive_rates(i: int, z_i: float, w0, w1, w2, S_i: np.ndarray,
                   est: StepEstimates, gains_i: StepGains) -> StepRates:
    """Leaky update rates: rate = Gamma (z^3 s - sigma * estimate)."""
    z3 = z_i ** 3
    return StepRates(
        vartheta_hat=gains_i.Gamma_vartheta @ (z3 * np.asarray(w2, dtype=float)
                                               - gains_i.sigma_vartheta * est.vartheta_hat),
        p_hat=gains_i.Gamma_p @ (z3 * np.asarray(w1, dtype=float)
                                 - gains_i.sigma_p * est.p_hat),
        eps_hat=gains_i.gamma_eps * (z3 * w0 - gains_i.sigma_eps * est.eps_hat),
        W_hat=gains_i.Gamma_w @ (z3 * S_i - gains_i.sigma_w * est.W_hat),
    )


# ---------------------------------------------------------------------------
# generic step evaluation (floats or jets)
# ---------------------------------------------------------------------------

def _step_quantities(i, xs, est, gains_i: StepGains, plant, net: RbfNetwork,
                     scratch: Optional[StepScratch], rates_prev, final_step: bool,
                     debug_pairs=None):
    """All step-i quantities at a point; xs entries may be jets for i == 1."""
    xbar = xs[:i]
    if i == 1:
        z = xs[0]
        Phi_stack = [plant.Phi_bound[0](xbar)]
        varphi_stack = list(plant.varphi_bound[0](xbar))
        rho = list(plant.phi[0](xbar))
        Z = nn_input(1, xs)
    else:
        a = scratch
        z = xs[i - 1] - a.alpha
        Phi_stack = [a.grad_x[j] * plant.Phi_bound[j](xs[: j + 1]) for j in range(i - 1)]
        Phi_stack.append(plant.Phi_bound[i - 1](xbar))
        varphi_stack = list(plant.varphi_bound[i - 1](xbar))
        for j in range(i - 1):
            env_j = plant.varphi_bound[j](xs[: j + 1])
            varphi_stack = [vk + a.grad_x[j] * ek for vk, ek in zip(varphi_stack, env_j)]
        rho = list(plant.phi[i - 1](xbar))
        for j in range(i - 1):
            phi_j = plant.phi[j](xs[: j + 1])
            rho = [rk - a.grad_x[j] * pk for rk, pk in zip(rho, phi_j)]
        Z = nn_input(i, xs, a.alpha, a.grad_x)

    g = plant.g[i - 1](xbar)
    if abs(_val(g)) < GAIN_FLOOR:
        raise SingularGainError(f"|g_{i}| = {abs(_val(g)):.3e} below gain floor")

    beta0, beta1, beta2, w0, w1, w2 = tanh_bound_terms(i, z, Phi_stack,
                                                       varphi_stack, est, gains_i)
    S = basis_components(net.centers, net.width, Z)
    nn_out = jsum(est.W_hat * S)

    rho_sq = _dot_seq(rho, rho)
    diffusion_comp = (3.0 * z / (4.0 * gains_i.young_eps1)) * (rho_sq * rho_sq)

    terms = (-gains_i.c * z - beta0 - beta1 - beta2 - nn_out - diffusion_comp)
    if not final_step:
        terms = terms - 0.75 * ((g * g) ** (2.0 / 3.0)) * z
    if i >= 2:
        terms = terms - 0.25 * z
        phi_rows = np.array([np.asarray(plant.phi[j](list(map(_val, xs[: j + 1]))), dtype=float)
                             for j in range(i - 1)])
        coupling = phi_rows @ phi_rows.T
        terms = terms + 0.5 * float(np.sum(scratch.hess_x * coupling))
        for j in range(i - 1):
            terms = terms + scratch.grad_x[j] * plant.g[j](xs[: j + 1]) * xs[j + 1]
        for j in range(i - 1):
            r = rates_prev[j]
            terms = terms + (float(scratch.d_vartheta[j] @ r.vartheta_hat)
                             + float(scratch.d_p[j] @ r.p_hat)
                             + scratch.d_eps[j] * r.eps_hat
                             + float(scratch.d_W[j] @ r.W_hat))
    alpha = terms / g

    if debug_pairs is not None:
        z3 = _val(z) ** 3
        debug_pairs.append((z3, gains_i.eps0))
        debug_pairs.extend((z3 * _val(v), gains_i.eps1) for v in Phi_stack)
        debug_pairs.extend((z3 * _val(v), gains_i.eps2) for v in varphi_stack)

    return {"z": z, "alpha": alpha, "g": g, "w0": w0, "w1": w1, "w2": w2,
            "S": S, "Phi_stack": Phi_stack, "varphi_stack": varphi_stack}


def _own_step_partials(q):
    """Partials of alpha_i in step i's estimates from step-i quantity values.

    alpha_i is affine in (vartheta_i, p_i, eps_i, W_i) with coefficients
    -(w2, w1, w0, S) / g_i, and neither the coefficients nor g_i depend on
    those estimates.  Returns (d_vartheta, d_p, d_eps, d_W).
    """
    inv_g = 1.0 / q["g"]
    return (-np.asarray(q["w2"], dtype=float) * inv_g,
            -np.asarray(q["w1"], dtype=float) * inv_g,
            -float(q["w0"]) * inv_g,
            -q["S"] * inv_g)


def _chain_alpha_value(level, xs, adaptive: AdaptiveState, gains: GainConfig,
                       plant, nets, inner_mode: str) -> dict:
    """Run the recursion from step 1 on floats; returns step ``level``'s quantities."""
    rates_prev = []
    q = None
    for i in range(1, level + 1):
        scratch = None
        if i >= 2:
            scratch = compute_scratch(i, xs, adaptive, gains, plant, nets,
                                      mode=inner_mode)
        q = _step_quantities(i, xs, adaptive.steps[i - 1], gains[i - 1], plant,
                             nets[i - 1], scratch, rates_prev, final_step=False)
        rates_prev.append(adaptive_rates(i, q["z"], q["w0"], q["w1"], q["w2"],
                                         q["S"], adaptive.steps[i - 1], gains[i - 1]))
    return q


# ---------------------------------------------------------------------------
# derivative propagation
# ---------------------------------------------------------------------------

def _scratch_first_level_jets(x, adaptive: AdaptiveState, gains: GainConfig,
                              plant, nets, debug_pairs=None):
    """Jet pass through step 1; returns (scratch, step-1 quantity values).

    Only x_1 is tagged: the estimates enter as plain numbers, and their
    partials come from :func:`_own_step_partials`.
    """
    out = _step_quantities(1, [variable(x[0], 0, 1, 1)], adaptive.steps[0], gains[0],
                           plant, nets[0], None, [], final_step=False,
                           debug_pairs=debug_pairs)
    aj = out["alpha"]
    # alpha_1 is finite only if every regressor (hence every partial) is
    if not (np.isfinite(aj.val) and np.all(np.isfinite(aj.grad))
            and np.all(np.isfinite(aj.hess))):
        raise NonFiniteDerivative("non-finite derivative in first-level scratch")
    q = {k: _quantity_values(v) for k, v in out.items()}
    d_vt, d_p, d_eps, d_W = _own_step_partials(q)
    scratch = StepScratch(
        alpha=float(aj.val),
        grad_x=np.array(aj.grad, dtype=float),
        hess_x=np.array(aj.hess, dtype=float).reshape(1, 1),
        d_vartheta=[d_vt], d_p=[d_p], d_eps=[d_eps], d_W=[d_W],
    )
    return scratch, q


def _quantity_values(v):
    if isinstance(v, Jet):
        return v.val
    if isinstance(v, list):
        return [_quantity_values(e) for e in v]
    return v


def _scratch_numeric(level, x, adaptive: AdaptiveState, gains: GainConfig,
                     plant, nets, inner_mode: str) -> StepScratch:
    xs0 = [float(v) for v in x[:level]]

    def f_x(xs):
        return _chain_alpha_value(level, xs, adaptive, gains, plant, nets,
                                  inner_mode)["alpha"]

    base = _chain_alpha_value(level, xs0, adaptive, gains, plant, nets, inner_mode)
    alpha0 = base["alpha"]
    grad_x = np.empty(level)
    for j in range(level):
        h = FD_STEP_FIRST * max(1.0, abs(xs0[j]))
        up, dn = list(xs0), list(xs0)
        up[j] += h
        dn[j] -= h
        grad_x[j] = (f_x(up) - f_x(dn)) / (2.0 * h)

    hess = np.empty((level, level))
    hs = [FD_STEP_SECOND * max(1.0, abs(v)) for v in xs0]
    for j in range(level):
        up, dn = list(xs0), list(xs0)
        up[j] += hs[j]
        dn[j] -= hs[j]
        hess[j, j] = (f_x(up) - 2.0 * alpha0 + f_x(dn)) / hs[j] ** 2
        for k in range(j + 1, level):
            pts = []
            for sj, sk in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                p = list(xs0)
                p[j] += sj * hs[j]
                p[k] += sk * hs[k]
                pts.append(f_x(p))
            hess[j, k] = hess[k, j] = (pts[0] - pts[1] - pts[2] + pts[3]) / (4.0 * hs[j] * hs[k])

    # earlier steps' estimates reach alpha_level through the recursion:
    # central differences; its own step's estimates: closed form
    per_step = [_fd_estimate_partials(level, xs0, adaptive, gains, plant, nets,
                                      inner_mode, j) for j in range(level - 1)]
    per_step.append(_own_step_partials(base))
    d_vt, d_p, d_eps, d_W = (list(blocks) for blocks in zip(*per_step))

    if not (np.isfinite(alpha0) and np.all(np.isfinite(grad_x)) and np.all(np.isfinite(hess))):
        raise NonFiniteDerivative("non-finite derivative in numeric scratch")
    return StepScratch(alpha0, grad_x, hess, d_vt, d_p, d_eps, d_W)


def _fd_estimate_partials(level, xs, adaptive: AdaptiveState, gains: GainConfig,
                          plant, nets, inner_mode: str, j: int):
    """Central differences of alpha_level in step j+1's estimates.

    Returns (d_vartheta, d_p, d_eps, d_W), two chain evaluations per entry.
    """
    est = adaptive.steps[j]
    blocks = []
    for attr in ("vartheta_hat", "p_hat", "eps_hat", "W_hat"):
        vals = np.atleast_1d(np.asarray(getattr(est, attr), dtype=float))
        part = np.empty(vals.shape[0])
        for k in range(vals.shape[0]):
            h = FD_STEP_FIRST * max(1.0, abs(vals[k]))
            ends = []
            for delta in (h, -h):
                moved = est.copy()
                if attr == "eps_hat":
                    moved.eps_hat += delta
                else:
                    getattr(moved, attr)[k] += delta
                steps = list(adaptive.steps)
                steps[j] = moved
                ends.append(_chain_alpha_value(level, xs, AdaptiveState(steps), gains,
                                               plant, nets, inner_mode)["alpha"])
            part[k] = (ends[0] - ends[1]) / (2.0 * h)
        blocks.append(part)
    return blocks[0], blocks[1], float(blocks[2][0]), blocks[3]


def compute_scratch(i: int, x, adaptive: AdaptiveState, gains: GainConfig,
                    plant, nets, mode: str = "dual") -> StepScratch:
    """Derivatives of alpha_{i-1} with respect to states and estimate blocks.

    The partials in step i-1's own estimates are exact in both modes (closed
    form, see :func:`_own_step_partials`).  mode "dual" runs a second-order
    forward jet in x_1 (exact) for the first recursion level; for deeper
    levels the state derivatives and the partials in earlier steps' estimates
    chain central differences over evaluations whose inner scratches are
    exact.  mode "numeric" uses central differences for all of those.
    """
    if i < 2:
        raise ValueError("scratch is defined for steps i >= 2")
    if mode not in ("dual", "numeric"):
        raise ValueError(f"unknown scratch mode {mode!r}")
    level = i - 1
    if mode == "dual" and level == 1:
        return _scratch_first_level_jets(x, adaptive, gains, plant, nets)[0]
    inner = "dual" if mode == "dual" else "numeric"
    return _scratch_numeric(level, x, adaptive, gains, plant, nets, inner)


# ---------------------------------------------------------------------------
# public control-law entry points
# ---------------------------------------------------------------------------

def alpha_1(x1: float, adaptive: AdaptiveState, gains: GainConfig, plant,
            nets) -> float:
    """First intermediate law (final-step form is never used here)."""
    q = _step_quantities(1, [float(x1)], adaptive.steps[0], gains[0], plant,
                         nets[0], None, [], final_step=(plant.n == 1))
    return float(q["alpha"])


def forward_pass(x, adaptive: AdaptiveState, gains: GainConfig, plant, nets,
                 mode: str = "dual", debug: bool = False) -> ControlEval:
    """Evaluate the whole cascade once: z, alphas, u and all adaptive rates."""
    n = plant.n
    xs = [float(v) for v in x]
    rates: List[StepRates] = []
    z = np.empty(n)
    alphas = np.empty(max(n - 1, 0))
    u = 0.0
    debug_pairs = [] if debug else None

    scratch = None                   # derivatives of alpha_{i-1}, once known
    for i in range(1, n + 1):
        if i == 1 and n >= 2 and mode == "dual":
            # one jet pass evaluates step 1 and differentiates alpha_1
            scratch, q = _scratch_first_level_jets(xs, adaptive, gains, plant,
                                                   nets, debug_pairs)
        else:
            if i >= 2 and scratch is None:
                scratch = compute_scratch(i, xs, adaptive, gains, plant, nets,
                                          mode=mode)
            q = _step_quantities(i, xs, adaptive.steps[i - 1], gains[i - 1], plant,
                                 nets[i - 1], scratch, rates,
                                 final_step=(i == n), debug_pairs=debug_pairs)
            scratch = None
        z[i - 1] = q["z"]
        if i == n:
            u = float(q["alpha"])
        else:
            alphas[i - 1] = float(q["alpha"])
        rates.append(adaptive_rates(i, q["z"], q["w0"], q["w1"], q["w2"],
                                    q["S"], adaptive.steps[i - 1], gains[i - 1]))

    if debug_pairs:
        for v, eps in debug_pairs:
            gap = float(tanh_absorption_gap(v, eps))
            if not (-1e-12 <= gap <= TANH_ABSORPTION_DELTA * eps + 1e-12):
                raise AssertionError(
                    f"tanh absorption bound violated: gap={gap} eps={eps}")

    return ControlEval(z=z, alphas=alphas, u=u, rates=rates)
