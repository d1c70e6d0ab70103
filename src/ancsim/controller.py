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
The earlier steps' estimates enter the law only through the sum of their
partials times their rates: the time derivative of alpha_{i-1} along the
adaptive laws of steps 1..i-2.  That sum is one central difference of
alpha_{i-1} along the rate direction (the directional, or tangent, mode of
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3), two
evaluations whatever the number of estimates.
The state derivatives come in one of two modes: "dual" propagates a degree-2
Taylor jet in x_1 through step 1 (machine precision for the first recursion
level, which covers second-order plants); "numeric" uses central differences
with fixed relative steps.
Everything here is a pure function of (x, AdaptiveState, GainConfig); the
closed-loop driver owns the single mutable AdaptiveState per batch of runs.

Every array carries optional leading batch axes: a state is (n,) or (..., n),
an estimate block (k,) or (..., k), and the code indexes with ``[..., j]`` and
reduces over the last axis only, so one call evaluates a batch of runs (or a
difference stencil's points) with the same rounding as one point at a time.
A row whose evaluation fails -- a gain below the floor, a non-finite
derivative, or a designer-known plant function overflowing -- is flagged in
``failed`` instead of raising, so the other rows carry on.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .autodiff import Jet, jabs, jpow, jsum, jtanh, stack_entries, variable
from .rbf import RbfNetwork, basis_components

__all__ = [
    "StepGains", "GainConfig", "StepEstimates", "AdaptiveState",
    "StepScratch", "ControlEval",
    "nn_input", "tanh_bound_terms", "adaptive_rates",
    "alpha_1", "compute_scratch", "forward_pass",
]

# an alias nothing here calls: the benchmark's traced run wraps
# controller.variable_block by name
variable_block = variable

GAIN_FLOOR = 1e-9

# Central-difference steps, relative to max(1, |coordinate|).
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-3


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
    """One step's estimates (vartheta, p, eps, W), or their rates: the
    adaptive laws give one rate per estimate, in the same shapes."""

    vartheta_hat: np.ndarray         # (..., q)
    p_hat: np.ndarray                # (..., i)
    eps_hat: float                   # (...)
    W_hat: np.ndarray                # (..., l_i)

    def copy(self) -> "StepEstimates":
        return StepEstimates(self.vartheta_hat.copy(), self.p_hat.copy(),
                             np.array(self.eps_hat, dtype=float), self.W_hat.copy())


@dataclass
class AdaptiveState:
    """All online estimates, one block of (vartheta, p, eps, W) per step."""

    steps: List[StepEstimates]

    def copy(self) -> "AdaptiveState":
        return AdaptiveState([s.copy() for s in self.steps])

    def euler(self, rates: List[StepEstimates], dt: float) -> "AdaptiveState":
        return AdaptiveState([_along(est, rate, dt)
                              for est, rate in zip(self.steps, rates)])


def _along(est: StepEstimates, rate: StepEstimates, s) -> StepEstimates:
    """The estimates moved by s along the rates: est + s * rate, block by
    block; s is a number or one per batch row."""
    sv = np.asarray(s)[..., None]
    return StepEstimates(
        est.vartheta_hat + sv * rate.vartheta_hat,
        est.p_hat + sv * rate.p_hat,
        est.eps_hat + s * rate.eps_hat,
        est.W_hat + sv * rate.W_hat,
    )


@dataclass
class StepScratch:
    """Derivatives of alpha_{i-1} at the current point.

    grad_x / hess_x cover x_1..x_{i-1}.  The d_* lists hold one block: the
    closed-form partials in step i-1's own estimates (one-element lists, so
    that ``d_W[0]`` names that block).  est_flow is the sum over steps
    1..i-2 of the partials in their estimates times their rates, the time
    derivative of alpha_{i-1} along those steps' adaptive laws (0.0 for
    i = 2, which has no earlier steps).  ``failed`` flags the rows where
    these are not finite or an evaluation behind them failed.
    """

    alpha: float
    grad_x: np.ndarray               # (..., i-1)
    hess_x: np.ndarray               # (..., i-1, i-1)
    d_vartheta: List[np.ndarray]
    d_p: List[np.ndarray]
    d_eps: List[float]
    d_W: List[np.ndarray]
    est_flow: float
    failed: np.ndarray               # (...) bool


@dataclass
class ControlEval:
    """One full forward evaluation of the controller at a state (or a batch)."""

    z: np.ndarray                    # (..., n)
    alphas: np.ndarray               # (..., n-1): alpha_1..alpha_{n-1}
    u: float                         # (...)
    rates: List[StepEstimates]
    failed: np.ndarray               # (...) bool: no control for this row


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
    grad = np.asarray(grad_prev)
    return list(x[:i]) + [alpha_prev] + [grad[..., j] for j in range(i - 1)]


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
    """sum_j coeffs_j terms_j in entry order, literal 0.0 terms skipped;
    ``coeffs`` is a list or an array with the entries on its last axis."""
    acc = 0.0
    for j, tm in enumerate(terms):
        if type(tm) is float and tm == 0.0:
            continue
        c = coeffs[j] if isinstance(coeffs, list) else coeffs[..., j]
        acc = acc + c * tm
    return acc


def _gain(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma v over the last axis of v.  A diagonal Gamma is applied
    elementwise (the bits of the matrix product, at O(l) per row); a full
    one by a row reduction in a fixed order."""
    d = np.diagonal(G)
    if np.count_nonzero(G) == np.count_nonzero(d):
        return d * v
    return (G * v[..., None, :]).sum(axis=-1)


def adaptive_rates(i: int, z_i: float, w0, w1, w2, S_i: np.ndarray,
                   est: StepEstimates, gains_i: StepGains) -> StepEstimates:
    """Leaky update rates: rate = Gamma (z^3 s - sigma * estimate)."""
    z3 = np.asarray(z_i * z_i * z_i)
    shape = z3.shape
    z3v = z3[..., None]
    return StepEstimates(
        vartheta_hat=_gain(gains_i.Gamma_vartheta, z3v * stack_entries(w2, shape)
                           - gains_i.sigma_vartheta * est.vartheta_hat),
        p_hat=_gain(gains_i.Gamma_p, z3v * stack_entries(w1, shape)
                    - gains_i.sigma_p * est.p_hat),
        eps_hat=gains_i.gamma_eps * (z3 * w0 - gains_i.sigma_eps * est.eps_hat),
        W_hat=_gain(gains_i.Gamma_w, z3v * S_i - gains_i.sigma_w * est.W_hat),
    )


# ---------------------------------------------------------------------------
# generic step evaluation (floats or jets)
# ---------------------------------------------------------------------------

def _step_quantities(i, xs, est, gains_i: StepGains, plant, net: RbfNetwork,
                     scratch: Optional[StepScratch], rates_prev, final_step: bool):
    """All step-i quantities at a point (or a batch of points); xs holds the
    state components, jets for i == 1 in the dual jet pass.  Step 1 has no
    earlier step to cancel: no scratch, an empty gradient and z_1 = x_1."""
    first = scratch is None
    grad = [] if first else [scratch.grad_x[..., j] for j in range(i - 1)]
    z = xs[0] if first else xs[i - 1] - scratch.alpha
    Phis = [plant.Phi_bound[j](xs[: j + 1]) for j in range(i)]
    Phi_stack = [grad[j] * Phis[j] for j in range(i - 1)] + [Phis[-1]]
    envs = [list(plant.varphi_bound[j](xs[: j + 1])) for j in range(i)]
    phis = [list(plant.phi[j](xs[: j + 1])) for j in range(i)]
    varphi_stack, rho = envs[-1], phis[-1]
    for j in range(i - 1):
        varphi_stack = [vk + grad[j] * ek for vk, ek in zip(varphi_stack, envs[j])]
        rho = [rk - grad[j] * pk for rk, pk in zip(rho, phis[j])]
    designer = Phis + [e for env in envs for e in env]
    Z = nn_input(1, xs) if first else nn_input(i, xs, scratch.alpha, scratch.grad_x)

    g = plant.g[i - 1](xs[:i])
    gv = _val(g)
    # An overflowing designer-known function (exp of a large state, where
    # math.exp raised) fails its row, as a singular gain does.  One isfinite
    # of their sum covers them all: a sum is finite only if every term is.
    total = gv + sum(_val(v) for v in designer + [e for phi in phis for e in phi])
    failed = (np.abs(gv) < GAIN_FLOOR) | ~np.isfinite(total)

    beta0, beta1, beta2, w0, w1, w2 = tanh_bound_terms(i, z, Phi_stack,
                                                       varphi_stack, est, gains_i)
    S = basis_components(net.centers, net.width, Z)
    nn_out = jsum(est.W_hat * S)

    rho_sq = _dot_seq(rho, rho)
    diffusion_comp = (3.0 * z / (4.0 * gains_i.young_eps1)) * (rho_sq * rho_sq)

    terms = (-gains_i.c * z - beta0 - beta1 - beta2 - nn_out - diffusion_comp)
    if not final_step:
        terms = terms - 0.75 * jpow(jabs(g), 4.0 / 3.0) * z
    if i >= 2:
        shape = np.shape(z)
        terms = terms - 0.25 * z
        phi_rows = np.stack([stack_entries(phis[j], shape) for j in range(i - 1)], axis=-2)
        coupling = (phi_rows[..., :, None, :] * phi_rows[..., None, :, :]).sum(axis=-1)
        contracted = (scratch.hess_x * coupling).reshape(shape + (-1,))
        terms = terms + 0.5 * contracted.sum(axis=-1)
        for j in range(i - 1):
            terms = terms + grad[j] * plant.g[j](xs[: j + 1]) * xs[j + 1]
        if i >= 3:
            terms = terms + scratch.est_flow
        r = rates_prev[i - 2]
        terms = terms + ((scratch.d_vartheta[0] * r.vartheta_hat).sum(axis=-1)
                         + (scratch.d_p[0] * r.p_hat).sum(axis=-1)
                         + scratch.d_eps[0] * r.eps_hat
                         + (scratch.d_W[0] * r.W_hat).sum(axis=-1))
        failed = failed | scratch.failed
    alpha = terms / g
    return {"z": z, "alpha": alpha, "g": g, "w0": w0, "w1": w1, "w2": w2,
            "S": S, "failed": failed}


def _own_step_partials(q):
    """Partials of alpha_i in step i's estimates from step-i quantity values.

    alpha_i is affine in (vartheta_i, p_i, eps_i, W_i) with coefficients
    -(w2, w1, w0, S) / g_i, and neither the coefficients nor g_i depend on
    those estimates.  Returns (d_vartheta, d_p, d_eps, d_W), each with the
    shape of the point batch.
    """
    shape = np.shape(q["z"])
    inv_g = np.asarray(1.0 / q["g"])
    inv_gv = inv_g[..., None]
    return (-stack_entries(q["w2"], shape) * inv_gv,
            -stack_entries(q["w1"], shape) * inv_gv,
            -q["w0"] * inv_g,
            -q["S"] * inv_gv)


def _steps_through(level, x, adaptive: AdaptiveState, gains: GainConfig, plant,
                   nets, mode: str, final_step: bool = False):
    """Steps 1..level at a float point (or a batch of points).

    Returns every step's quantities and the rates of steps 1..level-1.  In
    dual mode with level >= 2 one jet pass evaluates step 1 and gives step
    2's scratch; otherwise step i's scratch comes from :func:`compute_scratch`.
    ``final_step`` applies to step ``level``.  A step's ``failed`` includes
    the failures of the steps and scratches before it.
    """
    xs = [x[..., j] for j in range(x.shape[-1])]
    qs, rates = [], []
    scratch = None
    for i in range(1, level + 1):
        if i >= 2:
            q = qs[-1]
            rates.append(adaptive_rates(i - 1, q["z"], q["w0"], q["w1"], q["w2"],
                                        q["S"], adaptive.steps[i - 2], gains[i - 2]))
        if i == 1 and level >= 2 and mode == "dual":
            scratch, q = _scratch_first_level_jets(x, adaptive, gains, plant, nets)
        else:
            if i >= 2 and scratch is None:
                scratch = compute_scratch(i, x, adaptive, gains, plant, nets, mode=mode)
            q = _step_quantities(i, xs, adaptive.steps[i - 1], gains[i - 1], plant,
                                 nets[i - 1], scratch, rates,
                                 final_step=final_step and i == level)
            scratch = None
        qs.append(q)
    return qs, rates


def _chain_alpha_value(level, x, adaptive: AdaptiveState, gains: GainConfig,
                       plant, nets, inner_mode: str):
    """Step ``level``'s quantities at a batch of float points x (..., level),
    and the rates of steps 1..level-1 (step ``level``'s own rates are not
    computed).  Difference stencils evaluate all their points in one call,
    on a leading axis of x."""
    qs, rates = _steps_through(level, x, adaptive, gains, plant, nets, inner_mode)
    return qs[-1], rates


# ---------------------------------------------------------------------------
# derivative propagation
# ---------------------------------------------------------------------------

def _scratch_first_level_jets(x, adaptive: AdaptiveState, gains: GainConfig,
                              plant, nets):
    """Jet pass through step 1; returns (scratch, step-1 quantity values).

    Only x_1 is tagged: the estimates enter as plain numbers, and their
    partials come from :func:`_own_step_partials`.
    """
    out = _step_quantities(1, [variable(x[..., 0])], adaptive.steps[0], gains[0],
                           plant, nets[0], None, [], final_step=False)
    aj = out["alpha"]
    q = {k: _quantity_values(v) for k, v in out.items()}
    # alpha_1 is finite only if every regressor (hence every partial) is
    q["failed"] = q["failed"] | ~(np.isfinite(aj.val) & np.isfinite(aj.d1)
                                  & np.isfinite(aj.d2))
    d_vt, d_p, d_eps, d_W = _own_step_partials(q)
    scratch = StepScratch(
        alpha=aj.val,
        grad_x=aj.d1[..., None],
        hess_x=aj.d2[..., None, None],
        d_vartheta=[d_vt], d_p=[d_p], d_eps=[d_eps], d_W=[d_W], est_flow=0.0,
        failed=q["failed"],
    )
    return scratch, q


def _quantity_values(v):
    if isinstance(v, Jet):
        return v.val
    if isinstance(v, list):
        return [_quantity_values(e) for e in v]
    return v


def _stencil(level: int):
    """The central-difference points as moves (coordinate, sign, step kind):
    the base point, +-h1 along each coordinate (gradient), +-h2 along each
    (Hessian diagonal), and (+-h2, +-h2) along each pair j < k."""
    first = [((j, s, 1),) for j in range(level) for s in (1.0, -1.0)]
    second = [((j, s, 2),) for j in range(level) for s in (1.0, -1.0)]
    cross = [((j, sj, 2), (k, sk, 2)) for j in range(level) for k in range(j + 1, level)
             for sj, sk in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    return [()] + first + second + cross


def _scratch_numeric(level, x, adaptive: AdaptiveState, gains: GainConfig,
                     plant, nets, inner_mode: str) -> StepScratch:
    x0 = x[..., :level]
    steps = {1: FD_STEP_FIRST * np.maximum(1.0, np.abs(x0)),
             2: FD_STEP_SECOND * np.maximum(1.0, np.abs(x0))}
    moves = _stencil(level)
    pts = np.empty((len(moves),) + x0.shape)
    pts[:] = x0
    for p, move in enumerate(moves):
        for j, sign, kind in move:
            pts[p, ..., j] += sign * steps[kind][..., j]

    q, rates = _chain_alpha_value(level, pts, adaptive, gains, plant, nets, inner_mode)
    a = np.broadcast_to(q["alpha"], pts.shape[:-1])
    alpha0 = a[0]
    h1, h2 = steps[1], steps[2]
    grad_x = np.empty(x0.shape)
    hess = np.empty(x0.shape + (level,))
    for j in range(level):
        grad_x[..., j] = (a[1 + 2 * j] - a[2 + 2 * j]) / (2.0 * h1[..., j])
    p = 1 + 2 * level
    for j in range(level):
        hess[..., j, j] = (a[p] - 2.0 * alpha0 + a[p + 1]) / (h2[..., j] * h2[..., j])
        p += 2
    for j in range(level):
        for k in range(j + 1, level):
            c = a[p:p + 4]
            hess[..., j, k] = hess[..., k, j] = \
                (c[0] - c[1] - c[2] + c[3]) / (4.0 * h2[..., j] * h2[..., k])
            p += 4

    base_rates = [StepEstimates(r.vartheta_hat[0], r.p_hat[0], r.eps_hat[0], r.W_hat[0])
                  for r in rates]
    flow, flow_failed = _estimate_flow(level, x0, adaptive, base_rates, gains, plant,
                                       nets, inner_mode)
    finite = (np.isfinite(alpha0) & np.all(np.isfinite(grad_x), axis=-1)
              & np.all(np.isfinite(hess), axis=(-2, -1)) & np.isfinite(flow))
    failed = np.any(np.broadcast_to(q["failed"], a.shape), axis=0) | flow_failed | ~finite
    d_vt, d_p, d_eps, d_W = ([d[0]] for d in _own_step_partials(q))
    return StepScratch(alpha0, grad_x, hess, d_vt, d_p, d_eps, d_W, flow, failed)


def _norm(blocks) -> np.ndarray:
    """Euclidean norm of estimate (or rate) blocks taken as one vector."""
    sq = 0.0
    for b in blocks:
        sq = sq + ((b.vartheta_hat * b.vartheta_hat).sum(axis=-1)
                   + (b.p_hat * b.p_hat).sum(axis=-1) + b.eps_hat * b.eps_hat
                   + (b.W_hat * b.W_hat).sum(axis=-1))
    return np.sqrt(sq)


def _estimate_flow(level, x0, adaptive: AdaptiveState, rates, gains: GainConfig,
                   plant, nets, inner_mode: str):
    """Time derivative of alpha_level along the adaptive laws of steps
    1..level-1, with step ``level``'s estimates held; returns it with the
    rows whose evaluations failed.

    One central difference along the rates: those steps' estimates move
    together to est +- h * rate, with h = FD_STEP_FIRST * max(1, |est|) / |rate|
    (norms over the concatenated blocks); both ends are rows of one
    evaluation.  A zero rate gives exactly 0.0.
    """
    earlier = adaptive.steps[: level - 1]
    if not earlier:
        return 0.0, False
    rate_norm = _norm(rates)
    still = rate_norm == 0.0
    h = FD_STEP_FIRST * np.maximum(1.0, _norm(earlier)) / np.where(still, 1.0, rate_norm)
    ends = np.stack(np.broadcast_arrays(h, -h))
    moved = AdaptiveState([_along(e, r, ends) for e, r in zip(earlier, rates)]
                          + adaptive.steps[level - 1:])
    q, _ = _chain_alpha_value(level, np.broadcast_to(x0, (2,) + x0.shape), moved,
                              gains, plant, nets, inner_mode)
    a = np.broadcast_to(q["alpha"], (2,) + x0.shape[:-1])
    flow = np.where(still, 0.0, (a[0] - a[1]) / (2.0 * h))
    return flow, np.any(np.broadcast_to(q["failed"], a.shape), axis=0)


@np.errstate(all="ignore")     # failed rows are flagged, not warned about
def compute_scratch(i: int, x, adaptive: AdaptiveState, gains: GainConfig,
                    plant, nets, mode: str = "dual") -> StepScratch:
    """Derivatives of alpha_{i-1} in the states and the estimates.

    The partials in step i-1's own estimates are exact in both modes (closed
    form, see :func:`_own_step_partials`).  mode "dual" runs a degree-2
    Taylor jet in x_1 (exact) for the first recursion level; for deeper
    levels the state derivatives and the estimate flow of the earlier steps
    (:func:`_estimate_flow`) chain central differences over evaluations whose
    inner scratches are exact.  mode "numeric" uses central differences for
    all of those.
    """
    if i < 2:
        raise ValueError("scratch is defined for steps i >= 2")
    if mode not in ("dual", "numeric"):
        raise ValueError(f"unknown scratch mode {mode!r}")
    x = np.asarray(x, dtype=float)
    level = i - 1
    if mode == "dual" and level == 1:
        return _scratch_first_level_jets(x, adaptive, gains, plant, nets)[0]
    return _scratch_numeric(level, x, adaptive, gains, plant, nets, mode)


# ---------------------------------------------------------------------------
# public control-law entry points
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def alpha_1(x1: float, adaptive: AdaptiveState, gains: GainConfig, plant,
            nets) -> float:
    """First intermediate law (final-step form is never used here)."""
    q = _step_quantities(1, [np.asarray(x1, dtype=float)], adaptive.steps[0],
                         gains[0], plant, nets[0], None, [],
                         final_step=(plant.n == 1))
    return q["alpha"]


@np.errstate(all="ignore")
def forward_pass(x, adaptive: AdaptiveState, gains: GainConfig, plant, nets,
                 mode: str = "dual") -> ControlEval:
    """Evaluate the whole cascade once: z, alphas, u and all adaptive rates.

    ``x`` is one state (n,) or a batch (..., n) with matching estimate
    batches; rows that fail are flagged in ``ControlEval.failed``.
    """
    n = plant.n
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    qs, rates = _steps_through(n, x, adaptive, gains, plant, nets, mode, final_step=True)
    last = qs[-1]
    rates.append(adaptive_rates(n, last["z"], last["w0"], last["w1"], last["w2"],
                                last["S"], adaptive.steps[n - 1], gains[n - 1]))
    z = stack_entries([q["z"] for q in qs], shape)
    alphas = stack_entries([q["alpha"] for q in qs[:-1]], shape)
    failed = np.zeros(shape, dtype=bool)
    for q in qs:
        failed = failed | q["failed"]
    return ControlEval(z=z, alphas=alphas, u=last["alpha"], rates=rates, failed=failed)
