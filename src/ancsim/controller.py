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
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3): two
more rows, whatever the number of estimates, of the one evaluation whose
other rows give the state derivatives.
The state derivatives come in one of two modes: "dual" propagates a degree-2
Taylor jet in x_1 through step 1 (machine precision for the first recursion
level, which covers second-order plants); "numeric" uses central differences
with fixed relative steps.  Either way the scratch of step i evaluates step
i-1 at the point itself (the jet's value, or the stencil's base row) and
keeps it as ``StepScratch.base``.  A forward pass is one recursion: step n
builds its scratch, whose base is step n-1, and steps 1..n-2 come from the
same recursion two levels down, so each step is evaluated at the point once
and a scratch is built only where its derivatives are read.
Everything here is a pure function of (x, AdaptiveState, GainConfig).  An
AdaptiveState holds all of a batch's estimates in one (..., P) array, step by
step and (vartheta, p, eps, W) within a step; the rates share that layout.

Every array carries optional leading batch axes: a state is (n,) or (..., n),
the estimates (P,) or (..., P), and the code indexes with ``[..., j]`` and
reduces over the last axis only, so one call evaluates a batch of runs (or a
difference stencil's points) with the same rounding as one point at a time.
A row whose evaluation fails -- a gain below the floor, a non-finite
derivative, or a designer-known plant function overflowing -- is flagged in
``failed`` instead of raising, so the other rows carry on.
"""

from dataclasses import dataclass
from functools import lru_cache
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

    def __setattr__(self, name, value):
        # a Gamma is found diagonal (its diagonal kept) or full (None) once,
        # when it is assigned; _gain reads the decision
        if name.startswith("Gamma_"):
            d = np.diagonal(value).copy() if np.ndim(value) == 2 else None
            full = d is None or np.count_nonzero(value) != np.count_nonzero(d)
            object.__setattr__(self, "_diag" + name[5:], None if full else d)
        object.__setattr__(self, name, value)


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


class _BoundStep(StepEstimates):
    """A step of an AdaptiveState: its fields are views into the state's
    array, and assigning a field writes the view instead of rebinding it."""

    def __init__(self, vartheta_hat, p_hat, eps_hat, W_hat):
        self.__dict__.update(vartheta_hat=vartheta_hat, p_hat=p_hat, eps_hat=eps_hat,
                             W_hat=W_hat)

    def __setattr__(self, name, value):
        getattr(self, name)[...] = value


class AdaptiveState:
    """All online estimates of a batch as one (..., P) array ``values``.

    The layout is step-major, so steps 1..k are the prefix ``[..., :ends[k]]``,
    and runs (vartheta, p, eps, W) within a step; ``layout[i]`` holds step
    i+1's slices, eps as an index, built once from the block sizes.
    ``steps`` is a tuple of StepEstimates whose fields are views into
    ``values`` (eps_hat 0-d for one run), so writing into a field, or
    assigning it (``state.steps[0].eps_hat = 0.0``), writes the array.  The
    adaptive rates use the same layout.
    """

    def __init__(self, steps: List[StepEstimates]):
        """Pack per-step blocks, with any common batch shape, into one array."""
        blocks = [np.asarray(b, dtype=float) for s in steps for b in
                  (s.vartheta_hat, s.p_hat, np.asarray(s.eps_hat)[..., None], s.W_hat)]
        lead = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
        e = np.cumsum([0] + [b.shape[-1] for b in blocks]).tolist()     # block edges
        layout = tuple((slice(e[k], e[k + 1]), slice(e[k + 1], e[k + 2]), e[k + 2],
                        slice(e[k + 3], e[k + 4])) for k in range(0, len(blocks), 4))
        values = np.concatenate([np.broadcast_to(b, lead + b.shape[-1:]) for b in blocks], -1)
        self._bind(values, layout, tuple(e[::4]))

    def _bind(self, values: np.ndarray, layout, ends):
        self.values, self.layout, self.ends = values, layout, ends
        self.steps = tuple([_BoundStep(values[..., vt], values[..., p], values[..., e],
                                       values[..., w]) for vt, p, e, w in layout])
        return self

    def with_values(self, values: np.ndarray) -> "AdaptiveState":
        """``values`` (..., P), not copied, as a state in this layout."""
        return object.__new__(AdaptiveState)._bind(values, self.layout, self.ends)

    def __setstate__(self, state):      # a copy or an unpickled state rebinds its views
        self._bind(state["values"], state["layout"], state["ends"])

    def copy(self) -> "AdaptiveState":
        return self.with_values(self.values.copy())

    def euler(self, rates: "AdaptiveState", dt: float) -> "AdaptiveState":
        return self.with_values(self.values + dt * rates.values)


@dataclass
class StepScratch:
    """Derivatives of alpha_{i-1} at the current point.

    grad_x / hess_x cover x_1..x_{i-1}.  The d_* lists hold one block: the
    closed-form partials in step i-1's own estimates (one-element lists, so
    that ``d_W[0]`` names that block).  est_flow is the sum over steps
    1..i-2 of the partials in their estimates times their rates, the time
    derivative of alpha_{i-1} along those steps' adaptive laws (0.0 for
    i = 2, which has no earlier steps).  ``failed`` flags the rows where
    these are not finite or an evaluation behind them failed.  ``base``
    holds step i-1's quantities at the point itself, which the jet pass or
    the difference stencil's base row evaluated on the way, so a forward
    pass does not evaluate step i-1 again.
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
    base: Optional[dict] = None      # step i-1's quantities at x


@dataclass
class ControlEval:
    """One full forward evaluation of the controller at a state (or a batch)."""

    z: np.ndarray                    # (..., n)
    alphas: np.ndarray               # (..., n-1): alpha_1..alpha_{n-1}
    u: float                         # (...)
    rates: AdaptiveState             # every step's rates, in the estimates' layout
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


def _gain(gains_i: StepGains, name: str, v: np.ndarray, out=None) -> np.ndarray:
    """Gamma_<name> v over the last axis of v, into ``out`` if given.  A
    diagonal Gamma is applied elementwise (the bits of the matrix product, at
    O(l) per row); a full one by a row reduction in a fixed order."""
    d = getattr(gains_i, "_diag_" + name)
    if d is not None:
        return np.multiply(d, v, out=out)
    return np.sum(getattr(gains_i, "Gamma_" + name) * v[..., None, :], axis=-1, out=out)


def adaptive_rates(i: int, z_i: float, w0, w1, w2, S_i: np.ndarray,
                   est: StepEstimates, gains_i: StepGains,
                   out: Optional[StepEstimates] = None) -> StepEstimates:
    """Leaky update rates: rate = Gamma (z^3 s - sigma * estimate), written
    into the views of ``out`` (a step of a rate state) if given."""
    z3 = np.asarray(z_i * z_i * z_i)
    shape = z3.shape
    z3v = z3[..., None]
    o = out if out is not None else StepEstimates(None, None, None, None)
    return StepEstimates(
        vartheta_hat=_gain(gains_i, "vartheta", z3v * stack_entries(w2, shape)
                           - gains_i.sigma_vartheta * est.vartheta_hat, o.vartheta_hat),
        p_hat=_gain(gains_i, "p", z3v * stack_entries(w1, shape)
                    - gains_i.sigma_p * est.p_hat, o.p_hat),
        eps_hat=np.multiply(gains_i.gamma_eps, z3 * w0 - gains_i.sigma_eps * est.eps_hat,
                            out=o.eps_hat),
        W_hat=_gain(gains_i, "w", z3v * S_i - gains_i.sigma_w * est.W_hat, o.W_hat),
    )


# ---------------------------------------------------------------------------
# generic step evaluation (floats or jets)
# ---------------------------------------------------------------------------

def _step_quantities(i, xs, est, gains_i: StepGains, plant, net: RbfNetwork,
                     scratch: Optional[StepScratch], rates_prev):
    """All step-i quantities at a point (or a batch of points); xs holds the
    state components, jets for i == 1 in the dual jet pass.  Step 1 has no
    earlier step to cancel: no scratch, an empty gradient and z_1 = x_1.
    Step n gives the control u, so it drops the term that passes an error
    onward."""
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
    if i < plant.n:
        terms = terms - 0.75 * jpow(jabs(g), 4.0 / 3.0) * z
    if i >= 2:
        terms = terms - 0.25 * z
        # the Ito coupling, skipped when the earlier steps' diffusion rows are
        # literal zeros (as _smoothed and _dot_seq skip such terms)
        if any(type(e) is not float or e != 0.0 for phi in phis[:-1] for e in phi):
            shape = np.shape(z)
            phi_rows = np.stack([stack_entries(phis[j], shape) for j in range(i - 1)], axis=-2)
            coupling = (phi_rows[..., :, None, :] * phi_rows[..., None, :, :]).sum(axis=-1)
            contracted = (scratch.hess_x * coupling).reshape(shape + (-1,))
            terms = terms + 0.5 * contracted.sum(axis=-1)
        for j in range(i - 1):
            terms = terms + grad[j] * plant.g[j](xs[: j + 1]) * xs[j + 1]
        if i >= 3:
            terms = terms + scratch.est_flow
        r = rates_prev.steps[i - 2]
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


def _rates_into(k, q, adaptive: AdaptiveState, gains: GainConfig, rates: AdaptiveState):
    """Step k's adaptive rates from its quantities ``q``, into ``rates``."""
    adaptive_rates(k, q["z"], q["w0"], q["w1"], q["w2"], q["S"], adaptive.steps[k - 1],
                   gains[k - 1], out=rates.steps[k - 1])


def _steps_below(i, x, adaptive: AdaptiveState, gains: GainConfig, plant, nets, mode: str):
    """What step i's scratch reads besides x: steps 1..i-2 at x and a rate
    state with their rates, from the recursion two levels below step i."""
    if i < 3:
        return [], adaptive.with_values(np.zeros(np.broadcast(x[..., :1], adaptive.values).shape))
    qs, rates = _steps_through(i - 2, x, adaptive, gains, plant, nets, mode)
    _rates_into(i - 2, qs[-1], adaptive, gains, rates)
    return qs, rates


def _steps_through(level, x, adaptive: AdaptiveState, gains: GainConfig, plant,
                   nets, mode: str):
    """Steps 1..level at a float point (or a batch of points).

    Returns every step's quantities and the rates, steps 1..level-1 filled.
    Each point is evaluated once: step ``level`` builds its own scratch,
    which evaluates step level-1 at x on the way (its ``base``: the jet pass
    in dual mode at level 2, else the stencil's base row), and steps
    1..level-2 with their rates come from :func:`_steps_below`, which a
    standalone :func:`compute_scratch` uses too.  A step's ``failed``
    includes the failures of the steps and scratches before it.
    """
    qs, rates = _steps_below(level, x, adaptive, gains, plant, nets, mode)
    scratch = None
    if level >= 2:
        scratch = compute_scratch(level, x, adaptive, gains, plant, nets, mode=mode, rates=rates)
        qs.append(scratch.base)
        _rates_into(level - 1, scratch.base, adaptive, gains, rates)
    qs.append(_step_quantities(level, [x[..., j] for j in range(x.shape[-1])],
                               adaptive.steps[level - 1], gains[level - 1], plant,
                               nets[level - 1], scratch, rates))
    return qs, rates


def _chain_alpha_value(level, x, adaptive: AdaptiveState, gains: GainConfig,
                       plant, nets, inner_mode: str):
    """Step ``level``'s quantities at a batch of float points x (..., level),
    and the rate state of steps 1..level-1 (step ``level``'s own rates are
    not computed).  Difference stencils evaluate all their points in one call,
    on a leading axis of x and of the estimates that differ per point."""
    qs, rates = _steps_through(level, x, adaptive, gains, plant, nets, inner_mode)
    return qs[-1], rates


# ---------------------------------------------------------------------------
# derivative propagation
# ---------------------------------------------------------------------------

def _scratch_first_level_jets(x, adaptive: AdaptiveState, gains: GainConfig,
                              plant, nets):
    """Jet pass through step 1: step 2's scratch, with the step-1 quantity
    values as its ``base``.

    Only x_1 is tagged: the estimates enter as plain numbers, and their
    partials come from :func:`_own_step_partials`.
    """
    out = _step_quantities(1, [variable(x[..., 0])], adaptive.steps[0], gains[0],
                           plant, nets[0], None, [])
    aj = out["alpha"]
    q = {k: _quantity_values(v) for k, v in out.items()}
    # alpha_1 is finite only if every regressor (hence every partial) is
    q["failed"] = q["failed"] | ~(np.isfinite(aj.val) & np.isfinite(aj.d1)
                                  & np.isfinite(aj.d2))
    d_vt, d_p, d_eps, d_W = _own_step_partials(q)
    return StepScratch(
        alpha=aj.val,
        grad_x=aj.d1[..., None],
        hess_x=aj.d2[..., None, None],
        d_vartheta=[d_vt], d_p=[d_p], d_eps=[d_eps], d_W=[d_W], est_flow=0.0,
        failed=q["failed"], base=q,
    )


def _quantity_values(v):
    if isinstance(v, Jet):
        return v.val
    if isinstance(v, list):
        return [_quantity_values(e) for e in v]
    return v


def _row0(v, rank: int):
    """Row 0 of a quantity evaluated over a stencil's points of batch rank
    ``rank``: lists entry by entry; a value without the point axis (a literal
    0.0 entry, a constant gain) as it is."""
    if isinstance(v, list):
        return [_row0(e, rank) for e in v]
    return v[0] if np.ndim(v) >= rank else v


@lru_cache(maxsize=None)
def _stencil(level: int):
    """A scratch's points as (signs, moved, first, M, J, K), built once per
    level: a sign per point and coordinate, whether the point moves that
    coordinate, and whether its step is the first-order one.  The M stencil
    rows are the base point, +-h1 along each coordinate, +-h2 along each, and
    (+-h2, +-h2) along each pair (J, K); from level 2 on two base rows
    follow."""
    J, K = np.triu_indices(level, 1)
    axis = [{j: s} for j in range(level) for s in (1.0, -1.0)]
    cross = [{j: sj, k: sk} for j, k in zip(J.tolist(), K.tolist())
             for sj, sk in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    moves = [{}] + axis + axis + cross + [{}, {}] * (level > 1)
    signs = np.array([[mv.get(j, 0.0) for j in range(level)] for mv in moves])
    first = (np.arange(len(moves)) <= 2 * level)[:, None]
    return signs, signs != 0.0, first, 1 + 4 * level + len(cross), J, K


def _scratch_numeric(level, x, adaptive: AdaptiveState, gains: GainConfig,
                     plant, nets, inner_mode: str, rates) -> StepScratch:
    """Central differences of alpha_level over the rows of one evaluation:
    the M stencil points at the held estimates, then two rows at x0 for the
    flow along the adaptive laws of steps 1..level-1 (none at level 1).  In
    those, the earlier steps' estimates, a prefix of the layout, move to
    est +- h * rate, with h = FD_STEP_FIRST * max(1, |est|) / |rate| (norms
    over steps 1..level-1); a zero rate gives exactly 0.0.  A moved
    coordinate is x0 + (+-h); an unmoved one is x0 itself.  Row 0, x0 at the
    held estimates, is the scratch's ``base``; the own-step partials come
    from it."""
    x0 = x[..., :level]
    h1 = FD_STEP_FIRST * np.maximum(1.0, np.abs(x0))
    h2 = FD_STEP_SECOND * np.maximum(1.0, np.abs(x0))
    signs, moved, first, m, J, K = _stencil(level)
    lead = (len(signs),) + (1,) * (x0.ndim - 1)
    signs, moved, first = (t.reshape(lead + t.shape[1:]) for t in (signs, moved, first))
    pts = np.where(moved, x0 + signs * np.where(first, h1, h2), x0)
    if level > 1:
        rate_norm, est_norm = _norm(rates, level - 1), _norm(adaptive, level - 1)
        still = rate_norm == 0.0
        h = FD_STEP_FIRST * np.maximum(1.0, est_norm) / np.where(still, 1.0, rate_norm)
        end, r = adaptive.ends[level - 1], rates.values
        est = np.empty((m + 2,) + r.shape)
        est[...] = adaptive.values
        est[m:, ..., :end] += np.stack((h, -h))[..., None] * r[..., :end]
        adaptive = adaptive.with_values(est)
    q, _ = _chain_alpha_value(level, pts, adaptive, gains, plant, nets, inner_mode)
    base = {k: _row0(v, pts.ndim - 1) for k, v in q.items()}
    a = np.broadcast_to(q["alpha"], pts.shape[:-1])
    alpha0, n2 = a[0], 2 * level
    grad_x = np.moveaxis(a[1:n2 + 1:2] - a[2:n2 + 2:2], 0, -1) / (2.0 * h1)
    hess = np.empty(x0.shape + (level,))
    diag = np.arange(level)
    hess[..., diag, diag] = np.moveaxis(a[n2 + 1:2 * n2 + 1:2] - 2.0 * alpha0
                                        + a[n2 + 2:2 * n2 + 2:2], 0, -1) / (h2 * h2)
    c = a[2 * n2 + 1:m].reshape((len(J), 4) + a.shape[1:])
    hess[..., J, K] = hess[..., K, J] = (np.moveaxis(c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3], 0, -1)
                                         / (4.0 * h2[..., J] * h2[..., K]))

    flow = np.where(still, 0.0, (a[m] - a[m + 1]) / (2.0 * h)) if level > 1 else 0.0
    finite = (np.isfinite(alpha0) & np.all(np.isfinite(grad_x), axis=-1)
              & np.all(np.isfinite(hess), axis=(-2, -1)) & np.isfinite(flow))
    failed = np.any(np.broadcast_to(q["failed"], a.shape), axis=0) | ~finite
    d_vt, d_p, d_eps, d_W = ([d] for d in _own_step_partials(base))
    return StepScratch(alpha0, grad_x, hess, d_vt, d_p, d_eps, d_W, flow, failed, base)


def _norm(state: AdaptiveState, k: int) -> np.ndarray:
    """Euclidean norm of steps 1..k's estimates (or rates) as one vector,
    summed kind by kind, step after step: one flat sum rounds differently."""
    sq = 0.0
    for b in state.steps[:k]:
        sq = sq + ((b.vartheta_hat * b.vartheta_hat).sum(axis=-1)
                   + (b.p_hat * b.p_hat).sum(axis=-1) + b.eps_hat * b.eps_hat
                   + (b.W_hat * b.W_hat).sum(axis=-1))
    return np.sqrt(sq)


@np.errstate(all="ignore")     # failed rows are flagged, not warned about
def compute_scratch(i: int, x, adaptive: AdaptiveState, gains: GainConfig,
                    plant, nets, mode: str = "dual", rates=None) -> StepScratch:
    """Derivatives of alpha_{i-1} in the states and the estimates.

    The partials in step i-1's own estimates are exact in both modes (closed
    form, see :func:`_own_step_partials`).  mode "dual" runs a degree-2
    Taylor jet in x_1 (exact) for the first recursion level; for deeper
    levels the state derivatives and the estimate flow of the earlier steps
    are central differences over the rows of one evaluation
    (:func:`_scratch_numeric`), whose steps take their own scratches the
    same way, down to the jet pass.  mode "numeric" uses central differences
    at every level.  ``rates`` is the rate state at x the calling pass holds
    (steps 1..i-2 are read); without it they come from
    :func:`_steps_below`, as in a pass.  This is the one place where the
    mode picks the jet pass or a stencil.
    """
    if i < 2:
        raise ValueError("scratch is defined for steps i >= 2")
    if mode not in ("dual", "numeric"):
        raise ValueError(f"unknown scratch mode {mode!r}")
    x = np.asarray(x, dtype=float)
    if rates is None:
        rates = _steps_below(i, x, adaptive, gains, plant, nets, mode)[1]
    if mode == "dual" and i == 2:
        return _scratch_first_level_jets(x, adaptive, gains, plant, nets)
    return _scratch_numeric(i - 1, x, adaptive, gains, plant, nets, mode, rates)


# ---------------------------------------------------------------------------
# public control-law entry points
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def alpha_1(x1: float, adaptive: AdaptiveState, gains: GainConfig, plant,
            nets) -> float:
    """Step 1's law at x_1: alpha_1 (u itself for a one-state plant)."""
    q = _step_quantities(1, [np.asarray(x1, dtype=float)], adaptive.steps[0],
                         gains[0], plant, nets[0], None, [])
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
    qs, rates = _steps_through(n, x, adaptive, gains, plant, nets, mode)
    last = qs[-1]
    _rates_into(n, last, adaptive, gains, rates)
    z = stack_entries([q["z"] for q in qs], shape)
    alphas = stack_entries([q["alpha"] for q in qs[:-1]], shape)
    failed = np.zeros(shape, dtype=bool)
    for q in qs:
        failed = failed | q["failed"]
    return ControlEval(z=z, alphas=alphas, u=last["alpha"], rates=rates, failed=failed)
