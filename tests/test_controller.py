import math

import numpy as np
import pytest

from ancsim import controller
from ancsim.config import load_bundled
from ancsim.controller import (AdaptiveState, GainConfig, StepEstimates, StepGains, adaptive_rates,
                               alpha_1, compute_scratch, forward_pass,
                               nn_input, tanh_bound_terms)
from ancsim.ineq import TANH_ABSORPTION_DELTA
from ancsim.plant import StrictFeedbackPlant
from ancsim.rbf import CenterLayout, RbfNetwork, basis, make_centers
from ancsim.rng import derive_stream

# frozen from the hand evaluation -(c1 + 0.75 + (3/(4*0.3)) cos^4(1)) with
# the bundled step-1 gains; see test_alpha1_matches_hand_formula
ALPHA1_AT_ONE = -1.2630528227961935
# regression lock: u at x=(0.1,-0.1) with the bundled initial estimates
U_GOLDEN = 0.09476586295722059


def random_estimates(stream, l2=64):
    return AdaptiveState([
        StepEstimates(stream.uniform(2, -1, 1), stream.uniform(1, 0, 1),
                      float(stream.uniform(1, -0.5, 0.5)[0]),
                      stream.uniform(27, -1, 1)),
        StepEstimates(stream.uniform(2, -1, 1), stream.uniform(2, 0, 1),
                      float(stream.uniform(1, -0.5, 0.5)[0]),
                      stream.uniform(l2, -1, 1)),
    ])


# ---------------------------------------------------------------------------
# coordinate change and network inputs
# ---------------------------------------------------------------------------

def test_coord_change_identity_for_zero_alphas(section4_config, zero_estimates):
    # with zero estimates and x_1 = 0 the virtual control vanishes, so z = x
    cfg = section4_config
    x = np.array([0.0, -0.7])
    for mode in ("dual", "numeric"):
        ev = forward_pass(x, zero_estimates, cfg.gains, cfg.plant,
                          cfg.networks, mode=mode)
        assert np.all(ev.alphas == 0.0)
        assert np.array_equal(ev.z, x)


def test_coord_change_arithmetic_and_roundtrip(section4_config):
    cfg = section4_config
    x = np.array([1.0, 2.0])
    ev = forward_pass(x, cfg.initial_estimates, cfg.gains, cfg.plant,
                      cfg.networks)
    assert ev.alphas[0] != 0.0
    assert ev.z[0] == x[0]
    assert np.allclose(ev.z[1], x[1] - ev.alphas[0])
    x_back = ev.z.copy()
    x_back[1] += ev.alphas[0]
    assert np.allclose(x_back, x, rtol=0, atol=1e-15)


def test_nn_input_layouts():
    assert nn_input(1, [0.3]) == [0.3]
    vec = nn_input(2, [1.0, -1.0], alpha_prev=-1.78, grad_prev=[-2.1])
    assert vec == [1.0, -1.0, -1.78, -2.1]
    vec = nn_input(3, [1.0, -1.0, 0.5], alpha_prev=0.2, grad_prev=[0.3, -0.4])
    assert vec == [1.0, -1.0, 0.5, 0.2, 0.3, -0.4]


# ---------------------------------------------------------------------------
# smoothed compensation terms
# ---------------------------------------------------------------------------

def small_gains(i=1):
    return StepGains(c=0.3, Gamma_vartheta=0.3 * np.eye(2),
                     Gamma_p=0.3 * np.eye(i), gamma_eps=0.3,
                     Gamma_w=0.3 * np.eye(4), sigma_vartheta=0.3, sigma_p=0.3,
                     sigma_eps=0.3, sigma_w=0.3, eps0=0.3, eps1=0.3, eps2=0.3,
                     young_eps1=0.3)


def test_bound_terms_vanish_at_zero_error():
    est = StepEstimates(np.array([1.0, -2.0]), np.array([3.0]), 4.0, np.zeros(4))
    b0, b1, b2, w0, w1, w2 = tanh_bound_terms(1, 0.0, [5.0], [1.0, 2.0],
                                              est, small_gains())
    assert b0 == b1 == b2 == 0.0
    assert w0 == 0.0 and all(v == 0.0 for v in w1) and all(v == 0.0 for v in w2)


def test_bound_terms_saturate_to_estimate_times_stack():
    est = StepEstimates(np.zeros(2), np.array([2.0]), 0.0, np.zeros(4))
    b0, b1, b2, _, _, _ = tanh_bound_terms(1, 10.0, [3.0], [0.0, 0.0],
                                           est, small_gains())
    assert abs(b1 - 6.0) < 1e-9          # tanh saturated to 1


def test_bound_terms_absorption_inequality_sampled():
    stream = derive_stream(21, 0)
    zs = stream.uniform(100_000, -2.0, 2.0)
    phis = stream.uniform(100_000, 0.0, 5.0)
    gap = (np.abs(zs ** 3) * phis
           - zs ** 3 * phis * np.tanh(zs ** 3 * phis / 0.3))
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= TANH_ABSORPTION_DELTA * 0.3 + 1e-12)


# ---------------------------------------------------------------------------
# first intermediate law
# ---------------------------------------------------------------------------

def test_alpha1_structural_zero(section4_config, zero_estimates):
    cfg = section4_config
    a = alpha_1(0.0, zero_estimates, cfg.gains, cfg.plant, cfg.networks)
    assert a == 0.0


def test_alpha1_matches_hand_formula(section4_config, zero_estimates):
    cfg = section4_config
    a = alpha_1(1.0, zero_estimates, cfg.gains, cfg.plant, cfg.networks)
    hand = -(0.3 * 1.0 + 0.75 * 1.0
             + (3.0 / (4.0 * 0.3)) * math.cos(1.0) ** 4)
    assert abs(a - hand) < 1e-14
    assert abs(a - ALPHA1_AT_ONE) < 1e-12


def test_alpha1_is_stabilizing_for_positive_state(section4_config, zero_estimates):
    cfg = section4_config
    for x1 in derive_stream(22, 0).uniform(1000, 1e-9, 3.0):
        assert alpha_1(x1, zero_estimates, cfg.gains, cfg.plant,
                       cfg.networks) < 0.0


def test_alpha1_independent_of_second_state(section4_config, zero_estimates):
    cfg = section4_config
    sc_a = compute_scratch(2, [0.7, -0.3], zero_estimates, cfg.gains,
                           cfg.plant, cfg.networks)
    sc_b = compute_scratch(2, [0.7, 5.0], zero_estimates, cfg.gains,
                           cfg.plant, cfg.networks)
    assert sc_a.alpha == sc_b.alpha
    assert np.array_equal(sc_a.grad_x, sc_b.grad_x)


# ---------------------------------------------------------------------------
# adaptive update laws
# ---------------------------------------------------------------------------

def test_rates_vanish_at_zero_error_and_zero_estimates():
    est = StepEstimates(np.zeros(2), np.zeros(1), 0.0, np.zeros(4))
    r = adaptive_rates(1, 0.0, 0.0, [0.0], [0.0, 0.0], np.zeros(4), est,
                       small_gains())
    assert np.all(r.vartheta_hat == 0) and np.all(r.p_hat == 0)
    assert r.eps_hat == 0.0 and np.all(r.W_hat == 0)


def test_rates_pure_leakage_decay():
    w0 = np.array([1.0, -2.0, 0.5, 0.0])
    est = StepEstimates(np.zeros(2), np.zeros(1), 0.0, w0)
    r = adaptive_rates(1, 0.0, 0.0, [0.0], [0.0, 0.0], np.zeros(4), est,
                       small_gains())
    assert np.allclose(r.W_hat, -0.3 * 0.3 * w0)


def test_rates_scalar_arithmetic():
    # gamma (z^3 w0 - sigma eps_hat) = 0.3 (1 - 0.3*2) = 0.12
    est = StepEstimates(np.zeros(2), np.zeros(1), 2.0, np.zeros(4))
    r = adaptive_rates(1, 1.0, 1.0, [0.0], [0.0, 0.0], np.zeros(4), est,
                       small_gains())
    assert abs(r.eps_hat - 0.12) < 1e-15


def test_frozen_gain_direction_never_moves(section4_config):
    # Gamma_p at step 2 is diag(0.4, 0): the second entry may not adapt
    cfg = section4_config
    stream = derive_stream(23, 0)
    adaptive = random_estimates(stream)
    ev = forward_pass(stream.uniform(2, -1, 1), adaptive, cfg.gains,
                      cfg.plant, cfg.networks)
    assert ev.rates[1].p_hat[1] == 0.0


# ---------------------------------------------------------------------------
# derivative propagation
# ---------------------------------------------------------------------------

def test_scratch_modes_agree(section4_config):
    cfg = section4_config
    stream = derive_stream(24, 0)
    for _ in range(10):
        x = stream.uniform(2, -2.0, 2.0)
        adaptive = random_estimates(stream)
        d = compute_scratch(2, x, adaptive, cfg.gains, cfg.plant,
                            cfg.networks, mode="dual")
        n = compute_scratch(2, x, adaptive, cfg.gains, cfg.plant,
                            cfg.networks, mode="numeric")
        assert abs(d.alpha - n.alpha) < 1e-12
        assert abs(d.grad_x[0] - n.grad_x[0]) <= 1e-4 * max(1.0, abs(d.grad_x[0]))
        assert abs(d.hess_x[0, 0] - n.hess_x[0, 0]) <= \
            1e-2 * max(1.0, abs(d.hess_x[0, 0]))
        # both modes take the estimate partials from one closed form; check
        # it against central differences of alpha_1 instead of against itself
        assert_own_step_partials(
            x, adaptive, (cfg.gains, cfg.plant, cfg.networks), 0,
            lambda a: alpha_1(x[0], a, cfg.gains, cfg.plant, cfg.networks))


def test_scratch_estimate_partials_match_linearity(section4_config, zero_estimates):
    # alpha_1 is linear in each estimate block, so the jet-propagated
    # partials must equal the closed forms -w/g etc.
    cfg = section4_config
    stream = derive_stream(24, 1)
    for _ in range(5):
        x = stream.uniform(2, -2.0, 2.0)
        adaptive = random_estimates(stream)
        sc = compute_scratch(2, x, adaptive, cfg.gains, cfg.plant, cfg.networks)
        g1 = 1.0
        S1 = basis(cfg.networks[0], np.array([x[0]]))
        assert np.allclose(sc.d_W[0], -S1 / g1, rtol=0, atol=1e-12)
        z3 = x[0] ** 3
        w10 = math.tanh(z3 / cfg.gains[0].eps0)
        assert abs(sc.d_eps[0] - (-w10 / g1)) < 1e-12
        Phi1 = abs(x[0])
        w11 = Phi1 * math.tanh(z3 * Phi1 / cfg.gains[0].eps1)
        assert abs(sc.d_p[0][0] - (-w11 / g1)) < 1e-12
        assert np.allclose(sc.d_vartheta[0], 0.0)   # step-1 envelope is zero


ESTIMATE_BLOCKS = ("vartheta_hat", "p_hat", "eps_hat", "W_hat")


def fd_estimate_partials(alpha_of, adaptive, j, h=1e-5):
    """Central differences of ``alpha_of(estimates)`` in each entry of step
    j's estimate blocks, in (vartheta, p, eps, W) order."""
    out = []
    for attr in ESTIMATE_BLOCKS:
        size = np.size(getattr(adaptive.steps[j], attr))
        part = np.empty(size)
        for k in range(size):
            ends = []
            for delta in (h, -h):
                moved = adaptive.copy()
                if attr == "eps_hat":
                    moved.steps[j].eps_hat += delta
                else:
                    getattr(moved.steps[j], attr)[k] += delta
                ends.append(alpha_of(moved))
            part[k] = (ends[0] - ends[1]) / (2.0 * h)
        out.append(part)
    return out


def assert_own_step_partials(x, adaptive, cfg_parts, j, alpha_of):
    """Both scratch modes' step-j estimate partials of alpha_j (closed form,
    the scratch's one own-step block) against central differences of alpha_j
    itself."""
    gains, plant, nets = cfg_parts
    fd = fd_estimate_partials(alpha_of, adaptive, j)
    for mode in ("dual", "numeric"):
        sc = compute_scratch(j + 2, x, adaptive, gains, plant, nets, mode=mode)
        closed = [sc.d_vartheta[0], sc.d_p[0], [sc.d_eps[0]], sc.d_W[0]]
        for attr, c, f in zip(ESTIMATE_BLOCKS, closed, fd):
            assert np.allclose(c, f, rtol=1e-7, atol=1e-9), (mode, attr, c, f)
    return fd


def test_scratch_estimate_partials_with_state_dependent_gain():
    # remark1: g_1 = 1 + x_1^2 and a non-zero step-1 envelope, so every
    # block of -(w2, w1, w0, S) / g_1 is non-trivial
    cfg = load_bundled("remark1")
    stream = derive_stream(24, 2)
    for _ in range(3):
        x = stream.uniform(2, -1.0, 1.0)
        adaptive = random_estimates(stream)
        fd = assert_own_step_partials(
            x, adaptive, (cfg.gains, cfg.plant, cfg.networks), 0,
            lambda a: alpha_1(x[0], a, cfg.gains, cfg.plant, cfg.networks))
        # the envelope's second entry is identically zero in remark1
        assert fd[0][0] != 0.0 and fd[1][0] != 0.0 and fd[2][0] != 0.0


def cascade3_estimates(stream):
    return AdaptiveState([
        StepEstimates(stream.uniform(1, -1, 1), stream.uniform(i, 0, 1),
                      float(stream.uniform(1, -0.5, 0.5)[0]), stream.uniform(6, -1, 1))
        for i in (1, 2, 3)])


def test_third_order_own_step_partials_at_level_two():
    # d alpha_2 / d(step-2 estimates) of the cascade, closed form in both
    # modes, against central differences of alpha_2 from forward_pass
    cfg = load_bundled("cascade3")
    gains, plant, nets = cfg.gains, cfg.plant, cfg.networks
    adaptive = cascade3_estimates(derive_stream(24, 3))
    x = np.array([0.3, -0.2, 0.1])
    fd = assert_own_step_partials(
        x, adaptive, (gains, plant, nets), 1,
        lambda a: forward_pass(x, a, gains, plant, nets).alphas[1])
    assert fd[2][0] != 0.0 and np.all(fd[3] != 0.0)


def test_estimate_flow_matches_per_entry_partials_times_rates():
    # est_flow is d alpha_2/dt along the step-1 adaptive laws: the per-entry
    # central differences of alpha_2 in the step-1 estimates, dotted with
    # forward_pass's step-1 rates
    cfg = load_bundled("cascade3")
    gains, plant, nets = cfg.gains, cfg.plant, cfg.networks
    stream = derive_stream(24, 5)
    for _ in range(20):
        x = stream.uniform(3, -1.0, 1.0)
        adaptive = cascade3_estimates(stream)
        ev = forward_pass(x, adaptive, gains, plant, nets)
        fd = fd_estimate_partials(
            lambda a: forward_pass(x, a, gains, plant, nets).alphas[1], adaptive, 0)
        r1 = ev.rates[0]
        ref = sum(float(np.dot(part, np.atleast_1d(getattr(r1, attr))))
                  for attr, part in zip(ESTIMATE_BLOCKS, fd))
        for mode in ("dual", "numeric"):
            sc = compute_scratch(3, x, adaptive, gains, plant, nets, mode=mode)
            assert abs(sc.est_flow - ref) <= 1e-5 * max(1.0, abs(ref)), (mode, sc.est_flow, ref)


def test_estimate_flow_enters_the_control_law(monkeypatch):
    # the step-3 law adds est_flow to its terms before dividing by g_3 = 1
    cfg = load_bundled("cascade3")
    adaptive = cascade3_estimates(derive_stream(24, 6))
    x = np.array([0.3, -0.2, 0.1])
    u = forward_pass(x, adaptive, cfg.gains, cfg.plant, cfg.networks).u
    real = controller.compute_scratch

    def shifted(i, *args, **kwargs):
        sc = real(i, *args, **kwargs)
        if i == 3:
            sc.est_flow += 1.0
        return sc
    monkeypatch.setattr(controller, "compute_scratch", shifted)
    shifted_u = forward_pass(x, adaptive, cfg.gains, cfg.plant, cfg.networks).u
    assert abs(shifted_u - (u + 1.0)) <= 1e-12 * max(1.0, abs(u))


def test_estimate_flow_vanishes_with_the_step1_rates():
    # x_1 = 0 and zero step-1 estimates: z_1 = 0 and no leakage, so every
    # step-1 rate is zero and so is the flow, exactly
    cfg = load_bundled("cascade3")
    adaptive = cascade3_estimates(derive_stream(24, 7))
    adaptive.steps[0] = cfg.initial_estimates.steps[0].copy()
    x = np.array([0.0, -0.4, 0.2])
    for mode in ("dual", "numeric"):
        sc = compute_scratch(3, x, adaptive, cfg.gains, cfg.plant, cfg.networks, mode=mode)
        assert sc.est_flow == 0.0


def test_level1_jet_tags_x1_only(section4_config, monkeypatch):
    # each jet pass tags x_1 and nothing else; the estimates enter as plain
    # numbers, so every step-1 jet carries d/dx_1 and d^2/dx_1^2 entry by
    # entry, in its value's shape
    cfg = section4_config
    tagged, passes = [], []
    real_variable, real_quantities = controller.variable, controller._step_quantities

    def recording_variable(val):
        tagged.append(val)
        return real_variable(val)

    def recording_quantities(i, xs, *args, **kwargs):
        out = real_quantities(i, xs, *args, **kwargs)
        if isinstance(xs[0], controller.Jet):
            passes.append(out)
        return out
    monkeypatch.setattr(controller, "variable", recording_variable)
    monkeypatch.setattr(controller, "_step_quantities", recording_quantities)
    adaptive = random_estimates(derive_stream(24, 4))
    compute_scratch(2, [0.4, -0.3], adaptive, cfg.gains, cfg.plant, cfg.networks)
    forward_pass(np.array([0.4, -0.3]), adaptive, cfg.gains, cfg.plant, cfg.networks)
    assert tagged == [0.4, 0.4] and len(passes) == 2

    def jets(v):
        if isinstance(v, controller.Jet):
            yield v
        elif isinstance(v, list):
            for e in v:
                yield from jets(e)
    for out in passes:
        found = [j for v in out.values() for j in jets(v)]
        assert isinstance(out["alpha"], controller.Jet) and isinstance(out["S"], controller.Jet)
        for j in found:
            assert np.shape(j.d1) == np.shape(j.val) == np.shape(j.d2)


def test_level2_scratch_chain_evaluation_count(monkeypatch):
    # 13 chain evaluations for the state gradient and Hessian plus two for
    # the estimate flow along the step-1 rates; the step-2 partials take none.
    # Each stencil's points are the rows of one call: rows are counted
    cfg = load_bundled("cascade3")
    plant, nets, gains, est = cfg.plant, cfg.networks, cfg.gains, cfg.initial_estimates
    calls = []
    real = controller._chain_alpha_value

    def counting(*args, **kwargs):
        calls.append((args[0], len(args[1])))
        return real(*args, **kwargs)
    monkeypatch.setattr(controller, "_chain_alpha_value", counting)
    compute_scratch(3, [0.3, -0.2, 0.1], est, gains, plant, nets, mode="dual")
    assert calls == [(2, 13), (2, 2)]


def test_scratch_rejects_first_step():
    with pytest.raises(ValueError):
        compute_scratch(1, [0.0], None, None, None, None)


def test_scratch_flags_nonfinite_derivatives(section4_config):
    cfg = section4_config
    broken = cfg.initial_estimates.copy()
    broken.steps[0].W_hat[0] = np.nan
    for mode in ("dual", "numeric"):
        assert compute_scratch(2, [0.5, -0.5], broken, cfg.gains, cfg.plant,
                               cfg.networks, mode=mode).failed
        assert not compute_scratch(2, [0.5, -0.5], cfg.initial_estimates, cfg.gains,
                                   cfg.plant, cfg.networks, mode=mode).failed


# ---------------------------------------------------------------------------
# final control law
# ---------------------------------------------------------------------------

def hand_two_step_u(x, adaptive, cfg):
    """Independent transcription of the printed second-order control law."""
    x1, x2 = x
    g1, g2 = 1.0, 1.0 + 0.5 * math.sin(x1)
    e1, e2 = adaptive.steps
    ga1, ga2 = cfg.gains[0], cfg.gains[1]

    z1 = x1
    z13 = z1 ** 3
    Phi1 = abs(x1)
    phi1 = x1 * math.cos(x1)
    w10 = math.tanh(z13 / ga1.eps0)
    w11 = Phi1 * math.tanh(z13 * Phi1 / ga1.eps1)
    S1 = basis(cfg.networks[0], np.array([x1]))
    alpha1 = (-ga1.c * z1 - 0.75 * g1 ** (4 / 3) * z1 - e1.eps_hat * w10
              - e1.p_hat[0] * w11 - e1.W_hat @ S1
              - (3 * z1 / (4 * ga1.young_eps1)) * phi1 ** 4) / g1

    sc = compute_scratch(2, x, adaptive, cfg.gains, cfg.plant, cfg.networks)
    a1x, a1xx = sc.grad_x[0], sc.hess_x[0, 0]
    r1 = adaptive_rates(1, z1, w10, [w11], [0.0, 0.0], S1, e1, ga1)

    z2 = x2 - alpha1
    z23 = z2 ** 3
    Phi2_stack = np.array([a1x * Phi1, 0.0])
    varphi2 = np.array([0.0, abs(x2)])
    phi2 = math.sin(x2)
    w20 = math.tanh(z23 / ga2.eps0)
    w21 = Phi2_stack * np.tanh(z23 * Phi2_stack / ga2.eps1)
    w22 = varphi2 * np.tanh(z23 * varphi2 / ga2.eps2)
    S2 = basis(cfg.networks[1], np.array([x1, x2, alpha1, a1x]))
    rho = phi2 - a1x * phi1
    u = (-ga2.c * z2 - 0.25 * z2 - e2.eps_hat * w20 - e2.p_hat @ w21
         - e2.vartheta_hat @ w22 - e2.W_hat @ S2
         + 0.5 * a1xx * phi1 ** 2
         + a1x * g1 * x2
         + sc.d_vartheta[0] @ r1.vartheta_hat + sc.d_p[0] @ r1.p_hat
         + sc.d_eps[0] * r1.eps_hat + sc.d_W[0] @ r1.W_hat
         - (3 * z2 / (4 * ga2.young_eps1)) * rho ** 4) / g2
    return alpha1, u


def test_u_matches_independent_two_step_transcription(section4_config):
    cfg = section4_config
    stream = derive_stream(25, 0)
    for _ in range(25):
        x = stream.uniform(2, -2.0, 2.0)
        adaptive = random_estimates(stream)
        a_ref, u_ref = hand_two_step_u(x, adaptive, cfg)
        ev = forward_pass(x, adaptive, cfg.gains, cfg.plant, cfg.networks)
        assert abs(ev.alphas[0] - a_ref) <= 1e-12 * max(1.0, abs(a_ref))
        assert abs(ev.u - u_ref) <= 1e-9 * max(1.0, abs(u_ref))


def test_u_structural_zero(section4_config, zero_estimates):
    cfg = section4_config
    ev = forward_pass(np.zeros(2), zero_estimates, cfg.gains, cfg.plant,
                      cfg.networks)
    assert ev.u == 0.0 and np.all(ev.alphas == 0.0)


def test_u_golden_regression(section4_config):
    cfg = section4_config
    ev = forward_pass(np.array([0.1, -0.1]), cfg.initial_estimates, cfg.gains,
                      cfg.plant, cfg.networks)
    assert abs(ev.u - U_GOLDEN) < 1e-12


def test_u_finite_over_gain_sweep(section4_config, zero_estimates):
    # g2 = 1 + 0.5 sin(x1) stays in [0.5, 1.5]; u must stay finite
    cfg = section4_config
    for x1 in np.linspace(-np.pi, np.pi, 61):
        ev = forward_pass(np.array([x1, 0.3]), zero_estimates, cfg.gains,
                          cfg.plant, cfg.networks)
        assert np.isfinite(ev.u)


def test_u_agrees_across_scratch_modes(section4_config):
    cfg = section4_config
    stream = derive_stream(27, 0)
    for _ in range(10):
        x = stream.uniform(2, -2.0, 2.0)
        adaptive = random_estimates(stream)
        u_dual = forward_pass(x, adaptive, cfg.gains, cfg.plant, cfg.networks,
                              mode="dual").u
        u_num = forward_pass(x, adaptive, cfg.gains, cfg.plant, cfg.networks,
                             mode="numeric").u
        assert abs(u_dual - u_num) <= 1e-6 * max(1.0, abs(u_dual))


def test_singular_gain_fails_the_row():
    plant = StrictFeedbackPlant(
        name="singular", n=1, r=1, q=1,
        g=[lambda xb: xb[0]], f=[lambda xb: 0.0],
        theta_star=np.zeros(1), Psi=[lambda xb: np.zeros(1)],
        Delta=[lambda x, t: 0.0], phi=[lambda xb: [0.0]],
        Phi_bound=[lambda xb: 0.0], p_star=np.zeros(1),
        varphi_bound=[lambda xb: [0.0]], b_star=np.zeros((1, 1)))
    net = RbfNetwork(1, make_centers(CenterLayout("tensor-grid", [(-1, 1)],
                                                  total=3)), 1.0, np.zeros(3))
    gains = GainConfig([StepGains(0.3, 0.3 * np.eye(1), 0.3 * np.eye(1), 0.3,
                                  0.3 * np.eye(3), 0.3, 0.3, 0.3, 0.3,
                                  0.3, 0.3, 0.3, 0.3)])
    est = AdaptiveState([StepEstimates(np.zeros(1), np.zeros(1), 0.0,
                                       np.zeros(3))])
    assert forward_pass(np.array([0.0]), est, gains, plant, [net]).failed
    assert not forward_pass(np.array([0.5]), est, gains, plant, [net]).failed
    # one row of a batch fails alone
    batch = AdaptiveState([StepEstimates(np.zeros((3, 1)), np.zeros((3, 1)),
                                         np.zeros(3), np.zeros((3, 3)))])
    ev = forward_pass(np.array([[0.5], [0.0], [-0.5]]), batch, gains, plant, [net])
    assert ev.failed.tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# third-order cascade: exercises the middle-step recursion
# ---------------------------------------------------------------------------

def test_third_order_forward_pass_and_scratch_consistency():
    cfg = load_bundled("cascade3")
    plant, nets, gains, est = cfg.plant, cfg.networks, cfg.gains, cfg.initial_estimates
    x = np.array([0.3, -0.2, 0.1])
    ev = forward_pass(x, est, gains, plant, nets)
    assert np.all(np.isfinite(ev.z)) and np.isfinite(ev.u)
    # error coordinates: z_1 = x_1, z_i = x_i - alpha_{i-1}
    assert ev.z[0] == x[0]
    # (alpha_{i-1} inside step i is re-evaluated through the scratch)
    assert np.allclose(ev.z[1:], x[1:] - ev.alphas, rtol=0, atol=1e-12)
    # the two modes chain differently above the first level but must agree
    d = compute_scratch(3, x, est, gains, plant, nets, mode="dual")
    n = compute_scratch(3, x, est, gains, plant, nets, mode="numeric")
    assert np.allclose(d.grad_x, n.grad_x, rtol=1e-4, atol=1e-6)
    assert np.allclose(d.hess_x, n.hess_x, rtol=5e-2, atol=1e-3)


def test_third_order_regulation_noise_free():
    cfg = load_bundled("cascade3")
    plant, nets, gains, est = cfg.plant, cfg.networks, cfg.gains, cfg.initial_estimates
    x = np.array([0.3, -0.2, 0.1])
    dt = 5e-3
    for k in range(400):
        ev = forward_pass(x, est, gains, plant, nets)
        dx = np.array([x[1], x[2], ev.u]) + np.array(
            [0.2 * math.sin(x[0]), 0.1 * x[1] * math.cos(x[0]), 0.1 * x[2]])
        x = x + dt * dx
        est = est.euler(ev.rates, dt)
    assert np.linalg.norm(x) < 0.5 * np.linalg.norm([0.3, -0.2, 0.1])
