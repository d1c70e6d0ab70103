import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from ancsim import controller
from ancsim.config import load_bundled
from ancsim.controller import (AdaptiveState, GainConfig, StepEstimates, StepGains, adaptive_rates,
                               alpha_1, compute_scratch, forward_pass,
                               nn_input, tanh_bound_terms)
from ancsim.ineq import TANH_ABSORPTION_DELTA
from ancsim.plant import StrictFeedbackPlant
from ancsim.rbf import CenterLayout, RbfNetwork, make_centers
from ancsim.rng import derive_stream

# frozen from the hand evaluation -(c1 + 0.75 + (3/(4*0.3)) cos^4(1)) with
# the bundled step-1 gains; see test_alpha1_matches_hand_formula
ALPHA1_AT_ONE = -1.2630528227961935
# regression lock: u at x=(0.1,-0.1) with the bundled initial estimates
U_GOLDEN = 0.09476586295722059


def basis(net, Z):
    """s_i(Z) = exp(-|Z - mu_i|^2 / eta^2), written out for the hand
    transcriptions below, apart from the controller's own basis."""
    d = np.asarray(Z, dtype=float) - net.centers
    return np.exp(-np.sum(d * d, axis=1) / net.width ** 2)


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

def test_estimates_are_views_into_one_flat_array():
    # step-major, (vartheta, p, eps, W) within a step; every field writes
    # the one array, and copies and pickles keep their views bound
    a = AdaptiveState([StepEstimates(np.array([1.0]), np.array([2.0]), 3.0, np.array([4.0, 5.0])),
                       StepEstimates(np.array([6.0]), np.array([7.0, 8.0]), 9.0, np.array([10.0]))])
    assert a.values.tolist() == [float(v) for v in range(1, 11)] and a.ends == (0, 5, 10)
    a.steps[1].eps_hat += 0.5
    a.steps[0].W_hat[1] = -5.0
    assert a.values[8] == 9.5 and a.values[4] == -5.0 and a.steps[1].eps_hat.shape == ()
    with pytest.raises(TypeError):
        a.steps[0] = a.steps[1]
    for b in (a.copy(), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        b.steps[1].p_hat[0] = 0.0
        assert b.values[6] == 0.0 and a.values[6] == 7.0
    rows = a.with_values(np.stack([a.values, -a.values]))
    assert rows.steps[1].eps_hat.tolist() == [9.5, -9.5]
    assert np.array_equal(rows.euler(rows, 0.5).values, 1.5 * rows.values)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["one", "B3"])
def test_assigning_a_bound_field_writes_the_state(batch):
    # state.steps[k].<field> = v writes v into the state's array, as an item
    # write does, in the state itself, a copy and an unpickled state; the
    # field stays a view, and the other states keep their values
    def est(q, i, l):
        return StepEstimates(np.ones(batch + (q,)), np.ones(batch + (i,)),
                             1.0 if batch == () else np.ones(batch), np.ones(batch + (l,)))
    a = AdaptiveState([est(2, 1, 4), est(1, 2, 3)])
    for b in (a, a.copy(), pickle.loads(pickle.dumps(a))):
        for k, slices in enumerate(b.layout):
            for field, where in zip(ESTIMATE_BLOCKS, slices):
                others = a.values.copy()
                want = -np.arange(1.0, 1.0 + b.values[..., where].size).reshape(
                    b.values[..., where].shape)
                setattr(b.steps[k], field, want if want.ndim else float(want))
                assert np.array_equal(b.values[..., where], want), (k, field)
                assert np.shares_memory(getattr(b.steps[k], field), b.values)
                if b is not a:
                    assert np.array_equal(a.values, others)
    assert not np.any(a.values == 1.0)
    # a free-standing record, such as rates without ``out``, is plain
    r = adaptive_rates(1, 0.5, 0.1, [0.2], [0.3, 0.4], np.ones(4), a.steps[0], small_gains())
    r.eps_hat = "rebound"
    assert type(r) is StepEstimates and r.eps_hat == "rebound"


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
    assert ev.rates.steps[1].p_hat[1] == 0.0


def test_gamma_reassignment_takes_effect_at_the_next_rates(section4_config):
    # whether a Gamma is diagonal is decided when it is assigned; the next
    # adaptive_rates applies the new matrix, diagonal -> full -> diagonal.
    # At z = 0 the step-2 p-rate applies Gamma_p to v = (sigma_p, -sigma_p):
    # the bundled diag(0.4, 0) keeps the elementwise path, whose second
    # entry is 0 * -sigma_p = -0.0 where a row reduction gives +0.0, so the
    # bits tell the paths apart
    g = section4_config.gains[1]
    est = StepEstimates(np.zeros(2), np.array([-1.0, 1.0]), 0.0,
                        np.ones(g.Gamma_w.shape[0]))
    v = np.zeros(2) - g.sigma_p * est.p_hat

    def p_rate():
        return adaptive_rates(2, 0.0, 0.0, [0.0, 0.0], [0.0, 0.0],
                              np.zeros(g.Gamma_w.shape[0]), est, g).p_hat

    def bits(a):
        return np.asarray(a, dtype=float).tobytes()
    assert np.array_equal(g.Gamma_p, np.diag([0.4, 0.0]))
    assert bits(p_rate()) == bits(np.diagonal(g.Gamma_p) * v)
    assert np.signbit(p_rate()[1])
    full = np.array([[0.4, 0.1], [0.1, 0.3]])
    g.Gamma_p = full
    assert bits(p_rate()) == bits((full * v[None, :]).sum(axis=-1))
    g.Gamma_p = np.diag([0.5, 0.0])
    assert bits(p_rate()) == bits(np.array([0.5, 0.0]) * v) and np.signbit(p_rate()[1])


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
        r1 = ev.rates.steps[0]
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
    for view in vars(adaptive.steps[0]).values():
        view[...] = 0.0
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
    # inside forward_pass the step-3 scratch is one chain evaluation of 15
    # rows: 13 for the state gradient and Hessian, two for the estimate flow
    # along the step-1 rates; the step-2 partials take none.  Step 1 at x
    # and its rates come from step 1 itself, with no scratch, in a pass and
    # in a standalone call alike, so a dual pass makes its one jet pass in
    # the step-3 rows.
    cfg = load_bundled("cascade3")
    plant, nets, gains, est = cfg.plant, cfg.networks, cfg.gains, cfg.initial_estimates
    calls, jets = [], []
    real, real_jets = controller._chain_alpha_value, controller._scratch_first_level_jets

    def counting(*args, **kwargs):
        calls.append((args[0], np.shape(args[1])))
        return real(*args, **kwargs)

    def counting_jets(x, *args):
        jets.append(np.shape(x))
        return real_jets(x, *args)
    monkeypatch.setattr(controller, "_chain_alpha_value", counting)
    monkeypatch.setattr(controller, "_scratch_first_level_jets", counting_jets)
    x = np.array([0.3, -0.2, 0.1])
    forward_pass(x, est, gains, plant, nets, mode="dual")
    assert calls == [(2, (15, 2))] and jets == [(15, 2)]
    calls.clear()
    compute_scratch(3, x, est, gains, plant, nets, mode="dual")
    assert calls == [(2, (15, 2))]
    # numeric: the 5-point step-2 stencil inside the step-3 rows only
    calls.clear()
    forward_pass(x, est, gains, plant, nets, mode="numeric")
    assert calls == [(2, (15, 2)), (1, (5, 15, 1))]


def test_stencil_points_move_one_or_two_coordinates(monkeypatch):
    # the step-3 scratch's 15 rows, in order: x0, +-h1 along x_1 and x_2,
    # +-h2 along each, the four (+-h2, +-h2) corners, then x0 twice for the
    # flow; a moved coordinate is x0 + (+-h), an unmoved one x0 itself, so
    # x_1 = -0.0 keeps its sign on every row that does not move it
    cfg = load_bundled("cascade3")
    real = controller._chain_alpha_value
    seen = []

    def recording(level, pts, *args):
        seen.append(np.array(pts))
        return real(level, pts, *args)
    monkeypatch.setattr(controller, "_chain_alpha_value", recording)
    x = np.array([-0.0, 0.25, -0.4])
    compute_scratch(3, x, cfg.initial_estimates, cfg.gains, cfg.plant, cfg.networks,
                    mode="numeric")
    x0 = x[:2]
    h1, h2 = 1e-5 * np.maximum(1.0, np.abs(x0)), 1e-3 * np.maximum(1.0, np.abs(x0))
    want = [x0]
    for h in (h1, h2):
        for j in range(2):
            for s in (1.0, -1.0):
                p = x0.copy()
                p[j] = x0[j] + s * h[j]
                want.append(p)
    for s0 in (1.0, -1.0):
        for s1 in (1.0, -1.0):
            want.append(np.array([x0[0] + s0 * h2[0], x0[1] + s1 * h2[1]]))
    want += [x0, x0]
    (pts,) = [p for p in seen if p.shape == (15, 2)]
    assert np.array_equal(pts.view(np.uint64), np.array(want).view(np.uint64))
    assert np.signbit(pts[[0, 3, 4, 7, 8, 13, 14], 0]).all()


def test_pass_scratch_is_the_standalone_scratch(monkeypatch):
    # the step-3 scratch forward_pass builds from the rates it holds equals,
    # bit for bit, compute_scratch(3, ...) called on its own, which derives
    # those rates itself; row 0 of the batch of 7 has x_1 = 0 and zero
    # step-1 estimates, so its rates and its flow are zero
    cfg = load_bundled("cascade3")
    gains, plant, nets = cfg.gains, cfg.plant, cfg.networks
    real = controller.compute_scratch
    seen = []

    def recording(i, *args, **kwargs):
        sc = real(i, *args, **kwargs)
        if i == 3:
            seen.append(sc)
        return sc
    monkeypatch.setattr(controller, "compute_scratch", recording)
    stream = derive_stream(24, 8)
    for batch in (1, 7):
        rows = [cascade3_estimates(stream) for _ in range(batch)]
        adaptive = AdaptiveState([StepEstimates(*(np.stack([getattr(r.steps[k], a) for r in rows])
                                                  for a in ESTIMATE_BLOCKS))
                                  for k in range(3)])
        x = stream.uniform(3 * batch, -1.0, 1.0).reshape(batch, 3)
        if batch == 7:
            x[0, 0] = 0.0
            for a in ESTIMATE_BLOCKS:
                np.asarray(getattr(adaptive.steps[0], a))[0] = 0.0
        for mode in ("dual", "numeric"):
            seen.clear()
            forward_pass(x, adaptive, gains, plant, nets, mode=mode)
            alone = real(3, x, adaptive, gains, plant, nets, mode=mode)
            assert len(seen) == 1
            for f in ("alpha", "grad_x", "hess_x", "est_flow", "failed"):
                got, want = np.asarray(getattr(seen[0], f)), np.asarray(getattr(alone, f))
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (mode, f)
            assert not np.any(alone.failed)
            if batch == 7:
                assert alone.est_flow[0] == 0.0 and np.all(alone.est_flow[1:] != 0.0)


@pytest.mark.parametrize("name, mode, calls", [
    ("section4", "dual", 2), ("section4", "numeric", 2),
    ("cascade3", "dual", 4), ("cascade3", "numeric", 4)])
def test_forward_pass_evaluates_each_point_once(name, mode, calls, monkeypatch):
    # a step below the top comes from the scratch above it (the jet pass or
    # the stencil's base row), so a pass evaluates each step once per point:
    # at x only the top step, and in a stencil's rows only the steps it needs
    cfg = load_bundled(name)
    real = controller._step_quantities
    seen = []

    def counting(i, *args, **kwargs):
        seen.append(i)
        return real(i, *args, **kwargs)
    monkeypatch.setattr(controller, "_step_quantities", counting)
    x = np.array([0.3, -0.2, 0.1][:cfg.n])
    forward_pass(x, cfg.initial_estimates, cfg.gains, cfg.plant, cfg.networks, mode=mode)
    assert len(seen) == calls, seen


def _same_quantity(got, want):
    # bits, shapes and types alike; a literal 0.0 stays a Python float
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_quantity(g, w)
        return
    assert (type(got) is float) == (type(want) is float), (type(got), type(want))
    g, w = np.asarray(got), np.asarray(want)
    assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("mode", ["dual", "numeric"])
def test_scratch_base_is_the_direct_step_evaluation(mode, batch):
    # compute_scratch(i).base is step i-1 evaluated at x with its own scratch
    # and the rates of the steps before it; cascade3 with g_1 = x_1, so row 0
    # of the batch (x_1 = 0) has a singular gain and fails at both steps
    cfg = load_bundled("cascade3")
    gains, nets = cfg.gains, cfg.networks
    plant = dataclasses.replace(cfg.plant, g=[lambda xb: xb[0]] + cfg.plant.g[1:])
    stream = derive_stream(24, 9)
    rows = [cascade3_estimates(stream) for _ in range(batch)]
    est = rows[0] if batch == 1 else rows[0].with_values(np.stack([r.values for r in rows]))
    x = stream.uniform(3 * batch, -1.0, 1.0).reshape((batch, 3) if batch > 1 else (3,))
    if batch > 1:
        x[0, 0] = 0.0
    xs = [x[..., j] for j in range(3)]
    rates = est.with_values(np.zeros(np.shape(est.values)))
    with np.errstate(all="ignore"):
        for k in (1, 2):
            inner = None if k == 1 else compute_scratch(k, x, est, gains, plant, nets,
                                                        mode=mode, rates=rates)
            got = compute_scratch(k + 1, x, est, gains, plant, nets, mode=mode).base
            want = controller._step_quantities(k, xs, est.steps[k - 1], gains[k - 1], plant,
                                               nets[k - 1], inner, rates)
            if mode == "dual" and k == 1:
                # dual mode's step 1 at x is the jet pass's values, and a jet
                # divides by multiplying with 1/g_1: an ulp off the float law
                want = got
            assert got.keys() == want.keys()
            for key in want:
                _same_quantity(got[key], want[key])
            assert np.ravel(want["failed"]).tolist() == [batch > 1] + [False] * (batch - 1)
            adaptive_rates(k, want["z"], want["w0"], want["w1"], want["w2"], want["S"],
                           est.steps[k - 1], gains[k - 1], out=rates.steps[k - 1])


@pytest.mark.parametrize("mode", ["dual", "numeric"])
def test_ito_skip_changes_no_bits(mode):
    # cascade3's diffusion rows are literal 0.0, so steps 2 and 3 skip the
    # Ito coupling; zeros as arrays run it, and the pass must not change
    cfg = load_bundled("cascade3")
    gains, nets = cfg.gains, cfg.networks
    arrays = dataclasses.replace(cfg.plant, phi=[lambda xb: [0.0 * xb[0]]] * 3)
    stream = derive_stream(24, 11)
    rows = [cascade3_estimates(stream) for _ in range(20)]
    est = rows[0].with_values(np.stack([r.values for r in rows]))
    x = stream.uniform(60, -1.0, 1.0).reshape(20, 3)
    skipped = forward_pass(x, est, gains, cfg.plant, nets, mode=mode)
    coupled = forward_pass(x, est, gains, arrays, nets, mode=mode)
    for f in ("u", "alphas", "failed"):
        a, b = np.asarray(getattr(skipped, f)), np.asarray(getattr(coupled, f))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f
    assert skipped.rates.values.tobytes() == coupled.rates.values.tobytes()
    assert not np.any(skipped.failed)


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


# ---------------------------------------------------------------------------
# fourth-order cascade: steps below level-1 through their own scratch
# ---------------------------------------------------------------------------

def cascade(n, state_gain=False):
    """The bundled cascade3 (n = 3) or it plus a unit-gain step 4 with an
    8-input network (n = 4); ``state_gain`` sets g_1 = 1 + 0.37 x_1^2."""
    cfg = load_bundled("cascade3")
    p = cfg.plant
    g = [lambda xb: 1.0] * n
    if state_gain:
        g[0] = lambda xb: 1.0 + 0.37 * xb[0] * xb[0]
    plant = dataclasses.replace(
        p, name=f"cascade{n}", n=n, g=g, f=list(p.f) + [lambda xb: 0.1 * xb[3]] * (n - 3),
        Psi=[p.Psi[0]] * n, Delta=[p.Delta[0]] * n, phi=[p.phi[0]] * n,
        Phi_bound=[p.Phi_bound[0]] * n, p_star=np.zeros(n), varphi_bound=[p.varphi_bound[0]] * n,
        b_star=np.zeros((n, 1)), domain_box=np.tile([-1.0, 1.0], (n, 1)))
    nets, gains = list(cfg.networks), list(cfg.gains.steps)
    if n == 4:
        layout = CenterLayout("quasi-random", [(-1.5, 1.5)] * 8, total=6, layout_seed=4)
        nets.append(RbfNetwork(8, make_centers(layout), 1.5, np.zeros(6)))
        gains.append(dataclasses.replace(gains[2], Gamma_p=0.3 * np.eye(4)))
    return plant, nets, GainConfig(gains)


def cascade_batch(stream, n, batch):
    """``batch`` random states in [-1, 1]^n with random estimates."""
    rows = [AdaptiveState([StepEstimates(stream.uniform(1, -1, 1), stream.uniform(i, 0, 1),
                                         float(stream.uniform(1, -0.5, 0.5)[0]),
                                         stream.uniform(6, -1, 1))
                           for i in range(1, n + 1)]) for _ in range(batch)]
    est = rows[0].with_values(np.stack([r.values for r in rows]))
    return stream.uniform(n * batch, -1.0, 1.0).reshape(batch, n), est


CASCADES = [(n, gain, mode) for n in (3, 4) for gain in (False, True)
            for mode in ("dual", "numeric")]


@pytest.mark.parametrize("n, state_gain, mode", CASCADES)
def test_cascade_pass_matches_standalone_scratches_and_lone_rows(n, state_gain, mode,
                                                                 monkeypatch):
    # every scratch a pass builds at x is, bit for bit, the standalone
    # compute_scratch, which derives the rates it reads itself; at n = 4 the
    # step-2 scratch sits below the step-4 one and no step-3 scratch is built
    # at x.  Each row of the batch is its run alone, bit for bit.
    plant, nets, gains = cascade(n, state_gain)
    x, est = cascade_batch(derive_stream(24, 20 + n + 2 * state_gain), n, 7)
    real = controller.compute_scratch
    seen = []

    def recording(i, xi, *args, **kwargs):
        sc = real(i, xi, *args, **kwargs)
        if np.shape(xi) == x.shape:
            seen.append((i, sc))
        return sc
    monkeypatch.setattr(controller, "compute_scratch", recording)
    ev = forward_pass(x, est, gains, plant, nets, mode=mode)
    assert [i for i, _ in seen] == ([3] if n == 3 else [2, 4])
    for i, sc in seen:
        alone = real(i, x, est, gains, plant, nets, mode=mode)
        for f in dataclasses.fields(sc):
            got, want = getattr(sc, f.name), getattr(alone, f.name)
            if f.name == "base":
                assert got.keys() == want.keys()
                got, want = [got[k] for k in want], [want[k] for k in want]
            _same_quantity(got, want)
    assert not np.any(ev.failed)
    for b in range(len(x)):
        one = forward_pass(x[b], est.with_values(est.values[b]), gains, plant, nets, mode=mode)
        for f in ("u", "alphas", "z", "failed"):
            assert np.asarray(getattr(one, f)).tobytes() == getattr(ev, f)[b].tobytes(), (b, f)
        assert one.rates.values.tobytes() == ev.rates.values[b].tobytes()


@pytest.mark.parametrize("mode, calls", [
    ("dual", [(3, (27, 3)), (2, (15, 27, 2))]),
    ("numeric", [(1, (5, 1)), (3, (27, 3)), (2, (15, 27, 2)), (1, (5, 15, 27, 1))])])
def test_fourth_order_chain_evaluation_count(mode, calls, monkeypatch):
    # the step-4 scratch is one chain evaluation of 27 rows, and each level
    # below it one more inside those rows; at x only step 2's scratch (the
    # jet pass, or numeric's 5-point stencil) sits below it
    plant, nets, gains = cascade(4)
    x, est = cascade_batch(derive_stream(24, 30), 4, 1)
    real = controller._chain_alpha_value
    seen = []

    def counting(*args, **kwargs):
        seen.append((args[0], np.shape(args[1])))
        return real(*args, **kwargs)
    monkeypatch.setattr(controller, "_chain_alpha_value", counting)
    forward_pass(x[0], est.with_values(est.values[0]), gains, plant, nets, mode=mode)
    assert seen == calls


@pytest.mark.parametrize("n, bound", [(3, 1e-5), (4, 1e-1)])
def test_cascade_modes_agree_on_u(n, bound):
    # at n = 4 numeric mode differentiates alpha_3 in x_1 through nested
    # central differences whose rounding noise h1 amplifies, so u agrees
    # only to a few per cent at some states (dual mode's jet is exact there)
    for state_gain in (False, True):
        plant, nets, gains = cascade(n, state_gain)
        x, est = cascade_batch(derive_stream(24, 40 + n + 2 * state_gain), n, 50)
        u = [forward_pass(x, est, gains, plant, nets, mode=mode).u for mode in ("dual", "numeric")]
        rel = np.abs(u[0] - u[1]) / np.maximum(1.0, np.abs(u[0]))
        assert np.max(rel) < bound and np.median(rel) < bound / 100, (state_gain, rel)


@pytest.mark.parametrize("n", [3, 4])
def test_step1_value_at_x_is_the_law_or_the_jet(n):
    # with g_1 = 1 + 0.37 x_1^2 a jet's quotient rounds apart from the float
    # law.  alpha_1 at x is the float law (alpha_1) where no step-2 scratch
    # is built at x: numeric mode, and dual mode at n = 3.  At n = 4 dual mode
    # builds that scratch, the jet pass, and alpha_1 at x is its value.
    plant, nets, gains = cascade(n, state_gain=True)
    x, est = cascade_batch(derive_stream(24, 50 + n), n, 40)
    law = alpha_1(x[:, 0], est, gains, plant, nets)
    jet = compute_scratch(2, x, est, gains, plant, nets, mode="dual").alpha
    assert np.any(law != jet) and np.all(np.abs(law - jet) <= 4e-16 * np.abs(law))
    for mode in ("dual", "numeric"):
        got = forward_pass(x, est, gains, plant, nets, mode=mode).alphas[:, 0]
        want = jet if (mode, n) == ("dual", 4) else law
        assert got.tobytes() == want.tobytes(), mode
