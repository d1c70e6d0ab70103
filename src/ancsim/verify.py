"""Self-contained property suites behind the ``verify`` CLI command.

Each check returns a CheckResult; the CLI prints one line per check and exits
nonzero if any fail.  The bound constants are parameters so tests can confirm
the suites actually detect violations (e.g. a lowered tanh absorption delta).
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from . import ineq
from .config import load_bundled
from .controller import (FD_STEP_FIRST, AdaptiveState, StepEstimates, alpha_1,
                         compute_scratch, forward_pass)
from .monitor import TruthNorms, empirical_drift, lambda_K, state_energy
from .plant import check_assumptions, drift, preset_remark, preset_section4
from .rbf import CenterLayout, basis_components, make_centers
from .rng import derive_stream, wiener_increments
from .sde import TrajectoryRecord, em_update

__all__ = ["CheckResult", "run_all",
           "tanh_absorption_check", "young_quartic_check", "diffusion_split_check",
           "wiener_statistics_check", "derivative_agreement_check"]

_SEED = 20240811


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def tanh_absorption_check(delta: float = ineq.TANH_ABSORPTION_DELTA,
                          samples: int = 100_000) -> CheckResult:
    stream = derive_stream(_SEED, 1)
    v = stream.uniform(samples, -50.0, 50.0)
    eps = stream.uniform(samples, 1e-6, 10.0)
    gap = ineq.tanh_absorption_gap(v, eps)
    violations = int(np.sum((gap < -1e-15) | (gap > delta * eps + 1e-15)))
    peak = ineq.max_tanh_absorption_gap(eps=1.0)
    ok = violations == 0 and 0.2776 <= peak <= delta
    return _result("tanh_absorption",
                   ok, f"violations={violations} brute_max={peak:.6f}")


def young_quartic_check(exponent: float = 4.0 / 3.0,
                        samples: int = 100_000) -> CheckResult:
    stream = derive_stream(_SEED, 2)
    a = stream.uniform(samples, -100.0, 100.0)
    z = stream.uniform(samples, -5.0, 5.0)
    b = stream.uniform(samples, -10.0, 10.0)
    # constructed extremes probe where a modified exponent breaks the split
    a = np.concatenate([a, [100.0, -100.0, 1e3]])
    z = np.concatenate([z, [1.0, 1.0, 1.0]])
    b = np.concatenate([b, [1.0, 1.0, 1.0]])
    margin = (0.75 * np.abs(a) ** exponent * z ** 4 + 0.25 * b ** 4
              - np.abs(a * z ** 3 * b))
    violations = int(np.sum(margin < -1e-9))
    return _result("young_quartic_split", violations == 0,
                   f"violations={violations} min_margin={margin.min():.3e}")


def diffusion_split_check(samples: int = 100_000) -> CheckResult:
    stream = derive_stream(_SEED, 3)
    z = stream.uniform(samples, -5.0, 5.0)
    p2 = stream.uniform(samples, 0.0, 25.0)
    eps = stream.uniform(samples, 1e-3, 10.0)
    margin = ineq.diffusion_energy_margin(z, p2, eps)
    violations = int(np.sum(margin < -1e-9))
    return _result("young_diffusion_split", violations == 0,
                   f"violations={violations} min_margin={margin.min():.3e}")


def wiener_statistics_check(samples: int = 1_000_000, dt: float = 1e-3) -> CheckResult:
    dw = wiener_increments(derive_stream(_SEED, 4), 2, samples, dt)
    var = np.var(dw, axis=0)
    mean = np.mean(dw, axis=0)
    corr = np.corrcoef(dw.T)[0, 1]
    sigma_mean = np.sqrt(dt / samples)
    ok = (np.all(np.abs(var / dt - 1.0) < 0.05)
          and np.all(np.abs(mean) < 5 * sigma_mean)
          and abs(corr) < 0.01)
    return _result("wiener_statistics",
                   ok, f"var/dt={var / dt} |corr|={abs(corr):.4f}")


def stream_determinism_check() -> CheckResult:
    a = derive_stream(123, 5).normal(100)
    b = derive_stream(123, 5).normal(100)
    c = derive_stream(123, 6).normal(100)
    ok = np.array_equal(a, b) and not np.array_equal(a, c)
    return _result("stream_determinism", ok, "identical restreams, distinct indices")


def sde_basics_check() -> CheckResult:
    """Drive ``em_update`` (the harness's update) on two closed-form SDEs."""
    x = np.array([1.0])
    for dw in wiener_increments(derive_stream(_SEED, 7), 1, 50_000, 1e-4):
        x = em_update(x, -x, np.zeros((1, 1)), 1e-4, dw)     # dx = -x dt
    err = abs(x[0] - np.exp(-5.0))
    x0 = np.array([3.0, -1.0])
    x, const = x0, True
    for dw in wiener_increments(derive_stream(_SEED, 8), 1, 100, 1e-2):
        x = em_update(x, np.zeros(2), np.zeros((2, 1)), 1e-2, dw)
        const = const and np.array_equal(x, x0)
    return _result("sde_basics", err < 1e-2 and const,
                   f"linear_decay_err={err:.2e} constant_traj={bool(const)}")


def rbf_properties_check() -> CheckResult:
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=27))
    stream = derive_stream(_SEED, 9)
    w1 = stream.normal(27)
    w2 = stream.normal(27)
    # the basis the controller evaluates, 200 points in one batch
    vals = basis_components(centers, 0.8, [stream.uniform(200, -3.0, 3.0)])
    in_range = np.all(vals > 0) and np.all(vals <= 1.0)
    s0 = basis_components(centers, 0.8, [0.3])
    lin = abs((2 * w1 + 3 * w2) @ s0 - (2 * (w1 @ s0) + 3 * (w2 @ s0)))
    sym = np.allclose(np.sort(centers[:, 0]), np.sort(-centers[:, 0]))
    qr = make_centers(CenterLayout("quasi-random", [(-1.5, 1.5)] * 4,
                                   total=64, layout_seed=1))
    distinct = len(np.unique(qr, axis=0)) == 64
    contained = np.all(qr >= -1.5) and np.all(qr <= 1.5)
    ok = in_range and lin < 1e-12 and sym and distinct and contained
    return _result("rbf_properties", ok,
                   f"range={bool(in_range)} linearity={lin:.1e} symmetric={bool(sym)} "
                   f"halton_ok={bool(distinct and contained)}")


def plant_structural_check() -> CheckResult:
    s4 = preset_section4()
    origin = drift(s4, np.zeros(2), 0.0, 0.0)
    zero_ok = np.allclose(origin, 0.0)
    details = [f"section4_origin_drift={np.max(np.abs(origin)):.1e}"]
    ok = zero_ok
    for plant in (s4, preset_remark()):
        rep = check_assumptions(plant, plant.domain_box, 10_000,
                                derive_stream(_SEED, 10))
        ok = ok and rep.passed
        stream = derive_stream(_SEED, 11)
        xs = [stream.uniform(2000, lo, hi) for lo, hi in plant.domain_box]
        gmin = min(np.min(plant.g[i](xs[: i + 1])) for i in range(plant.n))
        ok = ok and gmin >= 0.5
        details.append(f"{plant.name}: assumptions={rep.passed} g_min={gmin:.3f}")
    return _result("plant_structural", ok, " ".join(details))


def controller_structural_check() -> CheckResult:
    cfg = load_bundled("section4")
    zero = cfg.initial_estimates.with_values(np.zeros_like(cfg.initial_estimates.values))
    ev = forward_pass(np.zeros(2), zero, cfg.gains, cfg.plant, cfg.networks)
    structural = abs(ev.u) < 1e-15 and np.max(np.abs(ev.alphas)) < 1e-15
    stream = derive_stream(_SEED, 12)
    signs = [alpha_1(x1, zero, cfg.gains, cfg.plant, cfg.networks) < 0
             for x1 in stream.uniform(1000, 1e-6, 3.0)]
    decay_ok = True
    ev0 = forward_pass(np.zeros(2), cfg.initial_estimates, cfg.gains,
                       cfg.plant, cfg.networks)
    for est, g, r in zip(cfg.initial_estimates.steps, cfg.gains.steps, ev0.rates.steps):
        decay_ok = decay_ok and np.allclose(
            r.vartheta_hat, -g.Gamma_vartheta @ (g.sigma_vartheta * est.vartheta_hat))
        decay_ok = decay_ok and np.isclose(
            r.eps_hat, -g.gamma_eps * g.sigma_eps * est.eps_hat)
    ok = structural and all(signs) and decay_ok
    return _result("controller_structural", ok,
                   f"origin_zero={structural} stabilizing_sign={all(signs)} "
                   f"leak_decay={decay_ok}")


def derivative_agreement_check(states: int = 100, rtol_first: float = 1e-4,
                               rtol_second: float = 1e-2) -> CheckResult:
    """Derivatives of the virtual controls against independent references.

    At ``states`` random states of ``section4`` and ``remark1``: dual
    against numeric state derivatives, and both modes' step-1 estimate
    partials against per-entry central differences of alpha_1.  At 20 random
    states of ``cascade3``: both modes' estimate flow against the per-entry
    central differences of alpha_2 in the step-1 estimates dotted with the
    step-1 rates, and the step-2 estimate partials against central
    differences.
    """
    stream = derive_stream(_SEED, 13)
    worst1 = worst2 = worst_est = worst_flow = 0.0
    for cfg in (load_bundled("section4"), load_bundled("remark1")):
        for _ in range(states):
            x = stream.uniform(2, -2.0, 2.0)
            adaptive = AdaptiveState([
                StepEstimates(stream.uniform(2, -1.0, 1.0), stream.uniform(1, 0.0, 1.0),
                              float(stream.uniform(1, -0.5, 0.5)[0]),
                              stream.uniform(27, -1.0, 1.0)),
                cfg.initial_estimates.steps[1],
            ])
            dual, num = (compute_scratch(2, x, adaptive, cfg.gains, cfg.plant,
                                         cfg.networks, mode=mode)
                         for mode in ("dual", "numeric"))
            worst1 = max(worst1, _rel(dual.grad_x, num.grad_x))
            worst2 = max(worst2, _rel(dual.hess_x, num.hess_x))
            # both modes share the closed form for these, so the reference is
            # central differences of alpha_1 rather than the other mode
            fd = _fd_estimate_partials(
                lambda a: alpha_1(x[0], a, cfg.gains, cfg.plant, cfg.networks), adaptive, 0)
            for sc in (dual, num):
                worst_est = max(worst_est, _rel(_own_block(sc), fd))
    cfg = load_bundled("cascade3")
    for _ in range(20):
        x = stream.uniform(3, -1.0, 1.0)
        adaptive = AdaptiveState([
            StepEstimates(stream.uniform(1, -1.0, 1.0), stream.uniform(i, 0.0, 1.0),
                          float(stream.uniform(1, -0.5, 0.5)[0]), stream.uniform(6, -1.0, 1.0))
            for i in (1, 2, 3)])
        ev = forward_pass(x, adaptive, cfg.gains, cfg.plant, cfg.networks)

        def alpha_2(a):
            return forward_pass(x, a, cfg.gains, cfg.plant, cfg.networks).alphas[1]
        r1 = ev.rates.values[:ev.rates.ends[1]]      # the step-1 rates
        flow = float(_fd_estimate_partials(alpha_2, adaptive, 0) @ r1)
        own = _fd_estimate_partials(alpha_2, adaptive, 1)
        for mode in ("dual", "numeric"):
            sc = compute_scratch(3, x, adaptive, cfg.gains, cfg.plant, cfg.networks, mode=mode)
            worst_flow = max(worst_flow, abs(sc.est_flow - flow) / max(1.0, abs(flow)))
            worst_est = max(worst_est, _rel(_own_block(sc), own))
    ok = (worst1 < rtol_first and worst2 < rtol_second and worst_est < rtol_first
          and worst_flow < rtol_first)
    return _result("derivative_agreement", ok,
                   f"first_order={worst1:.2e} second_order={worst2:.2e} "
                   f"estimates_vs_fd={worst_est:.2e} est_flow_vs_fd={worst_flow:.2e}")


def _own_block(sc) -> np.ndarray:
    return np.hstack([sc.d_vartheta[0], sc.d_p[0], sc.d_eps[0], sc.d_W[0]])


def _fd_estimate_partials(alpha_of, adaptive: AdaptiveState, j: int) -> np.ndarray:
    """Central differences of ``alpha_of(estimates)`` in each entry of step
    j+1's slice of the flat layout, (vartheta, p, eps, W): two evaluations per
    entry, the reference for the controller's closed forms and its flow."""
    def moved(k, delta):
        state = adaptive.copy()
        state.values[..., k] += delta
        return alpha_of(state)
    parts = []
    for k in range(adaptive.ends[j], adaptive.ends[j + 1]):
        h = FD_STEP_FIRST * max(1.0, abs(float(adaptive.values[..., k])))
        parts.append((moved(k, h) - moved(k, -h)) / (2.0 * h))
    return np.array(parts)


def _rel(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    return float(np.linalg.norm(a - b) / denom)


def monitor_basics_check() -> CheckResult:
    flip = state_energy([1.0, -2.0]) == state_energy([-1.0, 2.0])
    cfg = load_bundled("section4")
    truth = [TruthNorms(0.5, 0.1, 1.0), TruthNorms(0.5, 0.1, 1.0)]
    base = lambda_K(cfg.gains, truth)
    import copy
    bumped_gains = copy.deepcopy(cfg.gains)
    bumped_gains.steps[0].c *= 2.0
    bumped = lambda_K(bumped_gains, truth)
    mono_lam = np.all(bumped.lam >= base.lam - 1e-15)
    richer = [TruthNorms(1.0, 0.1, 1.0), TruthNorms(0.5, 0.1, 1.0)]
    mono_K = np.all(lambda_K(cfg.gains, richer).K >= base.K - 1e-15)
    times = np.linspace(0.0, 2.0, 201)
    flat = [TrajectoryRecord(times, np.zeros((201, 1)), np.zeros(201),
                             {"Vx": np.full(201, 3.0)}) for _ in range(10)]
    _, d = empirical_drift(flat, window=0.2)
    drift_zero = np.allclose(d, 0.0)
    ok = flip and mono_lam and mono_K and drift_zero
    return _result("monitor_basics", ok,
                   f"sign_flip={flip} lambda_monotone={bool(mono_lam)} "
                   f"K_monotone={bool(mono_K)} flat_drift_zero={bool(drift_zero)}")


def run_all(quick: bool = False) -> List[CheckResult]:
    n_pairs = 10_000 if quick else 100_000
    n_wiener = 200_000 if quick else 1_000_000
    n_states = 20 if quick else 100
    return [
        tanh_absorption_check(samples=n_pairs),
        young_quartic_check(samples=n_pairs),
        diffusion_split_check(samples=n_pairs),
        wiener_statistics_check(samples=n_wiener),
        stream_determinism_check(),
        sde_basics_check(),
        rbf_properties_check(),
        plant_structural_check(),
        controller_structural_check(),
        derivative_agreement_check(states=n_states),
        monitor_basics_check(),
    ]
