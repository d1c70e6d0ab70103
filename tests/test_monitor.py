import copy

import numpy as np
import pytest

from ancsim.monitor import (BoundConstants, TruthNorms,
                            bounded_in_probability_stat, convergence_stat,
                            empirical_drift, lambda_K, reference_truth_norms,
                            state_energy, tail_sups)
from ancsim.sde import TrajectoryRecord


def record_from_energy(times, vx, states=None):
    n = len(times)
    states = np.zeros((n, 1)) if states is None else states
    return TrajectoryRecord(times, states, np.zeros(n), {"Vx": np.asarray(vx)})


def test_state_energy_values():
    assert state_energy([0.0, 0.0]) == 0.0
    assert state_energy([1.0, 1.0]) == 0.5
    assert state_energy([2.0, 0.0]) == 4.0


def test_state_energy_even_in_sign():
    z = np.array([0.7, -1.3, 2.1])
    assert state_energy(z) == state_energy(-z)


def test_lambda_step1_value_with_three_way_tie(section4_config):
    truth = [TruthNorms(0.0, 0.0, 0.0)] * 2
    b = lambda_K(section4_config.gains, truth)
    # min{4c, gamma*sigma, sigma/maxeig(inv Gamma) x3} with the bundled
    # step-1 gains: min{1.2, 0.09, 0.09, 0.09, 0.45}
    assert b.lam[0] == pytest.approx(0.09, abs=1e-15)
    cands = [4 * 0.3, 0.3 * 0.3, 0.3 * 0.3, 0.3 * 0.3, 1.5 * 0.3]
    assert sorted(cands)[:3] == [0.09, 0.09, 0.09]


def test_lambda_second_step_excludes_frozen_direction(section4_config):
    truth = [TruthNorms(0.0, 0.0, 0.0)] * 2
    b = lambda_K(section4_config.gains, truth)
    # active p-gain eigenvalue is 0.4: candidates {1.2, 0.16, 0.0625, 0.16, 0.09}
    assert b.lam[1] == pytest.approx(0.0625, abs=1e-15)


def test_offset_constant_zero_for_zero_truth_and_widths(section4_config):
    gains = copy.deepcopy(section4_config.gains)
    for g in gains.steps:
        g.eps0 = g.eps1 = g.eps2 = 1e-300
        g.young_eps1 = 1e-300
    b = lambda_K(gains, [TruthNorms(0.0, 0.0, 0.0)] * 2)
    assert np.all(b.K < 1e-290)


def test_offset_constant_tanh_term_arithmetic(section4_config):
    b = lambda_K(section4_config.gains, [TruthNorms(0.0, 0.0, 0.0)] * 2)
    expected = 0.2785 * 0.9 + 0.75 * 0.3
    assert b.K[0] == pytest.approx(expected, abs=1e-12)


def test_lambda_K_monotonicity(section4_config):
    truth = [TruthNorms(0.5, 0.1, 1.0)] * 2
    base = lambda_K(section4_config.gains, truth)
    bumped = copy.deepcopy(section4_config.gains)
    bumped.steps[0].c *= 3.0
    bumped.steps[1].c *= 3.0
    b2 = lambda_K(bumped, truth)
    assert np.all(b2.lam >= base.lam)
    richer = [TruthNorms(1.5, 0.1, 1.0)] * 2
    assert np.all(lambda_K(section4_config.gains, richer).K >= base.K)


def test_lambda_K_rejects_nonpositive_gains(section4_config):
    bad = copy.deepcopy(section4_config.gains)
    bad.steps[0].sigma_w = 0.0
    with pytest.raises(ValueError):
        lambda_K(bad, [TruthNorms(0, 0, 0)] * 2)


def test_reference_truth_norms_shapes(section4_config):
    truth = reference_truth_norms(section4_config.plant,
                                  section4_config.networks)
    assert len(truth) == 2
    assert truth[0].p_norm == pytest.approx(0.5)
    assert truth[0].vartheta_norm == 0.0
    assert truth[1].vartheta_norm == pytest.approx(0.02)
    assert 0.0 < truth[0].W_norm < 1e3
    assert 0.0 < truth[1].W_norm < 1e3


def test_empirical_drift_constant_ensemble_is_zero():
    times = np.linspace(0, 2, 401)
    recs = [record_from_energy(times, np.full(401, 7.0)) for _ in range(10)]
    _, d = empirical_drift(recs, window=0.25)
    assert np.all(d == 0.0)


def test_empirical_drift_matches_exponential_decay():
    dt = 1e-3
    times = np.arange(0, 3.0 + dt / 2, dt)
    recs = [record_from_energy(times, np.exp(-times)) for _ in range(10)]
    ts, d = empirical_drift(recs, window=0.5)
    expected = -np.exp(-ts)
    rel = np.abs(d - expected) / np.abs(expected)
    assert np.max(rel) < 0.02


def test_empirical_drift_rejects_misaligned_grids():
    a = record_from_energy(np.linspace(0, 1, 101), np.ones(101))
    b = record_from_energy(np.linspace(0, 1, 100), np.ones(100))
    with pytest.raises(ValueError):
        empirical_drift([a, b])


def test_exceedance_fraction_bounds():
    times = np.linspace(0, 1, 11)
    states = np.ones((11, 2))
    recs = [TrajectoryRecord(times, states * s, np.zeros(11),
                             {"Vx": np.zeros(11)}) for s in (0.1, 0.5, 2.0)]
    assert bounded_in_probability_stat(recs, 0.0) == 1.0
    assert bounded_in_probability_stat(recs, 1e9) == 0.0
    mid = bounded_in_probability_stat(recs, 1.0)
    assert 0.0 < mid < 1.0
    # monotone non-increasing in the threshold
    fractions = [bounded_in_probability_stat(recs, e)
                 for e in (0.0, 0.1, 1.0, 5.0)]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_convergence_stat_zero_trajectories():
    times = np.linspace(0, 1, 11)
    recs = [TrajectoryRecord(times, np.zeros((11, 2)), np.zeros(11),
                             {"Vx": np.zeros(11)}) for _ in range(5)]
    q = convergence_stat(tail_sups(recs, tail_start=0.5))
    assert q["min"] == q["median"] == q["q90"] == q["max"] == 0.0


def test_convergence_stat_deterministic_decay():
    dt = 1e-3
    times = np.arange(0, 20 + dt / 2, dt)
    states = np.exp(-times).reshape(-1, 1)
    recs = [TrajectoryRecord(times, states, np.zeros(len(times)),
                             {"Vx": np.zeros(len(times))})]
    q = convergence_stat(tail_sups(recs, tail_start=15.0))
    assert q["median"] <= np.exp(-15.0) * (1 + 1e-9)


def test_bound_constants_helpers():
    b = BoundConstants(np.array([0.1, 0.05]), np.array([1.0, 2.0]))
    assert b.lambda_min == 0.05
    assert b.K_total == 3.0
    assert b.residual_bound == pytest.approx(60.0)
