import json

import numpy as np
import pytest

from ancsim.config import ConfigError, MAX_STEPS, bundled_preset_text, parse_config
from ancsim.rng import derive_stream, wiener_increments
from ancsim.sde import em_update


def em_path(x0, drift, diffusion, horizon, dt, stream):
    """Euler-Maruyama samples 0..floor(horizon/dt), stepped by ``em_update``."""
    steps = int(np.floor(horizon / dt))
    x = np.asarray(x0, dtype=float)
    path = [x]
    for dw in wiener_increments(stream, diffusion(x).shape[1], steps, dt):
        x = em_update(x, drift(x), diffusion(x), dt, dw)
        path.append(x)
    return np.array(path)


def decay(x):
    return -x


def no_noise(x):
    return np.zeros((len(x), 1))


def test_em_step_identity_with_zero_dynamics():
    x = np.array([1.0, -2.0])
    assert np.array_equal(em_update(x, np.zeros(2), np.zeros((2, 1)), 0.1,
                                    np.zeros(1)), x)


def test_em_step_pure_drift():
    out = em_update(np.zeros(3), np.ones(3), np.zeros((3, 1)), 0.5, np.zeros(1))
    assert np.allclose(out, 0.5)


def test_em_step_scalar_arithmetic():
    # x=1, drift=2x, diffusion=1, dt=0.1, dW=0.3 -> 1 + 0.2 + 0.3
    out = em_update(np.array([1.0]), np.array([2.0]), np.ones((1, 1)), 0.1,
                    np.array([0.3]))
    assert np.isclose(out[0], 1.5, rtol=0, atol=1e-15)


def test_em_update_formula():
    out = em_update(np.array([1.0, 2.0]), np.array([3.0, -1.0]),
                    np.array([[1.0], [2.0]]), 0.1, np.array([0.5]))
    assert np.allclose(out, [1.0 + 0.3 + 0.5, 2.0 - 0.1 + 1.0])


def test_linear_sde_matches_closed_form():
    path = em_path([1.0], decay, no_noise, 5.0, 1e-4, derive_stream(0, 0))
    assert abs(path[-1, 0] - np.exp(-5.0)) < 1e-2
    assert len(path) == 50_001


def test_zero_dynamics_trajectory_is_constant():
    path = em_path([0.3, -0.7], lambda x: np.zeros(2), no_noise, 1.0, 1e-2,
                   derive_stream(0, 1))
    assert np.all(path == path[0])


def test_same_stream_reproduces_bitwise():
    def noise(x):
        return np.full((1, 1), 0.2)
    a = em_path([1.0], decay, noise, 1.0, 1e-3, derive_stream(11, 3))
    b = em_path([1.0], decay, noise, 1.0, 1e-3, derive_stream(11, 3))
    assert np.array_equal(a, b)


def test_euler_error_is_first_order_in_dt():
    # with zero diffusion the scheme is explicit Euler; halving dt should
    # roughly halve the global error for dx = -x dt
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        path = em_path([1.0], decay, no_noise, 2.0, dt, derive_stream(0, 2))
        errs.append(abs(path[-1, 0] - np.exp(-2.0)))
    assert 1.5 < errs[0] / errs[1] < 2.5
    assert 1.5 < errs[1] / errs[2] < 2.5


# The stepping loop takes dt and the step count from a parsed config, so the
# integrator's input limits are enforced when the config is parsed.

def section4_with(**overrides):
    data = json.loads(bundled_preset_text("section4"))
    data.update(overrides)
    return data


def test_bad_dt_rejected():
    for dt in (0.0, -1e-3):
        with pytest.raises(ConfigError) as err:
            parse_config(section4_with(dt=dt))
        assert any(v.startswith("dt:") for v in err.value.violations)


def test_step_count_cap_enforced():
    with pytest.raises(ConfigError) as err:
        parse_config(section4_with(horizon=1e6, dt=1e-3))
    assert any(str(MAX_STEPS) in v for v in err.value.violations)
    cfg = parse_config(section4_with(horizon=MAX_STEPS * 1e-3, dt=1e-3))
    assert cfg.horizon / cfg.dt <= MAX_STEPS
