import numpy as np
import pytest

from ancsim.plant import (check_assumptions, diffusion, drift, make_plant,
                          preset_remark, preset_section4, StrictFeedbackPlant)
from ancsim.rng import derive_stream


def test_drift_vanishes_at_origin_for_benchmark():
    plant = preset_section4()
    assert np.allclose(drift(plant, np.zeros(2), 0.0, 0.0), 0.0)
    assert np.allclose(diffusion(plant, np.zeros(2)), 0.0)


def test_drift_first_component_hand_value():
    # x=(1,0), u=0, t=0: x2 + x1 sin x1 + 0.5 x1 sin(x2 t) = sin 1
    plant = preset_section4()
    d = drift(plant, np.array([1.0, 0.0]), 0.0, 0.0)
    assert np.isclose(d[0], np.sin(1.0), rtol=0, atol=1e-15)


def test_drift_uses_control_in_last_component():
    plant = preset_section4()
    base = drift(plant, np.array([0.2, 0.1]), 0.0, 0.0)
    with_u = drift(plant, np.array([0.2, 0.1]), 2.0, 0.0)
    g2 = 1.0 + 0.5 * np.sin(0.2)
    assert np.isclose(with_u[1] - base[1], 2.0 * g2)
    assert with_u[0] == base[0]


def test_diffusion_rows():
    plant = preset_section4()
    d = diffusion(plant, np.array([np.pi, 0.0]))
    assert np.isclose(d[0, 0], -np.pi)           # x1 cos x1 at pi
    assert np.isclose(d[1, 0], 0.0)
    d2 = diffusion(plant, np.array([0.0, np.pi / 2]))
    assert np.isclose(d2[1, 0], 1.0)


def test_benchmark_table_values():
    plant = preset_section4()
    assert np.isclose(plant.g[1]([np.pi / 2, 0.0]), 1.5)
    assert plant.Delta[1](np.array([1.0, 2.0]), 3.0) == 0.0
    assert plant.p_star[0] == 0.5
    assert np.isclose(plant.theta_star[1], 0.02)


def test_disturbance_envelope_holds_by_sampling():
    plant = preset_section4()
    stream = derive_stream(17, 0)
    xs = np.stack([stream.uniform(10_000, -3, 3) for _ in range(2)], axis=1)
    ts = stream.uniform(10_000, 0.0, 20.0)
    for x, t in zip(xs, ts):
        assert abs(plant.Delta[0](x, t)) <= 0.5 * abs(x[0]) + 1e-12


def test_noise_and_disturbance_scales():
    quiet = preset_section4(noise_scale=0.0, disturbance_scale=0.0)
    assert np.allclose(diffusion(quiet, np.array([1.0, 1.0])), 0.0)
    assert quiet.Delta[0](np.array([1.0, 1.0]), 5.0) == 0.0
    assert quiet.p_star[0] == 0.0


def test_remark_preset_bound_constants():
    plant = preset_remark(theta=(0.1, 0.1, 0.2, 0.2))
    assert np.isclose(plant.p_star[0], 0.2)
    assert np.isclose(plant.p_star[1], 0.4)


def test_remark_preset_table_values():
    plant = preset_remark()
    assert np.isclose(plant.g[0]([1.0]), 2.0)
    assert plant.Delta[1](np.array([0.5, 0.0]), 7.0) == 0.0
    d = drift(plant, np.zeros(2), 0.0, 0.0)
    assert d[0] == 0.0                           # theta3 sin(0) vanishes


def test_assumptions_pass_for_both_presets():
    for plant in (preset_section4(), preset_remark()):
        rep = check_assumptions(plant, plant.domain_box, 10_000,
                                derive_stream(18, 0))
        assert rep.passed, (plant.name, rep.delta_ratios, rep.psi_ratios)


def test_assumptions_flag_constructed_violation():
    plant = preset_section4()
    bad = StrictFeedbackPlant(
        name="bad", n=plant.n, r=plant.r, q=plant.q, g=plant.g, f=plant.f,
        theta_star=plant.theta_star, Psi=plant.Psi,
        Delta=[lambda x, t: x[..., 0] ** 2, plant.Delta[1]],
        phi=plant.phi,
        Phi_bound=plant.Phi_bound,              # envelope |x1| with p*=1
        p_star=np.array([1.0, 0.0]),
        varphi_bound=plant.varphi_bound, b_star=plant.b_star,
        domain_box=np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    rep = check_assumptions(bad, bad.domain_box, 10_000, derive_stream(18, 1))
    assert not rep.passed
    assert rep.delta_ratios[0] > 1.5


def test_assumptions_trivial_when_disturbance_absent():
    plant = preset_section4(disturbance_scale=0.0)
    rep = check_assumptions(plant, plant.domain_box, 1000, derive_stream(18, 2))
    assert rep.passed


def test_gain_functions_positive_on_domain_boxes():
    for plant in (preset_section4(), preset_remark()):
        stream = derive_stream(19, 0)
        xs = np.stack([stream.uniform(2000, lo, hi)
                       for lo, hi in plant.domain_box], axis=1)
        for x in xs:
            for i in range(plant.n):
                assert plant.g[i](list(x[: i + 1])) >= 0.5


def test_preset_registry():
    assert make_plant("section4").name == "section4"
    assert make_plant("remark1").name == "remark1"
    with pytest.raises(ValueError):
        make_plant("nope")
