import numpy as np

from ancsim import controller
from ancsim.cli import main
from ancsim.ineq import (diffusion_energy_margin, max_tanh_absorption_gap,
                         quartic_product_margin, tanh_absorption_gap)
from ancsim.rng import derive_stream
from ancsim.verify import (derivative_agreement_check, run_all, tanh_absorption_check,
                           young_quartic_check)


def test_absorption_gap_sign_and_bound():
    stream = derive_stream(31, 0)
    v = stream.uniform(100_000, -50, 50)
    eps = stream.uniform(100_000, 1e-6, 10)
    gap = tanh_absorption_gap(v, eps)
    assert np.all(gap >= -1e-15)
    assert np.all(gap <= 0.2785 * eps + 1e-15)


def test_absorption_brute_force_peak_location():
    peak = max_tanh_absorption_gap(eps=1.0)
    assert 0.2776 <= peak <= 0.2785
    # the bound scales linearly in the width
    peak3 = max_tanh_absorption_gap(eps=3.0)
    assert abs(peak3 - 3.0 * peak) < 1e-6


def test_quartic_margin_nonnegative_and_tight_family():
    stream = derive_stream(31, 1)
    a = stream.uniform(50_000, -100, 100)
    z = stream.uniform(50_000, -5, 5)
    b = stream.uniform(50_000, -10, 10)
    assert np.all(quartic_product_margin(a, z, b) >= -1e-9)
    # equality holds when |b| = |a|^{1/3} |z| (the Young equality case)
    aa, zz = 8.0, 0.7
    bb = abs(aa) ** (1 / 3) * zz
    assert quartic_product_margin(aa, zz, bb) < 1e-12


def test_diffusion_margin_nonnegative_and_equality_case():
    stream = derive_stream(31, 2)
    z = stream.uniform(50_000, -5, 5)
    p2 = stream.uniform(50_000, 0, 25)
    eps = stream.uniform(50_000, 1e-3, 10)
    assert np.all(diffusion_energy_margin(z, p2, eps) >= -1e-9)
    # equality at eps = z^2 ||phi||^2
    assert diffusion_energy_margin(1.3, 2.0, 1.3 ** 2 * 2.0) < 1e-12


def test_absorption_suite_detects_lowered_delta():
    ok = tanh_absorption_check(samples=10_000)
    assert ok.passed
    broken = tanh_absorption_check(delta=0.27, samples=10_000)
    assert not broken.passed


def test_young_suite_detects_changed_exponent():
    ok = young_quartic_check(samples=10_000)
    assert ok.passed
    broken = young_quartic_check(exponent=1.0, samples=10_000)
    assert not broken.passed


def test_derivative_suite_detects_partials_without_the_gain(monkeypatch):
    # the own-step closed form without its 1/g: only remark1's
    # g_1 = 1 + x_1^2 tells it apart, so the check must read the closed form
    # the controller module holds when it runs
    real = controller._own_step_partials
    monkeypatch.setattr(controller, "_own_step_partials", lambda q: real(dict(q, g=1.0)))
    broken = derivative_agreement_check(states=20)
    worst = dict(kv.split("=") for kv in broken.detail.split())
    assert not broken.passed and float(worst["estimates_vs_fd"]) > 1e-2, broken.detail
    assert float(worst["first_order"]) < 1e-4 and float(worst["est_flow_vs_fd"]) < 1e-4


def test_run_all_quick_passes():
    results = run_all(quick=True)
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]


def test_cli_verify_quick(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "tanh_absorption" in out and "PASS" in out


def test_cli_verify_exit_code_on_failure(capsys, monkeypatch):
    import ancsim.cli
    from ancsim.verify import CheckResult
    monkeypatch.setattr(ancsim.cli, "run_all",
                        lambda quick=False: [CheckResult("boom", False, "x")])
    assert main(["verify"]) == 3
    assert "FAIL" in capsys.readouterr().out
