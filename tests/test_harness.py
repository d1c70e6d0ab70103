import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ancsim
from ancsim.cli import main
from ancsim.config import (ConfigError, bundled_preset_names,
                           bundled_preset_text, load_bundled, load_config,
                           parse_config)
from ancsim.harness import (csv_header, csv_path, emit_csv, monte_carlo,
                            run_closed_loop, summarize)
from ancsim.monitor import state_energy
from ancsim.sde import TrajectoryRecord


def short(cfg, horizon=0.5, runs=2):
    cfg.horizon = horizon
    cfg.runs = runs
    return cfg


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def test_bundled_config_matches_design_table(section4_config):
    cfg = section4_config
    e1, e2 = cfg.initial_estimates.steps
    assert np.allclose(e1.vartheta_hat, [0.0, 0.1])
    assert np.allclose(e2.vartheta_hat, [0.0, 0.8])
    assert e1.eps_hat == 1e-4 and e2.eps_hat == 0.0
    assert np.allclose(e1.p_hat, [0.1])
    assert np.allclose(e2.p_hat, [0.0, 0.15])
    assert np.all(e1.W_hat == 0.0) and np.all(e2.W_hat == 0.0)
    g1, g2 = cfg.gains.steps
    assert np.allclose(g1.Gamma_vartheta, np.diag([0.3, 0.3]))
    assert np.allclose(g2.Gamma_vartheta, np.diag([0.25, 0.25]))
    assert g1.gamma_eps == 0.3 and g2.gamma_eps == 0.4
    assert np.allclose(g1.Gamma_p, [[0.3]])
    assert np.allclose(g2.Gamma_p, np.diag([0.4, 0.0]))
    assert (g1.sigma_vartheta, g2.sigma_vartheta) == (0.3, 0.25)
    assert (g1.sigma_eps, g2.sigma_eps) == (0.3, 0.4)
    assert (g1.sigma_p, g2.sigma_p) == (0.3, 0.4)
    assert (g1.sigma_w, g2.sigma_w) == (1.5, 0.3)
    assert g1.c == g2.c == 0.3
    assert cfg.networks[0].node_count == 27 and cfg.networks[0].width == 0.8
    assert cfg.networks[1].node_count == 64 and cfg.networks[1].width == 1.5
    assert np.allclose(cfg.x0, [0.5, -0.5])


def test_missing_key_reported_with_field_path():
    data = json.loads(bundled_preset_text("section4"))
    del data["networks"][0]["bounds"]
    del data["gains"][1]["sigma_w"]
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.violations == ["networks[0].bounds: missing",
                                    "gains[1].sigma_w: missing"]


def test_non_canonical_input_dim_rejected():
    for step, dim in ((0, 2), (1, 3), (1, 5)):
        data = json.loads(bundled_preset_text("section4"))
        data["networks"][step]["input_dim"] = dim
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.violations[0].startswith(f"networks[{step}].input_dim:")


def test_horizon_without_tail_samples_rejected(tmp_path):
    # the tail window [0.75 T, T] must hold a sample of the grid k * dt
    data = json.loads(bundled_preset_text("section4"))
    for horizon in (0.0004, 0.0015, 0.0019):
        data["horizon"] = horizon
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.violations[0].startswith("horizon:")
    for horizon in (0.001, 0.0013, 0.002):     # accepted ones summarize
        data["horizon"], data["runs"] = horizon, 1
        report, _ = monte_carlo(parse_config(data), out_dir=str(tmp_path))
        assert np.isfinite(report.tail_quantiles["max"])


def test_negative_dt_rejected_with_field_path():
    data = json.loads(bundled_preset_text("section4"))
    data["dt"] = -1.0
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert any("dt" in v for v in err.value.violations)


def test_missing_network_block_rejected():
    data = json.loads(bundled_preset_text("section4"))
    data["networks"] = data["networks"][:1]
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert any("networks" in v for v in err.value.violations)


def test_violations_are_collected_not_first_only():
    data = json.loads(bundled_preset_text("section4"))
    data["dt"] = -1.0
    data["runs"] = 0
    data["gains"][0]["c"] = -5.0
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert len(err.value.violations) >= 3


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        parse_config({"plant": {"preset": "spaceship"}})


def test_output_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("ANCSIM_OUT", str(tmp_path / "envout"))
    cfg = load_bundled("section4")
    assert cfg.output_dir == str(tmp_path / "envout")


def test_bundled_names():
    assert bundled_preset_names() == ["cascade3", "remark1", "section4"]


def test_load_config_from_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(bundled_preset_text("remark1"))
    cfg = load_config(str(p))
    assert cfg.plant.name == "remark1"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def test_closed_loop_channels_finite(section4_config):
    cfg = short(section4_config, horizon=0.3)
    rec = run_closed_loop(cfg, 0)
    assert not rec.diverged
    assert len(rec) == 301
    for name, ch in rec.diagnostics.items():
        assert np.all(np.isfinite(ch)), name
    assert np.all(np.isfinite(rec.controls))


def test_equilibrium_stays_at_origin_without_noise(section4_config):
    cfg = section4_config
    cfg.horizon = 0.2
    cfg.x0 = np.zeros(2)
    cfg.plant = __import__("ancsim.plant", fromlist=["preset_section4"]) \
        .preset_section4(noise_scale=0.0, disturbance_scale=0.0)
    for est in cfg.initial_estimates.steps:
        est.vartheta_hat[:] = 0.0
        est.p_hat[:] = 0.0
        est.eps_hat = 0.0
        est.W_hat[:] = 0.0
    rec = run_closed_loop(cfg, 0)
    assert np.all(rec.states == 0.0)
    assert np.all(rec.controls == 0.0)


def test_same_seed_reproduces_exactly(section4_config):
    cfg = short(section4_config, horizon=0.3)
    a = run_closed_loop(cfg, 0)
    b = run_closed_loop(cfg, 0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)


@pytest.mark.parametrize("name", ["section4", "cascade3"])
def test_record_columns_hold_their_quantities(name):
    # each named channel reads its own slot of the sample row, for n = 2 and 3
    cfg = load_bundled(name)
    cfg.horizon = 5 * cfg.dt
    rec = run_closed_loop(cfg, 0)
    d, n = rec.diagnostics, cfg.n
    assert np.array_equal(d["z1"], rec.states[:, 0])
    for i in range(1, n):
        assert np.allclose(d[f"z{i + 1}"], rec.states[:, i] - d[f"alpha{i}"],
                           rtol=1e-12, atol=1e-15)
    z = np.column_stack([d[f"z{i}"] for i in range(1, n + 1)])
    assert np.array_equal(d["Vx"], np.array([state_energy(row) for row in z]))
    for i, est in enumerate(cfg.initial_estimates.steps, start=1):
        assert d[f"W{i}_norm"][0] == np.linalg.norm(est.W_hat)
        assert d[f"eps{i}_hat"][0] == est.eps_hat
        assert d[f"p{i}_norm"][0] == np.linalg.norm(est.p_hat)
        assert d[f"vartheta{i}_norm"][0] == np.linalg.norm(est.vartheta_hat)


def test_guard_halt_keeps_the_offending_sample(section4_config):
    # a state beyond the divergence limit trips the magnitude guard at step 0;
    # the controller itself stays finite there (x1 = 0)
    cfg = short(section4_config, horizon=0.1)
    cfg.x0 = np.array([0.0, 2e6])
    rec = run_closed_loop(cfg, 0)
    assert rec.diverged
    assert rec.diverged_step == len(rec) - 1 == 0
    assert np.array_equal(rec.states[0], cfg.x0)
    assert np.isfinite(rec.controls[0])


def test_controller_halt_drops_the_failing_step():
    # remark1's g2 = exp(-x2) is below the gain floor at x2 = 25, so the
    # controller raises at step 0 and no control exists for that step
    cfg = load_bundled("remark1")
    cfg.horizon = 0.1
    cfg.x0 = np.array([0.0, 25.0])
    rec = run_closed_loop(cfg, 0)
    assert rec.diverged
    assert rec.diverged_step == len(rec) == 0
    assert all(len(ch) == 0 for ch in rec.diagnostics.values())


# remark1 calls math.exp, which raises OverflowError for |x| > ~709: at
# x2 = -800 in g2 = exp(-x2), at x1 = 800 in the step-2 envelope exp(x1)
OVERFLOW_X0 = ([0.0, -800.0], [800.0, 0.0])


@pytest.mark.parametrize("x0", OVERFLOW_X0)
def test_controller_overflow_halts_the_run(x0):
    cfg = load_bundled("remark1")
    cfg.horizon = 0.1
    cfg.x0 = np.array(x0)
    rec = run_closed_loop(cfg, 0)
    assert rec.diverged
    assert rec.diverged_step == len(rec) == 0


def test_plant_overflow_keeps_the_last_sample(section4_config, monkeypatch):
    # an overflow in the drift at step 3 leaves no state for step 4; sample 3
    # (state, control, diagnostics) was recorded, as under the guard
    import ancsim.harness as harness
    cfg = short(section4_config, horizon=0.1)
    real = harness.drift

    def overflowing(plant, x, u, t):
        if t >= 3 * cfg.dt - 1e-12:
            raise OverflowError("math range error")
        return real(plant, x, u, t)
    monkeypatch.setattr(harness, "drift", overflowing)
    rec = run_closed_loop(cfg, 0)
    assert rec.diverged
    assert rec.diverged_step == len(rec) - 1 == 3
    assert np.all(np.isfinite(rec.controls))


def test_nan_estimate_halts_the_run_at_its_own_sample(section4_config,
                                                     monkeypatch):
    # p2_hat[1] turns NaN in the estimates of sample 10; the guard must stop
    # there, not one step later when the control it feeds goes NaN
    from ancsim.controller import AdaptiveState
    cfg = short(section4_config, horizon=0.1)
    real = AdaptiveState.euler
    calls = []

    def poisoned(self, rates, dt):
        new = real(self, rates, dt)
        calls.append(len(calls))
        if len(calls) == 10:
            new.steps[1].p_hat[1] = np.nan
        return new
    monkeypatch.setattr(AdaptiveState, "euler", poisoned)
    rec = run_closed_loop(cfg, 0)
    assert rec.diverged
    assert rec.diverged_step == 10 == len(rec) - 1
    assert np.isnan(rec.diagnostics["p2_norm"][-1])
    assert np.all(np.isfinite(rec.controls))


def test_divergence_flagged_under_hostile_gains(section4_config):
    cfg = short(section4_config, horizon=2.0)
    cfg.x0 = np.array([3.0, -3.0])
    for g in cfg.gains.steps:     # destabilizing: huge adaptation, no leak
        g.Gamma_w = 5e3 * np.eye(g.Gamma_w.shape[0])
        g.sigma_w = 1e-6
        g.gamma_eps = 5e3
        g.sigma_eps = 1e-6
    rec = run_closed_loop(cfg, 0)
    if rec.diverged:             # partial record kept, step recorded
        assert rec.diverged_step is not None
        assert len(rec) >= 1
    else:                        # even hostile gains may survive; then all finite
        assert np.all(np.isfinite(rec.states))


# ---------------------------------------------------------------------------
# CSV and report emission
# ---------------------------------------------------------------------------

def test_csv_header_contract(section4_config, tmp_path):
    cfg = short(section4_config, horizon=0.01)
    path = str(tmp_path / "run.csv")
    emit_csv(run_closed_loop(cfg, 0), path, cfg.n)
    with open(path) as fh:
        header = fh.readline()
    assert header == ("t,x1,x2,u,z1,z2,alpha1,W1_norm,W2_norm,"
                      "eps1_hat,eps2_hat,p1_norm,p2_norm,"
                      "vartheta1_norm,vartheta2_norm,Vx\n")


def test_csv_roundtrip_and_decimation(section4_config, tmp_path):
    cfg = short(section4_config, horizon=0.1)
    rec = run_closed_loop(cfg, 0)
    path = str(tmp_path / "run.csv")
    emit_csv(rec, path, cfg.n, decimation=1)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (101, 16)
    assert np.allclose(back[:, 0], rec.times, rtol=0, atol=1e-12)
    assert np.allclose(back[:, 1:3], rec.states, rtol=1e-12, atol=0)
    assert np.allclose(back[:, 3], rec.controls, rtol=1e-12, atol=0)
    emit_csv(rec, path, cfg.n, decimation=10)
    dec = np.loadtxt(path, delimiter=",", skiprows=1)
    assert dec.shape == (11, 16)


@pytest.mark.parametrize("decimation", [1, 10])
def test_csv_holds_the_record_bit_for_bit(section4_config, tmp_path, decimation):
    # every column, diagnostics included, parses back to the in-memory double
    cfg = short(section4_config, horizon=0.1)
    rec = run_closed_loop(cfg, 0)
    path = str(tmp_path / "run.csv")
    emit_csv(rec, path, cfg.n, decimation=decimation)
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
        back = np.array([[float(v) for v in line.split(",")] for line in fh])
    mem = np.column_stack([rec.times, rec.states, rec.controls]
                          + [rec.diagnostics[c] for c in names[cfg.n + 2:]])
    assert back.shape == mem[::decimation].shape
    assert np.array_equal(back.view(np.uint64), mem[::decimation].view(np.uint64))


def test_empty_record_gives_header_only(tmp_path):
    rec = TrajectoryRecord(np.empty(0), np.empty((0, 2)), np.empty(0),
                           {name: np.empty(0) for name in
                            csv_header(2).split(",")[4:]})
    path = str(tmp_path / "empty.csv")
    emit_csv(rec, path, 2)
    assert open(path).read() == csv_header(2) + "\n"


def test_monte_carlo_single_run_reduces_to_closed_loop(section4_config, tmp_path):
    cfg = short(section4_config, horizon=0.2, runs=1)
    report, records = monte_carlo(cfg, out_dir=str(tmp_path / "mc"))
    direct = run_closed_loop(cfg, 0)
    assert np.array_equal(records[0].states, direct.states)
    assert report.runs == 1 and not report.diverged


def test_monte_carlo_rerun_gives_identical_digests(section4_config, tmp_path):
    cfg = short(section4_config, horizon=0.2, runs=3)
    r1, _ = monte_carlo(cfg, out_dir=str(tmp_path / "a"))
    r2, _ = monte_carlo(cfg, out_dir=str(tmp_path / "b"))
    assert r1.csv_digest == r2.csv_digest
    assert r1.digest == r2.digest
    a = open(tmp_path / "a" / csv_path("", 0).strip("/")).read()
    b = open(tmp_path / "b" / csv_path("", 0).strip("/")).read()
    assert a == b


def test_report_contains_required_fields(section4_config, tmp_path):
    cfg = short(section4_config, horizon=0.2, runs=2)
    report, _ = monte_carlo(cfg, out_dir=str(tmp_path / "mc"))
    text = open(tmp_path / "mc" / "report.txt").read()
    for key in ("tail_sup_median", "lambda_min", "K_total",
                "residual_bound_K_over_lambda", "csv_digest", "digest",
                "exceedance_at_10.0", "drift_negative_above_residual"):
        assert key in text, key


def test_summarize_marks_diverged_runs(section4_config):
    cfg = short(section4_config, horizon=0.2, runs=2)
    good = run_closed_loop(cfg, 0)
    bad = TrajectoryRecord(good.times.copy(), good.states.copy(),
                           good.controls.copy(),
                           {k: v.copy() for k, v in good.diagnostics.items()},
                           diverged=True, diverged_step=7)
    report = summarize(cfg, [good, bad], csv_digest="x")
    assert report.diverged == [1]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_quick_config(tmp_path, **overrides):
    data = json.loads(bundled_preset_text("section4"))
    data["horizon"] = 0.2
    data["runs"] = 2
    data["output_dir"] = str(tmp_path / "out")
    data.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_run_writes_csv(tmp_path, capsys):
    cfgp = write_quick_config(tmp_path)
    code = main(["run", "--config", cfgp])
    out = capsys.readouterr().out
    assert code == 0
    assert "final state" in out
    assert os.path.exists(tmp_path / "out" / "run_000.csv")


def test_cli_sweep_report_and_exit(tmp_path, capsys):
    cfgp = write_quick_config(tmp_path)
    code = main(["sweep", "--config", cfgp, "--runs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tail_sup_median" in out


def test_cli_bad_config_exits_one(tmp_path, capsys):
    cfgp = write_quick_config(tmp_path, dt=-1.0)
    code = main(["run", "--config", cfgp])
    assert code == 1
    assert "dt" in capsys.readouterr().err


# one malformed field per case: (mutation, the start of its violation)
BAD_FIELDS = {
    "dt": (lambda d: d.update(dt="abc"), "dt: expected a number"),
    "gain": (lambda d: d["gains"][0].update(c="x"), "gains[0].c: expected a number"),
    "eps_hat": (lambda d: d["initial_estimates"][0].update(eps_hat=None),
                "initial_estimates[0].eps_hat: expected a number"),
    "runs": (lambda d: d.update(runs="many"), "runs: expected an integer"),
    "noise_scale": (lambda d: d["plant"]["params"].update(noise_scale="x"),
                    "plant.params.noise_scale: expected a number"),
    "bounds": (lambda d: d["networks"][0].pop("bounds"), "networks[0].bounds: missing"),
    "horizon": (lambda d: d.update(horizon=0.0004), "horizon: 0.0004 is shorter"),
    "input_dim": (lambda d: d["networks"][1].update(input_dim=3),
                  "networks[1].input_dim: step 2 feeds"),
}


def write_config(tmp_path, data):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    return str(p)


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_cli_malformed_field_exits_one(tmp_path, capsys, case):
    data = json.loads(bundled_preset_text("section4"))
    mutate, expected = BAD_FIELDS[case]
    mutate(data)
    code = main(["sweep", "--config", write_config(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n  - ") == 1 and f"  - {expected}" in err


def test_cli_lists_every_violation(tmp_path, capsys):
    # the tail-window check needs a valid dt, so the horizon case stays out
    cases = [c for name, c in sorted(BAD_FIELDS.items()) if name != "horizon"]
    data = json.loads(bundled_preset_text("section4"))
    for mutate, _ in cases:
        mutate(data)
    code = main(["run", "--config", write_config(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n  - ") == len(cases)
    for _, expected in cases:
        assert f"  - {expected}" in err


def test_cli_bad_overrides_exit_one(tmp_path, capsys):
    cfgp = write_quick_config(tmp_path)
    assert main(["run", "--config", cfgp, "--seed", "-1", "--run-index", "-2"]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "--run-index" in err
    assert main(["sweep", "--config", cfgp, "--runs", "0"]) == 1
    assert "--runs" in capsys.readouterr().err


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    # argparse's own usage exit, 2, would read as the divergence quota
    cfgp = write_quick_config(tmp_path)
    assert main(["sweep"]) == 1
    assert main(["sweep", "--config", cfgp, "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert main(["-h"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_oversized_sweep_is_a_config_error(tmp_path, capsys):
    # a million 20 s section4 runs would hold about 2.7 TB of increments and
    # samples; the sweep is refused before anything is allocated
    cfgp = write_quick_config(tmp_path, horizon=20.0)
    assert main(["sweep", "--config", cfgp, "--runs", "1000000"]) == 1
    assert "byte cap" in capsys.readouterr().err


def test_import_loads_no_process_pool():
    # a sweep steps in the calling process; the package needs no pool module
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ancsim, ancsim.harness; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("x0", OVERFLOW_X0)
def test_cli_run_reports_overflow_without_traceback(tmp_path, capsys, x0):
    cfgp = write_quick_config(tmp_path, plant={"preset": "remark1", "params": {}},
                              x0=x0)
    assert main(["run", "--config", cfgp]) == 2
    out, err = capsys.readouterr()
    assert "DIVERGED at step 0" in out
    assert "Traceback" not in out + err


def test_cli_run_reports_controller_halt(tmp_path, capsys):
    cfgp = write_quick_config(tmp_path, plant={"preset": "remark1", "params": {}},
                              x0=[0.0, 25.0])
    assert main(["run", "--config", cfgp]) == 2
    out = capsys.readouterr().out
    assert "0 samples" in out and "DIVERGED at step 0" in out


def test_cli_presets_lists_and_dumps(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "section4" in out and "remark1" in out
    assert main(["presets", "section4"]) == 0
    dumped = capsys.readouterr().out
    assert json.loads(dumped)["plant"]["preset"] == "section4"


def test_cli_sweep_divergence_quota_exit(tmp_path, capsys):
    # far outside the design envelope the first control blows past the
    # divergence limit within a few steps
    cfgp = write_quick_config(tmp_path, x0=[50.0, 50.0], horizon=0.05, runs=1)
    code = main(["sweep", "--config", cfgp])
    capsys.readouterr()
    assert code == 2


def test_cli_seed_and_out_overrides(tmp_path):
    cfgp = write_quick_config(tmp_path)
    alt = str(tmp_path / "alt")
    code = main(["run", "--config", cfgp, "--seed", "7", "--out", alt])
    assert code == 0
    assert os.path.exists(os.path.join(alt, "run_000.csv"))


def test_remark_preset_short_run_is_stable():
    cfg = load_bundled("remark1")
    cfg.horizon = 0.5
    rec = run_closed_loop(cfg, 0)
    assert not rec.diverged
    assert np.all(np.isfinite(rec.states))
