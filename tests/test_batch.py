"""Batch invariance: a run's result does not depend on the batch it steps in.

The closed loop steps a sweep's runs as the rows of one set of arrays, and
the third-order scratch evaluates its difference stencil's points as rows of
one call.  That is only sound while every ufunc and row reduction on the
step path rounds a batch row as it rounds a lone value; the first test pins
that for this numpy, so an upgrade that breaks it fails here first.
"""

import hashlib
import json

import numpy as np
import pytest

from ancsim import controller
from ancsim.config import bundled_preset_text, load_bundled, parse_config
from ancsim.harness import csv_path, emit_csv, monte_carlo, run_closed_loop
from ancsim.rng import derive_stream

UFUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
    "abs": np.abs, "sign": np.sign, "sqrt": lambda v: np.sqrt(np.abs(v)),
    "power_4/3": lambda v: np.power(np.abs(v), 4.0 / 3.0),
    "power_1/3": lambda v: np.power(np.abs(v), 1.0 / 3.0),
    "power_-2/3": lambda v: np.power(np.abs(v), -2.0 / 3.0),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", sorted(UFUNCS))
def test_ufunc_rounds_a_row_as_a_lone_value(name):
    f = UFUNCS[name]
    stream = derive_stream(61, 0)
    batch = stream.uniform(50 * 7, -4.0, 4.0).reshape(50, 7)
    wide = stream.uniform(50 * 21, -4.0, 4.0).reshape(50, 21)
    full = f(batch)
    for b in range(50):
        assert np.array_equal(_bits(f(batch[b])), _bits(full[b]))
        for j in range(7):
            assert _bits(f(np.array(batch[b, j]))) == _bits(full[b, j])
    column = wide[:, ::3]                     # a strided view
    assert np.array_equal(_bits(f(column)), _bits(f(np.ascontiguousarray(column))))
    for j in range(7):
        assert np.array_equal(_bits(f(column[:, j])), _bits(f(column)[:, j]))


@pytest.mark.parametrize("k", [1, 2, 7, 8, 27, 64, 130])
def test_row_reductions_round_a_row_as_a_lone_vector(k):
    stream = derive_stream(62, k)
    a = stream.uniform(50 * k, -1.0, 1.0).reshape(50, k)
    w = stream.uniform(k, -1.0, 1.0)
    wide = stream.uniform(50 * 2 * k, -1.0, 1.0).reshape(50, 2 * k)[:, ::2]
    for prod in (a * w, a * a, wide * w):
        sums, runs = prod.sum(axis=-1), prod.cumsum(axis=-1)[..., -1]
        for b in range(50):
            row = np.ascontiguousarray(prod[b])
            assert _bits(row.sum(axis=-1)) == _bits(sums[b])
            assert _bits(row.cumsum(axis=-1)[-1]) == _bits(runs[b])
    # a stride-0 (broadcast) operand and a stencil axis in front
    stacked = np.broadcast_to(a, (3, 50, k)) * w
    assert np.array_equal(_bits(stacked.sum(axis=-1)[2]), _bits((a * w).sum(axis=-1)))


def _csv_bytes(cfg, records, tmp_path, tag):
    out = []
    for i, rec in enumerate(records):
        path = csv_path(str(tmp_path), i).replace(".csv", f"_{tag}.csv")
        emit_csv(rec, path, cfg.n, cfg.csv_decimation)
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def _in_batches(cfg, size):
    records = []
    for start in range(0, cfg.runs, size):
        if size == 1:
            records.append(run_closed_loop(cfg, start))
        else:
            records += run_closed_loop(cfg, range(start, min(cfg.runs, start + size)))
    return records


def _remark1_with_halts():
    # tripled noise: about half the runs fail at assorted steps within 0.25 s
    data = json.loads(bundled_preset_text("remark1"))
    data["plant"]["params"]["noise_scale"] = 3.0
    data.update(horizon=0.25, runs=50)
    return parse_config(data)


def _section4_short():
    cfg = load_bundled("section4")
    cfg.horizon, cfg.runs, cfg.csv_decimation = 0.04, 50, 1
    return cfg


@pytest.mark.parametrize("make", [_section4_short, _remark1_with_halts],
                         ids=["section4", "remark1"])
def test_run_csv_bytes_do_not_depend_on_the_batch(make, tmp_path):
    cfg = make()
    alone = _in_batches(cfg, 1)
    want = _csv_bytes(cfg, alone, tmp_path, "b1")
    for size in (7, 50):
        batched = _in_batches(cfg, size)
        assert _csv_bytes(cfg, batched, tmp_path, f"b{size}") == want
        assert [(r.diverged, r.diverged_step, len(r)) for r in batched] == \
            [(r.diverged, r.diverged_step, len(r)) for r in alone]
    report, _ = monte_carlo(cfg, out_dir=str(tmp_path / "sweep"))
    assert report.csv_digest == hashlib.sha256(b"".join(want)).hexdigest()
    if make is _remark1_with_halts:
        halts = {i: len(r) for i, r in enumerate(alone) if r.diverged}
        assert 5 <= len(halts) <= 45 and len(set(halts.values())) > 5


def test_cascade3_stencil_rows_are_the_per_point_values(monkeypatch):
    # the 13 state-stencil points and the 2 moved-estimate points go through
    # one call each; every row equals that point evaluated on its own
    cfg = load_bundled("cascade3")
    adaptive = cfg.initial_estimates.copy()
    for est in adaptive.steps:
        est.W_hat[:] = derive_stream(63, 0).uniform(est.W_hat.size, -1.0, 1.0)
    real = controller._chain_alpha_value
    calls = []

    def recording(level, x, est, *args):
        q, rates = real(level, x, est, *args)
        calls.append((level, np.array(x), est, args, q["alpha"]))
        return q, rates
    monkeypatch.setattr(controller, "_chain_alpha_value", recording)
    controller.compute_scratch(3, np.array([0.3, -0.2, 0.1]), adaptive, cfg.gains,
                               cfg.plant, cfg.networks, mode="dual")
    monkeypatch.setattr(controller, "_chain_alpha_value", real)
    assert [len(c[1]) for c in calls] == [13, 2]
    for level, pts, est, args, alphas in calls:
        for r in range(len(pts)):
            row = controller.AdaptiveState([
                controller.StepEstimates(*(np.asarray(v)[r] if np.ndim(v) > base else v
                                           for v, base in zip(
                                               (s.vartheta_hat, s.p_hat, s.eps_hat, s.W_hat),
                                               (1, 1, 0, 1))))
                for s in est.steps])
            alone, _ = real(level, pts[r], row, *args)
            assert _bits(alone["alpha"]) == _bits(alphas[r])


def test_guard_halts_one_row_and_the_others_carry_on(monkeypatch):
    # row b's p2_hat turns NaN in the estimates of sample 3 + b: each row
    # halts at its own sample, as it does alone, and the rest of the batch
    # steps on unchanged
    from ancsim.controller import AdaptiveState
    cfg = load_bundled("section4")
    cfg.horizon = 0.012
    real = AdaptiveState.euler

    def run(arg):
        rows = [arg] if isinstance(arg, int) else list(arg)
        calls = []

        def poisoned(self, rates, dt):
            new = real(self, rates, dt)
            calls.append(None)
            for b in rows:
                if len(calls) == 3 + b:
                    new.steps[1].p_hat[(1,) if isinstance(arg, int) else (b - rows[0], 1)] = np.nan
            return new
        monkeypatch.setattr(AdaptiveState, "euler", poisoned)
        return run_closed_loop(cfg, arg)

    alone = [run(b) for b in range(4)]
    batched = run(range(4))
    for b, (a, r) in enumerate(zip(alone, batched)):
        assert a.diverged_step == r.diverged_step == 3 + b == len(r) - 1
        for got, want in ((r.states, a.states), (r.controls, a.controls),
                          *((r.diagnostics[k], a.diagnostics[k]) for k in a.diagnostics)):
            assert np.array_equal(_bits(got), _bits(want))


def test_full_gain_matrix_is_a_fixed_order_row_reduction():
    # a non-diagonal Gamma: the rates are Gamma v up to rounding, and a
    # batch row rounds as the lone vector does
    from ancsim.controller import StepEstimates, adaptive_rates
    cfg = load_bundled("section4")
    gains = cfg.gains[0]
    l = gains.Gamma_w.shape[0]
    stream = derive_stream(64, 0)
    A = stream.uniform(l * l, -0.1, 0.1).reshape(l, l)
    gains.Gamma_w = A @ A.T + np.eye(l)
    z = stream.uniform(5, -1.0, 1.0)
    S = stream.uniform(5 * l, 0.0, 1.0).reshape(5, l)
    est = StepEstimates(np.zeros((5, 2)), np.zeros((5, 1)), np.zeros(5),
                        stream.uniform(5 * l, -1.0, 1.0).reshape(5, l))
    batch = adaptive_rates(1, z, np.zeros(5), [0.0], [0.0, 0.0], S, est, gains).W_hat
    for b in range(5):
        row = StepEstimates(est.vartheta_hat[b], est.p_hat[b], est.eps_hat[b], est.W_hat[b])
        alone = adaptive_rates(1, z[b], 0.0, [0.0], [0.0, 0.0], S[b], row, gains).W_hat
        assert np.array_equal(_bits(alone), _bits(batch[b]))
        v = z[b] ** 3 * S[b] - gains.sigma_w * est.W_hat[b]
        assert np.allclose(alone, gains.Gamma_w @ v, rtol=1e-13, atol=1e-15)
