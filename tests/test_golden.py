"""Golden digests: short sweeps of every bundled preset in both scratch modes.

Each row is one ``monte_carlo`` call, and the CSV and report digests must
match the recorded ones byte for byte, halts included.  Golden values depend
on the numpy version (its ufunc kernels), so a mismatch on another numpy is
not by itself a fault of the code.
"""

import numpy as np
import pytest

from ancsim.config import load_bundled
from ancsim.harness import monte_carlo
from ancsim.rng import derive_stream

RECORDED_ON_NUMPY = "2.4.6"

# (preset, scratch_mode, horizon, runs) -> csv_digest[:12], digest[:12], halted run lengths
ROWS = [
    (("section4", "dual", 2, 4), "f87b47406376", "f2d39ef2e6a8", {}),
    (("section4", "numeric", 1, 2), "aac61b8da82a", "f9a80793ec47", {}),
    (("remark1", "dual", 5, 8), "66b4ea03a031", "399c571b2974", {1: 4355, 3: 3887, 7: 1082}),
    (("remark1", "numeric", 1, 2), "879c0e8e46eb", "5987e445b22a", {}),
    (("cascade3", "dual", 2, 1), "56d7d5110e0d", "274c62fbcb70", {}),
    (("cascade3", "numeric", 2, 1), "4540459d5229", "1fff01a469b2", {}),
]


@pytest.mark.parametrize("row", ROWS, ids=["-".join(map(str, r[0])) for r in ROWS])
def test_golden_digests(row, tmp_path):
    (name, mode, horizon, runs), csv_digest, digest, halts = row
    cfg = load_bundled(name)
    cfg.scratch_mode, cfg.horizon, cfg.runs = mode, horizon, runs
    report, records = monte_carlo(cfg, out_dir=str(tmp_path))
    got = (report.csv_digest[:12], report.digest[:12],
           {i: len(r) for i, r in enumerate(records) if r.diverged})
    assert got == (csv_digest, digest, halts), (
        f"golden digests were recorded on numpy {RECORDED_ON_NUMPY}; "
        f"this is numpy {np.__version__}")


# cascade3 from x0 = 0: its CSV carries signed zeros (alpha_1 = -0.0 at the
# origin), so these pin the sign of every exact zero the steps' skipped
# terms could flip.  (zero estimates, scratch_mode) -> csv_digest[:12], digest[:12]
ORIGIN_ROWS = [
    ((True, "dual"), "31c5d4473965", "6f0338038167"),
    ((True, "numeric"), "31c5d4473965", "6f0338038167"),
    ((False, "dual"), "bba36ce2a391", "01922f180113"),
    ((False, "numeric"), "b2fa26c7a512", "2089cc2060de"),
]


@pytest.mark.parametrize("row", ORIGIN_ROWS,
                         ids=[f"{'zero' if z else 'random'}-{m}" for (z, m), *_ in ORIGIN_ROWS])
def test_cascade3_from_the_origin(row, tmp_path):
    (zero, mode), csv_digest, digest = row
    cfg = load_bundled("cascade3")
    cfg.scratch_mode, cfg.x0 = mode, np.zeros(3)
    assert not np.any(cfg.initial_estimates.values)
    if not zero:
        size = cfg.initial_estimates.values.size
        cfg.initial_estimates = cfg.initial_estimates.with_values(
            derive_stream(24, 9).uniform(size, -0.5, 0.5))
    report, _ = monte_carlo(cfg, out_dir=str(tmp_path))
    assert (report.csv_digest[:12], report.digest[:12]) == (csv_digest, digest), (
        f"golden digests were recorded on numpy {RECORDED_ON_NUMPY}; "
        f"this is numpy {np.__version__}")
