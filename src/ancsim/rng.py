"""Deterministic random streams and Wiener-process increments.

Every run of the simulator owns one stream derived from (master_seed,
run_index).  Draws are produced by a fixed, documented pipeline so that
golden files stay portable:

* bit source: Philox4x64-10 counter-based generator, keyed by
  ``numpy.random.SeedSequence(master_seed, spawn_key=(run_index,))``;
* uniforms: ``((word >> 11) + 0.5) * 2**-53`` from raw 64-bit words,
  strictly inside (0, 1);
* normals: inverse normal CDF of those uniforms, by :func:`ndtri`, a numpy
  port of the Cephes routine that ``scipy.special.ndtri`` also uses (same
  bits, without importing scipy).

No numpy ``Generator`` methods are used for the draws themselves, so the
stream does not depend on numpy's distribution implementations.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox, SeedSequence

__all__ = ["NormalStream", "WienerPath", "derive_stream", "ndtri", "wiener_increments"]

_U64_TO_UNIT = 2.0 ** -53

# Cephes ndtri (S. L. Moshier, Cephes Math Library): rational approximations
# on |y - 1/2| <= 3/8 and, in the tails, on z = sqrt(-2 log y) in [2, 8) and
# [8, 64).  Highest-order coefficient first; the Q denominators are monic.
_EXP_M2 = 0.13533528323661269189          # exp(-2)
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef, monic=False):
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _log(v: np.ndarray) -> np.ndarray:
    # the C library's log, as Cephes calls it; np.log rounds differently
    return np.array([math.log(e) for e in v.tolist()])


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF for p in (0, 1), elementwise."""
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)

    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0, monic=True))) * _S2PI

    tail = ~mid
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.where(near, z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True),
                  z * _polevl(z, _P2) / _polevl(z, _Q2, monic=True))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass
class WienerPath:
    """Increments of an r-dimensional standard Wiener process on a fixed grid.

    Each entry of ``increments`` (shape ``(steps, dim)``) is distributed
    Normal(0, dt), independent across steps and coordinates.
    """

    dim: int
    dt: float
    increments: np.ndarray


class NormalStream:
    """A seedable stream of uniform/normal variates backed by Philox."""

    def __init__(self, seed_seq: SeedSequence):
        self._bitgen = Philox(seed_seq)

    def _raw(self, count: int) -> np.ndarray:
        return self._bitgen.random_raw(count)

    def uniform(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform draws on (low, high), endpoints excluded."""
        u = ((self._raw(count) >> np.uint64(11)) + 0.5) * _U64_TO_UNIT
        return low + (high - low) * u

    def normal(self, count: int) -> np.ndarray:
        """Standard normal draws via inverse-CDF of Philox uniforms."""
        return ndtri(self.uniform(count))


def derive_stream(master_seed: int, run_index: int) -> NormalStream:
    """Deterministic per-run stream; same (seed, index) yields identical draws."""
    return NormalStream(SeedSequence(master_seed, spawn_key=(run_index,)))


def wiener_increments(stream: NormalStream, r: int, steps: int, dt: float) -> WienerPath:
    """Draw ``steps`` increments of an r-dimensional Wiener process.

    Entries are i.i.d. Normal(0, dt).  Raises ValueError for dt <= 0 or r < 1.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if r < 1:
        raise ValueError(f"noise dimension must be >= 1, got {r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    z = stream.normal(steps * r).reshape(steps, r)
    return WienerPath(dim=r, dt=dt, increments=z * np.sqrt(dt))
