"""Lyapunov-style diagnostics for closed-loop runs.

The primary online signal is the state energy  Vx = sum_i z_i^4 / 4.  The
parameter-error part of the full energy needs ideal network weights and the
ideal approximation error, which are existence objects; the monitor therefore
tracks Vx only.  Ideal weight norms for the offset constant K are estimated by
a least-squares reference fit of each step's unknown-function stack.

All functions here are read-only over completed trajectory records.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .controller import GainConfig
from .rbf import RbfNetwork, fit_least_squares
from .rng import derive_stream
from .sde import TrajectoryRecord

__all__ = [
    "BoundConstants", "TruthNorms",
    "state_energy", "lambda_K", "reference_truth_norms", "empirical_drift",
    "bounded_in_probability_stat", "convergence_stat", "tail_sups",
]

_EIG_TOL = 1e-12


@dataclass
class BoundConstants:
    """Per-step decay rate lambda_i and offset K_i of  LV <= -lambda V + K."""

    lam: np.ndarray
    K: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(np.min(self.lam))

    @property
    def K_total(self) -> float:
        return float(np.sum(self.K))

    @property
    def residual_bound(self) -> float:
        return self.K_total / self.lambda_min


@dataclass
class TruthNorms:
    """Reference norms entering the offset constant of one step."""

    p_norm: float
    vartheta_norm: float
    W_norm: float


def state_energy(z) -> float:
    """Quartic state energy sum_i z_i^4 / 4, over the last axis of z."""
    z = np.asarray(z, dtype=float)
    z2 = z * z
    return np.sum(z2 * z2, axis=-1) / 4.0


def _min_active_eig(M: np.ndarray):
    """Smallest strictly-positive eigenvalue; None if the matrix is all-frozen.

    Zero eigenvalues correspond to frozen adaptation directions (the estimate
    never moves there) and are excluded from the decay-rate bookkeeping.
    """
    M = np.asarray(M, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if np.any(eigs < -_EIG_TOL):
        raise ValueError("adaptation gain matrix has a negative eigenvalue")
    active = eigs[eigs > _EIG_TOL]
    if active.size == 0:
        return None
    return float(np.min(active))


def lambda_K(gains: GainConfig, truth_norms: Sequence[TruthNorms]) -> BoundConstants:
    """Decay/offset constants per step from the gain table and truth norms.

    lambda_i = min{4 c_i, gamma_eps sigma_eps, sigma_vartheta * mineig(Gamma_vartheta),
                   sigma_p * mineig(Gamma_p), sigma_w * mineig(Gamma_w)}
    K_i = (sigma_p ||p_i||^2 + sigma_vartheta ||vartheta_i||^2
           + sigma_w ||W_i*||^2) / 2 + (3/4) young_eps1
           + 0.2785 (eps0 + eps1 + eps2)
    """
    n = len(gains)
    lam = np.empty(n)
    K = np.empty(n)
    for i in range(n):
        g = gains[i]
        for name, v in (("c", g.c), ("gamma_eps", g.gamma_eps),
                        ("sigma_vartheta", g.sigma_vartheta), ("sigma_p", g.sigma_p),
                        ("sigma_eps", g.sigma_eps), ("sigma_w", g.sigma_w)):
            if v <= 0:
                raise ValueError(f"step {i + 1}: gain {name} must be positive, got {v}")
        cands = [4.0 * g.c, g.gamma_eps * g.sigma_eps]
        for sigma, mat in ((g.sigma_vartheta, g.Gamma_vartheta),
                           (g.sigma_p, g.Gamma_p),
                           (g.sigma_w, g.Gamma_w)):
            m = _min_active_eig(mat)
            if m is not None:
                cands.append(sigma * m)
        lam[i] = min(cands)
        t = truth_norms[i]
        K[i] = (0.5 * g.sigma_p * t.p_norm ** 2
                + 0.5 * g.sigma_vartheta * t.vartheta_norm ** 2
                + 0.5 * g.sigma_w * t.W_norm ** 2
                + 0.75 * g.young_eps1
                + 0.2785 * (g.eps0 + g.eps1 + g.eps2))
    return BoundConstants(lam, K)


# the last reference fit: (plant, networks, sample_seed, samples_per_node, norms)
_TRUTH_MEMO: list = [None]


def reference_truth_norms(plant, nets: Sequence[RbfNetwork],
                          sample_seed: int = 0,
                          samples_per_node: int = 8) -> List[TruthNorms]:
    """Truth norms per step; ideal weight norms come from a reference fit.

    The per-step unknown-function stack (f_i minus the gradient-weighted
    earlier f_j, reconstructed from the canonical network input layout) is fit
    on uniform samples of the network's center box, and the norm of the
    fitted weights stands in for the unknowable ideal weight norm.

    The fit depends only on the plant and the networks' centers and widths,
    so the last result is kept and returned again for the same plant and
    network objects: repeated sweeps of one config fit once.
    """
    memo = _TRUTH_MEMO[0]
    if (memo is not None and memo[0] is plant and len(memo[1]) == len(nets)
            and all(a is b for a, b in zip(memo[1], nets))
            and memo[2:4] == (sample_seed, samples_per_node)):
        return list(memo[4])
    out = []
    for i in range(1, plant.n + 1):
        net = nets[i - 1]
        canonical = 1 if i == 1 else 2 * i
        if net.input_dim != canonical:
            raise ValueError(f"step {i} network input dim {net.input_dim} does not "
                             f"match the canonical layout ({canonical})")
        lo = net.centers.min(axis=0)
        hi = net.centers.max(axis=0)
        count = max(samples_per_node * net.node_count, 400)
        stream = derive_stream(sample_seed, i)
        Z = np.stack([stream.uniform(count, lo[k], hi[k])
                      for k in range(net.input_dim)], axis=1)
        targets = np.empty(count)
        for s in range(count):
            if i == 1:
                targets[s] = plant.f[0]([Z[s, 0]])
            else:
                xbar = list(Z[s, :i])
                grads = Z[s, i + 1: 2 * i]
                val = plant.f[i - 1](xbar)
                for j in range(i - 1):
                    val -= grads[j] * plant.f[j](xbar[: j + 1])
                targets[s] = val
        w = fit_least_squares(net.centers, net.width, (Z, targets), ridge=1e-6)
        out.append(TruthNorms(
            p_norm=float(np.linalg.norm(plant.p_truth(i))),
            vartheta_norm=float(np.linalg.norm(plant.theta_envelope(i))),
            W_norm=float(np.linalg.norm(w)),
        ))
    _TRUTH_MEMO[0] = (plant, list(nets), sample_seed, samples_per_node, out)
    return list(out)


def _aligned_times(ensemble: Sequence[TrajectoryRecord]) -> np.ndarray:
    times = ensemble[0].times
    for rec in ensemble[1:]:
        if len(rec.times) != len(times) or not np.array_equal(rec.times, times):
            raise ValueError("trajectory time grids are not aligned")
    return times


def empirical_drift(ensemble: Sequence[TrajectoryRecord], window: float = 0.5):
    """Smoothed d/dt of the ensemble-mean state energy.

    Centered finite differences of mean(Vx) over the shared grid, then a
    moving average of the given window; returns (times, drift) trimmed to the
    region where the full window fits.
    """
    times = _aligned_times(ensemble)
    V = np.mean([rec.diagnostics["Vx"] for rec in ensemble], axis=0)
    dt = float(times[1] - times[0])
    dv = np.gradient(V, dt)
    w = max(1, min(int(round(window / dt)), len(times)))
    if w % 2 == 0:
        w -= 1
    if w <= 1:
        return times, dv
    kernel = np.full(w, 1.0 / w)
    sm = np.convolve(dv, kernel, mode="valid")
    half = (w - 1) // 2
    return times[half: len(times) - half], sm


def bounded_in_probability_stat(ensemble: Sequence[TrajectoryRecord],
                                threshold: float) -> float:
    """Fraction of runs whose sup-norm ever reaches the threshold."""
    hits = sum(1 for rec in ensemble
               if np.max(np.linalg.norm(rec.states, axis=1)) >= threshold)
    return hits / len(ensemble)


def tail_sups(ensemble: Sequence[TrajectoryRecord], tail_start: float) -> List[float]:
    """sup_{t >= tail_start} ||x(t)|| of each run, in ensemble order."""
    sups = []
    for rec in ensemble:
        mask = rec.times >= tail_start
        if not np.any(mask):
            raise ValueError("tail_start is beyond the trajectory horizon")
        sups.append(float(np.max(np.linalg.norm(rec.states[mask], axis=1))))
    return sups


def convergence_stat(sups: Sequence[float]) -> dict:
    """{min, median, q90, max} of the runs' tail sups (:func:`tail_sups`)."""
    sups = np.asarray(sups)
    return {
        "min": float(np.min(sups)),
        "median": float(np.median(sups)),
        "q90": float(np.quantile(sups, 0.9)),
        "max": float(np.max(sups)),
    }
