"""Gaussian radial basis function networks  W^T S(Z)  with configurable centers.

Networks are immutable value objects during evaluation; weights change only by
replacing the array.  ``basis_components`` accepts forward-mode jets so the
controller can differentiate straight through network evaluations.
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import jexp, jtrailing
from .rng import derive_stream

__all__ = [
    "RbfNetwork", "CenterLayout",
    "basis", "basis_components", "eval_network", "make_centers", "fit_least_squares",
]

_FIT_BLOCK = 64               # samples per block of the least-squares design matrix
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@dataclass
class RbfNetwork:
    """l Gaussian nodes with shared width on a q-dimensional input."""

    input_dim: int
    centers: np.ndarray          # (l, q)
    width: float                 # shared eta > 0
    weights: np.ndarray          # (l,)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.node_count <= 1:
            raise ValueError("need more than one node")
        if self.centers.shape[1] != self.input_dim:
            raise ValueError(f"centers are {self.centers.shape[1]}-dimensional, "
                             f"expected {self.input_dim}")
        if self.weights.shape != (self.node_count,):
            raise ValueError("weight vector length must match node count")

    @property
    def node_count(self) -> int:
        return self.centers.shape[0]


@dataclass
class CenterLayout:
    """Placement recipe: an even tensor lattice or scrambled-Halton points."""

    mode: str                    # "tensor-grid" | "quasi-random"
    bounds: Sequence             # per-dimension (low, high)
    counts: Optional[Sequence[int]] = None
    total: Optional[int] = None
    layout_seed: int = 0


def basis_components(centers: np.ndarray, width: float, z_components) -> object:
    """Gaussian basis vector from per-coordinate inputs (floats or jets).

    Each input may hold a batch of points; the basis entries then run along
    a new last axis, (..., l).
    """
    sq = None
    for k, zk in enumerate(z_components):
        d = jtrailing(zk) - centers[:, k]
        term = d * d
        sq = term if sq is None else sq + term
    return jexp(sq * (-1.0 / (width * width)))


def basis(net: RbfNetwork, Z: np.ndarray) -> np.ndarray:
    """s_i(Z) = exp(-(Z - mu_i)^T (Z - mu_i) / eta^2); every entry in (0, 1]."""
    Z = np.atleast_1d(np.asarray(Z, dtype=float))
    diff = Z[None, :] - net.centers
    return np.exp(-np.sum(diff * diff, axis=1) / net.width ** 2)


def eval_network(net: RbfNetwork, Z: np.ndarray) -> float:
    """Network output W^T S(Z)."""
    return float(net.weights @ basis(net, Z))


def _halton_axis(indices: np.ndarray, base: int, digit_mult: int) -> np.ndarray:
    out = np.zeros(len(indices))
    f = 1.0 / base
    k = indices.copy()
    while np.any(k > 0):
        out += ((digit_mult * (k % base)) % base) * f
        k //= base
        f /= base
    return out


def make_centers(layout: CenterLayout) -> np.ndarray:
    """Realize a layout as an (l, q) array of center points.

    Tensor grids are evenly spaced lattices including both interval endpoints.
    Quasi-random mode uses Halton points with a multiplicative digit scramble
    drawn from ``layout_seed``, so the set is reproducible everywhere.
    """
    bounds = np.asarray(layout.bounds, dtype=float).reshape(-1, 2)
    q = bounds.shape[0]

    if layout.mode == "tensor-grid":
        counts = layout.counts
        if counts is None:
            if layout.total is None:
                raise ValueError("tensor-grid needs counts or total")
            per = round(layout.total ** (1.0 / q))
            if per ** q != layout.total:
                raise ValueError(f"total {layout.total} is not a {q}-dim lattice size")
            counts = [per] * q
        counts = [int(c) for c in counts]
        if layout.total is not None and int(np.prod(counts)) != layout.total:
            raise ValueError(f"grid counts {counts} give {int(np.prod(counts))} "
                             f"nodes, not the requested {layout.total}")
        axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    if layout.mode == "quasi-random":
        if layout.total is None:
            raise ValueError("quasi-random needs a total node count")
        if q > len(_PRIMES):
            raise ValueError(f"quasi-random layout supports up to {len(_PRIMES)} dims")
        stream = derive_stream(layout.layout_seed, 0)
        idx = np.arange(1, layout.total + 1)
        cols = []
        for dim in range(q):
            b = _PRIMES[dim]
            mult = 1 + int(stream.uniform(1)[0] * (b - 1))
            lo, hi = bounds[dim]
            cols.append(lo + (hi - lo) * _halton_axis(idx, b, mult))
        return np.stack(cols, axis=1)

    raise ValueError(f"unknown layout mode {layout.mode!r}")


def fit_least_squares(centers: np.ndarray, width: float, samples,
                      ridge: float = 0.0) -> np.ndarray:
    """Weights minimizing the squared residual over (Z, target) samples.

    Needs at least as many samples as nodes.  A numerically rank-deficient
    design matrix is reported with a warning; the minimum-norm solution is
    still returned.  Overlapping Gaussian nodes make the design matrix
    ill-conditioned, so callers that need tame weight norms rather than the
    exact least-squares optimum can pass a small ``ridge`` penalty.
    """
    Z, targets = samples
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != centers.shape[1]:
        Z = Z.reshape(-1, centers.shape[1])
    targets = np.asarray(targets, dtype=float)
    l = centers.shape[0]
    if Z.shape[0] < l:
        raise ValueError(f"need at least {l} samples, got {Z.shape[0]}")

    # the design matrix a block of samples at a time: the (samples, l, q)
    # difference cube of all of them at once is the fit's memory peak
    design = np.empty((Z.shape[0], l))
    for s in range(0, Z.shape[0], _FIT_BLOCK):
        diff = Z[s:s + _FIT_BLOCK, None, :] - centers[None, :, :]
        design[s:s + _FIT_BLOCK] = np.exp(-np.sum(diff * diff, axis=2) / width ** 2)
    if ridge > 0.0:
        gram = design.T @ design + ridge * np.eye(l)
        return np.linalg.solve(gram, design.T @ targets)
    weights, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < l:
        warnings.warn(f"rank-deficient design matrix (rank {rank} < {l} nodes); "
                      "minimum-norm weights returned", stacklevel=2)
    return weights
