"""Experiment configuration: JSON schema, validation, bundled presets.

A config file selects a registered plant preset plus numeric knobs; arbitrary
plants enter through code-level registration, not config expressions.  All
invariant violations are collected into a single error so a bad file is
reported in one pass.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass
from importlib import resources
from typing import List

import numpy as np

from .controller import AdaptiveState, GainConfig, StepEstimates, StepGains
from .plant import PRESETS, StrictFeedbackPlant, make_plant
from .rbf import CenterLayout, RbfNetwork, make_centers

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config",
           "bundled_preset_names", "bundled_preset_text", "load_bundled"]

OUTPUT_DIR_ENV = "ANCSIM_OUT"

TAIL_FRACTION = 0.75        # tail statistics start at this fraction of the horizon
# The harness keeps every sample of a run in memory, and each network node
# adds a row and a column to its l x l weight-adaptation gain.  MAX_STEPS
# keeps the step count finite at parse time; MAX_SWEEP_BYTES bounds what a
# batch of runs holds at once (its Wiener increments and sample tables).
MAX_STEPS = 10 ** 8
MAX_SWEEP_BYTES = 2 * 2 ** 30
MAX_NODES = 1024

_GAIN_FIELDS = ("c", "gamma_eps", "sigma_vartheta", "sigma_p", "sigma_eps",
                "sigma_w", "eps0", "eps1", "eps2", "young_eps1")


class ConfigError(ValueError):
    """Carries every violation found while validating a config."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {v}" for v in self.violations))


@dataclass
class ExperimentConfig:
    plant: StrictFeedbackPlant
    x0: np.ndarray
    horizon: float
    dt: float
    master_seed: int
    runs: int
    gains: GainConfig
    networks: List[RbfNetwork]
    initial_estimates: AdaptiveState
    output_dir: str
    csv_decimation: int = 10
    scratch_mode: str = "dual"

    @property
    def n(self) -> int:
        return self.plant.n


_MISSING = object()        # marks a required key that is absent


def _number(raw, where: str, violations: List[str], integer: bool = False):
    """``raw`` as a finite float (or an int); None, with a violation recorded,
    when it is anything else."""
    if raw is _MISSING:
        violations.append(f"{where}: missing")
        return None
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        kind = "an integer" if integer else "a number"
        violations.append(f"{where}: expected {kind}, got {raw!r}")
        return None
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        violations.append(f"{where}: must be finite, got {raw!r}")
        return None
    if not integer:
        return value
    if not value.is_integer():
        violations.append(f"{where}: expected an integer, got {raw!r}")
        return None
    return int(raw)


def _numeric_tree(raw) -> bool:
    if isinstance(raw, (list, tuple)):
        return all(_numeric_tree(v) for v in raw)
    return isinstance(raw, numbers.Real) and not isinstance(raw, bool)


def _array(raw, where: str, violations: List[str]):
    """A number or a nested list of numbers as a finite float array; None,
    with a violation recorded, when it is anything else."""
    if raw is _MISSING:
        violations.append(f"{where}: missing")
        return None
    if not _numeric_tree(raw):
        violations.append(f"{where}: expected a number or a list of numbers, "
                          f"got {raw!r}")
        return None
    try:
        arr = np.asarray(raw, dtype=float)
    except (ValueError, OverflowError):       # ragged nesting, huge integers
        violations.append(f"{where}: not a rectangular array of floats: {raw!r}")
        return None
    if not np.all(np.isfinite(arr)):
        violations.append(f"{where}: entries must be finite, got {raw!r}")
        return None
    return arr


def _vector(raw, size, where: str, violations: List[str]):
    """A length-``size`` vector; a scalar broadcasts to every entry.

    ``size`` None (unknown after an earlier violation) checks the entries only.
    """
    arr = _array(raw, where, violations)
    if arr is None or size is None:
        return arr
    if arr.ndim == 0:
        return np.full(size, float(arr))
    if arr.shape != (size,):
        violations.append(f"{where}: expected {size} entries, got shape {arr.shape}")
        return None
    return arr


def _matrix(raw, size, where: str, violations: List[str]):
    """Gain-matrix shorthand: scalar -> scaled identity, list -> diagonal."""
    arr = _array(raw, where, violations)
    if arr is None or size is None:
        return None
    if arr.ndim == 0:
        mat = float(arr) * np.eye(size)
    elif arr.ndim == 1:
        if arr.shape[0] != size:
            violations.append(f"{where}: expected {size} diagonal entries, "
                              f"got {arr.shape[0]}")
            return None
        mat = np.diag(arr)
    elif arr.shape != (size, size):
        violations.append(f"{where}: expected a {size}x{size} matrix, "
                          f"got shape {arr.shape}")
        return None
    else:
        mat = arr
    _check_psd(mat, where, violations)
    return mat


def _check_psd(mat: np.ndarray, where: str, violations: List[str]):
    if not np.allclose(mat, mat.T, atol=1e-12):
        violations.append(f"{where}: matrix must be symmetric")
        return
    eigs = np.linalg.eigvalsh(mat)
    if np.any(eigs < -1e-12):
        violations.append(f"{where}: matrix has a negative eigenvalue ({eigs.min():.3g})")


def _object(raw, where: str, violations: List[str]) -> dict:
    if isinstance(raw, dict):
        return raw
    violations.append(f"{where}: expected an object, got {raw!r}")
    return {}


def _blocks(data: dict, key: str, n: int, violations: List[str]):
    """(step, block) pairs of the per-step list ``data[key]``."""
    raw = data.get(key, [])
    if not isinstance(raw, list):
        violations.append(f"{key}: expected a list of one object per step, got {raw!r}")
        return []
    if len(raw) != n:
        violations.append(f"{key}: expected one block per step ({n}), got {len(raw)}")
    return [(i, blk) for i, blk in enumerate(raw[:n], start=1)
            if _object(blk, f"{key}[{i - 1}]", violations) is blk]


def _network(i: int, blk: dict, violations: List[str]):
    """Step i's network, or None after recording its violations."""
    where = f"networks[{i - 1}]"
    found = len(violations)
    canonical = 1 if i == 1 else 2 * i
    input_dim = _number(blk.get("input_dim", canonical), f"{where}.input_dim",
                        violations, integer=True)
    if input_dim is not None and input_dim != canonical:
        violations.append(f"{where}.input_dim: step {i} feeds its network "
                          f"{canonical} inputs, got {input_dim}")
    bounds = _array(blk.get("bounds", _MISSING), f"{where}.bounds", violations)
    if bounds is not None and bounds.size != 2 * canonical:
        violations.append(f"{where}.bounds: expected {canonical} [low, high] "
                          f"pairs, got shape {bounds.shape}")
    width = _number(blk.get("width", _MISSING), f"{where}.width", violations)
    if width is not None and width <= 0:
        violations.append(f"{where}.width: must be positive, got {width}")
    seed = _number(blk.get("layout_seed", 0), f"{where}.layout_seed", violations,
                   integer=True)
    if seed is not None and seed < 0:
        violations.append(f"{where}.layout_seed: must be >= 0, got {seed}")
    total = blk.get("nodes")
    if total is not None:
        total = _number(total, f"{where}.nodes", violations, integer=True)
        if total is not None and not 2 <= total <= MAX_NODES:
            violations.append(f"{where}.nodes: must lie in [2, {MAX_NODES}], got {total}")
    counts = blk.get("counts")
    if counts is not None:
        counts = _vector(counts, canonical, f"{where}.counts", violations)
        if counts is not None and not (np.all(counts >= 1)
                                       and np.all(counts == np.round(counts))
                                       and np.prod(counts) <= MAX_NODES):
            violations.append(f"{where}.counts: expected positive integers with "
                              f"a product of at most {MAX_NODES}, got {blk['counts']!r}")
        elif counts is not None:
            counts = [int(c) for c in counts]
    if len(violations) > found:
        return None
    try:
        centers = make_centers(CenterLayout(mode=blk.get("mode", "tensor-grid"),
                                            bounds=bounds, counts=counts,
                                            total=total, layout_seed=seed))
        return RbfNetwork(input_dim=input_dim, centers=centers, width=width,
                          weights=np.zeros(centers.shape[0]))
    except ValueError as exc:
        violations.append(f"{where}: {exc}")
        return None


def _horizon_violations(horizon: float, dt: float, violations: List[str]):
    ratio = horizon / dt
    if ratio > MAX_STEPS:
        violations.append(f"horizon: {horizon} / dt = {ratio:.3g} steps exceeds "
                          f"the {MAX_STEPS} step cap")
        return
    steps = int(np.floor(ratio))
    if steps < 1:
        violations.append(f"horizon: {horizon} is shorter than dt = {dt}")
    elif steps * dt < TAIL_FRACTION * horizon:
        violations.append(f"horizon: {horizon} leaves no sample in the tail "
                          f"window [{TAIL_FRACTION} * horizon, horizon] at dt = {dt}")


def parse_config(data: dict) -> ExperimentConfig:
    violations: List[str] = []
    data = _object(data, "config", violations)

    plant_block = _object(data.get("plant", {}), "plant", violations)
    preset = plant_block.get("preset")
    plant = None
    if not isinstance(preset, str) or preset not in PRESETS:
        violations.append(f"plant.preset: unknown preset {preset!r}; "
                          f"available: {sorted(PRESETS)}")
    else:
        params = _object(plant_block.get("params", {}), "plant.params", violations)
        checked = [_array(v, f"plant.params.{k}", violations) for k, v in params.items()]
        if all(v is not None for v in checked):
            try:
                plant = make_plant(preset, **params)
            except (TypeError, ValueError) as exc:
                violations.append(f"plant.params: {exc}")
        if plant is None:
            # the preset's dimensions do not depend on its knobs, so the
            # rest of the file can still be checked against them
            plant = make_plant(preset)
    if plant is None:
        raise ConfigError(violations)
    n, q = plant.n, plant.q

    dt = _number(data.get("dt", 1e-3), "dt", violations)
    horizon = _number(data.get("horizon", 20.0), "horizon", violations)
    runs = _number(data.get("runs", 1), "runs", violations, integer=True)
    master_seed = _number(data.get("master_seed", 0), "master_seed", violations,
                          integer=True)
    decimation = _number(data.get("csv_decimation", 10), "csv_decimation",
                         violations, integer=True)
    scratch_mode = data.get("scratch_mode", "dual")
    if dt is not None and dt <= 0:
        violations.append(f"dt: must be positive, got {dt}")
    if horizon is not None and horizon <= 0:
        violations.append(f"horizon: must be positive, got {horizon}")
    if dt is not None and horizon is not None and dt > 0 and horizon > 0:
        _horizon_violations(horizon, dt, violations)
    if runs is not None and runs < 1:
        violations.append(f"runs: must be >= 1, got {runs}")
    if master_seed is not None and master_seed < 0:
        violations.append(f"master_seed: must be >= 0, got {master_seed}")
    if decimation is not None and decimation < 1:
        violations.append(f"csv_decimation: must be >= 1, got {decimation}")
    if scratch_mode not in ("dual", "numeric"):
        violations.append(f"scratch_mode: must be 'dual' or 'numeric', got {scratch_mode!r}")

    x0 = _vector(data.get("x0", 0.0), n, "x0", violations)

    nets = [None] * n
    for i, blk in _blocks(data, "networks", n, violations):
        nets[i - 1] = _network(i, blk, violations)
    sizes = [net.node_count if net is not None else None for net in nets]

    gain_steps: List[StepGains] = []
    for i, blk in _blocks(data, "gains", n, violations):
        where = f"gains[{i - 1}]"
        vals = {}
        for name in _GAIN_FIELDS:
            v = _number(blk.get(name, _MISSING), f"{where}.{name}", violations)
            if v is not None and v <= 0:
                violations.append(f"{where}.{name}: must be positive, got {v}")
            vals[name] = v
        Gvt = _matrix(blk.get("Gamma_vartheta", 0.0), q, f"{where}.Gamma_vartheta", violations)
        Gp = _matrix(blk.get("Gamma_p", 0.0), i, f"{where}.Gamma_p", violations)
        Gw = _matrix(blk.get("Gamma_w", 0.0), sizes[i - 1], f"{where}.Gamma_w", violations)
        gain_steps.append(StepGains(c=vals["c"], Gamma_vartheta=Gvt, Gamma_p=Gp,
                                    gamma_eps=vals["gamma_eps"], Gamma_w=Gw,
                                    sigma_vartheta=vals["sigma_vartheta"],
                                    sigma_p=vals["sigma_p"],
                                    sigma_eps=vals["sigma_eps"],
                                    sigma_w=vals["sigma_w"],
                                    eps0=vals["eps0"], eps1=vals["eps1"],
                                    eps2=vals["eps2"],
                                    young_eps1=vals["young_eps1"]))

    est_steps: List[StepEstimates] = []
    for i, blk in _blocks(data, "initial_estimates", n, violations):
        where = f"initial_estimates[{i - 1}]"
        est_steps.append(StepEstimates(
            vartheta_hat=_vector(blk.get("vartheta_hat", 0.0), q,
                                 f"{where}.vartheta_hat", violations),
            p_hat=_vector(blk.get("p_hat", 0.0), i, f"{where}.p_hat", violations),
            eps_hat=_number(blk.get("eps_hat", 0.0), f"{where}.eps_hat", violations),
            W_hat=_vector(blk.get("W_hat", 0.0), sizes[i - 1], f"{where}.W_hat",
                          violations)))

    output_dir = os.environ.get(OUTPUT_DIR_ENV) or data.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        violations.append(f"output_dir: expected a non-empty path, got {output_dir!r}")

    if violations:
        raise ConfigError(violations)

    return ExperimentConfig(plant=plant, x0=x0, horizon=horizon, dt=dt,
                            master_seed=master_seed, runs=runs,
                            gains=GainConfig(gain_steps), networks=nets,
                            initial_estimates=AdaptiveState(est_steps),
                            output_dir=output_dir, csv_decimation=decimation,
                            scratch_mode=scratch_mode)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:        # malformed JSON or not UTF-8 text
            raise ConfigError([f"JSON parse error: {exc}"]) from exc
    return parse_config(data)


def bundled_preset_names() -> List[str]:
    files = resources.files("ancsim").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def bundled_preset_text(name: str) -> str:
    path = resources.files("ancsim").joinpath("presets", f"{name}.json")
    if not path.is_file():
        raise FileNotFoundError(f"no bundled preset named {name!r}; "
                                f"available: {bundled_preset_names()}")
    return path.read_text(encoding="utf-8")


def load_bundled(name: str) -> ExperimentConfig:
    return parse_config(json.loads(bundled_preset_text(name)))
