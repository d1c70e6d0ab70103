"""Smoothing and product-splitting inequalities the control design relies on.

These are exercised directly by the verification suites: the tanh absorption
bound  0 <= |v| - v tanh(v/eps) <= 0.2785 eps  that prices each smoothed sign
compensation, and the two quartic Young splits used to trade cross terms for
fourth powers.
"""

import numpy as np

__all__ = [
    "TANH_ABSORPTION_DELTA",
    "tanh_absorption_gap", "max_tanh_absorption_gap",
    "quartic_product_margin", "diffusion_energy_margin",
]

# Per-term cost of replacing sign(v) by tanh(v/eps); satisfies d = exp(-(d+1)).
TANH_ABSORPTION_DELTA = 0.2785


def tanh_absorption_gap(v, eps):
    """|v| - v tanh(v/eps); lies in [0, TANH_ABSORPTION_DELTA * eps]."""
    v = np.asarray(v, dtype=float)
    return np.abs(v) - v * np.tanh(v / eps)


def max_tanh_absorption_gap(eps: float = 1.0) -> float:
    """Brute-force maximum of the absorption gap over 2_000_001 evenly spaced
    v in [0, 10 eps]."""
    v = np.linspace(0.0, 10.0 * eps, 2_000_001)
    return float(np.max(tanh_absorption_gap(v, eps)))


def quartic_product_margin(a, z, b, exponent: float = 4.0 / 3.0):
    """(3/4)|a|^e z^4 + (1/4) b^4 - |a z^3 b|, e = ``exponent``; nonnegative
    by Young at e = 4/3, and negative somewhere at any other e."""
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    return 0.75 * np.abs(a) ** exponent * z ** 4 + 0.25 * b ** 4 - np.abs(a * z ** 3 * b)


def diffusion_energy_margin(z, phi_norm_sq, eps):
    """3 eps/4 + (3 z^4 / 4 eps) ||phi||^4 - (3/2) z^2 ||phi||^2; nonnegative."""
    z = np.asarray(z, dtype=float)
    p2 = np.asarray(phi_norm_sq, dtype=float)
    return 0.75 * eps + 0.75 * z ** 4 * p2 ** 2 / eps - 1.5 * z ** 2 * p2
