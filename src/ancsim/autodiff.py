"""Forward-mode differentiation with second-order jets.

A :class:`Jet` carries a value, a gradient over ``m`` tagged variables and a
Hessian over the first ``mx`` of them in a single forward pass.  Values may be
scalars or 1-D arrays (the derivative axes trail the value axis), so whole
basis-function vectors propagate in one numpy operation.

The split m/mx lets first derivatives cover more variables than second
derivatives (say, parameters next to states).  The control recursion tags x_1
alone (m = mx = 1): it takes its estimate partials in closed form.
"""

import math

import numpy as np

__all__ = [
    "Jet", "variable", "variable_block",
    "jsin", "jcos", "jexp", "jtanh", "jabs", "jsum",
]


def _bmul(v, arr, nvar):
    # Multiply a value (scalar or (k,)) into a derivative array whose last
    # nvar axes are variable axes, broadcasting over the value axis.
    if isinstance(v, np.ndarray) and v.ndim > 0:
        return v.reshape(v.shape + (1,) * nvar) * arr
    return v * arr


class Jet:
    __slots__ = ("val", "grad", "hess", "mx")

    # numpy defers to the Jet's reflected operators, so ``array * jet`` is
    # ``jet.__rmul__(array)`` rather than an object array of per-entry products
    __array_ufunc__ = None

    def __init__(self, val, grad, hess, mx):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.mx = mx

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad,
                       self.hess + other.hess, self.mx)
        return Jet(self.val + other, self.grad, self.hess, self.mx)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad,
                       self.hess - other.hess, self.mx)
        return Jet(self.val - other, self.grad, self.hess, self.mx)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.grad, -self.hess, self.mx)

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess, self.mx)

    def __mul__(self, other):
        if isinstance(other, Jet):
            ga = self.grad[..., : self.mx]
            gb = other.grad[..., : other.mx]
            cross = ga[..., :, None] * gb[..., None, :]
            hess = (_bmul(other.val, self.hess, 2) + _bmul(self.val, other.hess, 2)
                    + cross + np.swapaxes(cross, -1, -2))
            return Jet(self.val * other.val,
                       _bmul(other.val, self.grad, 1) + _bmul(self.val, other.grad, 1),
                       hess, self.mx)
        return Jet(self.val * other, _bmul(other, self.grad, 1),
                   _bmul(other, self.hess, 2), self.mx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        inv = 1.0 / self.val
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, p):
        v = self.val
        return self._chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    # -- chain rule for a scalar map with derivatives f1, f2 at self.val -----

    def _chain(self, f0, f1, f2):
        gx = self.grad[..., : self.mx]
        outer = gx[..., :, None] * gx[..., None, :]
        return Jet(f0, _bmul(f1, self.grad, 1),
                   _bmul(f1, self.hess, 2) + _bmul(f2, outer, 2), self.mx)

    def __repr__(self):
        return f"Jet(val={self.val!r}, m={np.shape(self.grad)[-1]}, mx={self.mx})"


def variable(val: float, index: int, m: int, mx: int) -> Jet:
    """A scalar jet tagged as differentiation variable ``index`` of ``m``."""
    grad = np.zeros(m)
    grad[index] = 1.0
    return Jet(float(val), grad, np.zeros((mx, mx)), mx)


def variable_block(vals: np.ndarray, start: int, m: int, mx: int) -> Jet:
    """An array-valued jet whose k-th entry is variable ``start + k``."""
    vals = np.asarray(vals, dtype=float)
    k = vals.shape[0]
    grad = np.zeros((k, m))
    grad[np.arange(k), start + np.arange(k)] = 1.0
    return Jet(vals, grad, np.zeros((k, mx, mx)), mx)


# -- generic math: dispatches on Jet / ndarray / python scalar ---------------

def jsin(u):
    if isinstance(u, Jet):
        s = np.sin(u.val)
        return u._chain(s, np.cos(u.val), -s)
    return np.sin(u) if isinstance(u, np.ndarray) else math.sin(u)


def jcos(u):
    if isinstance(u, Jet):
        c = np.cos(u.val)
        return u._chain(c, -np.sin(u.val), -c)
    return np.cos(u) if isinstance(u, np.ndarray) else math.cos(u)


def jexp(u):
    if isinstance(u, Jet):
        e = np.exp(u.val)
        return u._chain(e, e, e)
    return np.exp(u) if isinstance(u, np.ndarray) else math.exp(u)


def jtanh(u):
    if isinstance(u, Jet):
        t = np.tanh(u.val)
        sech2 = 1.0 - t * t
        return u._chain(t, sech2, -2.0 * t * sech2)
    return np.tanh(u) if isinstance(u, np.ndarray) else math.tanh(u)


def jabs(u):
    # Second derivative taken as 0 (holds almost everywhere; sign(0) = 0).
    if isinstance(u, Jet):
        s = np.sign(u.val)
        return u._chain(np.abs(u.val), s, 0.0 * s)
    return np.abs(u) if isinstance(u, np.ndarray) else abs(u)


def jsum(u):
    """Sum an array-valued jet (or plain array) over its value axis.

    The gradient is summed entry by entry in value order, so each of its
    columns is the same at any jet width (``np.sum`` would sum a single
    column pairwise but a wide gradient row by row).
    """
    if isinstance(u, Jet):
        return Jet(np.sum(u.val, axis=0), np.cumsum(u.grad, axis=0)[-1],
                   np.sum(u.hess, axis=0), u.mx)
    return np.sum(u, axis=0)
