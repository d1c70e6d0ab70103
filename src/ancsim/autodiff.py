"""Forward-mode differentiation in one variable, to second order.

A :class:`Jet` carries a value and its first and second derivatives in one
tagged variable, ``d1 = d/dx`` and ``d2 = d^2/dx^2``: truncated univariate
Taylor arithmetic at degree 2 (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008, ch. 13).  Each field is a scalar or a 1-D array, so whole
basis-function vectors propagate in one numpy operation.

The control recursion tags x_1 alone: it needs d alpha_1/dx_1 and
d^2 alpha_1/dx_1^2, and takes its estimate partials in closed form.
"""

import math

import numpy as np

__all__ = [
    "Jet", "variable",
    "jsin", "jcos", "jexp", "jtanh", "jabs", "jsum",
]


class Jet:
    __slots__ = ("val", "d1", "d2")

    # numpy defers to the Jet's reflected operators, so ``array * jet`` is
    # ``jet.__rmul__(array)`` rather than an object array of per-entry products
    __array_ufunc__ = None

    def __init__(self, val, d1, d2):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    @property
    def grad(self):
        # d1 with a trailing variable axis of length 1; the traced benchmark
        # reads the jet width as grad.shape[-1]
        return np.expand_dims(self.d1, -1)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Jet(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)
        return Jet(self.val - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.d1, -self.d2)

    def __neg__(self):
        return Jet(-self.val, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet):
            cross = self.d1 * other.d1
            return Jet(self.val * other.val,
                       other.val * self.d1 + self.val * other.d1,
                       other.val * self.d2 + self.val * other.d2 + cross + cross)
        return Jet(self.val * other, other * self.d1, other * self.d2)

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
        d1 = self.d1
        return Jet(f0, f1 * d1, f1 * self.d2 + f2 * (d1 * d1))

    def __repr__(self):
        return f"Jet(val={self.val!r}, d1={self.d1!r}, d2={self.d2!r})"


def variable(val: float) -> Jet:
    """A scalar jet tagged as the differentiation variable."""
    return Jet(float(val), 1.0, 0.0)


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

    ``d1`` is summed entry by entry in value order (a running sum), the
    order the controller's golden digests were recorded with; ``np.sum``
    sums pairwise and rounds differently.  A jet formed as ``jet +- array``
    keeps scalar derivative fields; they count once per value entry.
    """
    if isinstance(u, Jet):
        d1, d2 = u.d1, u.d2
        if np.shape(d1) != np.shape(u.val):
            d1 = np.broadcast_to(d1, np.shape(u.val))
            d2 = np.broadcast_to(d2, np.shape(u.val))
        return Jet(np.sum(u.val, axis=0), np.cumsum(d1, axis=0)[-1],
                   np.sum(d2, axis=0))
    return np.sum(u, axis=0)
