"""Forward-mode differentiation in one variable, to second order.

A :class:`Jet` carries a value and its first and second derivatives in one
tagged variable, ``d1 = d/dx`` and ``d2 = d^2/dx^2``: truncated univariate
Taylor arithmetic at degree 2 (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008, ch. 13).  Each field is a scalar or an array (a batch
of points on the leading axes, basis-function entries on the last), so whole
batches of basis-function vectors propagate in one numpy operation.

The control recursion tags x_1 alone: it needs d alpha_1/dx_1 and
d^2 alpha_1/dx_1^2, and takes its estimate partials in closed form.
"""

import numpy as np

__all__ = [
    "Jet", "variable",
    "jsin", "jcos", "jexp", "jtanh", "jabs", "jpow", "jsum", "jtrailing",
    "stack_entries",
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
        return self._chain(np.power(v, p), p * np.power(v, p - 1),
                           p * (p - 1) * np.power(v, p - 2))

    # -- chain rule for a scalar map with derivatives f1, f2 at self.val -----

    def _chain(self, f0, f1, f2):
        d1 = self.d1
        return Jet(f0, f1 * d1, f1 * self.d2 + f2 * (d1 * d1))

    def __repr__(self):
        return f"Jet(val={self.val!r}, d1={self.d1!r}, d2={self.d2!r})"


def variable(val) -> Jet:
    """A jet tagged as the differentiation variable, one per entry of ``val``."""
    v = np.asarray(val, dtype=float)
    return Jet(v, np.ones_like(v), np.zeros_like(v))


# -- generic math: dispatches on Jet / anything numpy takes ------------------
# Plain values always go through the numpy ufunc, never ``math``: a batch row
# and a lone value must round alike (``math.tanh`` and ``np.tanh`` differ).

def jsin(u):
    if isinstance(u, Jet):
        s = np.sin(u.val)
        return u._chain(s, np.cos(u.val), -s)
    return np.sin(u)


def jcos(u):
    if isinstance(u, Jet):
        c = np.cos(u.val)
        return u._chain(c, -np.sin(u.val), -c)
    return np.cos(u)


def jexp(u):
    if isinstance(u, Jet):
        e = np.exp(u.val)
        return u._chain(e, e, e)
    return np.exp(u)


def jtanh(u):
    if isinstance(u, Jet):
        t = np.tanh(u.val)
        sech2 = 1.0 - t * t
        return u._chain(t, sech2, -2.0 * t * sech2)
    return np.tanh(u)


def jabs(u):
    # Second derivative taken as 0 (holds almost everywhere; sign(0) = 0).
    if isinstance(u, Jet):
        s = np.sign(u.val)
        return u._chain(np.abs(u.val), s, 0.0 * s)
    return np.abs(u)


def jpow(u, p):
    """u ** p through ``np.power`` (numpy scalars' ``**`` rounds differently)."""
    return u ** p if isinstance(u, Jet) else np.power(u, p)


def jsum(u):
    """Sum an array-valued jet (or plain array) over its last axis.

    ``d1`` is summed entry by entry in value order (a running sum), the
    order the controller's golden digests were recorded with; ``np.sum``
    sums pairwise and rounds differently.  A jet formed as ``jet +- array``
    keeps narrower derivative fields; they count once per value entry.
    """
    if isinstance(u, Jet):
        shape = np.shape(u.val)
        d1, d2 = u.d1, u.d2
        if np.shape(d1) != shape or np.shape(d2) != shape:
            d1, d2 = np.broadcast_to(d1, shape), np.broadcast_to(d2, shape)
        return Jet(u.val.sum(axis=-1), d1.cumsum(axis=-1)[..., -1], d2.sum(axis=-1))
    return np.sum(u, axis=-1)


def jtrailing(u):
    """``u`` with a trailing axis of length 1, to broadcast against a vector."""
    if isinstance(u, Jet):
        return Jet(jtrailing(u.val), jtrailing(u.d1), jtrailing(u.d2))
    return np.asarray(u)[..., None]


def stack_entries(vals, shape=None) -> np.ndarray:
    """Plain values (numbers, or arrays over a batch) as the entries of a
    vector on a new last axis; ``shape`` defaults to their broadcast shape."""
    if shape is None:
        shape = np.broadcast_shapes(*(np.shape(v) for v in vals))
    out = np.empty(shape + (len(vals),))
    for j, v in enumerate(vals):
        out[..., j] = v
    return out
