import numpy as np

from ancsim.autodiff import (Jet, jabs, jcos, jexp, jsin, jsum, jtanh, variable,
                             variable_block)
from ancsim.rng import derive_stream


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def fd2(f, x, h=1e-4):
    return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2


def check_scalar(fj, ff, x0):
    """Jet value/grad/hess of a scalar map against central differences."""
    out = fj(variable(x0, 0, 1, 1))
    assert np.isclose(out.val, ff(x0), rtol=1e-12)
    assert np.isclose(out.grad[0], fd(ff, x0), rtol=1e-7, atol=1e-9)
    assert np.isclose(out.hess[0, 0], fd2(ff, x0), rtol=1e-5, atol=1e-6)


def test_polynomial_and_division():
    check_scalar(lambda x: x * x * x - 2.0 * x + 5.0,
                 lambda x: x ** 3 - 2 * x + 5, 0.7)
    check_scalar(lambda x: (x + 2.0) / (x * x + 1.0),
                 lambda x: (x + 2) / (x ** 2 + 1), -0.3)
    check_scalar(lambda x: 1.0 / x, lambda x: 1 / x, 2.5)
    check_scalar(lambda x: (x * x) ** (2.0 / 3.0),
                 lambda x: (x ** 2) ** (2 / 3), 1.3)


def test_transcendentals():
    check_scalar(jsin, np.sin, 0.9)
    check_scalar(jcos, np.cos, -1.1)
    check_scalar(jexp, np.exp, 0.4)
    check_scalar(jtanh, np.tanh, 0.25)
    check_scalar(lambda x: jtanh(x * x * x / 0.3),
                 lambda x: np.tanh(x ** 3 / 0.3), 0.5)


def test_abs_uses_sign_of_value():
    out = jabs(variable(-0.8, 0, 1, 1))
    assert out.val == 0.8 and out.grad[0] == -1.0
    out = jabs(variable(0.8, 0, 1, 1))
    assert out.grad[0] == 1.0


def test_mixed_partial_via_product():
    # f(x, y) = sin(x) * y^2 at (0.3, 1.7); hessian over both variables
    x = variable(0.3, 0, 2, 2)
    y = variable(1.7, 1, 2, 2)
    out = jsin(x) * (y * y)
    assert np.isclose(out.val, np.sin(0.3) * 1.7 ** 2)
    assert np.isclose(out.grad[0], np.cos(0.3) * 1.7 ** 2)
    assert np.isclose(out.grad[1], np.sin(0.3) * 2 * 1.7)
    assert np.isclose(out.hess[0, 0], -np.sin(0.3) * 1.7 ** 2)
    assert np.isclose(out.hess[0, 1], np.cos(0.3) * 2 * 1.7)
    assert np.isclose(out.hess[1, 0], out.hess[0, 1])
    assert np.isclose(out.hess[1, 1], 2 * np.sin(0.3))


def test_array_block_propagates_per_entry():
    w = variable_block(np.array([1.0, -2.0, 0.5]), 1, 4, 1)
    x = variable(0.6, 0, 4, 1)
    prod = w * jsin(x)                       # entry k depends on w_k and x
    assert prod.val.shape == (3,)
    assert np.allclose(prod.val, np.array([1.0, -2.0, 0.5]) * np.sin(0.6))
    assert np.allclose(prod.grad[:, 0], np.array([1.0, -2.0, 0.5]) * np.cos(0.6))
    assert np.allclose(prod.grad[np.arange(3), 1 + np.arange(3)], np.sin(0.6))
    total = jsum(prod)
    assert np.isclose(total.val, np.sum(prod.val))
    assert np.isclose(total.hess[0, 0], np.sum(np.array([1.0, -2.0, 0.5])
                                               * -np.sin(0.6)))


def test_scalar_array_broadcast_in_rbf_pattern():
    # the basis-evaluation pattern: scalar jet minus a center array
    centers = np.array([-1.0, 0.0, 1.0])
    z = variable(0.3, 0, 1, 1)
    d = z - centers
    s = jexp((d * d) * (-1.0 / 0.64))
    ref = np.exp(-(0.3 - centers) ** 2 / 0.64)
    assert np.allclose(s.val, ref)
    ref_grad = ref * (-2.0 * (0.3 - centers) / 0.64)
    assert np.allclose(s.grad[:, 0], ref_grad)
    # second derivative of a Gaussian bump
    ref_hess = ref * ((2.0 * (0.3 - centers) / 0.64) ** 2 - 2.0 / 0.64)
    assert np.allclose(s.hess[:, 0, 0], ref_hess)


def test_python_float_fallbacks():
    assert jsin(0.5) == np.sin(0.5)
    assert jtanh(np.array([0.1, 0.2])).shape == (2,)
    assert jabs(-2.0) == 2.0
    assert jsum(np.array([1.0, 2.0])) == 3.0


def test_plain_array_times_jet_is_a_jet():
    # numpy defers to the jet, so a plain weight array times a basis jet is
    # one array-valued jet, not an object array of scalar jets
    w = np.array([1.0, -2.0, 0.5])
    s = jsin(variable(0.6, 0, 1, 1) - np.array([0.0, 0.1, 0.2]))
    for prod in (w * s, s * w, np.float64(2.0) * s):
        assert isinstance(prod, Jet)
    assert np.array_equal((w * s).grad, (s * w).grad)


def test_jsum_gradient_column_does_not_depend_on_jet_width():
    # the level-1 jet used to tag 32 variables and now tags x_1 alone; the
    # x_1 column of a sum over 27 basis terms must come out bit for bit the
    # same, which np.sum does not guarantee (pairwise for one column, row by
    # row for many) at most of these points
    stream = derive_stream(41, 0)
    centers = np.linspace(-1.5, 1.5, 27)
    weights = stream.uniform(27, -1.0, 1.0)
    for x0 in stream.uniform(50, -2.0, 2.0):
        sums = []
        for m in (32, 1):
            x = variable(x0, 0, m, 1)
            terms = weights * jexp(-((x - centers) * (x - centers)) / 0.64)
            sums.append(jsum(terms))
        wide, narrow = sums
        assert wide.grad[0] == narrow.grad[0]
        assert wide.val == narrow.val and np.array_equal(wide.hess, narrow.hess)
