import numpy as np

from ancsim.autodiff import Jet, jabs, jcos, jexp, jsin, jsum, jtanh, variable
from ancsim.rng import derive_stream

# a (k,) value: the jet of x - POINTS, as in the basis-function pattern
POINTS = np.array([-0.35, 0.0, 0.2, 0.45])


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def fd2(f, x, h=1e-4):
    return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2


def check_primitive(fj, ff, x0):
    """Jet value/d1/d2 of a map against central differences, at the scalar
    value x0 and at the (k,) value x0 - POINTS (entry by entry)."""
    out = fj(variable(x0))
    assert np.isclose(out.val, ff(x0), rtol=1e-12)
    assert np.isclose(out.d1, fd(ff, x0), rtol=1e-7, atol=1e-9)
    assert np.isclose(out.d2, fd2(ff, x0), rtol=1e-5, atol=1e-6)

    def fa(x):
        return ff(x - POINTS)
    out = fj(variable(x0) - POINTS)
    assert out.val.shape == out.d1.shape == out.d2.shape == POINTS.shape
    assert np.allclose(out.val, fa(x0), rtol=1e-12)
    assert np.allclose(out.d1, fd(fa, x0), rtol=1e-7, atol=1e-9)
    assert np.allclose(out.d2, fd2(fa, x0), rtol=1e-5, atol=1e-6)


def test_polynomial_and_division():
    check_primitive(lambda x: x * x * x - 2.0 * x + 5.0,
                 lambda x: x ** 3 - 2 * x + 5, 0.7)
    check_primitive(lambda x: jsin(x) + x * x, lambda x: np.sin(x) + x ** 2, 0.7)
    check_primitive(lambda x: 3.0 - (x + 0.5) * -x,
                 lambda x: 3 + (x + 0.5) * x, 0.7)
    check_primitive(lambda x: (x + 2.0) / (x * x + 1.0),
                 lambda x: (x + 2) / (x ** 2 + 1), -0.3)
    check_primitive(lambda x: (x * x + 1.0) / 2.5,
                 lambda x: (x ** 2 + 1) / 2.5, -0.3)
    check_primitive(lambda x: 1.0 / x, lambda x: 1 / x, 2.5)
    check_primitive(lambda x: (x * x) ** (2.0 / 3.0),
                 lambda x: (x ** 2) ** (2 / 3), 1.3)


def test_transcendentals():
    check_primitive(jsin, np.sin, 0.9)
    check_primitive(jcos, np.cos, -1.1)
    check_primitive(jexp, np.exp, 0.4)
    check_primitive(jtanh, np.tanh, 0.25)
    check_primitive(jabs, np.abs, -0.8)
    check_primitive(lambda x: jtanh(x * x * x / 0.3),
                 lambda x: np.tanh(x ** 3 / 0.3), 0.5)


def test_abs_uses_sign_of_value():
    out = jabs(variable(-0.8))
    assert out.val == 0.8 and out.d1 == -1.0 and out.d2 == 0.0
    out = jabs(variable(0.8))
    assert out.d1 == 1.0


def test_scalar_array_broadcast_in_rbf_pattern():
    # the basis-evaluation pattern: scalar jet minus a center array
    centers = np.array([-1.0, 0.0, 1.0])
    z = variable(0.3)
    d = z - centers
    s = jexp((d * d) * (-1.0 / 0.64))
    ref = np.exp(-(0.3 - centers) ** 2 / 0.64)
    assert np.allclose(s.val, ref)
    ref_d1 = ref * (-2.0 * (0.3 - centers) / 0.64)
    assert np.allclose(s.d1, ref_d1)
    # second derivative of a Gaussian bump
    ref_d2 = ref * ((2.0 * (0.3 - centers) / 0.64) ** 2 - 2.0 / 0.64)
    assert np.allclose(s.d2, ref_d2)
    total = jsum(np.array([1.0, -2.0, 0.5]) * s)
    assert np.isclose(total.val, np.dot([1.0, -2.0, 0.5], ref))
    assert np.isclose(total.d2, np.dot([1.0, -2.0, 0.5], ref_d2))


def test_python_float_fallbacks():
    assert jsin(0.5) == np.sin(0.5)
    assert jtanh(np.array([0.1, 0.2])).shape == (2,)
    assert jabs(-2.0) == 2.0
    assert jsum(np.array([1.0, 2.0])) == 3.0


def test_plain_array_times_jet_is_a_jet():
    # numpy defers to the jet, so a plain weight array times a basis jet is
    # one array-valued jet, not an object array of scalar jets
    w = np.array([1.0, -2.0, 0.5])
    s = jsin(variable(0.6) - np.array([0.0, 0.1, 0.2]))
    for prod in (w * s, s * w, np.float64(2.0) * s):
        assert isinstance(prod, Jet)
    assert np.array_equal((w * s).d1, (s * w).d1)
    assert np.array_equal((w * s).d2, w * s.d2)


def test_jsum_first_derivative_is_a_left_to_right_sum():
    # the controller's digests were recorded with d1 summed entry by entry
    # in value order; np.sum sums pairwise and differs at most of these points
    stream = derive_stream(41, 0)
    centers = np.linspace(-1.5, 1.5, 27)
    weights = stream.uniform(27, -1.0, 1.0)
    for x0 in stream.uniform(50, -2.0, 2.0):
        x = variable(x0)
        terms = weights * jexp(-((x - centers) * (x - centers)) / 0.64)
        running = 0.0
        for d in terms.d1:
            running += float(d)
        assert jsum(terms).d1 == running


def test_jsum_of_jet_plus_or_minus_array_counts_every_entry():
    # jet +- array keeps scalar derivative fields; the sum has d/dx = k
    points = np.array([0.0, 1.0, 2.0])
    for u, d1 in ((variable(0.3) - points, 3.0), (variable(0.3) + points, 3.0),
                  (points - variable(0.3), -3.0)):
        s = jsum(u)
        assert s.val == np.sum(u.val) and s.d1 == d1 and s.d2 == 0.0


def test_grad_view_has_one_variable_axis():
    assert variable(0.3).grad.shape == (1,)
    s = jexp(variable(0.3) - np.array([0.0, 0.1]))
    assert s.grad.shape == (2, 1) and np.array_equal(s.grad[:, 0], s.d1)
