import math

import pytest

from branchpde.jets import Jet, exp_jet
from oracles import finite_difference


def test_exp_jet_coefficients():
    j = exp_jet(0.7, 5)
    for m in range(6):
        assert j.coefficient(m) == pytest.approx(math.exp(0.7) / math.factorial(m))


def test_arithmetic_against_known_series():
    x = Jet.variable(0.0, 6)
    # 1/(1-x) = 1 + x + x^2 + ...
    geom = (1.0 - x).reciprocal()
    assert geom.coeffs == pytest.approx([1.0] * 7)
    # log(1+x) = x - x^2/2 + x^3/3 - ...
    lg = (1.0 + x).log()
    expected = [0.0] + [(-1.0) ** (m + 1) / m for m in range(1, 7)]
    assert lg.coeffs == pytest.approx(expected)
    # exp(x)
    e = x.exp()
    assert e.coeffs == pytest.approx([1.0 / math.factorial(m) for m in range(7)])


def test_product_is_cauchy_convolution():
    a = Jet([1.0, 2.0, 3.0])
    b = Jet([4.0, 5.0, 6.0])
    assert (a * b).coeffs == pytest.approx([4.0, 13.0, 28.0])
    assert (a * 2.0).coeffs == pytest.approx([2.0, 4.0, 6.0])
    assert (2.0 * a).coeffs == pytest.approx([2.0, 4.0, 6.0])


def test_derivative_extraction():
    # f(x) = exp(2x) at 0: f^{(m)} = 2^m
    x = Jet.variable(0.0, 5)
    f = (x * 2.0).exp()
    for m in range(6):
        assert f.derivative(m) == pytest.approx(2.0**m)


def test_composed_function_vs_finite_differences():
    # f(x) = log(1 + 1/(1+e^x)), derivatives up to 4 at several points
    def f(x):
        return math.log(1.0 + 1.0 / (1.0 + math.exp(x)))

    for x0 in (-1.0, 0.0, 0.5):
        jet = ((exp_jet(x0, 5) + 1.0).reciprocal() + 1.0).log()
        for m in range(1, 5):
            fd = finite_difference(f, x0, m, h=1e-2)
            assert jet.derivative(m) == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_reciprocal_of_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        Jet([0.0, 1.0]).reciprocal()
    with pytest.raises(ValueError):
        Jet([-1.0, 1.0]).log()


def test_array_jets_equal_float_jets_elementwise():
    import numpy as np

    xs = np.array([-1.5, 0.0, 0.3, 2.0])
    order = 5

    def composite(x0):
        x = Jet.variable(x0, order)
        return ((exp_jet(x0, order) + 1.0).reciprocal() * x + 2.0).log() * (x * 3.0 - 1.0)

    batched = composite(xs)
    for i, x0 in enumerate(xs.tolist()):
        single = composite(x0)
        assert [float(c[i]) for c in batched.coeffs] == [float(c) for c in single.coeffs]
    # adding a float makes a new constant term, it does not write into the old one
    j = Jet([xs.copy(), np.ones(4)])
    before = j.coeffs[0].copy()
    _ = j + 1.0
    assert (j.coeffs[0] == before).all()
    with pytest.raises(ZeroDivisionError):
        Jet([np.array([1.0, 0.0]), np.ones(2)]).reciprocal()
    with pytest.raises(ValueError):
        Jet([np.array([1.0, -1.0]), np.ones(2)]).log()
