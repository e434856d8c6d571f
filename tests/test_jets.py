import math
from fractions import Fraction

import pytest

from branchpde.jets import Jet, exp_jet
from oracles import derivative, finite_difference, variable


def test_exp_jet_coefficients():
    j = exp_jet(0.7, 5)
    for m in range(6):
        assert j.coefficient(m) == pytest.approx(math.exp(0.7) / math.factorial(m))


@pytest.mark.parametrize("x0, top", [(0.0, 171), (700.0, 250)])
def test_exp_jet_continues_past_the_float_factorial(x0, top):
    # m! leaves the float range at m = 171; the coefficients go on as
    # coefficient m-1 over m, within 1e-12 of e^x0/m! exactly, and keep
    # their bits up to m = 170
    jet = exp_jet(x0, top)
    ex = math.exp(x0)
    for m in range(top + 1):
        exact = float(Fraction(ex) / math.factorial(m))
        assert jet.coefficient(m) == pytest.approx(exact, rel=1e-12, abs=0), m
        if m <= 170:
            assert jet.coefficient(m) == ex / math.factorial(m)


def test_arithmetic_against_known_series():
    x = variable(0.0, 6)
    # 1/(1-x) = 1 + x + x^2 + ...
    geom = (1.0 - x).reciprocal()
    assert geom.coeffs == pytest.approx([1.0] * 7)
    # log(1+x) = x - x^2/2 + x^3/3 - ...
    lg = (1.0 + x).log()
    expected = [0.0] + [(-1.0) ** (m + 1) / m for m in range(1, 7)]
    assert lg.coeffs == pytest.approx(expected)


def test_product_is_cauchy_convolution():
    a = Jet([1.0, 2.0, 3.0])
    b = Jet([4.0, 5.0, 6.0])
    assert (a * b).coeffs == pytest.approx([4.0, 13.0, 28.0])
    assert (a * 2.0).coeffs == pytest.approx([2.0, 4.0, 6.0])
    assert (2.0 * a).coeffs == pytest.approx([2.0, 4.0, 6.0])


def test_derivative_extraction():
    # m! passes the float range at m = 171, m! a_m does not
    assert derivative(exp_jet(0.0, 171), 171) == pytest.approx(1.0, rel=1e-12)


def test_composed_function_vs_finite_differences():
    # f(x) = log(1 + 1/(1+e^x)), derivatives up to 4 at several points
    def f(x):
        return math.log(1.0 + 1.0 / (1.0 + math.exp(x)))

    for x0 in (-1.0, 0.0, 0.5):
        jet = ((exp_jet(x0, 5) + 1.0).reciprocal() + 1.0).log()
        for m in range(1, 5):
            fd = finite_difference(f, x0, m, h=1e-2)
            assert derivative(jet, m) == pytest.approx(fd, rel=1e-6, abs=1e-7)


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
        x = variable(x0, order)
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


def test_product_coefficient_is_that_of_the_product():
    import numpy as np

    rng = np.random.default_rng(11)
    order = 7

    def jet(array: bool) -> Jet:
        # zero coefficients of both signs, as scalars and inside arrays
        coeffs = [rng.normal(size=5) if array else float(rng.normal()) for _ in range(order + 1)]
        coeffs[1] = np.array([0.0, -0.0, 1.5, 0.0, 2.0]) if array else 0.0
        coeffs[4] = np.zeros(5) if array else -0.0
        coeffs[6] = np.float64(0.0)  # a numpy scalar, as a one-point oracle call gives
        return Jet(coeffs)

    def cauchy(a: Jet, b: Jet) -> list:
        # the product's coefficients, each summed over i in order from the
        # float 0.0, an exact-zero scalar a_i skipped
        out = [0.0] * (order + 1)
        for i, ai in enumerate(a.coeffs):
            if not isinstance(ai, np.ndarray) and ai == 0.0:
                continue
            for k in range(order + 1 - i):
                out[i + k] = out[i + k] + ai * b.coeffs[k]
        return out

    pairs = [(jet(left), jet(right)) for left in (False, True) for right in (False, True)]
    # a leading scalar zero: the product's coefficient 0 stays the float 0.0
    pairs.append((variable(0.0, order), jet(True)))
    for a, b in pairs:
        product, reference = a * b, cauchy(a, b)
        for m in range(order + 1):
            want = reference[m]
            for got in (a.product_coefficient(b, m), product.coeffs[m]):
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()
        with pytest.raises(ValueError):
            a.product_coefficient(b, order + 1)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_jets_of_different_orders_do_not_combine(op):
    # the shorter order would silently cut the longer jet
    a, b = Jet([1.0, 2.0, 3.0]), Jet([1.0, 1.0])
    combine = {"add": lambda u, v: u + v, "sub": lambda u, v: u - v, "mul": lambda u, v: u * v}[op]
    for u, v in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="orders"):
            combine(u, v)
    assert combine(a, a).order == 2


def test_a_negative_coefficient_is_refused():
    jet = Jet([1.0, 2.0, 3.0])
    for m in (-1, -3, 3):
        with pytest.raises(ValueError, match="no coefficient"):
            jet.coefficient(m)
        with pytest.raises(ValueError, match="no coefficient"):
            jet.product_coefficient(jet, m)
    assert jet.coefficient(0) == 1.0
