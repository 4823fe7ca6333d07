"""Exact polynomial algebra: arithmetic, integrals, inner products."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alpquad import Polynomial, inner_product
from alpquad.exactpoly import _combine
from alpquad.family import alp_coefficients, alp_eval_exact

small_polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6).map(
    Polynomial
)


def test_construction_strips_trailing_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert Polynomial([0, 0]).is_zero
    assert Polynomial().degree == -1


def test_integral_coefficients_are_stored_as_int():
    p = Polynomial([Fraction(6, 3), 0.5, "1/3"])
    assert p.coeffs == (2, Fraction(1, 2), Fraction(1, 3))
    assert type(p.coeffs[0]) is int
    same = Polynomial([2, Fraction(1, 2), Fraction(1, 3)])
    assert p == same and hash(p) == hash(same)
    assert type(p.coeff(7)) is int
    assert type(Polynomial([3, -5]).max_abs_coeff()) is int
    assert type(Polynomial().max_abs_coeff()) is int
    # numpy integers and bool become the Python int they equal, so no
    # coefficient keeps numpy's wrapping 64-bit arithmetic
    p = Polynomial([np.int64(-4), np.uint8(200), True, np.int32(2**31 - 1)])
    assert p.coeffs == (-4, 200, 1, 2**31 - 1)
    assert all(type(c) is int for c in p.coeffs)
    # a numpy float of any width is stored as its exact binary value
    extra = np.longdouble(1) + np.longdouble(2) ** -60  # 1 where long double is double
    for c, want in [
        (np.float16(0.1), Fraction(float(np.float16(0.1)))),
        (np.float32(0.1), Fraction(float(np.float32(0.1)))),
        (np.longdouble(0.1), Fraction(0.1)),
        (extra, 1 + Fraction(1, 2**60) if extra != 1 else 1),
        (np.float32(3.0), 3),
    ]:
        (got,) = Polynomial([c]).coeffs
        assert got == want and type(got) is type(want), (c, got)
    # 3^40 and 7^40 are far past 2^63; an int64 coefficient wrapped at the 19th power
    power, want, base = Polynomial([1]), Polynomial([1]), Polynomial(np.array([3, -2, 7]))
    for _ in range(40):
        power, want = power * base, want * Polynomial([3, -2, 7])
    assert power == want and all(type(c) is int for c in power.coeffs)


def test_monomial_and_low_power():
    m = Polynomial.monomial(3, 5)
    assert m.coeffs == (0, 0, 0, 5)
    assert m.low_power == 3
    with pytest.raises(ValueError):
        Polynomial.monomial(-1)
    with pytest.raises(ValueError):
        Polynomial().low_power


def test_product_difference_of_squares():
    assert Polynomial([1, 1]) * Polynomial([1, -1]) == Polynomial([1, 0, -1])


def test_product_square():
    p = Polynomial([2, -3])
    assert p * p == Polynomial([4, -12, 9])


def test_product_of_family_members():
    # P_21 * P_22 = (4x - 5x^2) x^2 = 4x^3 - 5x^4
    prod = alp_coefficients(2, 1) * alp_coefficients(2, 2)
    assert prod == Polynomial([0, 0, 0, 4, -5])


def test_scalar_multiplication_and_shift():
    p = Polynomial([1, 2])
    assert 3 * p == Polynomial([3, 6])
    assert Fraction(1, 2) * p == Polynomial([Fraction(1, 2), 1])
    # a float scalar converts exactly, so a large coefficient keeps every digit
    assert Polynomial([3**40, 1]) * 0.1 == Polynomial([3**40 * Fraction(0.1), Fraction(0.1)])
    assert p.shifted(2) == Polynomial([0, 0, 1, 2])
    assert Polynomial([0, 0, 7]).shifted(-2) == Polynomial([7])
    with pytest.raises(ValueError):
        Polynomial([1, 1]).shifted(-1)


def test_derivative():
    assert Polynomial([3, -12, 10]).derivative() == Polynomial([-12, 20])
    assert Polynomial([5]).derivative().is_zero


def test_integrate01_basics():
    assert Polynomial([1]).integrate01() == 1
    assert type(Polynomial([1]).integrate01()) is Fraction
    assert type(Polynomial([3, -12, 10]).integrate01()) is Fraction
    assert Polynomial.monomial(7).integrate01() == Fraction(1, 8)
    # integral of P_20 over [0,1] equals 1/(n+1)
    assert alp_coefficients(2, 0).integrate01() == Fraction(1, 3)


def test_integrate01_common_denominator_matches_per_term_sum():
    # degrees to 60 put every prime below 61 into lcm(1, ..., d+1)
    polys = [alp_coefficients(n, k) * alp_coefficients(n, j) for n in (13, 30) for k in (0, 7) for j in (0, n)]
    polys += [Polynomial([Fraction(1, l + 2) * (-1) ** l for l in range(40)]), Polynomial([Fraction(-3, 7)])]
    for p in polys:
        want = sum((Fraction(c, 1) / (l + 1) for l, c in enumerate(p.coeffs)), Fraction(0))
        got = p.integrate01()
        assert got == want and type(got) is Fraction
    assert Polynomial().integrate01() == 0 and type(Polynomial().integrate01()) is Fraction


def test_inner_product_examples():
    p22 = alp_coefficients(2, 2)
    assert inner_product(p22, p22) == Fraction(1, 5)
    assert inner_product(alp_coefficients(2, 0), alp_coefficients(2, 1)) == 0
    one = Polynomial([1])
    assert inner_product(one, one) == 1
    assert type(inner_product(one, one)) is Fraction


def test_exact_evaluation():
    p = Polynomial([3, -12, 10])
    assert p(Fraction(1, 2)) == Fraction(-1, 2)
    assert p(0) == 3
    assert isinstance(p(0.5), float)
    # a float point is evaluated exactly and rounded once, and a numpy
    # integer exactly; a plain float loop gave 572005.203125 and
    # -14791366692317.0 here
    p40 = alp_coefficients(40, 1)
    assert p40(0.5) == -0.13134072036336875
    value = p40(np.int64(1))
    assert value == Fraction(-1) and type(value) is Fraction
    for bad in (np.array([0.5]), np.array(0.5), 0.5j, "0.5"):
        with pytest.raises(TypeError, match=f"^polynomial point must be a real number, got {type(bad).__name__}$"):
            p40(bad)
    # alp_eval_exact takes a numpy float of any width at its exact binary value
    for x in (np.float16(0.3), np.float32(0.3), np.longdouble(0.3)):
        value = alp_eval_exact(30, 3, x)
        assert value == alp_eval_exact(30, 3, float(x)) and type(value) is Fraction, x
        assert p40(x) == p40(float(x)) and type(p40(x)) is float, x
    extra = np.longdouble(1) + np.longdouble(2) ** -60  # 1 where long double is double
    exact = 1 + Fraction(1, 2**60) if extra != 1 else Fraction(1)
    assert alp_eval_exact(30, 3, extra) == alp_coefficients(30, 3)(exact)


def test_equality_and_hash():
    assert Polynomial([1, 2]) == Polynomial([Fraction(1), Fraction(2), 0])
    assert hash(Polynomial([1, 2])) == hash(Polynomial([1, 2, 0]))
    assert Polynomial([1]) != Polynomial([2])


@given(small_polys, small_polys)
def test_inner_product_symmetric(p, q):
    assert inner_product(p, q) == inner_product(q, p)


@given(small_polys, small_polys, small_polys, st.integers(-5, 5), st.integers(-5, 5))
def test_inner_product_bilinear(p, q, r, a, b):
    left = inner_product(a * p + b * q, r)
    assert left == a * inner_product(p, r) + b * inner_product(q, r)


@given(small_polys, small_polys)
def test_product_degree_additive(p, q):
    prod = p * q
    if p.is_zero or q.is_zero:
        assert prod.is_zero
    else:
        assert prod.degree == p.degree + q.degree


exact_scalars = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6)
)
coeff_lists = st.lists(exact_scalars, max_size=6)


def _reference(cs) -> tuple:
    """Plain-Fraction coefficients with trailing zeros stripped."""
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padded(cs, size: int) -> list:
    return [Fraction(c) for c in cs] + [Fraction(0)] * (size - len(cs))


def _value_reference(cs, x) -> Fraction:
    """sum_l c_l x^l in plain Fraction arithmetic."""
    return sum((Fraction(c) * x**l for l, c in enumerate(cs)), Fraction(0))


@given(
    coeff_lists,
    coeff_lists,
    exact_scalars,
    st.fractions(min_value=-3, max_value=3),
    st.integers(-3, 3),
    st.floats(-3, 3),
)
def test_arithmetic_matches_fraction_reference(a, b, s, x, i, f):
    p, q = Polynomial(a), Polynomial(b)
    size = max(len(a), len(b))
    conv = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            conv[i + j] += Fraction(ca) * Fraction(cb)
    cases = [
        (p + q, [u + v for u, v in zip(_padded(a, size), _padded(b, size))]),
        (p - q, [u - v for u, v in zip(_padded(a, size), _padded(b, size))]),
        (p * q, conv),
        (p * s, [Fraction(c) * s for c in a]),
        (s * p, [Fraction(c) * s for c in a]),
        (p.derivative(), [l * Fraction(c) for l, c in enumerate(a)][1:]),
    ]
    for got, want in cases:
        assert got.coeffs == _reference(want)
        for c in got.coeffs:
            assert type(c) is (int if c.denominator == 1 else Fraction)
    integral = p.integrate01()
    assert integral == sum((Fraction(c) / (l + 1) for l, c in enumerate(a)), Fraction(0))
    assert type(integral) is Fraction
    # exact at a Fraction or int point, the zero polynomial included
    half = Fraction(2 * x.numerator + 1, 2 * x.denominator)  # never an integer
    for poly, point in ((p, x), (p, i), (Polynomial(), half)):
        value = poly(point)
        assert value == _value_reference(poly.coeffs, point)
        assert type(value) is Fraction
    # a float point gives the exact value at its binary value, correctly rounded
    value = p(f)
    assert type(value) is float and value == float(_value_reference(p.coeffs, Fraction(f)))


def test_evaluation_at_order_400_matches_fraction_reference():
    p, x = alp_coefficients(400, 1), Fraction(0.3)
    value = p(x)
    assert value == _value_reference(p.coeffs, x)
    assert type(value) is Fraction


combine_terms = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(0, 4), coeff_lists.map(Polynomial)), max_size=5
)


@given(combine_terms)
def test_combine_matches_the_operator_chain(terms):
    got = _combine(*terms)
    chain = Polynomial()
    want = []
    for c, s, p in terms:
        chain = chain + c * p.shifted(s)
        want += [Fraction(0)] * (s + len(p.coeffs) - len(want))
        for i, a in enumerate(p.coeffs, s):
            want[i] += c * Fraction(a)
    assert got == chain and hash(got) == hash(chain)
    assert got.coeffs == _reference(want)
    for a in got.coeffs:
        assert type(a) is (int if a.denominator == 1 else Fraction)
