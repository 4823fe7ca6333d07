"""Compensated Horner evaluation against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from alpquad.family import alp_coefficients
from alpquad.horner import comp_horner, horner


def exact_eval(coeffs, x):
    xf = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * xf + Fraction(c)
    return acc


def test_empty_and_constant():
    assert horner([], 0.3) == 0.0
    assert comp_horner([], 0.3) == 0.0
    assert comp_horner([4.0], 0.3) == 4.0


def test_matches_plain_horner_when_benign():
    coeffs = [1.0, -2.0, 3.0]
    for x in (0.0, 0.25, 1.0):
        assert comp_horner(coeffs, x) == horner(coeffs, x)


def test_compensation_beats_plain_horner_at_degree_ten():
    # P_10,0 at x = 0.94 suffers heavy cancellation: plain Horner is off by
    # ~1.5e-10 (5e-9 relative), the compensated form is exact to the ulp
    coeffs = [float(c) for c in alp_coefficients(10, 0).coeffs]
    exact = float(exact_eval(coeffs, 0.94))
    assert abs(comp_horner(coeffs, 0.94) - exact) <= 1e-15
    assert abs(horner(coeffs, 0.94) - exact) > 1e-11


def test_array_input():
    coeffs = [float(c) for c in alp_coefficients(5, 0).coeffs]
    xs = np.linspace(0.0, 1.0, 7)
    out = comp_horner(coeffs, xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == comp_horner(coeffs, float(x))
    assert np.array_equal(comp_horner([], xs), np.zeros_like(xs))


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=12),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_comp_horner_near_exact(int_coeffs, x):
    coeffs = [float(c) for c in int_coeffs]
    exact = exact_eval(coeffs, x)
    got = comp_horner(coeffs, x)
    err = abs(Fraction(got) - exact)
    scale = max(Fraction(1), abs(exact))
    assert err <= Fraction(1, 10**13) * scale
