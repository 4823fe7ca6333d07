"""Compensated Horner evaluation against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from alpquad import Polynomial
from alpquad.family import alp_coefficients, alp_eval_exact
from alpquad.horner import comp_horner, comp_power, horner


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
    exact = float(alp_eval_exact(10, 0, 0.94))
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
    exact = Polynomial(int_coeffs)(Fraction(x))
    got = comp_horner(coeffs, x)
    err = abs(Fraction(got) - exact)
    scale = max(Fraction(1), abs(exact))
    assert err <= Fraction(1, 10**13) * scale


# The two-helper form comp_horner had before x was split once outside the
# loop; the hoisted form must round every step the same way.
_SPLITTER = 134217729.0


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def reference_comp_horner(coeffs, x):
    if len(coeffs) == 0:
        return 0.0 * x
    s = coeffs[-1] + 0.0 * x
    comp = 0.0 * s
    for c in reversed(coeffs[:-1]):
        p, perr = _two_prod(s, x)
        s, serr = _two_sum(p, c)
        comp = comp * x + (perr + serr)
    return s + comp


_unit = st.floats(min_value=0.0, max_value=1.0)


@given(
    st.lists(st.integers(min_value=-(2**53), max_value=2**53), max_size=42),
    _unit,
    st.lists(_unit, min_size=1, max_size=16),
)
def test_comp_horner_bit_identical_to_two_helper_form(int_coeffs, x, points):
    coeffs = [float(c) for c in int_coeffs]
    assert comp_horner(coeffs, x).hex() == reference_comp_horner(coeffs, x).hex()
    xs = np.array(points)
    assert comp_horner(coeffs, xs).tobytes() == reference_comp_horner(coeffs, xs).tobytes()


def test_comp_horner_bit_identical_on_family_members():
    # the family's coefficients cancel heavily on [0, 1], so the compensation
    # term decides the last bit here far more often than for random lists
    xs = np.concatenate(([0.0], np.random.default_rng(1203).random(510), [1.0]))
    for n in range(41):
        for k in range(n + 1):
            coeffs = [float(c) for c in alp_coefficients(n, k).coeffs]
            if max(map(abs, coeffs)) > 2.0**53:
                continue
            for cs in (coeffs, coeffs[k:]):
                assert comp_horner(cs, xs).tobytes() == reference_comp_horner(cs, xs).tobytes(), (n, k)


def _within_one_rounding(got, x, k):
    # hi + lo carries x^k to about k u^2, so only the final rounding is left
    exact = Fraction(x) ** k
    return abs(Fraction(got) - exact) <= exact * Fraction(1, 2**52)


@given(st.floats(min_value=1 / 16, max_value=1.0), st.integers(min_value=0, max_value=64))
def test_comp_power_within_one_rounding(x, k):
    got = comp_power(x, k)
    assert _within_one_rounding(got, x, k)
    assert comp_power(np.array([x]), k)[0].hex() == got.hex()


def test_comp_power_near_one():
    # plain binary powering raises each squaring's rounding error to the
    # remaining power and is off by up to ~k/2 ulps of x^k just below 1
    xs = 0.99 + 0.01 * np.random.default_rng(1204).random(256)
    for k in range(65):
        vals = comp_power(xs, k)
        assert vals.shape == xs.shape
        for x, v in zip(xs.tolist(), vals.tolist()):
            assert _within_one_rounding(v, x, k), (x, k)
            assert comp_power(x, k).hex() == v.hex()
    assert comp_power(0.0, 0) == 1.0 and comp_power(0.0, 3) == 0.0 and comp_power(1.0, 64) == 1.0
