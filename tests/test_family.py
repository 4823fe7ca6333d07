"""Family construction, evaluation paths, and the exact identities.

The independent oracle here is a Gram-Schmidt construction straight from
the defining requirements (orthogonality in decreasing power order, norm
1/(2k+1), sign of the x^n coefficient), which shares no formulas with the
implementation paths it checks.
"""

from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest

from alpquad import (
    AlpFamily,
    Polynomial,
    alp_coefficients,
    alp_coefficients_hypergeometric,
    alp_coefficients_jacobi,
    alp_coefficients_rodrigues,
    alp_derivative_eval,
    alp_eval,
    alp_eval_exact,
    alp_eval_recurrence,
    aux_coefficients,
    aux_eval,
    family,
    inner_product,
    ode_residual,
    reciprocity_transform,
    recurrence_coefficients,
)

# ---------------------------------------------------------------------------
# Gram-Schmidt oracle


def _fraction_sqrt(q: Fraction) -> Fraction:
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    assert rn * rn == q.numerator and rd * rd == q.denominator, f"not a rational square: {q}"
    return Fraction(rn, rd)


def gram_schmidt_family(n: int) -> dict[int, Polynomial]:
    """Orthogonalize x^n, x^{n-1}, ..., x^0 on [0,1]; fix norm and sign."""
    polys: dict[int, Polynomial] = {}
    for k in range(n, -1, -1):
        u = Polynomial.monomial(k)
        for j in range(k + 1, n + 1):
            pj = polys[j]
            u = u - (inner_product(u, pj) / inner_product(pj, pj)) * pj
        scale = _fraction_sqrt(Fraction(1, 2 * k + 1) / inner_product(u, u))
        u = scale * u
        if (u.coeff(n) > 0) != ((n - k) % 2 == 0):
            u = -u
        polys[k] = u
    return polys


@pytest.mark.parametrize("n", range(7))
def test_explicit_coefficients_match_gram_schmidt(n):
    oracle = gram_schmidt_family(n)
    for k in range(n + 1):
        assert alp_coefficients(n, k) == oracle[k], (n, k)


# ---------------------------------------------------------------------------
# Explicit construction


def test_explicit_known_values():
    assert alp_coefficients(2, 2) == Polynomial([0, 0, 1])
    assert alp_coefficients(2, 1) == Polynomial([0, 4, -5])
    assert alp_coefficients(2, 0) == Polynomial([3, -12, 10])
    assert alp_coefficients(3, 0) == Polynomial([4, -30, 60, -35])


def test_explicit_structure():
    for n in range(13):
        for k in range(n + 1):
            p = alp_coefficients(n, k)
            assert p.degree == n
            assert p.low_power == k
            assert p.coeff(k) == comb(n + k + 1, n - k)
            assert all(c.denominator == 1 for c in p.coeffs)
            # sign normalization of the x^n coefficient
            assert (p.coeff(n) > 0) == ((n - k) % 2 == 0)


def test_near_zero_behaviour():
    # P_nk(x) / x^k -> C(n+k+1, n-k) as x -> 0
    for n, k in [(4, 2), (7, 0), (9, 9)]:
        lead = comb(n + k + 1, n - k)
        x = Fraction(1, 10**8)
        ratio = alp_eval_exact(n, k, x) / x**k
        assert abs(ratio - lead) < Fraction(lead, 10**6)


def test_index_validation():
    for bad in [(2, 3), (2, -1), (-1, 0)]:
        with pytest.raises(ValueError):
            alp_coefficients(*bad)
        with pytest.raises(ValueError):
            alp_eval(*bad, 0.5)


# ---------------------------------------------------------------------------
# Alternative construction routes agree exactly


def test_rodrigues_known_values():
    assert alp_coefficients_rodrigues(5, 5) == Polynomial.monomial(5)
    assert alp_coefficients_rodrigues(1, 0) == Polynomial([2, -3])
    assert alp_coefficients_rodrigues(2, 0) == Polynomial([3, -12, 10])


def test_reciprocity_known_values():
    assert reciprocity_transform(3, 3) == Polynomial.monomial(3)
    assert reciprocity_transform(1, 0) == Polynomial([2, -3])
    assert reciprocity_transform(2, 1) == Polynomial([0, 4, -5])


def test_hypergeometric_known_values():
    assert alp_coefficients_hypergeometric(2, 0) == Polynomial([3, -12, 10])
    assert alp_coefficients_hypergeometric(4, 4) == Polynomial.monomial(4)
    assert alp_coefficients_hypergeometric(2, 1) == Polynomial([0, 4, -5])


def test_jacobi_form_known_values():
    assert alp_coefficients_jacobi(2, 1) == Polynomial([0, 4, -5])
    assert alp_coefficients_jacobi(6, 6) == Polynomial.monomial(6)
    assert alp_coefficients_jacobi(2, 0) == Polynomial([3, -12, 10])


def test_published_variants_differ():
    assert alp_coefficients_hypergeometric(2, 0, "published") == Polynomial([1, -8, 10])
    assert alp_coefficients_jacobi(2, 1, "published") == Polynomial([0, 3, -5])
    # the published Jacobi form breaks orthogonality against P_22
    wrong = alp_coefficients_jacobi(2, 1, "published")
    assert inner_product(wrong, alp_coefficients(2, 2)) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        alp_coefficients_hypergeometric(2, 1, "misprinted")


def test_all_routes_agree_up_to_n12():
    for n in range(13):
        for k in range(n + 1):
            p = alp_coefficients(n, k)
            assert alp_coefficients_rodrigues(n, k) == p
            assert reciprocity_transform(n, k) == p
            assert alp_coefficients_hypergeometric(n, k) == p
            assert alp_coefficients_jacobi(n, k) == p


# ---------------------------------------------------------------------------
# Recurrence and differentiation coefficients


def test_recurrence_coefficients_2_1():
    r = recurrence_coefficients(2, 1)
    assert (r.a, r.b, r.c, r.d) == (16, 12, 33, 5)
    assert (r.alpha, r.beta, r.gamma, r.delta) == (4, 4, 9, 5)
    assert (r.kappa, r.lam, r.nu) == (2, 4, 8)
    assert r.mu == 12 and r.mu_published == 10


def test_recurrence_coefficients_2_2():
    r = recurrence_coefficients(2, 2)
    assert (r.a, r.b, r.c, r.d) == (15, 60, 75, 0)
    assert r.mu == 17 and r.mu_published == 13


def test_recurrence_coefficients_structure():
    for n in range(1, 13):
        r = recurrence_coefficients(n, n)
        assert r.d == 0 and r.delta == 0
        for k in range(1, n + 1):
            r = recurrence_coefficients(n, k)
            assert r.a > 0 and r.b > 0 and r.nu > 0


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_known_values():
    assert alp_eval(3, 3, 0.5) == 0.125
    assert abs(alp_eval(1, 0, 2.0 / 3.0)) <= 1e-15
    assert alp_eval(2, 0, 0.0) == 3.0


def test_eval_rejects_nonfinite():
    with pytest.raises(ValueError):
        alp_eval(2, 1, float("nan"))
    with pytest.raises(ValueError):
        alp_eval(2, 1, float("inf"))


def test_array_eval_rejects_nonfinite():
    for bad in (np.array([np.nan, 2.0]), np.array([0.5, -np.inf]), np.array([[0.1], [np.inf]])):
        with pytest.raises(ValueError):
            alp_eval(3, 1, bad)
        with pytest.raises(ValueError):
            aux_eval(1, 2, bad)


def test_eval_array_input():
    xs = np.linspace(0.0, 1.0, 9)
    vals = alp_eval(3, 1, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == alp_eval(3, 1, float(x))


def test_eval_matches_exact_rational():
    for n in range(11):
        for k in range(n + 1):
            for x in (0.0, 0.17, 0.5, 0.83, 1.0):
                exact = alp_eval_exact(n, k, x)
                got = alp_eval(n, k, x)
                if exact == 0:
                    assert got == 0.0
                else:
                    assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(1, 10**12)


def test_family_cache_and_large_n_path():
    fam = family(12)
    assert fam is family(12)
    assert isinstance(fam, AlpFamily)
    assert fam.polynomial(3) == alp_coefficients(12, 3)
    # n = 30 coefficients overflow exact double conversion; the stable
    # Jacobi-recurrence path must still track the exact values
    for x in (0.1, 0.37, 0.52, 0.9):
        exact = alp_eval_exact(30, 0, x)
        got = alp_eval(30, 0, x)
        assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(1, 10**10)


def test_downward_recurrence_order_zero():
    assert alp_eval_recurrence(0, 0.37) == [1.0]


def test_downward_recurrence_known_values():
    vals = alp_eval_recurrence(2, 0.5)  # [P_22, P_21, P_20](0.5)
    assert vals[0] == 0.25
    assert vals[1] == pytest.approx(0.75, abs=1e-14)
    assert vals[2] == pytest.approx(-0.5, abs=1e-13)


def test_downward_recurrence_at_zero_gives_limits():
    vals = alp_eval_recurrence(3, 0.0)  # k = 3, 2, 1, 0
    assert vals == [0.0, 0.0, 0.0, 4.0]


def test_downward_recurrence_matches_exact_without_underflow():
    # x^n underflows at (30, 1e-12); P_30,0 is still 31 there
    for n, x in [(30, 1e-12), (40, 1e-8), (20, 0.3), (40, 0.99)]:
        vals = alp_eval_recurrence(n, x)
        for idx, k in enumerate(range(n, -1, -1)):
            exact = float(alp_eval_exact(n, k, x))
            assert abs(vals[idx] - exact) <= 1e-12 * abs(exact), (n, k, x)


def test_downward_recurrence_consistent_with_horner():
    # agreement within 1e-10 relative to a unit magnitude floor; pure
    # relative error is unbounded within rounding distance of a root
    for n in range(11):
        for x in np.linspace(1e-3, 1.0, 101):
            vals = alp_eval_recurrence(n, float(x))
            for idx, k in enumerate(range(n, -1, -1)):
                ref = alp_eval(n, k, float(x))
                assert abs(vals[idx] - ref) <= 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Derivatives


def test_derivative_known_values():
    assert alp_derivative_eval(2, 1, 0.0) == 4.0  # endpoint, P'_21 = 4 - 10x
    assert alp_derivative_eval(2, 2, 1.0) == 2.0
    assert alp_derivative_eval(2, 0, 0.5) == pytest.approx(-2.0, abs=1e-13)


def test_derivative_identity_and_fallback_agree():
    # compare against direct differentiation of the exact coefficients
    for n, k in [(3, 1), (5, 0), (7, 4), (10, 10)]:
        dpoly = alp_coefficients(n, k).derivative()
        for x in np.linspace(0.05, 0.95, 13):
            want = float(dpoly(Fraction(float(x))))
            got = alp_derivative_eval(n, k, float(x))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_derivative_matches_exact_near_endpoints():
    # the endpoints and their near neighbours, where dividing by x (1-x)
    # would lose digits; measured worst error 1.8e-14 for n <= 40
    for n in range(41):
        for k in range(n + 1):
            dpoly = alp_coefficients(n, k).derivative()
            for x in (0.0, 1e-9, 1e-7, 1.0 - 1e-7, 1.0 - 1e-9, 1.0):
                want = float(dpoly(Fraction(x)))
                got = alp_derivative_eval(n, k, x)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, k, x)


def test_derivative_matches_finite_differences():
    h = 1e-6
    for n in range(11):
        for k in range(n + 1):
            for x in np.linspace(0.05, 0.95, 21):
                fd = (alp_eval(n, k, float(x) + h) - alp_eval(n, k, float(x) - h)) / (2 * h)
                assert abs(alp_derivative_eval(n, k, float(x)) - fd) <= 1e-5


# ---------------------------------------------------------------------------
# Differential equation


def test_ode_residual_zero_examples():
    assert ode_residual(1, 0).is_zero
    assert ode_residual(4, 4).is_zero
    assert ode_residual(2, 1).is_zero


def test_ode_residual_zero_sweep():
    for n in range(13):
        for k in range(n + 1):
            assert ode_residual(n, k).is_zero, (n, k)


# ---------------------------------------------------------------------------
# Auxiliary sequence


def test_aux_eval_known_values():
    assert aux_eval(3, 3, 0.7) == pytest.approx(0.7**3, rel=1e-15)
    assert aux_eval(0, 1, 0.0) == 1.0  # 1 - 2x at 0
    assert aux_eval(1, 2, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_aux_coefficients_known_values():
    assert aux_coefficients(1, 1) == Polynomial.monomial(1)
    assert aux_coefficients(1, 2) == Polynomial([0, 3, -4])
    # n = 0 gives the Legendre polynomials shifted to [0, 1]
    assert aux_coefficients(0, 1) == Polynomial([1, -2])
    assert aux_coefficients(0, 2) == Polynomial([1, -6, 6])


def test_aux_index_validation():
    with pytest.raises(ValueError):
        aux_eval(2, 1, 0.5)
    with pytest.raises(ValueError):
        aux_coefficients(3, 2)


def test_aux_eval_matches_exact_expansion():
    for n, k in [(0, 4), (1, 3), (2, 5), (4, 4)]:
        poly = aux_coefficients(n, k)
        for x in np.linspace(0.0, 1.0, 11):
            want = float(poly(Fraction(float(x))))
            assert aux_eval(n, k, float(x)) == pytest.approx(want, rel=1e-11, abs=1e-13)
