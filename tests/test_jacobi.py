"""Jacobi helpers: exact shifted expansions and recurrence evaluation."""

from fractions import Fraction

import numpy as np
import pytest

from alpquad import Polynomial
from alpquad import jacobi
from alpquad.jacobi import (
    _jacobi_matrix,
    binomial_general,
    jacobi_derivative_eval,
    jacobi_eval,
    jacobi_shifted_coefficients,
    pochhammer,
)


def test_pochhammer():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2, 3) == 0
    assert pochhammer(-5, 2) == 20


def test_pochhammer_rejects_negative_length():
    # an empty product is m = 0 only; m < 0 used to return 1
    with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
        pochhammer(3, -1)


def test_binomial_general_matches_comb_for_nonnegative():
    assert binomial_general(7, 3) == 35
    assert binomial_general(3, 7) == 0
    assert binomial_general(0, 0) == 1


def test_binomial_general_negative_arguments():
    # product formula: C(-5, 1) = -5, C(-3, 2) = (-3)(-4)/2 = 6
    assert binomial_general(-5, 1) == -5
    assert binomial_general(-3, 2) == 6
    with pytest.raises(ValueError):
        binomial_general(4, -1)


def test_shifted_expansion_degree_zero_is_one():
    for alpha in (-7, 0, 3, 12):
        assert jacobi_shifted_coefficients(0, alpha) == Polynomial([1])


def test_shifted_expansion_known_linear_cases():
    assert jacobi_shifted_coefficients(1, 2) == Polynomial([3, -4])
    # formal series with negative alpha, used by the reciprocity route
    assert jacobi_shifted_coefficients(1, -4) == Polynomial([-3, 2])


def test_shifted_expansion_rejects_vanishing_denominator():
    # (alpha+1)_j vanishes inside the series range when 0 < -alpha <= m
    with pytest.raises(ValueError):
        jacobi_shifted_coefficients(3, -2)


def test_shifted_expansion_at_alpha_minus_m_minus_one():
    # no (alpha+1)_j with j <= m vanishes at alpha = -m-1; the prefactor
    # C(-1, m) = (-1)^m survives and (0)_j kills every higher term
    for m in range(1, 7):
        assert jacobi_shifted_coefficients(m, -m - 1) == Polynomial([(-1) ** m])


def test_shifted_expansion_beta_one():
    # P_1^{(2,1)}(1-2u) = 3 - 5u
    assert jacobi_shifted_coefficients(1, 2, beta=1) == Polynomial([3, -5])


@pytest.mark.parametrize("m,alpha,beta", [(0, 0, 0), (1, 2, 0), (3, 4, 0), (5, 2, 1), (8, 7, 0)])
def test_recurrence_matches_exact_expansion(m, alpha, beta):
    poly = jacobi_shifted_coefficients(m, alpha, beta)
    for u in np.linspace(0.0, 1.0, 23):
        exact = poly(u)
        got = jacobi_eval(m, alpha, beta, 1.0 - 2.0 * float(u))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_recurrence_at_endpoints():
    # P_m^{(a,b)}(1) = C(m+a, m)
    assert jacobi_eval(4, 3, 0, 1.0) == pytest.approx(35.0, rel=1e-14)
    # P_m^{(a,0)}(-1) = (-1)^m
    for m in range(6):
        assert jacobi_eval(m, 5, 0, -1.0) == pytest.approx((-1.0) ** m, rel=1e-13)


def test_recurrence_array_input():
    ts = np.linspace(-1.0, 1.0, 11)
    vals = jacobi_eval(3, 2, 0, ts)
    assert vals.shape == ts.shape
    for t, v in zip(ts, vals):
        assert v == jacobi_eval(3, 2, 0, float(t))
    # degree zero broadcasts like every other degree
    assert np.array_equal(jacobi_eval(0, 2, 0, ts), np.ones_like(ts))
    assert np.array_equal(jacobi_derivative_eval(0, 2, 0, ts), np.zeros_like(ts))


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_float_input_evaluates_in_double(dtype):
    ts = np.array([-1.0, -0.2, 0.4, 0.75, 1.0], dtype=dtype)
    got = jacobi_eval(20, 3, 0, ts)
    assert got.dtype == np.float64
    assert np.array_equal(got, jacobi_eval(20, 3, 0, ts.astype(np.float64)))
    for t in ts:
        assert jacobi_eval(20, 3, 0, t) == jacobi_eval(20, 3, 0, float(t))
    # float32 arithmetic gave 0.27912596 here
    want = jacobi_shifted_coefficients(20, 3)((1 - float(dtype(0.4))) / 2)
    assert jacobi_eval(20, 3, 0, dtype(0.4)) == pytest.approx(want, rel=1e-13)


def test_eval_rejects_nonfinite():
    for bad in (float("nan"), float("inf"), np.float32("nan"), np.float16("inf"), np.array([0.0, np.nan])):
        with pytest.raises(ValueError):
            jacobi_eval(3, 2, 0, bad)
        # degree 0 checks its point too, where it once returned 0.0 * t
        with pytest.raises(ValueError):
            jacobi_derivative_eval(0, 1, 0, bad)


def test_derivative_eval_matches_expansion_derivative():
    m, alpha = 4, 3
    poly = jacobi_shifted_coefficients(m, alpha)  # polynomial in u, t = 1-2u
    dpoly = poly.derivative()
    for u in np.linspace(0.05, 0.95, 7):
        # d/dt = -(1/2) d/du
        want = -0.5 * dpoly(u)
        got = jacobi_derivative_eval(m, alpha, 0, 1.0 - 2.0 * float(u))
        assert got == pytest.approx(want, rel=1e-11)
    assert jacobi_derivative_eval(0, 2, 0, 0.3) == 0.0


def test_degree_validation():
    with pytest.raises(ValueError):
        jacobi_shifted_coefficients(-1, 2)
    with pytest.raises(ValueError):
        jacobi_eval(-1, 0, 0, 0.5)
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
        jacobi_derivative_eval(-1, 0, 0, 0.5)


def test_jacobi_matrix_legendre_case_is_finite():
    # a = 0 is the Legendre matrix the kernel needs for kmin = 0: the
    # closed-form diagonal -a^2 / (s (s+2)) is 0/0 at j = 0 there
    diag, off = _jacobi_matrix(12, 0)
    assert all(d == 0.0 for d in diag)
    for j in range(1, 12):
        assert off[j - 1] == pytest.approx(j / np.sqrt(4.0 * j * j - 1.0), rel=1e-15)
    # for a >= 1 the diagonal keeps the closed form's bits
    for a in (1, 2, 7, 80):
        s = 2.0 * np.arange(12, dtype=float) + a
        assert np.array_equal(_jacobi_matrix(12, a)[0], -a * a / (s * (s + 2.0)))


def _numpy_jacobi_matrix(m, a):
    """The Jacobi matrix as numpy array expressions: the reference for the lists of _jacobi_matrix."""
    j = np.arange(m, dtype=float)
    s = 2.0 * j + a
    diag = np.divide(-a * a, s * (s + 2.0), out=np.zeros(m), where=s > 0)
    j, s = j[1:], s[1:]
    return diag, np.sqrt(4.0 * j**2 * (j + a) ** 2 / (s**2 * (s + 1.0) * (s - 1.0)))


def test_jacobi_matrix_keeps_the_bits_of_the_array_form():
    # the lists are built on Python floats in numpy's order of operations
    grid = [(m, a) for m in range(1, 45) for a in range(82)]
    grid += [(m, a) for m in (100, 401, 1025) for a in (199, 399, 799, 800, 2001)]
    for m, a in grid:
        diag, off = _jacobi_matrix(m, a)
        want_diag, want_off = _numpy_jacobi_matrix(m, a)
        assert np.array(diag, dtype=float).tobytes() == want_diag.tobytes(), (m, a)
        assert np.array(off, dtype=float).tobytes() == want_off.tobytes(), (m, a)


def _eigvalsh(diag, off):
    """numpy.linalg.eigvalsh of the tridiagonal matrix: the test-only reference for _jacobi_eigenvalues."""
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def test_eigenvalues_match_eigvalsh():
    # every Jacobi matrix with m <= 45 and a <= 89, and the (m, a) of the
    # seven pinned large rules, within 1e-15 of eigvalsh and ascending.
    # Measured: with numpy 2.4.6 and its OpenBLAS all 94,204 eigenvalues are
    # equal bit for bit, since both run dsterf on the same entries; the same
    # iteration without the QR branch (never run reversed) is 4.2e-15 off at
    # (101, 199)
    grid = [(m, a) for m in range(1, 46) for a in range(90)]
    grid += [(100, 1), (51, 99), (200, 1), (101, 199), (400, 1), (201, 399), (1, 799)]
    for m, a in grid:
        diag, off = _jacobi_matrix(m, a)
        got = jacobi._jacobi_eigenvalues(diag, off)
        assert got == sorted(got), (m, a)
        assert np.max(np.abs(np.array(got) - _eigvalsh(diag, off))) <= 1e-15, (m, a)


def test_eigenvalues_of_one_and_two_rows():
    # one row is its own eigenvalue. Two rows take dlae2's closed form, and
    # each eigenvalue is within 2^-52 of a true eigenvalue of the float
    # matrix: the characteristic polynomial, in exact arithmetic, changes
    # sign across that interval (measured worst 1.8e-16; the smaller
    # eigenvalue cancels, so one ulp of its own is too tight)
    eps = Fraction(1, 2**52)
    for a in range(90):
        diag, off = _jacobi_matrix(1, a)
        assert jacobi._jacobi_eigenvalues(diag, off) == diag
        diag, off = _jacobi_matrix(2, a)
        d0, d1, b = (Fraction(v) for v in (*diag, *off))
        for lam in jacobi._jacobi_eigenvalues(diag, off):
            below, above = Fraction(lam) - eps, Fraction(lam) + eps
            assert ((d0 - below) * (d1 - below) - b * b) * ((d0 - above) * (d1 - above) - b * b) <= 0, (a, lam)


def test_eigenvalues_split_at_a_zero_off_diagonal():
    # a zero off-diagonal splits the matrix into two blocks of four rows
    diag = [0.3, -0.2, 0.5, 0.1, -0.6, 0.05, 0.2, -0.1]
    off = [0.1, 0.3, 0.25, 0.0, 0.2, 0.15, 0.4]
    got = jacobi._jacobi_eigenvalues(diag, off)
    assert np.max(np.abs(np.array(got) - _eigvalsh(diag, off))) <= 1e-15
    # the fake matrices of the escaped and repeated eigenvalue tests
    assert jacobi._jacobi_eigenvalues([0.0, 1.5], [0.0]) == [0.0, 1.5]
    assert jacobi._jacobi_eigenvalues([0.25, 0.25], [0.0]) == [0.25, 0.25]


def _stepwise_eval(m, alpha, beta, t):
    """jacobi_eval as it was before the factors were cached: every factor formed at its step."""
    pm2 = 1.0 + 0.0 * t
    if m == 0:
        return pm2
    pm1 = (alpha + 1) + (alpha + beta + 2) * (t - 1) / 2
    for j in range(2, m + 1):
        c0 = 2 * j * (j + alpha + beta) * (2 * j + alpha + beta - 2)
        c1 = (2 * j + alpha + beta - 1) * (alpha * alpha - beta * beta)
        c2 = (2 * j + alpha + beta - 1) * (2 * j + alpha + beta) * (2 * j + alpha + beta - 2)
        c3 = 2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + alpha + beta)
        pm1, pm2 = ((c2 * t + c1) * pm1 - c3 * pm2) / c0, pm1
    return pm1


@pytest.mark.parametrize("alpha,beta", [(3, 0), (8, 1), (2.5, 0.5), (-0.5, 1.5)])
def test_eval_does_not_depend_on_the_cached_factors(alpha, beta):
    # one list of factors is cached per (alpha, beta), extended on a miss and
    # read by its prefix: cold, after a longer or a shorter degree and after
    # clearing the cache, every value keeps the bits of the stepwise formula,
    # scalar and array; 1025 and 1026 sit on either side of the cached length
    ts = np.linspace(-1.0, 1.0, 9)

    def check(m):
        want = _stepwise_eval(m, alpha, beta, ts)
        assert jacobi_eval(m, alpha, beta, ts).tobytes() == want.tobytes(), m
        assert [repr(jacobi_eval(m, alpha, beta, float(t))) for t in ts] == [
            repr(_stepwise_eval(m, alpha, beta, float(t))) for t in ts
        ], m

    for m in (1, 2, 30, 200, 1025, 1026):
        jacobi._factor_table.cache_clear()
        check(m)
    for m in (30, 2, 1025, 30, 1026, 200, 1, 200, 2, 1026):
        check(m)
    # every cached factor is a float; for integer parameters it equals the
    # exact integer of the step formula, so 3 and 3.0 give equal lists
    factors = jacobi._recurrence_factors(30, alpha, beta)
    assert all(type(c) is float for step in factors for c in step)
    if isinstance(alpha, int):
        assert factors == [
            (
                2 * j * (j + alpha + beta) * (2 * j + alpha + beta - 2),
                (2 * j + alpha + beta - 1) * (alpha * alpha - beta * beta),
                (2 * j + alpha + beta - 1) * (2 * j + alpha + beta) * (2 * j + alpha + beta - 2),
                2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + alpha + beta),
            )
            for j in range(2, 31)
        ]
        assert factors == jacobi._recurrence_factors(30, float(alpha), beta)


@pytest.mark.parametrize("alpha,beta", [(3, 0), (8, 1), (2.5, 0.5), (-0.5, 1.5)])
def test_pair_gives_the_previous_degree_bit_for_bit(alpha, beta):
    # the pair's second value is P_{m-1} as jacobi_eval gives it, scalar and
    # array, Python-int endpoints included; at m = 0 the pair is (1, 0)
    ts = np.linspace(-1.0, 1.0, 9)
    assert jacobi._jacobi_pair(0, alpha, beta, 0.5) == (1.0, 0.0)
    for m in [*range(1, 41), 400]:
        p, q = jacobi._jacobi_pair(m, alpha, beta, ts)
        assert p.tobytes() == jacobi_eval(m, alpha, beta, ts).tobytes(), m
        assert q.tobytes() == jacobi_eval(m - 1, alpha, beta, ts).tobytes(), m
        for t in [*ts.tolist(), -1, 1]:
            assert repr(jacobi._jacobi_pair(m, alpha, beta, t)[1]) == repr(jacobi_eval(m - 1, alpha, beta, t)), (m, t)


def test_factor_cache_holds_only_the_steps_asked_for():
    # a miss computes exactly the steps the list lacks, and a degree past
    # the cached length computes its factors without keeping them
    jacobi._factor_table.cache_clear()
    jacobi_eval(3, 4, 0, 0.5)
    assert len(jacobi._factor_table(4, 0)) == 2
    jacobi_eval(40, 4, 0, 0.5)
    jacobi_eval(10, 4, 0, 0.5)
    assert len(jacobi._factor_table(4, 0)) == 39
    jacobi_eval(1025, 4, 0, 0.5)
    assert len(jacobi._factor_table(4, 0)) == 1024
    jacobi._factor_table.cache_clear()
    jacobi_eval(5000, 5, 0, 0.5)
    jacobi_derivative_eval(5000, 5, 0, 0.5)
    assert jacobi._factor_table.cache_info().currsize == 0
