"""Jacobi polynomial helpers: exact shifted expansions and stable evaluation.

Two views of the same objects are needed. Exact identity checks work with
the full coefficient expansion of P_m^{(alpha,beta)}(1-2u) as a polynomial
in u over rationals; numerical code evaluates P_m^{(alpha,beta)}(t) through
the standard three-term recurrence, which stays accurate at degrees where
monomial coefficients are hopeless in double precision.

The exact expansion is a terminating 2F1 series, and so is the
hypergeometric route of ``alpquad.family``: both expand through the one
term-ratio kernel ``_hypergeometric_terms``, which carries each term as an
integer numerator and denominator and emits an ``int`` wherever the term
is integral.

Integer alpha may be negative here: the formal series extension with
generalized binomial prefactor is what the reciprocity construction needs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import factorial, prod

from .exactpoly import Polynomial, Scalar, _quotient

__all__ = [
    "pochhammer",
    "binomial_general",
    "jacobi_shifted_coefficients",
    "jacobi_eval",
    "jacobi_derivative_eval",
]


def pochhammer(a: int, m: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+m-1); empty product for m = 0."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return Fraction(prod(range(a, a + m)))


def binomial_general(z: int, m: int) -> Fraction:
    """Binomial coefficient by the product formula, valid for negative z.

    C(z, m) = z (z-1) ... (z-m+1) / m!, which agrees with math.comb for
    z >= m >= 0, is 0 for 0 <= z < m (a factor vanishes) and extends to
    the negative integer arguments the formal reciprocity path produces.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return Fraction(prod(range(z, z - m, -1)), factorial(m))


def jacobi_shifted_coefficients(m: int, alpha: int, beta: int = 0) -> Polynomial:
    """Exact coefficients of P_m^{(alpha,beta)}(1-2u) as a polynomial in u.

    Uses the terminating hypergeometric series

        C(m+alpha, m) * sum_j [(-m)_j (m+alpha+beta+1)_j] / [(alpha+1)_j j!] u^j,

    with the generalized binomial prefactor so that negative integer alpha
    is admitted whenever no denominator factor (alpha+1)_j vanishes for
    j <= m.

    Raises ValueError if a Pochhammer denominator vanishes inside the
    series range.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    if 0 < -alpha <= m:
        # (alpha+1)_j hits zero once alpha + j = 0, i.e. j = -alpha <= m
        raise ValueError(
            f"series denominator (alpha+1)_j vanishes for alpha={alpha}, m={m}"
        )
    prefactor = binomial_general(m + alpha, m)
    return Polynomial(_hypergeometric_terms(prefactor, -m, m + alpha + beta + 1, alpha + 1, m))


def _hypergeometric_terms(prefactor: Scalar, a: int, b, c: int, m: int) -> list[Scalar]:
    """The terms prefactor (a)_j (b)_j / ((c)_j j!), j = 0..m, of a terminating 2F1.

    The term is carried as an integer numerator and denominator, each step
    multiplying in the ratio (a+j)(b+j) / ((c+j)(j+1)) of consecutive terms;
    a rational b puts its denominator into den. The caller keeps c+j nonzero
    for j < m.
    """
    num, den = prefactor.numerator, prefactor.denominator
    terms = [_quotient(num, den)]
    for j in range(m):
        up = (a + j) * (b + j)  # a Fraction only for a rational b
        num *= up.numerator
        den *= (c + j) * (j + 1) * up.denominator
        terms.append(_quotient(num, den))
    return terms


def _finite_points(x):
    """x as evaluation points: Python numbers as given, numpy input in at
    least double precision. Raises ValueError on a non-finite point.

    numpy is looked up, never imported: until something has imported it, x
    cannot be a numpy object, so the scalar paths run without it.
    """
    if isinstance(x, (int, float)):
        if not math.isfinite(x):
            raise ValueError(f"evaluation point must be finite, got {x}")
        return x
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, (np.ndarray, np.generic)):
        # float16/float32 points would run the Dekker split (which assumes
        # double) and every recurrence in that precision
        x = x.astype(np.promote_types(x.dtype, np.float64), copy=False)
        if not np.isfinite(x).all():
            raise ValueError("evaluation points must all be finite")
    return x


def jacobi_eval(m: int, alpha: float, beta: float, t):
    """P_m^{(alpha,beta)}(t) by the standard three-term recurrence.

    Accepts scalar or ndarray t; numpy input narrower than double is
    evaluated in double, and a non-finite t raises ValueError. Forward
    recurrence on the dominant solution; relative error stays near machine
    precision for the integer parameter ranges the quadrature tests
    certify (alpha up to 799, m up to 400).
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    t = _finite_points(t)
    pm2 = 1.0 + 0.0 * t  # broadcast against array inputs
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


def jacobi_derivative_eval(m: int, alpha: float, beta: float, t):
    """d/dt P_m^{(alpha,beta)}(t) via the parameter-shifted identity."""
    if m == 0:
        return 0.0 * t
    return 0.5 * (m + alpha + beta + 1) * jacobi_eval(m - 1, alpha + 1, beta + 1, t)
