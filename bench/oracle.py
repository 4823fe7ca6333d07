"""Exact reference values for the benchmark, computed without the alpquad package.

Everything here is Python ``int`` and ``Fraction`` arithmetic on the explicit
binomial sums, so the benchmark's correctness checks never rely on the
package's own coefficients:

    P_nk(x)        = sum_{j=0}^{n-k} (-1)^j C(n-k, j) C(n+k+1+j, n-k) x^{k+j}
    aux P_nk(x)    = x^n P^{(2n,0)}_{k-n}(1-2x)
                   = sum_{j=0}^{k-n} (-1)^j C(k-n, j) C(k+n+j, k-n) x^{n+j}   (k >= n)

Coefficient tuples are indexed by power, lowest first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def coefficients(n: int, k: int) -> tuple[int, ...]:
    """Integer coefficients of P_nk, powers 0..n."""
    out = [0] * (n + 1)
    for j in range(n - k + 1):
        out[k + j] = (-1) ** j * comb(n - k, j) * comb(n + k + 1 + j, n - k)
    return tuple(out)


@lru_cache(maxsize=None)
def aux_coefficients(n: int, k: int) -> tuple[int, ...]:
    """Integer coefficients of the auxiliary member (k >= n), powers 0..k."""
    m = k - n
    out = [0] * (k + 1)
    for j in range(m + 1):
        out[n + j] = (-1) ** j * comb(m, j) * comb(k + n + j, m)
    return tuple(out)


@lru_cache(maxsize=None)
def derivative(n: int, k: int) -> tuple[int, ...]:
    """Integer coefficients of P'_nk, powers 0..n-1."""
    return tuple(j * c for j, c in enumerate(coefficients(n, k)))[1:]


def value(coeffs: tuple[int, ...], x: float) -> Fraction:
    """Exact value of the integer polynomial at the float x (x taken exactly)."""
    p, q = Fraction(x).as_integer_ratio()
    # homogeneous Horner: sum_j c_j p^j q^(d-j), then one division by q^d
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return Fraction(acc, qpow // q) if coeffs else Fraction(0)


def inner_product(a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
    """Exact integral over [0, 1] of the product of two integer polynomials."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return sum((Fraction(c, l + 1) for l, c in enumerate(prod) if c), Fraction(0))


def integral(coeffs) -> Fraction:
    """Exact integral over [0, 1] of sum coeffs[l] x^l (ints or Fractions)."""
    return sum((Fraction(c) / (l + 1) for l, c in enumerate(coeffs) if c), Fraction(0))


@lru_cache(maxsize=None)
def rule_defect(n: int, k: int) -> Fraction:
    """Exact error Q(x^{2k-2}) - 1/(2k-1) of the (n, k) rule, just below its window.

    The (n, k) rule is the Gauss rule for the weight x^{2k-1} whose nodes are
    the roots of q = P_{n,k-1} / x^{k-1}. For f = 1/x the Gauss error is
    (1/q(0)) * integral of x^{2k-1} q(x) / x, hence
    Q(x^{2k-2}) - 1/(2k-1) = -(integral of x^{k-1} P_{n,k-1}) / q(0).
    It is never zero, and at k = n it equals -1/(4 n^2 (2n-1)).
    """
    c = coefficients(n, k - 1)
    moment = sum((Fraction(a, j + k) for j, a in enumerate(c) if a), Fraction(0))
    return -moment / c[k - 1]
