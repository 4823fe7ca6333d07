"""The alternative Legendre polynomial family on [0, 1] and its identities.

For fixed n the family P_nk, k = n..0, is orthogonal on [0, 1] with unit
weight, normalized by integral norms 1/(2k+1) and the sign of the x^n
coefficient; P_nk behaves like x^k near 0. Construction is exact (integer
coefficients via big-integer binomials; float conversion happens once, at
evaluation time). Five independent construction routes are provided and
must agree coefficient-for-coefficient; the verification suite in
``alpquad.verify`` certifies them.

Three constants quoted in standard references for this family fail exact
identity checks (the mu factor of the lowering differentiation formula,
the third hypergeometric parameter, and the Jacobi superscript pair).
Routines here default to the corrected values, which the suite re-derives;
the published ones remain available under ``variant="published"`` so the
discrepancy itself stays reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .exactpoly import Polynomial
from .horner import comp_horner
from .jacobi import (
    jacobi_derivative_eval,
    jacobi_eval,
    jacobi_shifted_coefficients,
    pochhammer,
)

__all__ = [
    "CORRECTED",
    "PUBLISHED",
    "RecurrenceCoefficients",
    "AlpFamily",
    "family",
    "alp_coefficients",
    "alp_coefficients_rodrigues",
    "alp_coefficients_hypergeometric",
    "alp_coefficients_jacobi",
    "reciprocity_transform",
    "recurrence_coefficients",
    "alp_eval",
    "alp_eval_exact",
    "alp_eval_recurrence",
    "alp_derivative_eval",
    "ode_residual",
    "aux_coefficients",
    "aux_eval",
]

CORRECTED = "corrected"
PUBLISHED = "published"

_MAX_EXACT_FLOAT = float(2**53)  # integers above this round on conversion


def _check_index(n: int, k: int) -> None:
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"family index requires 0 <= k <= n, got n={n}, k={k}")


def _check_variant(variant: str) -> None:
    if variant not in (CORRECTED, PUBLISHED):
        raise ValueError(f"variant must be {CORRECTED!r} or {PUBLISHED!r}, got {variant!r}")


def _check_finite(x) -> None:
    if isinstance(x, np.ndarray):
        if not np.isfinite(x).all():
            raise ValueError("evaluation points must all be finite")
    elif isinstance(x, (int, float)) and not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")


@lru_cache(maxsize=None)
def alp_coefficients(n: int, k: int) -> Polynomial:
    """Exact coefficients of P_nk from the explicit binomial sum.

    P_nk(x) = sum_{j=0}^{n-k} (-1)^j C(n-k, j) C(n+k+1+j, n-k) x^{k+j}.
    All coefficients are integers; the lowest power is exactly k and the
    degree exactly n.
    """
    _check_index(n, k)
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n - k + 1):
        coeffs[k + j] = Fraction((-1) ** j * comb(n - k, j) * comb(n + k + 1 + j, n - k))
    return Polynomial(coeffs)


def alp_coefficients_rodrigues(n: int, k: int) -> Polynomial:
    """P_nk by symbolic differentiation of the Rodrigues-type product.

    Expands x^{n+k+1} (1-x)^{n-k} exactly, differentiates n-k times,
    divides by (n-k)! and by x^{k+1}. Must equal alp_coefficients(n, k).
    """
    _check_index(n, k)
    m = n - k
    # x^{n+k+1} (1-x)^m has coefficient (-1)^i C(m, i) at power n+k+1+i
    prod = Polynomial(
        [Fraction(0)] * (n + k + 1) + [Fraction((-1) ** i * comb(m, i)) for i in range(m + 1)]
    )
    for _ in range(m):
        prod = prod.derivative()
    return (prod * Fraction(1, math.factorial(m))).shifted(-(k + 1))


def alp_coefficients_hypergeometric(n: int, k: int, variant: str = CORRECTED) -> Polynomial:
    """P_nk as prefactor * x^k * 2F1(k-n, k+n+2; c; x), expanded exactly.

    The corrected parameters are prefactor C(n+k+1, n-k) with c = 2k+2;
    the published pair C(n+k, n-k), c = 2k+1 fails the coefficient match
    for every k < n and is kept only for the misprint report.
    """
    _check_index(n, k)
    _check_variant(variant)
    m = n - k
    if variant == CORRECTED:
        prefactor, c = Fraction(comb(n + k + 1, m)), 2 * k + 2
    else:
        prefactor, c = Fraction(comb(n + k, m)), 2 * k + 1
    series = [
        pochhammer(-m, j) * pochhammer(k + n + 2, j) / (pochhammer(c, j) * math.factorial(j))
        for j in range(m + 1)
    ]
    return (prefactor * Polynomial(series)).shifted(k)


def alp_coefficients_jacobi(n: int, k: int, variant: str = CORRECTED) -> Polynomial:
    """P_nk as x^k * P^{(A,B)}_{n-k}(1-2x), expanded exactly.

    Corrected superscripts (A, B) = (2k+1, 0); the published (2k, 1) fails
    orthogonality (hence the coefficient match) for every k < n.
    """
    _check_index(n, k)
    _check_variant(variant)
    A, B = (2 * k + 1, 0) if variant == CORRECTED else (2 * k, 1)
    return jacobi_shifted_coefficients(n - k, A, B).shifted(k)


def reciprocity_transform(n: int, k: int) -> Polynomial:
    """P_nk recovered from the reciprocity relation.

    Evaluates x^{-1} P_{-(n+1),-(k+1)}(x^{-1}) through the formal Jacobi
    series with negative integer parameter: with
    q = jacobi_shifted_coefficients(n-k, -2n-2) the right-hand side equals
    x^n q(1/x), a genuine polynomial of degree <= n. Must equal
    alp_coefficients(n, k).
    """
    _check_index(n, k)
    q = jacobi_shifted_coefficients(n - k, -2 * n - 2)
    # x^n * q(1/x): coefficient of u^j in q lands on x^{n-j}
    out = [Fraction(0)] * (n + 1)
    for j, c in enumerate(q.coeffs):
        out[n - j] = c
    return Polynomial(out)


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Integer factors of the three-term recurrence and both differentiation
    formulas for one (n, k).

    ``mu`` carries the exactly verified value (n+1)^2 + k^2 + 2k. The
    published constant (n+1)^2 + k^2 breaks the lowering formula for every
    k >= 1 and is retained as ``mu_published`` so the verification suite
    can demonstrate the failure.
    """

    n: int
    k: int
    a: int
    b: int
    c: int
    d: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    kappa: int
    lam: int
    mu: int
    nu: int
    mu_published: int


def recurrence_coefficients(n: int, k: int) -> RecurrenceCoefficients:
    """All recurrence/differentiation factors for P_nk; see the dataclass."""
    _check_index(n, k)
    return RecurrenceCoefficients(
        n=n,
        k=k,
        a=(k + 1) * (n - k + 1) * (n + k + 1),
        b=k * (2 * k + 1) * (2 * k + 2),
        c=(2 * k + 1) * ((n + 1) ** 2 + k * k + k),
        d=k * (n - k) * (n + k + 2),
        alpha=2 * (k + 1),
        beta=2 * k * (k + 1),
        gamma=n * n + k * k + 2 * n,
        delta=(n - k) * (n + k + 2),
        kappa=2 * k,
        lam=2 * k * (k + 1),
        mu=(n + 1) ** 2 + k * k + 2 * k,
        nu=(n - k + 1) * (n + k + 1),
        mu_published=(n + 1) ** 2 + k * k,
    )


class AlpFamily:
    """All members of the order-n family, exact and float forms, built once.

    Immutable after construction, so instances are safe to share across
    threads. Evaluation uses compensated Horner on the converted
    coefficients while those are exactly representable in double
    (max |coeff| <= 2^53, true up to n ~ 27); beyond that it switches to
    the numerically stable Jacobi-recurrence form x^k P^{(2k+1,0)}(1-2x),
    since rounded monomial coefficients lose all significance there.
    """

    __slots__ = ("n", "_polys", "_fcoeffs", "_float_exact")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"family order must be nonnegative, got {n}")
        self.n = n
        self._polys = tuple(alp_coefficients(n, k) for k in range(n + 1))
        self._fcoeffs = tuple(p.float_coeffs() for p in self._polys)
        self._float_exact = tuple(
            all(abs(c) <= _MAX_EXACT_FLOAT for c in p.coeffs) for p in self._polys
        )

    def polynomial(self, k: int) -> Polynomial:
        _check_index(self.n, k)
        return self._polys[k]

    def float_coefficients(self, k: int) -> tuple[float, ...]:
        _check_index(self.n, k)
        return self._fcoeffs[k]

    def eval(self, k: int, x):
        """P_nk(x) for scalar or ndarray x."""
        _check_index(self.n, k)
        if self._float_exact[k]:
            return comp_horner(self._fcoeffs[k], x)
        return x**k * jacobi_eval(self.n - k, 2 * k + 1, 0, 1.0 - 2.0 * x)

    def weight_denominator(self, kmin: int, x):
        """sum_{l=kmin}^{n} (2l+1) P_nl(x)^2, the reciprocal of a quadrature weight."""
        _check_index(self.n, kmin)
        total = 0.0 * x if hasattr(x, "shape") else 0.0
        for l in range(kmin, self.n + 1):
            v = self.eval(l, x)
            total = total + (2 * l + 1) * v * v
        return total


@lru_cache(maxsize=None)
def family(n: int) -> AlpFamily:
    """Cached family constructor; cache reads are safe across threads."""
    return AlpFamily(n)


def alp_eval(n: int, k: int, x):
    """P_nk(x) in floating point (scalar or ndarray x).

    Agrees with exact rational evaluation to better than 1e-12 relative
    over [0, 1] for n <= 10 (see the acceptance suite); accuracy decays
    gracefully for larger n.
    """
    _check_index(n, k)
    _check_finite(x)
    return family(n).eval(k, x)


def alp_eval_exact(n: int, k: int, x) -> Fraction:
    """P_nk(x) in exact rational arithmetic; x is coerced to Fraction."""
    _check_index(n, k)
    return alp_coefficients(n, k)(Fraction(x))


def alp_eval_recurrence(n: int, x: float) -> list[float]:
    """Values [P_nn(x), ..., P_n0(x)] by the downward three-term recurrence.

    Independent of the Horner path; useful as a consistency check. The
    recurrence carries a b/x term, so x = 0 is answered with the exact
    limit values taken from the stored coefficients. The running pair is
    kept as mantissas times a common power of two, so starting from
    P_nn = x^n does not underflow for small x.
    """
    if n < 0:
        raise ValueError(f"family order must be nonnegative, got {n}")
    _check_finite(x)
    if x == 0.0:
        return [float(alp_coefficients(n, k).coeff(0)) for k in range(n, -1, -1)]
    mant, exp = math.frexp(x)
    cur, above, scale = mant**n, 0.0, n * exp  # P_nk = cur * 2^scale
    out = [math.ldexp(cur, scale)]
    for k in range(n, 0, -1):
        r = recurrence_coefficients(n, k)
        # the k = n step multiplies above by d_nn = 0
        cur, above = ((r.b / x - r.c) * cur - r.d * above) / r.a, cur
        cur, exp = math.frexp(cur)
        above = math.ldexp(above, -exp)
        scale += exp
        out.append(math.ldexp(cur, scale))
    return out


def alp_derivative_eval(n: int, k: int, x: float) -> float:
    """P'_nk(x) from the Jacobi form P_nk = x^k J(1-2x), J = P^{(2k+1,0)}_{n-k}.

    P'_nk = x^(k-1) (k J(t) - 2x J'(t)) with t = 1-2x, both factors by the
    Jacobi recurrence; nothing divides by x or 1-x, so both endpoints are
    ordinary points.
    """
    _check_index(n, k)
    _check_finite(x)
    t = 1.0 - 2.0 * x
    dj = jacobi_derivative_eval(n - k, 2 * k + 1, 0, t)
    if k == 0:
        return -2.0 * dj
    return x ** (k - 1) * (k * jacobi_eval(n - k, 2 * k + 1, 0, t) - 2.0 * x * dj)


def ode_residual(n: int, k: int) -> Polynomial:
    """Exact residual of the second-order ODE satisfied by zeta = x P_nk.

    Returns x^2 (1-x) zeta'' - x^2 zeta' + ((n+1)^2 x - k(k+1)) zeta as an
    exact polynomial; identically zero for every valid (n, k).
    """
    _check_index(n, k)
    zeta = alp_coefficients(n, k).shifted(1)
    z1 = zeta.derivative()
    z2 = z1.derivative()
    return (
        z2.shifted(2)
        - z2.shifted(3)
        - z1.shifted(2)
        + (n + 1) ** 2 * zeta.shifted(1)
        - k * (k + 1) * zeta
    )


def _check_aux_index(n: int, k: int) -> None:
    if n < 0 or k < n:
        raise ValueError(f"auxiliary index requires k >= n >= 0, got n={n}, k={k}")


def aux_coefficients(n: int, k: int) -> Polynomial:
    """Exact coefficients of the auxiliary member P_nk = x^n P^{(2n,0)}_{k-n}(1-2x)."""
    _check_aux_index(n, k)
    return jacobi_shifted_coefficients(k - n, 2 * n).shifted(n)


def aux_eval(n: int, k: int, x):
    """Auxiliary P_nk(x) with the Jacobi factor evaluated by recurrence.

    For n = 0 these are the Legendre polynomials shifted to [0, 1].
    """
    _check_aux_index(n, k)
    _check_finite(x)
    return x**n * jacobi_eval(k - n, 2 * n, 0, 1.0 - 2.0 * x)
