"""The alternative Legendre polynomial family on [0, 1] and its identities.

For fixed n the family P_nk, k = n..0, is orthogonal on [0, 1] with unit
weight, normalized by integral norms 1/(2k+1) and the sign of the x^n
coefficient; P_nk behaves like x^k near 0. Construction is exact (integer
coefficients via big-integer binomials; float conversion happens once, at
evaluation time). Five construction routes are provided and must agree
coefficient-for-coefficient, which the verification suite in
``alpquad.verify`` checks. They run two kernels: the binomial sum, which the
Rodrigues route computes again (perm(p, m)/m! = C(p, m)), and the 2F1 term
kernel ``jacobi._hypergeometric_terms``, which the hypergeometric, Jacobi
and reciprocity routes share at their own parameter sets. What ties P_nk to
the orthogonalization independently of the routes is the suite's
orthogonality, norm and sign reports. The relations among the members (the
ODE, the three-term recurrence and both differentiation formulas) are data,
one record each in ``_RELATIONS``, which ``ode_residual`` and the suite read.

Three constants quoted in standard references for this family fail exact
identity checks (the mu factor of the lowering differentiation formula,
the third hypergeometric parameter, and the Jacobi superscript pair). The
last two give one wrong polynomial: the published Jacobi pair (2k, 1),
written as a 2F1, is the published triple C(n+k, n-k), c = 2k+1.
Routines here default to the corrected values; the suite re-derives the
lowering formula's (lam, mu, nu) (``verify.fit_lowering_coefficients``)
and checks the others by the coefficient match. The published ones remain
available under ``variant="published"`` so the discrepancy itself stays
reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

from .exactpoly import Polynomial, _check_aux_index, _check_count, _check_index, _combine, _exact, _quotient
from .horner import comp_horner, comp_power
from .jacobi import (
    _alp_kernel,
    _finite_points,
    _hypergeometric_terms,
    _jacobi_derivative,
    _jacobi_pair,
    _ldexp,
    jacobi_shifted_coefficients,
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


def _check_variant(variant: str) -> None:
    if variant not in (CORRECTED, PUBLISHED):
        raise ValueError(f"variant must be {CORRECTED!r} or {PUBLISHED!r}, got {variant!r}")


_COEFFICIENT_CACHE_SIZE = 1024  # verify --max-n 30 reads 496 members


# typed: an untyped key would let (5.0, 2) hit the entry of (5, 2) and skip the guard's TypeError
@lru_cache(maxsize=_COEFFICIENT_CACHE_SIZE, typed=True)
def alp_coefficients(n: int, k: int) -> Polynomial:
    """Exact coefficients of P_nk from the explicit binomial sum.

    P_nk(x) = sum_{j=0}^{n-k} (-1)^j C(n-k, j) C(n+k+1+j, n-k) x^{k+j}.
    All coefficients are integers; the lowest power is exactly k and the
    degree exactly n.
    """
    n, k = _check_index(n, k)
    coeffs = [0] * (n + 1)
    for j in range(n - k + 1):
        coeffs[k + j] = (-1) ** j * comb(n - k, j) * comb(n + k + 1 + j, n - k)
    return Polynomial(coeffs)


def alp_coefficients_rodrigues(n: int, k: int) -> Polynomial:
    """P_nk by symbolic differentiation of the Rodrigues-type product.

    Expands x^{n+k+1} (1-x)^{n-k} exactly, differentiates n-k times and
    divides by (n-k)! and by x^{k+1}, so the i-th term of the expansion lands
    on x^{k+i}; the polynomial is built once, at its final power. Must equal
    alp_coefficients(n, k).
    """
    n, k = _check_index(n, k)
    m = n - k
    # x^{n+k+1} (1-x)^m has coefficient (-1)^i C(m, i) at power p = n+k+1+i, and
    # the m-th derivative takes x^p to perm(p, m) x^{p-m}, all in one pass
    fm = math.factorial(m)
    return Polynomial([0] * k + [_quotient((-1) ** i * comb(m, i) * perm(n + k + 1 + i, m), fm) for i in range(m + 1)])


def alp_coefficients_hypergeometric(n: int, k: int, variant: str = CORRECTED) -> Polynomial:
    """P_nk as prefactor * x^k * 2F1(k-n, k+n+2; c; x), expanded exactly.

    The corrected parameters are prefactor C(n+k+1, n-k) with c = 2k+2;
    the published pair C(n+k, n-k), c = 2k+1 fails the coefficient match
    for every k < n and is kept only for the misprint report. Each variant
    is the Jacobi form of ``alp_coefficients_jacobi`` with the same
    variant, written as a 2F1 (prefactor C(m+A, m), c = A+1), so the two
    give one polynomial, the published one included.
    """
    n, k = _check_index(n, k)
    _check_variant(variant)
    m = n - k
    if variant == CORRECTED:
        prefactor, c = comb(n + k + 1, m), 2 * k + 2
    else:
        prefactor, c = comb(n + k, m), 2 * k + 1
    # prefactor (-m)_j (k+n+2)_j / ((c)_j j!), by the term-ratio kernel of the Jacobi series
    return Polynomial([0] * k + _hypergeometric_terms(prefactor, k + n + 2, c, m))


def alp_coefficients_jacobi(n: int, k: int, variant: str = CORRECTED) -> Polynomial:
    """P_nk as x^k * P^{(A,B)}_{n-k}(1-2x), expanded exactly.

    Corrected superscripts (A, B) = (2k+1, 0); the published (2k, 1) fails
    orthogonality (hence the coefficient match) for every k < n.
    """
    n, k = _check_index(n, k)
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
    n, k = _check_index(n, k)
    q = jacobi_shifted_coefficients(n - k, -2 * n - 2)
    # x^n * q(1/x): coefficient of u^j in q lands on x^{n-j}
    return Polynomial([0] * (n + 1 - len(q.coeffs)) + list(reversed(q.coeffs)))


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
    n, k = _check_index(n, k)
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


# The relational identities, one record each: name -> (expected outcome, note template,
# least k, factors, terms). Term i, a pair (s, m), stands for c_i x^s times member m of
# the pair, where (c_0, c_1, ...) = factors(r) for its RecurrenceCoefficients r and m is
# a position in ``_pair_members``; the residual, the sum of the terms, is identically
# zero iff the relation holds. The note template is formatted with r. An outcome is
# one of the three below.
_ALWAYS, _NEVER, _AT_N = "always", "never", "only at k = n"
_P, _DP, _D2P, _BELOW, _ABOVE = 0, 1, 2, 3, 4
_RELATIONS = {
    # x^3 (1-x) P'' + x^2 (2-3x) P' + (n(n+2) x^2 - k(k+1) x) P: the ODE of zeta = x P
    "ode": (_ALWAYS, "", 0, lambda r: (1, -1, 2, -3, r.n * (r.n + 2), -r.k * (r.k + 1)),
            ((3, _D2P), (4, _D2P), (2, _DP), (3, _DP), (2, _P), (1, _P))),
    # alpha x (1-x) P' - (beta - gamma x) P + delta x P_{n,k+1}
    "derivative_raising": (_ALWAYS, "", 0, lambda r: (r.alpha, -r.alpha, -r.beta, r.gamma, r.delta),
                           ((1, _DP), (2, _DP), (0, _P), (1, _P), (1, _ABOVE))),
    # a x P_{n,k-1} - (b - c x) P + d x P_{n,k+1}
    "recurrence": (_ALWAYS, "", 1, lambda r: (r.a, -r.b, r.c, r.d), ((1, _BELOW), (0, _P), (1, _P), (1, _ABOVE))),
    # kappa x (x-1) P' - (lam - mu x) P + nu x P_{n,k-1}
    "derivative_lowering": (_ALWAYS, "corrected mu={r.mu}", 1, lambda r: (r.kappa, -r.kappa, -r.lam, r.mu, r.nu),
                            ((2, _DP), (1, _DP), (0, _P), (1, _P), (1, _BELOW))),
    # the same with the published mu
    "derivative_lowering_published": (
        _NEVER, "published mu={r.mu_published}, corrected mu={r.mu}; failure expected", 1,
        lambda r: (r.kappa, -r.kappa, -r.lam, r.mu_published, r.nu),
        ((2, _DP), (1, _DP), (0, _P), (1, _P), (1, _BELOW))),
}


def _pair_members(n: int, k: int) -> tuple:
    """The members the relations read: P_nk, P'_nk, P''_nk, P_{n,k-1} and P_{n,k+1}.

    There is no P_{n,-1}: None stands in at k = 0, where no relation reads it.
    There is no P_{n,n+1} either: at k = n its factors d and delta vanish and
    the zero polynomial stands in.
    """
    p = alp_coefficients(n, k)
    dp = p.derivative()
    below = alp_coefficients(n, k - 1) if k else None
    above = alp_coefficients(n, k + 1) if k < n else Polynomial()
    return p, dp, dp.derivative(), below, above


def _relation_residual(factors, terms, r: RecurrenceCoefficients, members: tuple) -> Polynomial:
    """The sum of a record's terms at the pair of r, exact, in one ``_combine`` pass."""
    return _combine(*[(c, s, members[m]) for c, (s, m) in zip(factors(r), terms)])


def ode_residual(n: int, k: int) -> Polynomial:
    """Exact residual of the second-order ODE satisfied by zeta = x P_nk.

    Returns x^3 (1-x) P'' + x^2 (2-3x) P' + (n(n+2) x^2 - k(k+1) x) P, the
    polynomial x^2 (1-x) zeta'' - x^2 zeta' + ((n+1)^2 x - k(k+1)) zeta, as
    an exact polynomial; identically zero for every valid (n, k).
    """
    n, k = _check_index(n, k)
    return _relation_residual(*_RELATIONS["ode"][3:], recurrence_coefficients(n, k), _pair_members(n, k))


class AlpFamily:
    """The order-n family in float evaluation form, built lazily.

    Immutable after construction, so instances are safe to share across
    threads. P_nk = x^k D_nk(x) with D_nk of degree n-k, and each member is
    evaluated in that deflated form, so no step runs over the k zero
    low-order coefficients. D_nk is evaluated by compensated Horner on its
    converted coefficients while those are exactly representable in double
    (max |coeff| <= 2^53), and otherwise by the numerically stable Jacobi
    recurrence, D_nk(x) = P^{(2k+1,0)}_{n-k}(1-2x), since rounded monomial
    coefficients lose all significance there.

    Float-exactness is monotone in k, so the switch is one index: ``kstar``
    is the least k served by Horner. It is 0 up to n = 22 ((23, 0) is the
    first member to exceed 2^53), 17 at n = 30, 29 at n = 40 and 394 at
    n = 400. Construction walks down from k = n to the first member that
    is not float-exact and keeps only the deflated floats of the members
    k >= kstar; it builds them through the uncached body of
    ``alp_coefficients``, so evaluation leaves that cache as it is.
    ``polynomial`` and ``float_coefficients`` read ``alp_coefficients``.

    x^k comes from ``comp_power``, binary powering in doubled precision
    with IEEE products and sums alone, which round the same way for a
    Python float and a numpy element, so a scalar value equals the matching
    element of an array evaluation bit for bit. Plain binary powering would
    add up to about k ulps there: 1.7e-15 at (40, 40) just below x = 1.
    """

    __slots__ = ("n", "kstar", "_deflated")

    def __init__(self, n: int):
        self.n = n = _check_count(n, "family order")
        deflated = []
        for k in range(n, -1, -1):
            p = alp_coefficients.__wrapped__(n, k)
            if p.max_abs_coeff() > _MAX_EXACT_FLOAT:
                break
            deflated.append(p.float_coeffs()[k:])
        self.kstar = n + 1 - len(deflated)
        self._deflated = tuple(reversed(deflated))

    def polynomial(self, k: int) -> Polynomial:
        return alp_coefficients(self.n, k)

    def float_coefficients(self, k: int) -> tuple[float, ...]:
        return alp_coefficients(self.n, k).float_coeffs()

    def eval(self, k: int, x):
        """P_nk(x) for scalar or ndarray x, evaluated in double (see
        ``jacobi._finite_points``); a non-finite x raises ValueError."""
        n, k = _check_index(self.n, k)
        x = _finite_points(x)
        if k >= self.kstar:
            deflated = comp_horner(self._deflated[k - self.kstar], x)
        else:
            deflated = _jacobi_pair(n - k, 2 * k + 1, 0, 1.0 - 2.0 * x)[0]
        return comp_power(x, k) * deflated

    def weight_denominator(self, kmin: int, x):
        """sum_{l=kmin}^{n} (2l+1) P_nl(x)^2, the reciprocal of a quadrature weight.

        The sum is the reproducing kernel of the members kmin..n, computed
        by the Jacobi-kernel recurrence that ``quadrature.weights`` inverts
        (n-kmin steps; no member is evaluated), so 1 / weight_denominator
        is the rule's weight bit for bit, at any input: both run the kernel
        point by point on Python floats, x^{2k} from libm's pow. Any finite x
        is accepted, and a value beyond the double range comes back as inf;
        a non-finite x raises ValueError. A point that is not a numpy object
        gives a Python float. numpy input gives an ``np.float64`` for a
        scalar and a float64 array of its shape for an array; numpy is
        looked up in ``sys.modules``, never imported, as in
        ``jacobi._finite_points``.
        """
        n, kmin = _check_index(self.n, kmin)
        points = _finite_points(x)
        np = sys.modules.get("numpy")
        if np is None or not isinstance(x, (np.ndarray, np.generic)):
            return _ldexp(*_alp_kernel(n, kmin, [points])[0])
        dens = [_ldexp(v, e) for v, e in _alp_kernel(n, kmin, np.ravel(points).tolist())]
        return np.array(dens).reshape(np.shape(points))[()]


@lru_cache(maxsize=None)  # a family holds at most 23 float tuples (n = 22), about 5 KB
def family(n: int) -> AlpFamily:
    """Cached family constructor; cache reads are safe across threads."""
    return AlpFamily(n)


def alp_eval(n: int, k: int, x):
    """P_nk(x) in floating point (scalar or ndarray x).

    For n <= 40, members with float-exact coefficients (compensated Horner)
    measured within 5.0e-16 of the exact value relative to max(1, |P|) on
    [0, 1], densely near 1 too, and the others (Jacobi recurrence) within
    3e-14; see ``AlpFamily``. A scalar x gives exactly the value that x
    gives as an array element.
    """
    n, k = _check_index(n, k)
    return family(n).eval(k, x)


def alp_eval_exact(n: int, k: int, x) -> Fraction:
    """P_nk(x) as an exact Fraction.

    x goes through the exact layer's door (``exactpoly._exact``): an integer
    of any kind stays exact, a float of any width (numpy float16 to long
    double) gives its binary value, and a str is parsed by ``Fraction``. The
    member is evaluated in integers, with one Fraction built at the end
    (``Polynomial.__call__``).
    """
    return alp_coefficients(n, k)(_exact(x))


@lru_cache(maxsize=64)  # an order-600 table takes about 0.13 MB
def _recurrence_steps(n: int) -> tuple[tuple[float, float, float, float, int], ...]:
    """Factors of the normalised downward recurrence of order n, k = n..1.

    With s_k = Q_k(0) = C(n+k+1, n-k) and R_k = Q_k / s_k, the identities
    a s_{k-1} = b s_k and s_{k+1} / s_k = (n+k+2)(n-k) / ((2k+2)(2k+3)) turn
    a Q_{k-1} = (b - c x) Q_k - d x^2 Q_{k+1} into

        b B R_{k-1} = (b B - c B x) R_k - d (n+k+2)(n-k) x^2 R_{k+1},

    with B = (2k+2)(2k+3): integer factors, exact in double for n <= 890.
    Each step is (b B, c B, d (n+k+2)(n-k), s_mant, s_exp) with
    s_{k-1} = s_mant 2^s_exp and s_mant rounded once, so s_{k-1} never
    overflows a float.
    """
    steps = []
    s = 1  # s_n
    for k in range(n, 0, -1):
        r = recurrence_coefficients(n, k)
        scale = (2 * k + 2) * (2 * k + 3)
        s = s * r.b // r.a  # exact: s_{k-1} = b s_k / a
        e = s.bit_length()
        steps.append((float(r.b * scale), float(r.c * scale), float(r.d * (n + k + 2) * (n - k)), s / (1 << e), e))
    return tuple(steps)


def alp_eval_recurrence(n: int, x: float) -> list[float]:
    """Values [P_nn(x), ..., P_n0(x)] by the downward three-term recurrence.

    Independent of the Horner path; useful as a consistency check. The
    recurrence a x P_{n,k-1} = (b - c x) P_nk - d x P_{n,k+1} is run on the
    deflated values Q_k = P_nk / x^k = P^{(2k+1,0)}_{n-k}(1-2x), each
    normalised by its value at 0, R_k = Q_k / C(n+k+1, n-k):

        R_n = 1,   b B R_{k-1} = (b B - c B x) R_k - d (n+k+2)(n-k) x^2 R_{k+1},

    with B = (2k+2)(2k+3) (see ``_recurrence_steps``). Nothing divides by
    x, so x = 0 is an ordinary point, where every R_k is exactly 1 and
    P_n0(0) = n+1 exactly. On [0, 1] each |R_k| <= 1, but near x = 1 it
    falls to about 1/C(n+k+1, n-k), below the double range from n = 740;
    so R_k is carried as q 2^scale with q in [1/2, 1), renormalised by a
    power of two (exact) at every step. Each value is scaled back once as
    m^k C(n+k+1, n-k) q 2^(k e + scale), where x = m 2^e, so neither x^k
    nor C(n+k+1, n-k) is formed by itself, and for n below about 1020
    (past that m^k itself can underflow) a value underflows only when
    P_nk(x) does. The scale-back goes through ``jacobi._ldexp``, so a value
    beyond the double range is an inf of its sign, as ``alp_eval`` gives.
    Far out a step overflows before the values do, and they turn to NaN or
    to an inf of the wrong sign: from about |x| = 2.5e150 at n = 40.
    """
    n = _check_count(n, "family order")
    x = _finite_points(x)
    if getattr(x, "ndim", 0):
        raise TypeError(f"alp_eval_recurrence takes one point, got an array of shape {x.shape}")
    mant, exp = math.frexp(x)
    q, above, scale = 1.0, 0.0, 0  # R_k = q 2^scale, R_{k+1} = above 2^scale
    out = [_ldexp(mant**n, n * exp)]
    for k, (bb, cb, dd, s_mant, s_exp) in zip(range(n - 1, -1, -1), _recurrence_steps(n)):
        # the first step multiplies above by d_nn = 0
        q, above = ((bb - cb * x) * q - dd * x * x * above) / bb, q
        q, e = math.frexp(q)
        above = math.ldexp(above, -e)
        scale += e
        out.append(_ldexp(mant**k * s_mant * q, k * exp + s_exp + scale))
    return out


def alp_derivative_eval(n: int, k: int, x: float) -> float:
    """P'_nk(x) from the Jacobi form P_nk = x^k J(1-2x), J = P^{(2k+1,0)}_{n-k}.

    P'_nk = x^(k-1) (k J(t) - 2x J'(t)) with t = 1-2x, both factors by the
    Jacobi recurrence; nothing divides by x or 1-x, so both endpoints are
    ordinary points. x^(k-1) comes from ``comp_power``, as in ``AlpFamily``,
    so a scalar x gives exactly the value that x gives as an array element.
    """
    n, k = _check_index(n, k)
    x = _finite_points(x)
    t = 1.0 - 2.0 * x
    dj = _jacobi_derivative(n - k, 2 * k + 1, 0, t)
    if k == 0:
        return -2.0 * dj
    return comp_power(x, k - 1) * (k * _jacobi_pair(n - k, 2 * k + 1, 0, t)[0] - 2.0 * x * dj)


def aux_coefficients(n: int, k: int) -> Polynomial:
    """Exact coefficients of the auxiliary member P_nk = x^n P^{(2n,0)}_{k-n}(1-2x)."""
    n, k = _check_aux_index(n, k)
    return jacobi_shifted_coefficients(k - n, 2 * n).shifted(n)


def aux_eval(n: int, k: int, x):
    """Auxiliary P_nk(x) with the Jacobi factor evaluated by recurrence.

    x^n comes from ``comp_power``, as in ``AlpFamily``, so a scalar x gives
    exactly the value that x gives as an array element. For n = 0 these
    are the Legendre polynomials shifted to [0, 1].
    """
    n, k = _check_aux_index(n, k)
    x = _finite_points(x)
    return comp_power(x, n) * _jacobi_pair(k - n, 2 * n, 0, 1.0 - 2.0 * x)[0]
