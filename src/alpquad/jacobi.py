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

The float side also owns the Jacobi matrix of P^{(a,0)} and its
eigenvalues, which give the quadrature nodes, and the one routine that sums
the reproducing kernel sum_{l=k}^{n} (2l+1) P_nl(x)^2 of the family: the
denominator of every quadrature weight and of
``AlpFamily.weight_denominator``. Both run on Python floats, with no numpy
call: the eigenvalues by LAPACK's root-free QL iteration (dsterf) written
out, the kernel point by point. Over the rules with n <= 30 the kernel
loop is faster than numpy's calls on arrays of 1 to 30 points, and the
eigenvalues are slower than ``eigvalsh``; a process that builds a rule no
longer imports numpy, which costs more than either. The kernel rescales
its running sum by value: only a step that takes it past ``_KERNEL_BAND``
(2^64) scales the sum and the last two terms by powers of two, which the
returned exponent takes back. That is exact while the values stay normal,
so no finite value depends on where the rescales fall; no rule with
n <= 30 reaches the band, and far outside [0, 1] a sum beyond the double
range comes out inf, not inf - inf.

No module of the package imports numpy, and it is not a dependency. The
float evaluators take numpy input when the caller passes it: numpy is
looked up in ``sys.modules`` (``_finite_points``), so a process that never
imported numpy, or cannot, runs every scalar path.

The recurrence factors of each (alpha, beta) depend only on the step
index, so each is computed once, in a list cached per (alpha, beta) that
serves every degree by its prefix (``_recurrence_factors``). The factors
are stored as floats, equal to the exact step factors (integers below 2^53
for integer parameters), which is what every use converted them to
anyway. The cache holds at most 128 lists of at most 1024 steps, below
28 MB; the sweeps to n = 40 measure +0.1 to +0.4 MB of peak memory. Every
value stays bit for bit what the step-by-step formulas give, and no value
is cached. The one recurrence loop is ``_jacobi_pair``, which returns
P_m and P_{m-1} together.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import index

from .exactpoly import Polynomial, Scalar, _check_count, _exact, _integer, _quotient

__all__ = [
    "pochhammer",
    "binomial_general",
    "jacobi_shifted_coefficients",
    "jacobi_eval",
]


def pochhammer(a: int, m: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+m-1); empty product for m = 0."""
    a, m = index(a), _check_count(m, "m")
    return Fraction(prod(range(a, a + m)))


def binomial_general(z: int, m: int) -> Fraction:
    """Binomial coefficient by the product formula, valid for negative z.

    C(z, m) = z (z-1) ... (z-m+1) / m!, which agrees with math.comb for
    z >= m >= 0, is 0 for 0 <= z < m (a factor vanishes) and extends to
    the negative integer arguments the formal reciprocity path produces.
    """
    z, m = index(z), _check_count(m, "m")
    return Fraction(prod(range(z, z - m, -1)), factorial(m))


def jacobi_shifted_coefficients(m: int, alpha: int, beta: int = 0) -> Polynomial:
    """Exact coefficients of P_m^{(alpha,beta)}(1-2u) as a polynomial in u.

    Uses the terminating hypergeometric series

        C(m+alpha, m) * sum_j [(-m)_j (m+alpha+beta+1)_j] / [(alpha+1)_j j!] u^j,

    with the generalized binomial prefactor so that negative integer alpha
    is admitted whenever no denominator factor (alpha+1)_j vanishes for
    j <= m.

    m and alpha are taken as Python ints (a float raises TypeError) and
    beta through ``exactpoly._exact``, so a numpy integer never reaches the
    exact series and a rational beta keeps its exact value. Raises
    ValueError if a Pochhammer denominator vanishes inside the series range.
    """
    m, alpha, beta = _check_count(m, "degree"), index(alpha), _exact(beta)
    if 0 < -alpha <= m:
        # (alpha+1)_j hits zero once alpha + j = 0, i.e. j = -alpha <= m
        raise ValueError(f"series denominator (alpha+1)_j vanishes for alpha={alpha}, m={m}")
    prefactor = binomial_general(m + alpha, m)
    return Polynomial(_hypergeometric_terms(prefactor, m + alpha + beta + 1, alpha + 1, m))


def _hypergeometric_terms(prefactor: Scalar, b, c: int, m: int) -> list[Scalar]:
    """The terms prefactor (-m)_j (b)_j / ((c)_j j!), j = 0..m, of the 2F1(-m, b; c)
    that terminates at degree m.

    The term is carried as an integer numerator and denominator, each step
    multiplying in the ratio (j-m)(b+j) / ((c+j)(j+1)) of consecutive terms;
    a rational b puts its denominator into den. The caller keeps c+j nonzero
    for j < m.
    """
    num, den = prefactor.numerator, prefactor.denominator
    terms = [_quotient(num, den)]
    for j in range(m):
        up = (j - m) * (b + j)  # a Fraction only for a rational b
        num *= up.numerator
        den *= (c + j) * (j + 1) * up.denominator
        terms.append(_quotient(num, den))
    return terms


def _finite_points(x):
    """x as the float layer's points: a Python float, or float64 numpy input.

    Python ints and floats, the common case, are tested for first and become
    floats. numpy input is cast to float64 under numpy's "same_kind" rule,
    which narrows long double (the Dekker splits assume a 53-bit
    significand) and refuses complex and object dtypes with a TypeError
    naming the dtype. Any other real number, a Fraction say, becomes a
    float. Raises ValueError on a non-finite point, and TypeError on
    anything that is not a real number or a numpy array.

    numpy is looked up, never imported: until something has imported it, x
    cannot be a numpy object, so the scalar paths run without it.
    """
    if not isinstance(x, (int, float)):
        np = sys.modules.get("numpy")
        if np is not None and isinstance(x, (np.ndarray, np.generic)):
            x = x.astype(np.float64, casting="same_kind", copy=False)
            if not np.isfinite(x).all():
                raise ValueError("evaluation points must all be finite")
            return x
        if not isinstance(x, numbers.Real):
            raise TypeError(f"evaluation point must be a real number or a numpy array, got {type(x).__name__}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")
    return x


# The factors of a step depend only on (j, alpha, beta). One list per (alpha, beta), typed so
# that integer parameters keep their exactly computed factors, holds the steps j = 2, 3, ...
# of the longest degree asked for so far, up to _CACHED_STEPS; longer degrees compute theirs
# at each call.
# A step of (2001, 0) takes 0.21 KB (tracemalloc), so 128 lists of 1024 such steps stay
# below 28 MB, whatever degree is asked for.
_CACHED_STEPS = 1024
_EXTEND = threading.Lock()


@lru_cache(maxsize=128, typed=True)
def _factor_table(alpha, beta) -> list:
    """The cached recurrence factors of P^{(alpha,beta)}, which ``_recurrence_factors`` extends."""
    return []


def _step_factors(alpha, beta, first: int, last: int):
    """Yield the factors (c0, c1, c2, c3) of the recurrence steps j = first..last of P^{(alpha,beta)}.

    The step from P_{j-1}, P_{j-2} to P_j is P_j = ((c2 t + c1) P_{j-1} - c3 P_{j-2}) / c0.
    Integer parameters give integer factors, yielded as floats: exact below 2^53 (2j+alpha+beta
    up to about 2e5), they are the operands every use converted the integers to, so every
    result keeps its bits, and numpy takes a float scalar faster than an int.
    """
    for j in range(first, last + 1):
        c0 = 2 * j * (j + alpha + beta) * (2 * j + alpha + beta - 2)
        c1 = (2 * j + alpha + beta - 1) * (alpha * alpha - beta * beta)
        c2 = (2 * j + alpha + beta - 1) * (2 * j + alpha + beta) * (2 * j + alpha + beta - 2)
        c3 = 2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + alpha + beta)
        yield float(c0), float(c1), float(c2), float(c3)


def _recurrence_factors(m: int, alpha, beta):
    """The factors of the steps j = 2..m of P_m^{(alpha,beta)}, m >= 1.

    Up to _CACHED_STEPS steps they are the prefix of the cached list, which
    a miss extends by exactly the steps it lacks; longer runs are computed
    and not kept.
    """
    if m - 1 > _CACHED_STEPS:
        return _step_factors(alpha, beta, 2, m)
    table = _factor_table(alpha, beta)
    if len(table) < m - 1:
        with _EXTEND:  # entries are only appended, so a prefix once read never changes
            table.extend(_step_factors(alpha, beta, len(table) + 2, m))
    return table[: m - 1]


def _jacobi_pair(m: int, alpha, beta, t):
    """(P_m, P_{m-1}) of P^{(alpha,beta)} at finite points t, m >= 0; (1, 0) at m = 0.

    The one loop of the three-term recurrence, which gives P_{m-1} on the way
    to P_m.
    """
    pm2 = 1.0 + 0.0 * t  # broadcast against array inputs
    if m == 0:
        return pm2, 0.0 * t
    pm1 = (alpha + 1) + (alpha + beta + 2) * (t - 1) / 2
    for c0, c1, c2, c3 in _recurrence_factors(m, alpha, beta):
        pm1, pm2 = ((c2 * t + c1) * pm1 - c3 * pm2) / c0, pm1
    return pm1, pm2


def jacobi_eval(m: int, alpha: float, beta: float, t):
    """P_m^{(alpha,beta)}(t) by the standard three-term recurrence.

    Accepts scalar or ndarray t, evaluated in double (see
    ``_finite_points``); a non-finite t raises ValueError. Forward
    recurrence on the dominant solution; relative error stays near machine
    precision for the integer parameter ranges the quadrature tests
    certify (alpha up to 799, m up to 400). The step factors of each
    (alpha, beta) are computed once and cached for m <= 1025 as floats
    equal to the exact step factors: at most 128 lists, below 28 MB
    whatever m is asked for, and +0.1 to +0.4 MB of peak memory on the
    benchmark's sweeps to n = 40. The values are those of the
    step-by-step formula bit for bit.

    m goes through the exact layer's count guard (``exactpoly._check_count``),
    and alpha and beta through ``exactpoly._integer``: an integer of any kind
    becomes the Python int it equals, so no step factor wraps at 64 bits, as
    int64 arithmetic would from alpha near 2^21; a float stays as it is.
    """
    m, alpha, beta = _check_count(m, "degree"), _integer(alpha), _integer(beta)
    return _jacobi_pair(m, alpha, beta, _finite_points(t))[0]


def jacobi_derivative_eval(m: int, alpha: float, beta: float, t):
    """d/dt P_m^{(alpha,beta)}(t), with the checks of ``jacobi_eval``."""
    m, alpha, beta = _check_count(m, "degree"), _integer(alpha), _integer(beta)
    return _jacobi_derivative(m, alpha, beta, _finite_points(t))


def _jacobi_derivative(m: int, alpha, beta, t):
    """d/dt P_m^{(alpha,beta)} at finite points t via the parameter-shifted identity."""
    if m == 0:
        return 0.0 * t
    return 0.5 * (m + alpha + beta + 1) * _jacobi_pair(m - 1, alpha + 1, beta + 1, t)[0]


def _jacobi_matrix(m: int, a: int):
    """Diagonal and off-diagonal (lists of floats) of the m x m Jacobi matrix of P^{(a,0)}.

    The polynomials p_j orthonormal for (1-t)^a on [-1, 1] satisfy
    t p_j = off[j-1] p_{j-1} + diag[j] p_j + off[j] p_{j+1}. For a = 0
    (Legendre) the diagonal is 0, which the closed form leaves as 0/0 at
    j = 0. The closed forms run on Python floats, with no numpy call;
    below 2^53 every product is an exact integer, so only the one
    division and the one square root round.
    """
    s = [2.0 * j + a for j in range(m)]
    diag = [-a * a / (si * (si + 2.0)) if si > 0 else 0.0 for si in s]
    off = [
        math.sqrt(4.0 * (j * j) * ((j + a) * (j + a)) / (si * si * (si + 1.0) * (si - 1.0)))
        for j, si in zip(map(float, range(1, m)), s[1:])
    ]
    return diag, off


# LAPACK dsterf's constants: its eps is 2^-53, and it allows 30 QL sweeps a row in all
_EPS2 = 2.0**-106
_SWEEPS_PER_ROW = 30


def _jacobi_eigenvalues(diag, off):
    """Eigenvalues of the symmetric tridiagonal matrix (diag, off), ascending; None if they do not converge.

    This is LAPACK's dsterf, the root-free QL iteration with implicit shifts
    (Reinsch, CACM Algorithm 464, 1973) that ``numpy.linalg.eigvalsh`` runs
    on a tridiagonal matrix, on Python floats. It works on the squared
    off-diagonal e, takes its shift from the leading 2 x 2 block, deflates
    where e_i <= eps^2 |d_i d_{i+1}| and solves a remaining 2 x 2 block in
    closed form. A matrix whose last diagonal entry is the smaller in
    magnitude is run reversed, which is dsterf's QR branch; dsterf makes
    that choice per unreduced block, and a Jacobi matrix, with no zero
    off-diagonal, is one block. dsterf's scaling is left out, since a
    Jacobi matrix has its entries in [-1, 1]. Only +, -, *, / and
    math.sqrt are used, so the eigenvalues follow from IEEE arithmetic
    alone. After 30 sweeps per row in all it gives up and returns None.
    """
    d = list(diag)
    e = [b * b for b in off]
    if len(d) > 1 and abs(d[-1]) < abs(d[0]):
        d.reverse()
        e.reverse()
    e.append(0.0)  # the first write of a sweep that ends at the last row, which is 0
    size = len(d)
    # the iterates stay similar to the matrix, so no |d_i| passes twice its
    # Gershgorin bound g; an e_i above eps^2 (2g)^2 then fails the deflation
    # test, and comparing with that first skips the product
    g = max(map(abs, diag), default=0.0) + 2.0 * max(map(abs, off), default=0.0)
    cut = _EPS2 * 4.0 * g * g
    budget = _SWEEPS_PER_ROW * size
    l = 0
    while l < size:
        m = l
        while m < size - 1 and (e[m] > cut or e[m] > _EPS2 * abs(d[m] * d[m + 1])):
            m += 1
        if m == l:  # d[l] has converged
            l += 1
        elif m == l + 1:
            d[l], d[l + 1] = _eigenvalues_2x2(d[l], math.sqrt(e[l]), d[l + 1])
            l += 2
        elif budget == 0:
            return None
        else:  # one shifted QL sweep over d[l..m]
            budget -= 1
            p = d[l]
            root = math.sqrt(e[l])
            sigma = (d[l + 1] - p) / (2.0 * root)
            w = abs(sigma)  # r = sqrt(sigma^2 + 1) as LAPACK's dlapy2 forms it
            if w > 1.0:
                z = 1.0 / w
                r = w * math.sqrt(1.0 + z * z)
            else:
                r = math.sqrt(1.0 + w * w)
            sigma = p - root / (sigma + (r if sigma >= 0.0 else -r))
            c, s = 1.0, 0.0
            gamma = d[m] - sigma
            p = gamma * gamma
            for i in range(m - 1, l - 1, -1):
                bb = e[i]
                r = p + bb
                e[i + 1] = s * r
                oldc, c, s = c, p / r, bb / r
                oldgam, alpha = gamma, d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e[l] = s * p
            d[l] = sigma + gamma
    return sorted(d)


def _eigenvalues_2x2(a, b, c):
    """The eigenvalues of [[a, b], [b, c]], the larger in magnitude first (LAPACK's dlae2)."""
    sm, adf, ab = a + c, abs(a - c), abs(b + b)
    big, small = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        u = ab / adf
        rt = adf * math.sqrt(1.0 + u * u)
    elif adf < ab:
        u = adf / ab
        rt = ab * math.sqrt(1.0 + u * u)
    else:
        rt = ab * math.sqrt(2.0)
    if sm < 0.0:
        rt1 = 0.5 * (sm - rt)
    elif sm > 0.0:
        rt1 = 0.5 * (sm + rt)
    else:
        return 0.5 * rt, -0.5 * rt
    return rt1, (big / rt1) * small - (b / rt1) * b


def _ldexp(v: float, e: int) -> float:
    """v 2^e, and inf where that passes the double range, as numpy's ldexp gives (math.ldexp raises there)."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


# The kernel rescales its running sum once the sum passes this power of two.
# From |x| = 1e10 on, every step takes the sum past the band, so each step
# starts from a sum below 2 and NaN is left only where one step from there
# overflows: from |x| near 1e151. Nearer [0, 1] a step from a sum below the
# band cannot overflow; a band of 2^600 would let it, at |x| = 1e80.
_KERNEL_BAND = 2.0**64


def _alp_kernel(n: int, k: int, points) -> list[tuple[float, int]]:
    """sum_{l=k}^{n} (2l+1) P_nl(x)^2 at each float x of points, as pairs (v, e), the value being v 2^e.

    The sum is the reproducing kernel of span{P_nl : k <= l <= n}, which
    is x^k times the polynomials of degree <= n-k, so it equals
    (2k+1) x^{2k} sum_{i=0}^{n-k} q_i(t)^2 with t = 1-2x and q_i the
    orthonormal Jacobi polynomials for (1-t)^{2k}, scaled to q_0 = 1
    (Gautschi, Orthogonal Polynomials, 2004, sections 1.3 and 3.1). The
    Jacobi matrix is built once; the q_i then come from its three-term
    recurrence point by point, in n-k steps of Python float arithmetic
    without evaluating any member of the family.

    The sum is kept in range by value, not by step count: a step that takes
    it past _KERNEL_BAND rescales, with h half the sum's binary exponent,
    q_{i-1} and q_i by 2^-h and the sum by 2^-2h, and adds 2h to the
    exponent returned. Scaling by a power of two is exact while the values
    stay normal, and the sum never falls below 1/2, so where the rescales
    fall moves v only by a power of two, which the exponent takes back:
    the value v 2^e, once rounded, does not depend on the band.

    x^{2k} is applied as mant^{2k} * 2^{2k e} with mant, e = frexp(x), so
    it cannot underflow by itself; mant^{2k} is libm's pow. mant^{2k} stays
    a normal double only for k <= 511; past that, values at points just
    above a power of two lose accuracy.
    """
    diag, off = _jacobi_matrix(n - k + 1, 2 * k)
    steps = list(zip(diag, [0.0] + off, off))
    out = []
    for x in points:
        t = 1.0 - 2.0 * x
        prev, q, total, scale = 0.0, 1.0, 1.0, 0
        for d, b_prev, b in steps:
            prev, q = q, ((t - d) * q - b_prev * prev) / b
            total += q * q
            if total > _KERNEL_BAND:
                h = math.frexp(total)[1] // 2
                prev, q = math.ldexp(prev, -h), math.ldexp(q, -h)
                total, scale = math.ldexp(total, -2 * h), scale + 2 * h
        mant, e = math.frexp(x)
        out.append(((2 * k + 1) * mant ** (2 * k) * total, 2 * k * e + scale))
    return out
