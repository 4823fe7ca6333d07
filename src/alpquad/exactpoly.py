"""Dense univariate polynomial arithmetic over exact rational coefficients.

Coefficients and arithmetic are exact: coefficients are `int` when integral
and `fractions.Fraction` otherwise, so equality checks and integrals are
decisive. Floats appear in two outputs only: `Polynomial.float_coeffs()`, and
calling a `Polynomial` at a float point, which evaluates exactly at the
point's binary value and rounds once.
Polynomials are immutable and hashable.

`_exact` is the exact layer's one door for a caller's scalar, a coefficient
or a point: a Python or numpy integer becomes the Python int it equals (a
numpy integer's own arithmetic wraps at 64 bits), a float of any width its
exact binary value, and a Fraction or a str stays what `Fraction` makes of
it. Integer arguments have one door too, beside it, and every public entry
point sends its integers through it before any arithmetic: `_check_count`
(a count or degree, v >= 0), `_check_index` (a pair 0 <= k <= n, or
1 <= k <= n for the rules and the lowering fit), `_check_aux_index` (the
auxiliary pair k >= n >= 0) and `_integer` (a parameter that may also be a
float). Each returns the Python ints its integers equal, so no numpy integer
reaches the arithmetic, and the guards raise TypeError for a float, even
``5.0``, through ``operator.index``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from operator import index
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = ["Polynomial", "inner_product"]


def _exact(c) -> Scalar:
    """c as the one exact scalar: the int it equals when integral, else a Fraction.

    A Fraction is tested for first, then a Python int, which skips the ABC
    isinstance test: that takes about 0.6 us, some 6% of a
    ``jacobi_shifted_coefficients`` call at order 20, whose beta is an int.
    Any integer (numpy integers of every width, bool) becomes the Python int
    it equals; any other real (float, numpy float16 to long double) its
    exact binary value; anything else, a str say, goes through
    ``Fraction``'s own parser.
    """
    if type(c) is not Fraction:
        if type(c) is int or isinstance(c, numbers.Integral):
            return int(c)
        real = isinstance(c, numbers.Real) and not isinstance(c, numbers.Rational)
        c = Fraction(*c.as_integer_ratio()) if real else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _check_count(v: int, name: str) -> int:
    """v as the Python int it equals, after checking v >= 0."""
    v = index(v)
    if v < 0:
        raise ValueError(f"{name} must be nonnegative, got {v}")
    return v


def _check_index(n: int, k: int, least: int = 0, noun: str = "family index") -> tuple[int, int]:
    """(n, k) as the Python ints they equal, after checking least <= k <= n."""
    n, k = index(n), index(k)
    if not least <= k <= n:
        raise ValueError(f"{noun} requires {least} <= k <= n, got n={n}, k={k}")
    return n, k


def _check_aux_index(n: int, k: int) -> tuple[int, int]:
    """(n, k) as the Python ints they equal, after checking k >= n >= 0."""
    n, k = index(n), index(k)
    if not 0 <= n <= k:
        raise ValueError(f"auxiliary index requires k >= n >= 0, got n={n}, k={k}")
    return n, k


def _integer(v):
    """v as the Python int it equals when it is an integer of any kind, else v as it is."""
    return int(v) if isinstance(v, numbers.Integral) else v


def _quotient(num: int, den: int) -> Scalar:
    # num/den as the same exact scalar: the int quotient when den divides num, else the Fraction
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class Polynomial:
    """Immutable dense polynomial, coefficient of x^l stored at index l."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # a Python int passes as it is; every other coefficient goes through _exact
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        return cls([0] * _check_count(power, "power") + [coeff])

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """Coefficients in ascending power order, trailing zeros stripped."""
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def low_power(self) -> int:
        """Smallest power with a nonzero coefficient."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no lowest power")
        return next(l for l, c in enumerate(self._coeffs) if c != 0)

    def coeff(self, power: int) -> Scalar:
        """Coefficient of x^power (zero outside the stored range)."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _combine((1, 0, self), (1, 0, other)) if isinstance(other, Polynomial) else NotImplemented

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _combine((1, 0, self), (-1, 0, other)) if isinstance(other, Polynomial) else NotImplemented

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def shifted(self, powers: int) -> "Polynomial":
        """Multiply by x^powers; negative powers require divisibility by x."""
        if powers >= 0:
            if self.is_zero:
                return self
            return Polynomial([0] * powers + list(self._coeffs))
        drop = -powers
        if any(c != 0 for c in self._coeffs[:drop]):
            raise ValueError(f"polynomial is not divisible by x^{drop}")
        return Polynomial(self._coeffs[drop:])

    def derivative(self) -> "Polynomial":
        return Polynomial([l * c for l, c in enumerate(self._coeffs)][1:])

    def integrate01(self) -> Fraction:
        """Exact integral over [0, 1], summed over the common denominator lcm(1, ..., d+1)."""
        cs = self._coeffs
        den = math.lcm(*range(1, len(cs) + 1))
        return Fraction(sum(c * (den // (l + 1)) for l, c in enumerate(cs)), den)

    def max_abs_coeff(self) -> Scalar:
        return max((abs(c) for c in self._coeffs), default=0)

    def float_coeffs(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self._coeffs)

    def __call__(self, x):
        """Horner evaluation, exact: a Fraction at a rational x, numpy integers
        included; at any other real x, a float, the value at x's exact binary
        value rounded once. x goes through ``_exact``; anything that is not a
        real number raises TypeError.

        At x = p/q the loop runs in integers, acc = acc p + c q^i, so acc ends
        as q^d P(p/q) and one Fraction is built at the end; only a Fraction
        coefficient makes a step rational.
        """
        rational = isinstance(x, numbers.Rational)  # one ABC test for the common rational point
        if not rational and not isinstance(x, numbers.Real):
            raise TypeError(f"polynomial point must be a real number, got {type(x).__name__}")
        point = _exact(x)
        p, q = point.numerator, point.denominator
        acc, scale = 0, 1
        for c in reversed(self._coeffs):
            acc, scale = acc * p + c * scale, scale * q
        value = Fraction(acc, scale // q) if self._coeffs else Fraction(0)
        return value if rational else float(value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for l, c in enumerate(self._coeffs):
            if c == 0:
                continue
            term = str(c) if l == 0 else (f"{c}*x" if l == 1 else f"{c}*x^{l}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def _combine(*terms: tuple[Scalar, int, Polynomial]) -> Polynomial:
    """Sum of c * x^s * p over the (c, s, p) terms, s >= 0: one accumulation pass
    and one construction, where an operator chain builds a polynomial per step."""
    out = [0] * max((s + len(p._coeffs) for _, s, p in terms), default=0)
    for c, s, p in terms:
        for i, a in enumerate(p._coeffs, s):
            out[i] += c * a
    return Polynomial(out)


def inner_product(p: Polynomial, q: Polynomial) -> Fraction:
    """Exact L2 inner product on [0, 1] with unit weight."""
    return (p * q).integrate01()
