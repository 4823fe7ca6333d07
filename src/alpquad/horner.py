"""Floating-point Horner evaluation, plain and compensated.

The compensated variant (error-free transformations, Dekker/Knuth style)
evaluates as if carried out in doubled working precision and is the default
evaluation path for family members: plain double Horner loses ~7 digits to
cancellation already at degree 10 on [0, 1], which the compensated form
recovers. Both accept scalars or numpy arrays for x.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["horner", "comp_horner"]

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant


def horner(coeffs: Sequence[float], x):
    """Plain Horner evaluation of sum(coeffs[l] * x**l)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    # Dekker product; coefficients here stay far below the ~1e292 split overflow
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def comp_horner(coeffs: Sequence[float], x):
    """Compensated Horner evaluation, accurate to ~1 ulp for mild conditioning."""
    if len(coeffs) == 0:
        return 0.0 * x
    s = coeffs[-1] + 0.0 * x  # broadcast against array inputs
    comp = 0.0 * s
    for c in reversed(coeffs[:-1]):
        p, perr = _two_prod(s, x)
        s, serr = _two_sum(p, c)
        comp = comp * x + (perr + serr)
    return s + comp
