"""Floating-point Horner evaluation, plain and compensated.

The compensated variant (error-free transformations, Dekker/Knuth style)
evaluates as if carried out in doubled working precision and is the default
evaluation path for family members: plain double Horner loses ~7 digits to
cancellation already at degree 10 on [0, 1], which the compensated form
recovers. ``comp_power`` forms x^k in the same doubled precision. All
accept scalars or numpy arrays for x.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["horner", "comp_horner", "comp_power"]

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant


def horner(coeffs: Sequence[float], x):
    """Plain Horner evaluation of sum(coeffs[l] * x**l)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def comp_horner(coeffs: Sequence[float], x):
    """Compensated Horner evaluation, accurate to ~1 ulp for mild conditioning.

    Each step forms s * x + c with its rounding errors: Dekker's product
    gives p + perr = s * x exactly, Knuth's sum s' + serr = p + c, and the
    errors run through a second Horner recurrence (Graillat, Langlois and
    Louvet, "Compensated Horner scheme", 2005). x is the same factor at
    every step, so its Dekker split is taken once, before the loop; only the
    running s is split per step. Coefficients here stay far below the
    ~1e292 at which the split overflows.
    """
    if len(coeffs) == 0:
        return 0.0 * x
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    s = coeffs[-1] + 0.0 * x  # broadcast against array inputs
    comp = 0.0 * s
    for c in reversed(coeffs[:-1]):
        p = s * x
        t = _SPLITTER * s
        sh = t - (t - s)
        sl = s - sh
        perr = ((sh * xh - p) + sh * xl + sl * xh) + sl * xl
        s = p + c
        t = s - p
        comp = comp * x + (perr + ((p - (s - t)) + (c - t)))
    return s + comp


def comp_power(x, k: int):
    """x^k for an integer k >= 0 by compensated binary powering, to ~1 ulp.

    Plain binary powering raises the rounding error of each squaring to the
    remaining power, about k ulps in the worst case. Here the power runs
    as a pair hi + lo in doubled working precision: left to right over the
    bits of k, each squaring of hi and each product hi * x yields its exact
    rounding error by Dekker's product, which goes into lo with the
    first-order terms of lo, and the pair is rounded once, at the end
    (Graillat, "Accurate floating point product and exponentiation", 2009).
    x is split once, before the loop. Only IEEE products and sums are used,
    never ``pow``, so a float x gives exactly the matching element of an
    array x.
    """
    if k == 0:
        return 1.0 + 0.0 * x  # broadcast against array inputs
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    hi, lo = x, 0.0
    for bit in bin(k)[3:]:
        p = hi * hi
        t = _SPLITTER * hi
        hh = t - (t - hi)
        hl = hi - hh
        hi, lo = p, (((hh * hh - p) + 2.0 * (hh * hl)) + hl * hl) + 2.0 * (hi * lo)
        if bit == "1":
            p = hi * x
            t = _SPLITTER * hi
            hh = t - (t - hi)
            hl = hi - hh
            hi, lo = p, (((hh * xh - p) + hh * xl + hl * xh) + hl * xl) + lo * x
    return hi + lo
