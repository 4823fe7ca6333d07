"""Family construction, evaluation paths, and the exact identities.

The independent oracle here is a Gram-Schmidt construction straight from
the defining requirements (orthogonality in decreasing power order, norm
1/(2k+1), sign of the x^n coefficient), which shares no formulas with the
implementation paths it checks.
"""

import hashlib
import re
import tracemalloc
from fractions import Fraction
from math import comb, factorial, isqrt, prod

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
    build_rule,
    family,
    inner_product,
    ode_residual,
    expand_in_alp,
    fit_lowering_coefficients,
    reciprocity_transform,
    recurrence_coefficients,
    verify_aux_orthogonality,
    verify_orthogonality,
)
from alpquad.jacobi import binomial_general, jacobi_derivative_eval, jacobi_eval, jacobi_shifted_coefficients
from exact_kernel import exact_kernel_sums

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


def test_integer_routes_build_int_coefficients():
    for n in range(13):
        for k in range(n + 1):
            for p in (
                alp_coefficients(n, k),
                alp_coefficients_rodrigues(n, k),
                reciprocity_transform(n, k),
                alp_coefficients_jacobi(n, k),
                aux_coefficients(k, n),
            ):
                assert all(type(c) is int for c in p.coeffs), (n, k, p)


def test_near_zero_behaviour():
    # P_nk(x) / x^k -> C(n+k+1, n-k) as x -> 0
    for n, k in [(4, 2), (7, 0), (9, 9)]:
        lead = comb(n + k + 1, n - k)
        x = Fraction(1, 10**8)
        ratio = alp_eval_exact(n, k, x) / x**k
        assert abs(ratio - lead) < Fraction(lead, 10**6)


def test_index_validation():
    """Each (n, k) entry point fails with the one family-index message,
    whether it checks the index itself or leaves it to alp_coefficients."""
    message = "family index requires 0 <= k <= n"
    calls = [
        alp_coefficients,
        lambda n, k: alp_eval(n, k, 0.5),
        lambda n, k: alp_eval_exact(n, k, Fraction(1, 2)),
        ode_residual,
        recurrence_coefficients,
        lambda n, k: alp_derivative_eval(n, k, 0.5),
        alp_coefficients_rodrigues,
        alp_coefficients_hypergeometric,
        alp_coefficients_jacobi,
        reciprocity_transform,
    ]
    for bad in [(2, 3), (2, -1), (-1, 0)]:
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(*bad)
    for k in (3, -1):
        with pytest.raises(ValueError, match=message):
            family(2).polynomial(k)
        with pytest.raises(ValueError, match=message):
            family(2).float_coefficients(k)


def _python_numbers(value) -> bool:
    # True iff no numpy scalar hides in value: coefficients, dataclass fields, lists and tuples
    if isinstance(value, Polynomial):
        return _python_numbers(value.coeffs)
    if isinstance(value, (list, tuple)):
        return all(map(_python_numbers, value))
    if hasattr(value, "__dataclass_fields__"):
        return _python_numbers(tuple(vars(value).values()))
    if type(value) is Fraction:
        return type(value.numerator) is int and type(value.denominator) is int
    return type(value) in (int, bool, float, str)


def test_index_kinds():
    """numpy integer and bool indices give what Python ints give, and no
    numpy integer reaches a coefficient or a field (an int64 index would
    wrap from hypergeometric (10, 0) on); a float index raises TypeError."""
    x = Fraction(1, 3)
    pairs = [(n, k) for n in range(31) for k in range(n + 1)]
    calls = [  # (name, call, its (n, k) pairs)
        ("alp_coefficients", alp_coefficients, pairs),
        ("rodrigues", alp_coefficients_rodrigues, pairs),
        ("hypergeometric", alp_coefficients_hypergeometric, pairs),
        ("hypergeometric published", lambda n, k: alp_coefficients_hypergeometric(n, k, "published"), pairs),
        ("jacobi", alp_coefficients_jacobi, pairs),
        ("jacobi published", lambda n, k: alp_coefficients_jacobi(n, k, "published"), pairs),
        ("reciprocity", reciprocity_transform, pairs),
        ("recurrence_coefficients", recurrence_coefficients, pairs),
        ("ode_residual", ode_residual, pairs),
        ("alp_eval_exact", lambda n, k: alp_eval_exact(n, k, x), pairs),
        ("aux_coefficients", aux_coefficients, [(k, n) for n, k in pairs]),
        ("jacobi_shifted_coefficients", jacobi_shifted_coefficients, [(m, a) for m in range(31) for a in range(62)]),
        ("jacobi_shifted_coefficients, beta", lambda m, a: jacobi_shifted_coefficients(m, a, a), pairs),
        ("fit_lowering_coefficients", fit_lowering_coefficients, [(n, k) for n, k in pairs if k >= 1]),
        ("alp_eval_recurrence", lambda n, k: alp_eval_recurrence(n, 0.3), [(n, 0) for n in (*range(31), 40)]),
        ("verify_orthogonality", lambda n, k: verify_orthogonality(n), [(n, 0) for n in range(31)]),
        ("verify_aux_orthogonality", verify_aux_orthogonality, [(n, 30) for n in range(31)]),
        ("expand_in_alp", lambda n, k: expand_in_alp(Polynomial(range(31)), n, k), pairs[::7]),
    ]
    for name, call, args in calls:
        for n, k in args:
            want = call(n, k)
            for kind in (np.int64, np.int32, bool):
                if kind is bool and max(n, k) > 1:
                    continue
                got = call(kind(n), kind(k))
                assert got == want and _python_numbers(got), (name, kind, n, k)
    for name, call, args in calls:
        n, k = args[-1]
        for bad in ((float(n), k), (n, float(k))):
            if name in ("alp_eval_recurrence", "verify_orthogonality") and type(bad[1]) is float:
                continue  # these take one index
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
                call(*bad)
    assert verify_orthogonality(np.int64(3))[0].json_line() == verify_orthogonality(3)[0].json_line()


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


# The routes against their term-by-term Fraction formulas: m successive
# derivatives, Pochhammer quotients, and the running Fraction term ratio


def _pochhammer(a, m):
    return Fraction(prod(range(a, a + m)))


def reference_rodrigues(n, k):
    m = n - k
    p = Polynomial([0] * (n + k + 1) + [(-1) ** i * comb(m, i) for i in range(m + 1)])
    for _ in range(m):
        p = p.derivative()
    return (p * Fraction(1, factorial(m))).shifted(-(k + 1))


def reference_hypergeometric(n, k, variant):
    m = n - k
    prefactor, c = (comb(n + k + 1, m), 2 * k + 2) if variant == "corrected" else (comb(n + k, m), 2 * k + 1)
    series = [
        _pochhammer(-m, j) * _pochhammer(k + n + 2, j) / (_pochhammer(c, j) * factorial(j))
        for j in range(m + 1)
    ]
    return (prefactor * Polynomial(series)).shifted(k)


def reference_jacobi_shifted(m, alpha, beta):
    coeffs = [binomial_general(m + alpha, m)]
    for j in range(m):
        coeffs.append(coeffs[-1] * Fraction((-m + j) * (m + alpha + beta + 1 + j), (alpha + 1 + j) * (j + 1)))
    return Polynomial(coeffs)


def test_routes_match_their_fraction_formulas_to_n30():
    for n in range(31):
        for k in range(n + 1):
            m = n - k
            assert alp_coefficients_rodrigues(n, k) == reference_rodrigues(n, k)
            for variant in ("corrected", "published"):
                assert alp_coefficients_hypergeometric(n, k, variant) == reference_hypergeometric(n, k, variant)
            # the aux (2n), corrected (2k+1), published (2k, 1) and reciprocity (-2n-2)
            # parameters, and a half-integer beta whose terms are not all integral
            for alpha, beta in ((2 * n, 0), (2 * k + 1, 0), (2 * k, 1), (-2 * n - 2, 0), (k, Fraction(1, 2))):
                got = jacobi_shifted_coefficients(m, alpha, beta)
                assert got == reference_jacobi_shifted(m, alpha, beta), (m, alpha, beta)


def test_routes_do_not_read_the_explicit_sum():
    # each route is an independent construction: none may go through alp_coefficients
    alp_coefficients.cache_clear()
    for n in range(10):
        for k in range(n + 1):
            alp_coefficients_rodrigues(n, k)
            reciprocity_transform(n, k)
            for variant in ("corrected", "published"):
                alp_coefficients_hypergeometric(n, k, variant)
                alp_coefficients_jacobi(n, k, variant)
    info = alp_coefficients.cache_info()
    assert (info.hits, info.misses) == (0, 0)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_float_input_evaluates_in_double(dtype):
    # (20, 3) is a Horner member, (30, 3) a Jacobi one; the Dekker split
    # and the recurrences assume double, so float32 input used to return
    # 1.6228607 for P_{20,3}(0.3)
    pts = np.array([0.0, 0.05, 0.3, 0.6, 0.97, 1.0], dtype=dtype)
    for n, k in ((20, 3), (30, 3), (6, 0)):
        got = alp_eval(n, k, pts)
        assert got.dtype == np.float64
        assert np.array_equal(got, alp_eval(n, k, pts.astype(np.float64)))
        assert np.array_equal(aux_eval(k, n, pts), aux_eval(k, n, pts.astype(np.float64)))
        for x in pts:
            assert alp_eval(n, k, x) == alp_eval(n, k, float(x))
            assert aux_eval(k, n, x) == aux_eval(k, n, float(x))
            assert alp_derivative_eval(n, k, x) == alp_derivative_eval(n, k, float(x))
        assert alp_eval_recurrence(n, pts[2]) == alp_eval_recurrence(n, float(pts[2]))
    assert alp_eval(20, 3, dtype(0.3)) == pytest.approx(alp_eval_exact(20, 3, float(dtype(0.3))), rel=1e-14)


def test_narrow_float_nonfinite_rejected():
    for bad in (np.float32("nan"), np.float16("inf"), np.array([0.5, np.nan], dtype=np.float32)):
        for call in (alp_eval, alp_derivative_eval):
            with pytest.raises(ValueError):
                call(3, 1, bad)
        with pytest.raises(ValueError):
            aux_eval(1, 2, bad)
    for bad in (np.float32("nan"), np.float16("inf")):
        with pytest.raises(ValueError):
            alp_eval_recurrence(3, bad)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_family_methods_evaluate_narrow_floats_in_double(dtype):
    # family(n) is public: its eval and weight_denominator must widen points
    # themselves, not rely on alp_eval (float32 P_{20,3}(0.3) gave 1.6228607)
    pts = np.array([0.0, 0.05, 0.3, 0.6, 0.97, 1.0], dtype=dtype)
    wide = pts.astype(np.float64)
    for n, k in ((20, 3), (30, 3), (6, 0)):
        fam = family(n)
        got = fam.eval(k, pts)
        assert got.dtype == np.float64
        assert np.array_equal(got, fam.eval(k, wide))
        dens = fam.weight_denominator(k, pts)
        assert dens.dtype == np.float64
        assert np.array_equal(dens, fam.weight_denominator(k, wide))
        for x in pts:
            assert fam.eval(k, x) == fam.eval(k, float(x))
            assert fam.weight_denominator(k, x) == fam.weight_denominator(k, float(x))
    x = float(dtype(0.3))
    assert family(20).eval(3, dtype(0.3)) == pytest.approx(alp_eval_exact(20, 3, x), rel=1e-14)
    exact_den = exact_kernel_sums(20, x, 3)[0]
    assert family(20).weight_denominator(3, dtype(0.3)) == pytest.approx(exact_den, rel=1e-13)


def test_family_methods_reject_nonfinite():
    fam = family(5)
    for bad in (float("nan"), np.float32("nan"), np.float16("inf"), np.array([0.5, np.nan], dtype=np.float32),
                np.array([0.5, -np.inf])):
        with pytest.raises(ValueError):
            fam.eval(2, bad)
        with pytest.raises(ValueError):
            fam.weight_denominator(1, bad)


def test_non_numeric_points_raise_a_type_error_naming_them():
    # one table of point kinds x float entry points. A real number or real
    # numpy input is evaluated at its float64 value, so its bits are those
    # of that value: long double is narrowed (the Dekker splits assume a
    # 53-bit significand), a scalar gives a float and an array a float64
    # array. Anything else raises an error naming it
    fam = family(30)  # kstar is 17, so fam.eval(3, x) runs the Jacobi branch
    calls = {
        "alp_eval": lambda x: alp_eval(22, 0, x),
        "aux_eval": lambda x: aux_eval(2, 5, x),
        "alp_derivative_eval": lambda x: alp_derivative_eval(22, 3, x),
        "alp_eval_recurrence": lambda x: alp_eval_recurrence(22, x),
        "jacobi_eval": lambda x: jacobi_eval(9, 3, 0, x),
        "jacobi_derivative_eval": lambda x: jacobi_derivative_eval(9, 3, 0, x),
        "jacobi_derivative_eval at m = 0": lambda x: jacobi_derivative_eval(0, 1, 0, x),
        "AlpFamily.eval": lambda x: fam.eval(3, x),
        "AlpFamily.weight_denominator": lambda x: fam.weight_denominator(1, x),
    }
    third = np.longdouble(1) / 3  # not a double
    xs = np.random.default_rng(2401).random(64)
    accepted = [  # (point, its float64 value)
        (0.3, 0.3),
        (1, 1.0),
        (True, 1.0),
        (Fraction(3, 10), 0.3),
        (np.float16(0.3), float(np.float16(0.3))),
        (np.float32(0.3), float(np.float32(0.3))),
        (np.float64(0.3), 0.3),
        (third, float(third)),
        (np.array(0.3), 0.3),
        (xs, xs),
        (xs.astype(np.longdouble) / 3, (xs.astype(np.longdouble) / 3).astype(np.float64)),
        (np.array([0, 1]), np.array([0.0, 1.0])),
    ]
    cast = "Cannot cast {} from dtype('{}') to dtype('float64') according to the rule 'same_kind'"
    refused = [  # (point, error, message)
        (0.3 + 0j, TypeError, "evaluation point must be a real number or a numpy array, got complex"),
        (np.complex128(0.3), TypeError, cast.format("scalar", "complex128")),
        (np.array([0.3 + 0j]), TypeError, cast.format("array data", "complex128")),
        (np.array([0.3], dtype=object), TypeError, cast.format("array data", "O")),
        ([0.3], TypeError, "evaluation point must be a real number or a numpy array, got list"),
        ((0.3,), TypeError, "evaluation point must be a real number or a numpy array, got tuple"),
        ("0.3", TypeError, "evaluation point must be a real number or a numpy array, got str"),
        (10**400, OverflowError, "int too large to convert to float"),
        (float("nan"), ValueError, "evaluation point must be finite, got nan"),
    ]
    for name, call in calls.items():
        for point, value in accepted:
            if name == "alp_eval_recurrence" and np.ndim(point):
                shape = re.escape(str(np.shape(point)))
                with pytest.raises(TypeError, match=f"^alp_eval_recurrence takes one point, got an array of shape {shape}$"):
                    call(point)
                continue
            got = call(point)
            values = got if isinstance(got, list) else [got]
            if np.ndim(point):
                assert all(type(v) is np.ndarray and v.dtype == np.float64 for v in values), (name, point)
            else:
                assert all(type(v) in (float, np.float64) for v in values), (name, point, got)
            assert np.asarray(got).tobytes() == np.asarray(call(value)).tobytes(), (name, point)
        for point, error, message in refused:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call(point)
    for bad in (np.array([0.5]), np.zeros((2, 3))):
        with pytest.raises(TypeError, match=re.escape(f"alp_eval_recurrence takes one point, got an array of shape {bad.shape}")):
            alp_eval_recurrence(5, bad)
    assert jacobi_eval(2, 0, 0, Fraction(1, 2)) == -0.125
    with pytest.raises(TypeError, match="got complex$"):
        jacobi_eval(2, 0, 0, 1j)


def test_eval_array_input():
    xs = np.linspace(0.0, 1.0, 9)
    vals = alp_eval(3, 1, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == alp_eval(3, 1, float(x))
    fam = family(4)
    for kmin in (0, 2, 4):
        dens = fam.weight_denominator(kmin, xs)
        assert dens.shape == xs.shape
        for x, d in zip(xs, dens):
            assert d == fam.weight_denominator(kmin, float(x))


def _grid_with_ends(seed: int, size: int) -> np.ndarray:
    return np.concatenate(([0.0], np.random.default_rng(seed).random(size - 2), [1.0]))


def test_scalar_equals_array_element_for_every_member():
    # x^k comes from IEEE products and sums alone, and both evaluation
    # paths run the same operations on a float and on an array element, so
    # they agree to the bit, Jacobi members included
    xs = _grid_with_ends(1201, 66)
    points = xs.tolist()
    for n in range(41):
        for k in range(n + 1):
            for x, v in zip(points, alp_eval(n, k, xs).tolist()):
                assert alp_eval(n, k, x).hex() == v.hex(), (n, k, x)


def test_alp_eval_values_are_pinned():
    # every member with n <= 40, and members of order 100, 200 and 400 on
    # both sides of the Horner/Jacobi switch, as an array and point by
    # point, on a seeded grid with 0, 1 and points near both ends. Both
    # paths use IEEE +, -, * and / alone, so the digest holds on any machine
    near_ends = [5e-324, 1e-300, 1e-16, 1e-8, 1.0 - 1e-8, 1.0 - 1e-15, 1.0 - 1.1e-16]
    xs = np.concatenate((_grid_with_ends(2201, 33), near_ends))
    points = xs.tolist()
    members = [(n, k) for n in range(41) for k in range(n + 1)]
    for n, kstar in ((100, 92), (200, 194), (400, 394)):
        members += [(n, k) for k in (0, 1, n // 2, kstar - 1, kstar, n)]
    digest = hashlib.sha256()
    for n, k in members:
        digest.update(" ".join(v.hex() for v in alp_eval(n, k, xs).tolist()).encode())
        digest.update(" ".join(alp_eval(n, k, x).hex() for x in points).encode())
    assert digest.hexdigest() == "b262603df250d4f5bf23a27c5ffdc404272fdcf5dffc52ffd5d85946efd05667"


def test_aux_and_derivative_scalar_equal_array_element():
    # x^n and x^(k-1) come from comp_power, as in alp_eval, so a float and
    # the same point inside an array give the same bits
    xs = _grid_with_ends(1207, 66)
    points = xs.tolist()
    for n in range(41):
        for k in range(n, 41):
            for x, v in zip(points, aux_eval(n, k, xs).tolist()):
                assert aux_eval(n, k, x).hex() == v.hex(), ("aux", n, k, x)
        for k in range(n + 1):
            for x, v in zip(points, alp_derivative_eval(n, k, xs).tolist()):
                assert alp_derivative_eval(n, k, x).hex() == v.hex(), ("derivative", n, k, x)


def test_weight_denominator_matches_exact_sum():
    # the Jacobi kernel for every kmin, Legendre (kmin = 0) included, on
    # seeded points, both ends and a point outside [0, 1]; measured worst
    # 2.3e-14 relative, at the ends
    xs = np.concatenate((_grid_with_ends(1208, 18), [1.25]))
    for n in range(41):
        exact = [exact_kernel_sums(n, x) for x in xs.tolist()]
        fam = family(n)
        for kmin in range(n + 1):
            for x, want, got in zip(xs.tolist(), exact, fam.weight_denominator(kmin, xs).tolist()):
                if x == 0.0 and kmin >= 1:
                    assert want[kmin] == 0 and got == 0.0, (n, kmin)
                else:
                    assert abs(Fraction(got) - want[kmin]) <= 1e-13 * want[kmin], (n, kmin, x)


def test_weight_denominator_inverts_to_rule_weights():
    # weights() and weight_denominator run the one kernel, so a weight is
    # the reciprocal of the denominator bit for bit
    for n in range(1, 31):
        fam = family(n)
        for k in range(1, n + 1):
            rule = build_rule(n, k)
            dens = fam.weight_denominator(k, np.array(rule.nodes))
            assert (1.0 / dens).tolist() == list(rule.weights), (n, k)


def test_scalar_weight_denominator_inverts_to_rule_weights():
    # a scalar runs as a one-element array, so it takes numpy's array pow
    # and misses none of the 4,960 weights with n <= 30, as an array does
    for n in range(1, 31):
        fam = family(n)
        for k in range(1, n + 1):
            rule = build_rule(n, k)
            for x, w in zip(rule.nodes, rule.weights):
                for point in (x, np.float64(x), np.array(x)):
                    den = fam.weight_denominator(k, point)
                    assert type(den) is np.float64 and 1.0 / den == w, (n, k, x)


def test_array_path_accuracy_on_float_exact_members():
    # compensated Horner on the deflated coefficients, times x^k: within
    # 1.1e-15 of the exact value, relative to max(1, |P|), near both ends
    # too. Just below 1 an uncompensated x^k would add up to ~k/2 ulps, so
    # the high k also get a dense set there. The oracle is alp_eval_exact
    near_ends = [5e-324, 1e-16, 4e-16, 1e-15, 1.0 - 1e-15, 1.0 - 4e-16, 1.0 - 1.1e-16]
    grid = np.concatenate((_grid_with_ends(1202, 32), near_ends))
    dense = np.concatenate((grid, 0.99 + 0.01 * np.random.default_rng(1205).random(128)))
    worst = 0.0
    for n in range(41):
        for k in range(family(n).kstar, n + 1):
            xs = dense if k >= 30 else grid
            for x, v in zip(xs.tolist(), alp_eval(n, k, xs).tolist()):
                exact = alp_eval_exact(n, k, x)
                worst = max(worst, float(abs(Fraction(v) - exact) / max(1, abs(exact))))
    assert worst <= 1.1e-15


def test_eval_matches_exact_rational():
    for n in range(11):
        for k in range(n + 1):
            for x in (0.0, 0.17, 0.5, 0.83, 1.0):
                exact = alp_eval_exact(n, k, x)
                assert type(exact) is Fraction
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
    floats = fam.float_coefficients(3)
    assert floats == tuple(float(c) for c in alp_coefficients(12, 3).coeffs)
    assert all(type(c) is float for c in floats)
    # n = 30 coefficients overflow exact double conversion; the stable
    # Jacobi-recurrence path must still track the exact values
    for x in (0.1, 0.37, 0.52, 0.9):
        exact = alp_eval_exact(30, 0, x)
        got = alp_eval(30, 0, x)
        assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(1, 10**10)


def _float_exact(n, k):
    # the uncached body, so the check leaves alp_coefficients' cache as it is
    return all(abs(c) <= 2**53 for c in alp_coefficients.__wrapped__(n, k).coeffs)


def test_float_exactness_is_monotone_in_k():
    # AlpFamily keeps one boundary, kstar: Horner serves exactly the k >= kstar
    for n in [*range(121), 200, 400]:
        kstar = AlpFamily(n).kstar
        assert [_float_exact(n, k) for k in range(n + 1)] == [k >= kstar for k in range(n + 1)], n
    assert [AlpFamily(n).kstar for n in (22, 23, 30, 40, 100, 200, 400)] == [0, 4, 17, 29, 92, 194, 394]


def test_family_keeps_only_its_horner_members():
    # AlpFamily(400) holds the deflated floats of k = 394..400, degree <= 6,
    # about 3.6 KB; the 401 exact members of order 400 take 14 MB
    before = alp_coefficients.cache_info()
    tracemalloc.start()
    try:
        fam = AlpFamily(400)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fam.kstar == 394 and retained < 16384
    for k in (0, 1, 393, 394, 400):
        fam.eval(k, 0.3)
    assert alp_coefficients.cache_info() == before


def test_jacobi_member_at_order_400():
    assert alp_eval(400, 1, 0.3).hex() == (0.3 * jacobi_eval(399, 3, 0, 0.4)).hex()


def test_downward_recurrence_order_zero():
    assert alp_eval_recurrence(0, 0.37) == [1.0]


def test_downward_recurrence_known_values():
    vals = alp_eval_recurrence(2, 0.5)  # [P_22, P_21, P_20](0.5)
    assert vals[0] == 0.25
    assert vals[1] == pytest.approx(0.75, abs=1e-14)
    assert vals[2] == pytest.approx(-0.5, abs=1e-13)


@pytest.fixture(scope="module")
def recurrence_at_ends():
    """alp_eval_recurrence(n, x) at x = 0 (n <= 600) and x = 1 (n <= 720, 800, 1000).

    Both points of one order are evaluated in turn, so each order's table
    of step factors is built once for both tests.
    """
    at = {0.0: {}, 1.0: {}}
    for n in [*range(721), 800, 1000]:
        for x in (0.0, 1.0) if n <= 600 else (1.0,):
            at[x][n] = alp_eval_recurrence(n, x)
    return at


def test_downward_recurrence_at_zero_gives_limits(recurrence_at_ends):
    vals = alp_eval_recurrence(3, 0.0)  # k = 3, 2, 1, 0
    assert vals == [0.0, 0.0, 0.0, 4.0]
    # every normalised R_k(0) is exactly 1, so P_n0(0) = n+1 exactly; the
    # values Q_k(0) = C(n+k+1, n-k) themselves pass 2^53 from n = 33 on
    for n in range(601):
        assert recurrence_at_ends[0.0][n] == [0.0] * n + [float(n + 1)], n


def test_downward_recurrence_at_one_alternates(recurrence_at_ends):
    # P_nk(1) = (-1)^(n-k); R_k(1) = +-1/C(n+k+1, n-k) reaches 2^-996 at
    # n = 720 and leaves the double range from n = 740, so neither it nor
    # the scale-back may pass through a subnormal
    for n in [*range(721), 800, 1000]:
        vals = recurrence_at_ends[1.0][n]
        for idx, k in enumerate(range(n, -1, -1)):
            assert abs(vals[idx] - (-1) ** (n - k)) <= 2e-12, (n, k)
    # inside (0, 1) too, against the Jacobi form x^k P^{(2k+1,0)}_{n-k}(1-2x)
    for n in (800, 1000):
        for x in (0.5, 0.9, 0.99):
            vals = alp_eval_recurrence(n, x)
            for k in range(0, n + 1, 37):
                want = x**k * jacobi_eval(n - k, 2 * k + 1, 0, 1.0 - 2.0 * x)
                assert abs(vals[n - k] - want) <= 1e-12 * max(1.0, abs(want)), (n, k, x)


def test_downward_recurrence_matches_exact_without_underflow():
    # x^n underflows at (30, 1e-12); P_30,0 is still 31 there
    for n, x in [(30, 1e-12), (40, 1e-8), (20, 0.3), (40, 0.99)]:
        vals = alp_eval_recurrence(n, x)
        for idx, k in enumerate(range(n, -1, -1)):
            exact = float(alp_eval_exact(n, k, x))
            assert abs(vals[idx] - exact) <= 1e-12 * abs(exact), (n, k, x)
    # subnormal x: no step divides by x, and each value is scaled back once
    for x in (5e-324, 1e-310, 1e-300):
        want = [float(alp_eval_exact(3, k, x)) for k in range(3, -1, -1)]
        assert alp_eval_recurrence(3, x) == want, x
    for x in (1e-12, 0.3, 0.999):
        vals = alp_eval_recurrence(100, x)
        for idx, k in enumerate(range(100, -1, -1)):
            exact = float(alp_eval_exact(100, k, x))
            assert abs(vals[idx] - exact) <= 1e-13 * max(1.0, abs(exact)), (k, x)


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
            want = dpoly(x)
            got = alp_derivative_eval(n, k, float(x))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_derivative_matches_exact_near_endpoints():
    # the endpoints and their near neighbours, where dividing by x (1-x)
    # would lose digits; measured worst error 1.8e-14 for n <= 40
    for n in range(41):
        for k in range(n + 1):
            dpoly = alp_coefficients(n, k).derivative()
            for x in (0.0, 1e-9, 1e-7, 1.0 - 1e-7, 1.0 - 1e-9, 1.0):
                want = dpoly(x)
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
            want = poly(x)
            assert aux_eval(n, k, float(x)) == pytest.approx(want, rel=1e-11, abs=1e-13)
