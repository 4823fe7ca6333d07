"""Exact identity verification for the family and its misprinted constants.

Every check here runs in rational arithmetic and produces an
``IdentityReport``; a report passes iff the residual is exactly zero, so
failures are decisive data rather than tolerance judgements. Each
polynomial residual is one integer linear combination of shifted members
(``exactpoly._combine``), and a coefficient route is compared with the
member directly, its difference formed only when it fails. Checks based
on the published constants (``*_published`` identities) are expected to
fail wherever the misprint bites; ``expected_to_pass`` encodes that and
``suite_passes`` compares a report stream against it. The lowering
formula's constants are re-derived by ``fit_lowering_coefficients``, an
exact linear fit solved by Cramer's rule.

Reports serialize to JSON lines:
    {"identity": str, "n": int, "k": int, "pass": bool, "residual": str, "note": str}
The schema is declared once, in ``_REPORT_KEYS``: the JSON keys and the
``alpquad verify`` CSV header are those six names, in the field order of
``IdentityReport``, whose ``passed`` serialises as "pass".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, index, mul

from .exactpoly import Polynomial, Scalar, _combine
from .family import (
    CORRECTED,
    PUBLISHED,
    RecurrenceCoefficients,
    alp_coefficients,
    alp_coefficients_hypergeometric,
    alp_coefficients_jacobi,
    alp_coefficients_rodrigues,
    aux_coefficients,
    ode_residual,
    reciprocity_transform,
    recurrence_coefficients,
)

__all__ = [
    "IdentityReport",
    "report_from_json",
    "reports_to_json_lines",
    "verify_orthogonality",
    "verify_aux_orthogonality",
    "verify_identity_suite",
    "expected_to_pass",
    "suite_passes",
    "fit_lowering_coefficients",
]


# the serialised names of the IdentityReport fields, in field order
_REPORT_KEYS = ("identity", "n", "k", "pass", "residual", "note")


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact check; passed iff residual is exactly zero."""

    identity: str
    n: int
    k: int
    passed: bool
    residual: str
    note: str = ""

    def json_line(self) -> str:
        # the instance dict holds the fields in field order; astuple would deep-copy each one
        return json.dumps(dict(zip(_REPORT_KEYS, vars(self).values())))


# the canonical report order, shared by the identity suite and ``alpquad verify``
_report_order = attrgetter("n", "k", "identity")


def report_from_json(line: str) -> IdentityReport:
    d = json.loads(line)
    return IdentityReport(*(d[key] for key in _REPORT_KEYS))


def reports_to_json_lines(reports) -> str:
    return "\n".join(r.json_line() for r in reports)


def _poly_report(identity: str, n: int, k: int, residual: Polynomial, note: str = "") -> IdentityReport:
    ok = residual.is_zero
    return IdentityReport(identity, n, k, ok, "0" if ok else str(residual.max_abs_coeff()), note)


def _orthogonality_reports(
    n: int, members: dict[int, Polynomial], names: tuple[str, str], sign_power, sign_note: str
) -> list[IdentityReport]:
    """Inner products of members keyed by consecutive k against 1/(k+l+1) on
    the diagonal and 0 off it, then the sign of each member's coefficient of
    x^sign_power(k) against (-1)^(k-n).

    The inner products come from moments over one common denominator:
    with L = lcm(1, ..., 2d+1) and H[s] = L/(s+1) = L * integral of x^s,
    M_k[i] = sum_j c_kj H[i+j] and S = <p_k, p_l> L = sum_i c_li M_k[i], so
    a family of degree d costs O(d^3) integer operations and no product
    polynomial. Each pair stays the integer S (k+l+1) - [k=l] L, which is
    zero iff the pair passes; only a nonzero one becomes a Fraction."""
    d = max(p.degree for p in members.values())
    den = math.lcm(*range(1, 2 * d + 2))
    h = [den // (s + 1) for s in range(2 * d + 1)]
    moments = {k: [sum(map(mul, p.coeffs, h[i:])) for i in range(d + 1)] for k, p in members.items()}
    reports = []
    top = max(members)
    for k, p in members.items():
        for l in range(k, top + 1):
            diag = k == l
            num = sum(map(mul, members[l].coeffs, moments[k])) * (k + l + 1) - (den if diag else 0)
            residual = str(abs(Fraction(num, den * (k + l + 1)))) if num else "0"
            expected = ("1" if k == 0 else f"1/{2 * k + 1}") if diag else "0"
            reports.append(IdentityReport(names[0], n, k, not num, residual, f"l={l}; expected {expected}"))
        ok = (p.coeff(sign_power(k)) > 0) == ((k - n) % 2 == 0)
        reports.append(IdentityReport(names[1], n, k, ok, "0" if ok else "1", sign_note))
    return reports


def verify_orthogonality(n: int) -> list[IdentityReport]:
    """Exact pairwise orthogonality, diagonal norms 1/(2k+1), and sign checks."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    n = index(n)
    fam = {k: alp_coefficients(n, k) for k in range(n + 1)}
    note = "sign of x^n coefficient must be (-1)^(n-k)"
    return _orthogonality_reports(n, fam, ("orthogonality", "sign_normalization"), lambda k: n, note)


def verify_aux_orthogonality(n: int, kmax: int) -> list[IdentityReport]:
    """Exact orthogonality of the auxiliary sequence prefix n <= k <= kmax."""
    if kmax < n:
        raise ValueError(f"kmax must be >= n, got n={n}, kmax={kmax}")
    n, kmax = index(n), index(kmax)
    aux = {k: aux_coefficients(n, k) for k in range(n, kmax + 1)}
    note = "sign of x^k coefficient must be (-1)^(k-n)"
    return _orthogonality_reports(n, aux, ("aux_orthogonality", "aux_sign"), lambda k: k, note)


def _recurrence_residual(r: RecurrenceCoefficients, p: Polynomial, below: Polynomial, above: Polynomial) -> Polynomial:
    # a x P_{n,k-1} - (b - c x) P_nk + d x P_{n,k+1}, exact
    return _combine((r.a, 1, below), (-r.b, 0, p), (r.c, 1, p), (r.d, 1, above))


def _raising_residual(r: RecurrenceCoefficients, p: Polynomial, dp: Polynomial, above: Polynomial) -> Polynomial:
    # alpha x(1-x) P' - (beta - gamma x) P + delta x P_{n,k+1}, exact
    return _combine((r.alpha, 1, dp), (-r.alpha, 2, dp), (-r.beta, 0, p), (r.gamma, 1, p), (r.delta, 1, above))


def _lowering_residual(
    r: RecurrenceCoefficients, p: Polynomial, dp: Polynomial, below: Polynomial, mu: int
) -> Polynomial:
    # kappa x(x-1) P' - (lam - mu x) P + nu x P_{n,k-1}, exact
    return _combine((r.kappa, 2, dp), (-r.kappa, 1, dp), (-r.lam, 0, p), (mu, 1, p), (r.nu, 1, below))


def _pair_reports(n: int, k: int) -> list[IdentityReport]:
    p = alp_coefficients(n, k)
    r = recurrence_coefficients(n, k)
    dp = p.derivative()
    # no P_{n,n+1}: at k = n its factors d and delta vanish and the zero polynomial stands in
    above = alp_coefficients(n, k + 1) if k < n else Polynomial()
    unit = p.integrate01() - Fraction(1, n + 1)
    reports = [
        IdentityReport("unit_integral", n, k, unit == 0, str(abs(unit))),
        _poly_report("ode", n, k, ode_residual(n, k)),
        _poly_report("derivative_raising", n, k, _raising_residual(r, p, dp, above)),
    ]
    if k >= 1:
        below = alp_coefficients(n, k - 1)
        reports += [
            _poly_report("recurrence", n, k, _recurrence_residual(r, p, below, above)),
            _poly_report("derivative_lowering", n, k, _lowering_residual(r, p, dp, below, r.mu),
                         f"corrected mu={r.mu}"),
            _poly_report("derivative_lowering_published", n, k, _lowering_residual(r, p, dp, below, r.mu_published),
                         f"published mu={r.mu_published}, corrected mu={r.mu}; failure expected"),
        ]
    # the coefficient routes, each compared with p; built here, not at module level, so routes resolve at call time
    routes = (
        ("rodrigues", alp_coefficients_rodrigues(n, k), ""),
        ("reciprocity", reciprocity_transform(n, k), ""),
        ("hypergeometric", alp_coefficients_hypergeometric(n, k, CORRECTED),
         "corrected parameters C(n+k+1,n-k), c=2k+2"),
        ("hypergeometric_published", alp_coefficients_hypergeometric(n, k, PUBLISHED),
         "published parameters C(n+k,n-k), c=2k+1; failure expected for k < n"),
        ("jacobi_form", alp_coefficients_jacobi(n, k, CORRECTED), "corrected superscripts (2k+1, 0)"),
        ("jacobi_form_published", alp_coefficients_jacobi(n, k, PUBLISHED),
         "published superscripts (2k, 1); failure expected for k < n"),
    )
    for identity, route, note in routes:
        # route == p is exactly "residual is zero"; the difference is formed only for a failure
        reports.append(_poly_report(identity, n, k, Polynomial() if route == p else route - p, note))
    return reports


def verify_identity_suite(nmax: int) -> list[IdentityReport]:
    """Run every exact identity for all 0 <= k <= n <= nmax.

    Published-constant variants are included on purpose; they are expected
    to fail (see ``expected_to_pass``), which is what certifies the
    misprints reproducibly. Reports come back in canonical
    (n, k, identity) order.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    reports = []
    for n in range(nmax + 1):
        for k in range(n + 1):
            reports.extend(_pair_reports(n, k))
    reports.sort(key=_report_order)
    return reports


def _report_stream(nmax: int) -> list[IdentityReport]:
    """Every report of ``alpquad verify --max-n nmax``, in (n, k, identity) order."""
    reports = verify_identity_suite(nmax)
    for n in range(nmax + 1):
        reports.extend(verify_orthogonality(n))
        reports.extend(verify_aux_orthogonality(n, nmax))
    # the sort is stable: each orthogonality and aux run keeps its pairs in l order
    reports.sort(key=_report_order)
    return reports


def expected_to_pass(identity: str, n: int, k: int) -> bool:
    """Expected outcome per identity: published misprints must fail.

    The published hypergeometric/Jacobi parameters coincide with the
    corrected ones at k = n (the connection factor has degree zero), so
    those checks legitimately pass there.
    """
    if identity == "derivative_lowering_published":
        return False
    if identity in ("hypergeometric_published", "jacobi_form_published"):
        return k == n
    return True


def suite_passes(reports) -> bool:
    """True iff every report matches its expected outcome."""
    return all(r.passed == expected_to_pass(r.identity, r.n, r.k) for r in reports)


def _det(rows) -> Scalar:
    # Laplace expansion along the first row; exact over int and Fraction entries
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]]) for j, c in enumerate(rows[0]))


def _solve_exact(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Fraction]:
    """Cramer's rule over Fraction; raises on a singular system."""
    d = _det(rows)
    if d == 0:
        raise ValueError("singular system")
    # column j of the matrix replaced by the right-hand side, over the determinant
    return [Fraction(_det([r[:j] + [b] + r[j + 1:] for r, b in zip(rows, rhs)]), d) for j in range(len(rows))]


def fit_lowering_coefficients(n: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Re-derive (lam, mu, nu) of the lowering formula by exact linear fit.

    With kappa = 2k fixed, matching coefficients of
    kappa x(x-1) P'_nk = (lam - mu x) P_nk - nu x P_{n,k-1} is linear in
    (lam, mu, nu). The system is overdetermined for k < n; every equation
    must be satisfied by the solved triple or this raises. At k = n only
    two powers carry information, so lam is pinned to its (undisputed)
    value 2k(k+1) and (mu, nu) are solved.

    This is the independent derivation that justifies hard-coding the
    corrected mu; the published mu fails this fit for every k >= 1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"lowering formula requires 1 <= k <= n, got n={n}, k={k}")
    n, k = index(n), index(k)
    p = alp_coefficients(n, k)
    below = alp_coefficients(n, k - 1)
    kappa = 2 * k
    dp = p.derivative()
    lhs = _combine((kappa, 2, dp), (-kappa, 1, dp))
    rows, rhs = [], []
    for power in range(n + 2):
        row = [p.coeff(power), -p.coeff(power - 1), -below.coeff(power - 1)]
        if any(row) or lhs.coeff(power) != 0:
            rows.append(row)
            rhs.append(lhs.coeff(power))
    if len(rows) >= 3:
        sol = _solve_exact(rows[:3], rhs[:3])
    else:
        lam = Fraction(2 * k * (k + 1))
        sol = [lam] + _solve_exact(
            [row[1:] for row in rows], [rhs[i] - rows[i][0] * lam for i in range(len(rows))]
        )
    for row, want in zip(rows, rhs):
        if sum(c * s for c, s in zip(row, sol)) != want:
            raise ValueError(f"lowering fit inconsistent at n={n}, k={k}")
    return sol[0], sol[1], sol[2]
