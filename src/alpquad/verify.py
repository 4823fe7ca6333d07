"""Exact identity verification for the family and its misprinted constants.

Every check here runs in rational arithmetic and produces an
``IdentityReport``; a report passes iff the residual is exactly zero, so
failures are decisive data rather than tolerance judgements.

A relation is one record of ``family._RELATIONS``: its terms, each a
power of x and a member (P, P', P'', P_{n,k-1} or P_{n,k+1}) scaled by a
factor read from the pair's ``RecurrenceCoefficients``, summed in one
integer linear combination (``exactpoly._combine``); its least k; its
note template; and its expected outcome beside it. A coefficient route
is one record of ``_ROUTES``, compared with the member directly, its
difference formed only when it fails. Checks based on the published
constants (``*_published`` identities) are expected to fail wherever the
misprint bites; ``expected_to_pass`` reads that from the records (a
check without one, such as orthogonality, is expected to pass) and
``suite_passes`` compares a report stream against it. The lowering
formula's constants are re-derived by ``fit_lowering_coefficients``, an
exact linear fit of the lowering record itself, solved by Cramer's rule.

Reports serialize to JSON lines:
    {"identity": str, "n": int, "k": int, "pass": bool, "residual": str, "note": str}
The schema is declared once, in ``_REPORT_SCHEMA``: the JSON keys and the
``alpquad verify`` CSV header are those six names, in the field order of
``IdentityReport``, whose ``passed`` serialises as "pass", and
``report_from_json`` takes each field only with its JSON type (an ``n``
or ``k`` that is a bool is refused).

Every check builds its report through ``_report``, which derives ``passed``
from the residual and interns the note. A report is a slotted frozen
record that shares its note with every report of the same note (the
order-20 set of 6,713 reports holds 444 distinct notes), so it retains
about 101 bytes against 183 for a dict-backed report with its own note.
A report has no ``__dict__``: ``vars(report)`` raises TypeError and a
report cannot be weak-referenced; ``dataclasses.fields``, ``replace`` and
``asdict`` work as before.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from operator import attrgetter, mul

from .exactpoly import Polynomial, Scalar, _check_aux_index, _check_count, _check_index
from .family import _ALWAYS, _AT_N, _RELATIONS, _pair_members, _relation_residual
from .family import (
    CORRECTED,
    PUBLISHED,
    alp_coefficients,
    alp_coefficients_hypergeometric,
    alp_coefficients_jacobi,
    alp_coefficients_rodrigues,
    aux_coefficients,
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


# the serialised names of the IdentityReport fields, in field order, each with its JSON type
_REPORT_SCHEMA = {"identity": str, "n": int, "k": int, "pass": bool, "residual": str, "note": str}


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Outcome of one exact check; passed iff residual is exactly zero."""

    identity: str
    n: int
    k: int
    passed: bool
    residual: str
    note: str = ""

    def json_line(self) -> str:
        return json.dumps(dict(zip(_REPORT_SCHEMA, _report_fields(self))))


# the fields in field order, as a tuple; astuple would deep-copy each one
_report_fields = attrgetter(*(f.name for f in fields(IdentityReport)))
# the canonical report order, shared by the identity suite and ``alpquad verify``
_report_order = attrgetter("n", "k", "identity")


def _report(identity: str, n: int, k: int, residual: str, note: str = "") -> IdentityReport:
    """The report of one check: it passes iff residual is "0", and its note is
    interned, so each distinct note is one string however many reports hold it."""
    return IdentityReport(identity, n, k, residual == "0", residual, sys.intern(note))


def report_from_json(line: str) -> IdentityReport:
    """The report of one JSON line, built through ``_report``; raises ValueError, naming
    the line, when it is not a JSON object, a key is missing, "pass" is not the bool
    residual == "0", or a field is not of its type in ``_REPORT_SCHEMA``."""
    d = json.loads(line)
    if type(d) is not dict:
        raise ValueError(f"report line {line!r} is not a JSON object")
    missing = [key for key in _REPORT_SCHEMA if key not in d]
    if missing:
        raise ValueError(f"report line {line!r} lacks {', '.join(missing)}")
    passed = d["residual"] == "0"
    if d["pass"] is not passed:
        raise ValueError(f"report line {line!r}: \"pass\" must be {json.dumps(passed)} for its residual")
    for key, kind in _REPORT_SCHEMA.items():
        if type(d[key]) is not kind:  # not isinstance: a bool is no int here
            raise ValueError(f"report line {line!r}: {key} must be {kind.__name__}, got {type(d[key]).__name__}")
    return _report(d["identity"], d["n"], d["k"], d["residual"], d["note"])


def reports_to_json_lines(reports) -> str:
    return "\n".join(r.json_line() for r in reports)


def _poly_report(identity: str, n: int, k: int, residual: Polynomial, note: str = "") -> IdentityReport:
    return _report(identity, n, k, "0" if residual.is_zero else str(residual.max_abs_coeff()), note)


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
            reports.append(_report(names[0], n, k, residual, f"l={l}; expected {expected}"))
        ok = (p.coeff(sign_power(k)) > 0) == ((k - n) % 2 == 0)
        reports.append(_report(names[1], n, k, "0" if ok else "1", sign_note))
    return reports


def verify_orthogonality(n: int) -> list[IdentityReport]:
    """Exact pairwise orthogonality, diagonal norms 1/(2k+1), and sign checks."""
    n = _check_count(n, "n")
    fam = {k: alp_coefficients(n, k) for k in range(n + 1)}
    note = "sign of x^n coefficient must be (-1)^(n-k)"
    return _orthogonality_reports(n, fam, ("orthogonality", "sign_normalization"), lambda k: n, note)


def verify_aux_orthogonality(n: int, kmax: int) -> list[IdentityReport]:
    """Exact orthogonality of the auxiliary sequence prefix n <= k <= kmax."""
    n, kmax = _check_aux_index(n, kmax)
    aux = {k: aux_coefficients(n, k) for k in range(n, kmax + 1)}
    note = "sign of x^k coefficient must be (-1)^(k-n)"
    return _orthogonality_reports(n, aux, ("aux_orthogonality", "aux_sign"), lambda k: k, note)


# The coefficient routes, one record each, led like a relation record of
# ``family._RELATIONS``: name -> (expected outcome, note, route). Each route builds
# P_nk another way and is compared with it. A route is looked up when it is called,
# so a route replaced on this module is the one checked.
_ROUTES = {
    "rodrigues": (_ALWAYS, "", lambda n, k: alp_coefficients_rodrigues(n, k)),
    "reciprocity": (_ALWAYS, "", lambda n, k: reciprocity_transform(n, k)),
    "hypergeometric": (_ALWAYS, "corrected parameters C(n+k+1,n-k), c=2k+2",
                       lambda n, k: alp_coefficients_hypergeometric(n, k, CORRECTED)),
    "hypergeometric_published": (_AT_N, "published parameters C(n+k,n-k), c=2k+1; failure expected for k < n",
                                 lambda n, k: alp_coefficients_hypergeometric(n, k, PUBLISHED)),
    "jacobi_form": (_ALWAYS, "corrected superscripts (2k+1, 0)", lambda n, k: alp_coefficients_jacobi(n, k, CORRECTED)),
    "jacobi_form_published": (_AT_N, "published superscripts (2k, 1); failure expected for k < n",
                              lambda n, k: alp_coefficients_jacobi(n, k, PUBLISHED)),
}


def _pair_reports(n: int, k: int) -> list[IdentityReport]:
    members = _pair_members(n, k)
    p = members[0]
    r = recurrence_coefficients(n, k)
    reports = [_report("unit_integral", n, k, str(abs(p.integrate01() - Fraction(1, n + 1))))]
    reports += [_poly_report(identity, n, k, _relation_residual(factors, terms, r, members), note and note.format(r=r))
                for identity, (_, note, kmin, factors, terms) in _RELATIONS.items() if k >= kmin]
    # q == p is exactly "residual is zero"; the difference is formed only for a failure
    return reports + [_poly_report(identity, n, k, Polynomial() if (q := route(n, k)) == p else q - p, note)
                      for identity, (_, note, route) in _ROUTES.items()]


def verify_identity_suite(nmax: int) -> list[IdentityReport]:
    """Run every exact identity for all 0 <= k <= n <= nmax.

    Published-constant variants are included on purpose; they are expected
    to fail (see ``expected_to_pass``), which is what certifies the
    misprints reproducibly. Reports come back in canonical
    (n, k, identity) order.
    """
    nmax = _check_count(nmax, "nmax")
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
    """Expected outcome per identity, read from its record: published misprints must fail.

    The published hypergeometric/Jacobi parameters coincide with the
    corrected ones at k = n (the connection factor has degree zero), so
    those checks legitimately pass there. A check without a record, such as
    an orthogonality check, is expected to pass.
    """
    outcome = (_RELATIONS.get(identity) or _ROUTES.get(identity) or (_ALWAYS,))[0]
    return outcome == _ALWAYS or (outcome == _AT_N and k == n)


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

    The residual of the corrected lowering record,
    kappa x(x-1) P'_nk - (lam - mu x) P_nk + nu x P_{n,k-1} with kappa = 2k,
    is linear in (lam, mu, nu): the record evaluated with all three set to
    zero gives its constant part, and with each set to 1 in turn, that
    part plus one column. Matching coefficients to zero is overdetermined
    for k < n; every equation must be satisfied by the solved triple or
    this raises. At k = n only two powers carry information, so lam is
    pinned to its (undisputed) value 2k(k+1) and (mu, nu) are solved.

    This is the independent derivation that justifies hard-coding the
    corrected mu; the published mu fails this fit for every k >= 1.
    """
    n, k = _check_index(n, k, 1, "lowering formula")
    factors, terms = _RELATIONS["derivative_lowering"][3:]
    members = _pair_members(n, k)
    r = replace(recurrence_coefficients(n, k), lam=0, mu=0, nu=0)
    base = _relation_residual(factors, terms, r, members)
    cols = [_relation_residual(factors, terms, replace(r, **{name: 1}), members) - base for name in ("lam", "mu", "nu")]
    # one equation per power that carries information: row . (lam, mu, nu) = -base
    eqs = [([col.coeff(i) for col in cols], -base.coeff(i)) for i in range(n + 2)]
    rows, rhs = zip(*[(row, b) for row, b in eqs if any(row) or b])
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
