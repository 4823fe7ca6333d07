"""The exact verification suite and the misprint reports."""

import dataclasses
import gc
import hashlib
import importlib
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from alpquad import (
    IdentityReport,
    Polynomial,
    alp_coefficients,
    aux_coefficients,
    expected_to_pass,
    fit_lowering_coefficients,
    inner_product,
    report_from_json,
    reports_to_json_lines,
    suite_passes,
    verify_aux_orthogonality,
    verify_identity_suite,
    verify_orthogonality,
)
from alpquad import cli, verify
from alpquad.family import CORRECTED, PUBLISHED, ode_residual, recurrence_coefficients
from alpquad.verify import _orthogonality_reports, _report_stream

# the package attribute alpquad.family is the family() function, not the module
family_module = importlib.import_module("alpquad.family")
BENCH = Path(__file__).resolve().parent.parent / "bench"


def by_identity(reports, name):
    return [r for r in reports if r.identity == name]


def test_orthogonality_n2_all_pairs_pass():
    reports = verify_orthogonality(2)
    pair_reports = by_identity(reports, "orthogonality")
    assert len(pair_reports) == 6
    assert all(r.passed for r in reports)


def test_orthogonality_n0_single_check():
    reports = verify_orthogonality(0)
    assert all(r.passed for r in reports)
    assert len(by_identity(reports, "orthogonality")) == 1


def test_orthogonality_norms_n5():
    # diagonal norms 1/(2k+1): descending k gives 1/11, 1/9, ..., 1/3, 1
    for k in range(6):
        p = alp_coefficients(5, k)
        assert inner_product(p, p) == Fraction(1, 2 * k + 1)
    assert all(r.passed for r in verify_orthogonality(5))


def test_aux_orthogonality_values():
    p11 = Fraction(0)
    # direct checks behind the reports
    assert inner_product(aux_coefficients(1, 1), aux_coefficients(1, 2)) == p11
    assert inner_product(aux_coefficients(1, 2), aux_coefficients(1, 2)) == Fraction(1, 5)
    assert inner_product(aux_coefficients(0, 1), aux_coefficients(0, 1)) == Fraction(1, 3)
    assert all(r.passed for r in verify_aux_orthogonality(1, 2))
    assert all(r.passed for r in verify_aux_orthogonality(0, 4))


def test_aux_orthogonality_validation():
    with pytest.raises(ValueError):
        verify_aux_orthogonality(3, 2)


def test_suite_counts_and_expectations():
    reports = verify_identity_suite(2)
    assert len(reports) >= 40
    assert suite_passes(reports)
    failed = {(r.identity, r.n, r.k) for r in reports if not r.passed}
    # published constants fail exactly where the misprints bite
    assert ("derivative_lowering_published", 2, 1) in failed
    assert ("derivative_lowering_published", 2, 2) in failed
    assert ("hypergeometric_published", 2, 1) in failed
    assert ("jacobi_form_published", 2, 1) in failed
    # degree-zero connection factor: published forms coincide at k = n
    assert ("hypergeometric_published", 2, 2) not in failed
    assert ("jacobi_form_published", 2, 2) not in failed


def test_lowering_published_residual_value():
    # residual polynomial with published mu is 2k x P_nk; at (2,1) that is
    # 8x^2 - 10x^3, max |coefficient| 10
    reports = verify_identity_suite(2)
    rep = next(
        r for r in reports if r.identity == "derivative_lowering_published" and (r.n, r.k) == (2, 1)
    )
    assert not rep.passed
    assert rep.residual == "10"


def test_published_hypergeometric_and_jacobi_reports_carry_one_residual():
    # the two published routes build one polynomial, so they fail together, with one residual
    reports = _report_stream(30)
    hyper = {(r.n, r.k): r.residual for r in by_identity(reports, "hypergeometric_published")}
    jacobi = {(r.n, r.k): r.residual for r in by_identity(reports, "jacobi_form_published")}
    assert len(hyper) == 496 and hyper == jacobi
    assert sum(residual != "0" for residual in hyper.values()) == 465


def test_recurrence_identity_report_passes():
    reports = verify_identity_suite(2)
    rep = next(r for r in reports if r.identity == "recurrence" and (r.n, r.k) == (2, 1))
    assert rep.passed and rep.residual == "0"


def test_unit_integral_example():
    assert alp_coefficients(1, 0).integrate01() == Fraction(1, 2)
    reports = verify_identity_suite(1)
    assert all(r.passed for r in by_identity(reports, "unit_integral"))


def test_suite_nmax0():
    reports = verify_identity_suite(0)
    assert suite_passes(reports)
    # only the k = n = 0 pair exists, where published forms coincide
    assert all(r.passed for r in reports if r.identity != "derivative_lowering_published")


def test_suite_canonical_order():
    reports = verify_identity_suite(3)
    keys = [(r.n, r.k, r.identity) for r in reports]
    assert keys == sorted(keys)


def test_suite_passes_detects_flips():
    reports = verify_identity_suite(1)
    assert suite_passes(reports)
    flipped = [
        IdentityReport(r.identity, r.n, r.k, not r.passed, r.residual, r.note) for r in reports[:1]
    ] + reports[1:]
    assert not suite_passes(flipped)


def test_expected_to_pass_table():
    assert expected_to_pass("recurrence", 5, 2)
    assert not expected_to_pass("derivative_lowering_published", 5, 2)
    assert not expected_to_pass("hypergeometric_published", 5, 2)
    assert expected_to_pass("hypergeometric_published", 5, 5)
    assert expected_to_pass("jacobi_form_published", 4, 4)
    assert not expected_to_pass("jacobi_form_published", 4, 0)


def test_report_json_roundtrip_and_schema(capsys):
    """Every report kind of a verify run, failing published checks and
    l=... notes included, round-trips through JSON, and its keys, in
    order, are the CSV header of ``alpquad verify``."""
    assert cli.main(["verify", "--max-n", "0", "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    reports = _report_stream(6)
    assert {r.identity for r in reports} >= {"orthogonality", "aux_orthogonality", "aux_sign", "sign_normalization"}
    assert any(not r.passed for r in reports) and any(r.note.startswith("l=") for r in reports)
    for rep in reports:
        line = rep.json_line()
        assert list(json.loads(line)) == header
        assert report_from_json(line) == rep
    lines = reports_to_json_lines(reports).splitlines()
    assert len(lines) == len(reports)
    # a slotted, frozen record: no instance dict, no assignment, and the dataclass helpers still work
    rep = reports[0]
    assert not hasattr(rep, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.passed = not rep.passed
    flipped = dataclasses.replace(rep, passed=not rep.passed)
    assert flipped.passed != rep.passed and flipped.identity == rep.identity
    assert list(dataclasses.asdict(rep)) == [f.name for f in dataclasses.fields(IdentityReport)]
    # the pass rule is the residual's, stated once
    assert all(r.passed == (r.residual == "0") for r in _report_stream(12))
    # one string per distinct note, however many runs hold it
    assert all(a.note is b.note for a, b in zip(verify_orthogonality(5), verify_orthogonality(5)))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"pass": True, "residual": "5"}, '"pass" must be false'),
        ({"pass": False, "residual": "0"}, '"pass" must be true'),
        ({"pass": "yes"}, '"pass" must be true'),
        ({"pass": 1}, '"pass" must be true'),
        ({"note": None}, "lacks note"),
        ({"pass": None, "residual": None}, "lacks pass, residual"),
    ],
    ids=["true-with-residual", "false-with-zero", "str", "int", "no-note", "no-pass-no-residual"],
)
def test_report_from_json_rejects_a_contradicting_or_incomplete_line(edit, message):
    # a None in edit drops that key
    d = json.loads(verify_orthogonality(2)[0].json_line()) | edit
    line = json.dumps({key: value for key, value in d.items() if value is not None})
    with pytest.raises(ValueError, match=message) as caught:
        report_from_json(line)
    assert repr(line) in str(caught.value)


_GOOD_LINE = {"identity": "orthogonality", "n": 2, "k": 0, "pass": True, "residual": "0", "note": "l=0; expected 1"}


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"identity": "x", "n": "one", "k": 2.5, "pass": false, "residual": 0, "note": ""}', "n must be int, got str"),
        (json.dumps(_GOOD_LINE | {"identity": 1}), "identity must be str, got int"),
        (json.dumps(_GOOD_LINE | {"n": True}), "n must be int, got bool"),
        (json.dumps(_GOOD_LINE | {"k": 0.0}), "k must be int, got float"),
        (json.dumps(_GOOD_LINE | {"pass": False, "residual": 5}), "residual must be str, got int"),
        (json.dumps(_GOOD_LINE | {"note": 3}), "note must be str, got int"),
        (json.dumps(_GOOD_LINE | {"note": None}), "note must be str, got NoneType"),
        (json.dumps(_GOOD_LINE | {"note": ["l=0"]}), "note must be str, got list"),
        ("5", "is not a JSON object"),
        ("null", "is not a JSON object"),
        ('"orthogonality"', "is not a JSON object"),
        (json.dumps(list(_GOOD_LINE.values())), "is not a JSON object"),
    ],
    ids=["strings-for-numbers", "int-identity", "bool-n", "float-k", "int-residual", "int-note", "null-note",
         "list-note", "number", "null", "string", "array"],
)
def test_report_from_json_rejects_a_line_of_the_wrong_types(line, message):
    assert report_from_json(json.dumps(_GOOD_LINE)) == verify_orthogonality(2)[0]
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        report_from_json(line)
    assert repr(line) in str(caught.value)


def test_reports_retain_at_most_128_bytes_each():
    """The order-20 report set of verify-sweep, measured with tracemalloc once
    its members are cached: a slotted report that shares its note retains
    about 101 bytes (Python 3.11), a dict-backed one with its own note 183."""

    def report_set():
        reports = verify_identity_suite(20)
        for n in range(21):
            reports += verify_orthogonality(n)
            reports += verify_aux_orthogonality(n, 20)
        return reports

    report_set()
    gc.collect()
    tracemalloc.start()
    try:
        reports = report_set()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(reports) == 6713
    assert retained / len(reports) <= 128, retained / len(reports)


def test_full_suite_to_n12_behaves_as_expected():
    reports = verify_identity_suite(12)
    assert suite_passes(reports)
    for r in reports:
        if r.identity.endswith("_published"):
            continue
        assert r.passed, (r.identity, r.n, r.k, r.residual)


def test_lowering_fit_reproduces_corrected_mu():
    assert fit_lowering_coefficients(2, 1) == (4, 12, 8)
    assert fit_lowering_coefficients(2, 2) == (12, 17, 5)
    for n in range(1, 13):
        for k in range(1, n + 1):
            lam, mu, nu = fit_lowering_coefficients(n, k)
            assert all(type(v) is Fraction for v in (lam, mu, nu))
            assert lam == 2 * k * (k + 1)
            assert nu == (n - k + 1) * (n + k + 1)
            assert mu == (n + 1) ** 2 + k * k + 2 * k
            assert mu != (n + 1) ** 2 + k * k  # the published constant never fits


def test_lowering_fit_validation():
    with pytest.raises(ValueError):
        fit_lowering_coefficients(3, 0)


@pytest.mark.parametrize(
    "rows, rhs",
    [
        ([[1, 2], [2, 4]], [3, 6]),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 2, 3]),
        ([[Fraction(1, 2), 1, 0], [0, 0, 0], [3, 1, 2]], [1, 0, 1]),
    ],
)
def test_exact_solver_rejects_singular_systems(rows, rhs):
    with pytest.raises(ValueError, match="singular system"):
        verify._solve_exact(rows, rhs)


def test_exact_solver_solves_exactly():
    # an all-integer system whose solution is (1/2, -2/3, 5/7): integer
    # determinants must divide as Fractions, never as floats
    rows, rhs = [[2, 3, 7], [4, -6, 0], [2, 3, 14]], [4, 6, 9]
    got = verify._solve_exact(rows, rhs)
    assert got == [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    assert all(type(x) is Fraction for x in got)
    got = verify._solve_exact([[1, 1], [1, -1]], [3, 1])
    assert got == [2, 1] and all(type(x) is Fraction for x in got)


# ---------------------------------------------------------------------------
# The moment-based orthogonality reports against the definition


def reference_orthogonality(n, members, names, sign_power, sign_note):
    """The reports of _orthogonality_reports, built pair by pair from
    inner_product and the expected rule 1/(k+l+1) on the diagonal, 0 off it."""
    reports = []
    for k in sorted(members):
        for l in range(k, max(members) + 1):
            expected = Fraction(1, k + l + 1) if k == l else Fraction(0)
            diff = inner_product(members[k], members[l]) - expected
            note = f"l={l}; expected {expected}"
            reports.append(IdentityReport(names[0], n, k, diff == 0, str(abs(diff)), note))
        ok = (members[k].coeff(sign_power(k)) > 0) == ((k - n) % 2 == 0)
        reports.append(IdentityReport(names[1], n, k, ok, "0" if ok else "1", sign_note))
    return reports


def test_orthogonality_reports_equal_the_inner_product_reference():
    kmax = 24
    for n in range(kmax + 1):
        fam = {k: alp_coefficients(n, k) for k in range(n + 1)}
        want = reference_orthogonality(
            n, fam, ("orthogonality", "sign_normalization"), lambda k: n,
            "sign of x^n coefficient must be (-1)^(n-k)",
        )
        assert verify_orthogonality(n) == want
        aux = {k: aux_coefficients(n, k) for k in range(n, kmax + 1)}
        want = reference_orthogonality(
            n, aux, ("aux_orthogonality", "aux_sign"), lambda k: k,
            "sign of x^k coefficient must be (-1)^(k-n)",
        )
        assert verify_aux_orthogonality(n, kmax) == want


@pytest.mark.parametrize("n, k, power", [(6, 2, 4), (9, 9, 0), (12, 0, 12), (3, 1, 0)])
def test_orthogonality_reports_catch_a_perturbed_member(n, k, power):
    fam = {j: alp_coefficients(n, j) for j in range(n + 1)}
    bumped = list(fam[k].coeffs)
    bumped[power] += 1
    fam[k] = Polynomial(bumped)
    names = ("orthogonality", "sign_normalization")
    got = _orthogonality_reports(n, fam, names, lambda j: n, "sign note")
    want = reference_orthogonality(n, fam, names, lambda j: n, "sign note")
    assert got == want
    failed = [r for r in got if r.identity == "orthogonality" and not r.passed]
    assert failed and all(r.residual != "0" for r in failed)
    # only pairs that contain the perturbed member can fail
    assert all(r.k == k or r.note.startswith(f"l={k};") for r in failed)


def test_order_20_json_stream_is_pinned():
    # assembled as `alpquad verify --max-n 20 --format json` prints it; the
    # by-note pin, of the order `verify` had until it sorted by (n, k, identity)
    # alone, was taken with inner products summed one Fraction per product term
    nmax = 20
    reports = verify_identity_suite(nmax)
    for n in range(nmax + 1):
        reports.extend(verify_orthogonality(n))
        reports.extend(verify_aux_orthogonality(n, nmax))
    reports.sort(key=lambda r: (r.n, r.k, r.identity))
    assert len(reports) == 6713
    assert _report_stream(nmax) == reports

    def digest(reports):
        return hashlib.sha256((reports_to_json_lines(reports) + "\n").encode()).hexdigest()

    assert digest(reports) == "ad95cf780f66435de9773207ad1456ede93ed2e072e2f9dc512cbacd99d05d7e"
    by_note = sorted(reports, key=lambda r: (r.n, r.k, r.identity, r.note))
    assert digest(by_note) == "690d2704e5d07c02ed331fc24002273b7f80e4693892a376ddf2d677ab5a9f28"


def test_orthogonality_rejects_negative_order():
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        verify_orthogonality(-1)


# ---------------------------------------------------------------------------
# The one-pass residuals against the operator chains they replace


def chain_recurrence_residual(member, n, k):
    r = recurrence_coefficients(n, k)
    p = member(n, k)
    below = member(n, k - 1)
    res = r.a * below.shifted(1) - r.b * p + r.c * p.shifted(1)
    if k < n:
        res = res + r.d * member(n, k + 1).shifted(1)
    return res


def chain_raising_residual(member, n, k):
    r = recurrence_coefficients(n, k)
    p = member(n, k)
    dp = p.derivative()
    res = r.alpha * (dp.shifted(1) - dp.shifted(2)) - r.beta * p + r.gamma * p.shifted(1)
    if k < n:
        res = res + r.delta * member(n, k + 1).shifted(1)
    return res


def chain_lowering_residual(member, n, k, mu):
    r = recurrence_coefficients(n, k)
    p = member(n, k)
    dp = p.derivative()
    return (
        r.kappa * (dp.shifted(2) - dp.shifted(1))
        - r.lam * p
        + mu * p.shifted(1)
        + r.nu * member(n, k - 1).shifted(1)
    )


def chain_ode_residual(member, n, k):
    zeta = member(n, k).shifted(1)
    z1 = zeta.derivative()
    z2 = z1.derivative()
    return (
        z2.shifted(2)
        - z2.shifted(3)
        - z1.shifted(2)
        + (n + 1) ** 2 * zeta.shifted(1)
        - k * (k + 1) * zeta
    )


def bumped_member(n, k):
    """A member off by x^j/(k+2): every identity fails, with Fraction residuals."""
    return alp_coefficients(n, k) + Polynomial.monomial((n + k) % (n + 1), Fraction(1, k + 2))


CHAINS = {
    "ode": chain_ode_residual,
    "derivative_raising": chain_raising_residual,
    "recurrence": chain_recurrence_residual,
    "derivative_lowering": lambda member, n, k: chain_lowering_residual(member, n, k, recurrence_coefficients(n, k).mu),
    "derivative_lowering_published": lambda member, n, k: chain_lowering_residual(
        member, n, k, recurrence_coefficients(n, k).mu_published
    ),
}


@pytest.mark.parametrize("member", [alp_coefficients, bumped_member], ids=["members", "bumped"])
def test_residuals_equal_the_operator_chains(monkeypatch, member):
    # the relation records, and ode_residual, read their members from the family module
    monkeypatch.setattr(family_module, "alp_coefficients", member)
    assert list(family_module._RELATIONS) == list(CHAINS)
    for n in range(17):
        for k in range(n + 1):
            r, members = recurrence_coefficients(n, k), family_module._pair_members(n, k)
            assert ode_residual(n, k) == chain_ode_residual(member, n, k), (n, k)
            for name, (_, _, kmin, factors, terms) in family_module._RELATIONS.items():
                if k >= kmin:
                    got = family_module._relation_residual(factors, terms, r, members)
                    assert got == CHAINS[name](member, n, k), (name, n, k)


def test_the_relation_records_drive_the_suite(monkeypatch):
    """A factor off by one in one record fails exactly that identity, at every
    pair it applies to, and changes no other report."""
    outcome, note, kmin, factors, terms = family_module._RELATIONS["recurrence"]
    r = recurrence_coefficients(5, 2)
    assert (factors(r)[2], terms[2]) == (r.c, (1, family_module._P))

    def c_off_by_one(r):
        a, b, c, d = factors(r)
        return a, b, c + 1, d

    monkeypatch.setitem(verify._RELATIONS, "recurrence", (outcome, note, kmin, c_off_by_one, terms))
    got = verify_identity_suite(8)
    monkeypatch.undo()
    clean = verify_identity_suite(8)
    assert [(r.n, r.k, r.identity) for r in got] == [(r.n, r.k, r.identity) for r in clean]
    broken = [rep for rep in got if rep.identity == "recurrence"]
    assert [(rep.n, rep.k) for rep in broken] == [(n, k) for n in range(9) for k in range(kmin, n + 1)]
    # the residual grows by x P_nk, so its largest coefficient is P_nk's
    assert all(rep.residual == str(alp_coefficients(rep.n, rep.k).max_abs_coeff()) for rep in broken)
    assert all(rep == ref for rep, ref in zip(got, clean) if rep.identity != "recurrence")


def test_expected_to_pass_reads_the_records():
    outcomes = {name: record[0] for name, record in (*family_module._RELATIONS.items(), *verify._ROUTES.items())}
    reports = _report_stream(12)
    assert set(outcomes) <= {r.identity for r in reports}
    for r in reports:
        want = {"always": True, "never": False, "only at k = n": r.k == r.n}[outcomes.get(r.identity, "always")]
        assert expected_to_pass(r.identity, r.n, r.k) == want, r


def test_records_match_the_benchmark_oracle(monkeypatch):
    """The records name the identities, and give the least k and expected
    outcome, that the benchmark's own checks (bench/checks.py) hold."""
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    least_k = {name: record[2] for name, record in family_module._RELATIONS.items()}
    least_k |= dict.fromkeys(verify._ROUTES, 0)
    least_k["unit_integral"] = 0  # the one identity check built outside the records
    assert sorted(least_k) == sorted(checks.SUITE_IDENTITIES + checks.LOWERING_IDENTITIES)
    assert {name for name, kmin in least_k.items() if kmin == 0} == set(checks.SUITE_IDENTITIES)
    assert {name for name, kmin in least_k.items() if kmin == 1} == set(checks.LOWERING_IDENTITIES)
    names = (*least_k, "orthogonality", "sign_normalization", "aux_orthogonality", "aux_sign")
    for name in names:
        for n in range(13):
            for k in range(n + 1):
                assert expected_to_pass(name, n, k) == checks.paper_outcome(name, n, k), (name, n, k)


def difference_residual(route_poly, p):
    """max |route - p| over padded Fraction coefficients, as a report prints it."""
    size = max(route_poly.degree, p.degree) + 1
    return str(max((abs(Fraction(route_poly.coeff(i)) - p.coeff(i)) for i in range(size)), default=0))


@pytest.mark.parametrize(
    "route, identities, extra",
    [
        ("alp_coefficients_rodrigues", {"rodrigues": ()}, Polynomial([1])),
        (
            "alp_coefficients_jacobi",
            {"jacobi_form": (CORRECTED,), "jacobi_form_published": (PUBLISHED,)},
            Polynomial.monomial(3, Fraction(1, 2)),
        ),
    ],
)
def test_a_wrong_route_fails_with_the_difference_residual(monkeypatch, route, identities, extra):
    # a route check compares route == p first; a route that differs must still
    # fail and print max |route - p| as its residual
    original = getattr(verify, route)
    monkeypatch.setattr(verify, route, lambda *args: original(*args) + extra)
    nmax = 6
    got = verify_identity_suite(nmax)
    monkeypatch.undo()
    clean = verify_identity_suite(nmax)
    assert [(r.n, r.k, r.identity) for r in got] == [(r.n, r.k, r.identity) for r in clean]
    for rep, ref in zip(got, clean):
        if rep.identity not in identities:
            assert rep == ref
            continue
        wrong = original(rep.n, rep.k, *identities[rep.identity]) + extra
        want = difference_residual(wrong, alp_coefficients(rep.n, rep.k))
        assert not rep.passed and want != "0"
        assert (rep.residual, rep.note) == (want, ref.note)
