"""Correctness checks shared by the workloads and the self-test.

Each check compares a result with the exact oracle (``oracle.py``) or with a
property the method must have, and returns a list of problems: empty when
the result is right. No check reads the package's own coefficients or its
own idea of which identities should pass. The tolerances sit well above the
worst error measured over every input the workloads can draw; README.md
lists the measured values.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import oracle

MOMENT_RTOL = 5e-14  # window moment relative error; measured max 8.0e-15 (n <= 30)
DEFECT_ATOL = 5e-14  # |defect - exact| * (2k-1) at l = 2k-2; measured max 4.1e-15
VALUE_TOL = 1e-13  # |P - exact| / max(1, |exact|); measured max 7.5e-15 (n <= 40)
DERIV_TOL = 1e-11  # |P' - exact| / max(1, |exact|); measured max 8.5e-13 on [0.01, 0.99]
INTEGRAL_RTOL = 1e-13  # in-window integrate of a positive polynomial

SUITE_IDENTITIES = (
    "rodrigues",
    "unit_integral",
    "reciprocity",
    "ode",
    "derivative_raising",
    "hypergeometric",
    "hypergeometric_published",
    "jacobi_form",
    "jacobi_form_published",
)
LOWERING_IDENTITIES = ("recurrence", "derivative_lowering", "derivative_lowering_published")


# ---------------------------------------------------------------- rules


def rule_problems(n: int, k: int, nodes, weights) -> list[str]:
    """Structure, window exactness and the exact defect just below the window."""
    where = f"rule ({n},{k})"
    m = n - k + 1
    if len(nodes) != m or len(weights) != m:
        return [f"{where}: {len(nodes)} nodes and {len(weights)} weights, expected {m}"]
    problems = []
    if not all(0.0 < x < 1.0 for x in nodes):
        problems.append(f"{where}: node outside (0, 1)")
    if any(a >= b for a, b in zip(nodes, nodes[1:])):
        problems.append(f"{where}: nodes not strictly increasing")
    if not all(w > 0.0 for w in weights):
        problems.append(f"{where}: nonpositive weight")
    for l in range(2 * k - 1, 2 * n + 1):
        err = abs(math.fsum(w * x**l for x, w in zip(nodes, weights)) * (l + 1) - 1.0)
        if not err <= MOMENT_RTOL:
            problems.append(f"{where}: moment x^{l} relative error {err:.3e}")
            break
    exact = oracle.rule_defect(n, k)
    got = math.fsum(w * x ** (2 * k - 2) for x, w in zip(nodes, weights)) - 1.0 / (2 * k - 1)
    if not abs(got - float(exact)) * (2 * k - 1) <= DEFECT_ATOL:
        problems.append(f"{where}: defect at x^{2 * k - 2} is {got:.3e}, exact {float(exact):.3e}")
    return problems


# ---------------------------------------------------------------- values


def value_problem(what: str, got: float, exact: Fraction, tol: float) -> list[str]:
    e = float(exact)
    if abs(got - e) <= tol * max(1.0, abs(e)):
        return []
    return [f"{what}: got {got!r}, exact {e!r}"]


# ---------------------------------------------------------------- identity reports


def report_count(nmax: int) -> int:
    """Closed form for the number of reports `alpquad verify --max-n nmax` assembles.

    Identity suite: 9 reports per (n, k) and 3 more when k >= 1.
    Orthogonality and auxiliary orthogonality: M(M+1)(M+2)/6 + M(M+1)/2 each,
    with M = nmax + 1.
    """
    m = nmax + 1
    pairs = m * (m + 1) // 2
    orth = m * (m + 1) * (m + 2) // 6 + m * (m + 1) // 2
    return 9 * pairs + 3 * (pairs - m) + 2 * orth


def _expected_keys(nmax: int) -> Counter:
    keys = Counter()
    for n in range(nmax + 1):
        for k in range(n + 1):
            for name in SUITE_IDENTITIES + (LOWERING_IDENTITIES if k >= 1 else ()):
                keys[(name, n, k)] += 1
            keys[("orthogonality", n, k)] += n - k + 1
            keys[("sign_normalization", n, k)] += 1
        for k in range(n, nmax + 1):
            keys[("aux_orthogonality", n, k)] += nmax - k + 1
            keys[("aux_sign", n, k)] += 1
    return keys


def paper_outcome(identity: str, n: int, k: int) -> bool:
    """Whether the identity holds, per the paper's corrections.

    The published lowering mu fails for every k >= 1; the published
    hypergeometric and Jacobi parameters fail for k < n and coincide with
    the corrected ones at k = n. Every corrected identity holds.
    """
    if identity == "derivative_lowering_published":
        return False
    if identity in ("hypergeometric_published", "jacobi_form_published"):
        return k == n
    return True


def _recomputed(report) -> list[str]:
    identity, n, k, passed, residual, note = report
    l = int(note.split(";")[0].removeprefix("l="))
    if identity == "orthogonality":
        val = oracle.inner_product(oracle.coefficients(n, k), oracle.coefficients(n, l))
    else:
        val = oracle.inner_product(oracle.aux_coefficients(n, k), oracle.aux_coefficients(n, l))
    expected = Fraction(1, 2 * k + 1) if k == l else Fraction(0)
    if passed != (val == expected) or residual != str(abs(val - expected)):
        return [f"{identity} n={n} k={k} l={l}: report ({passed}, {residual}) but oracle gives {val}"]
    return []


def report_problems(reports, nmax: int, sample) -> list[str]:
    """Check a verify report set; ``sample`` is a list of (aux_)orthogonality
    reports whose values are recomputed by the oracle.

    Reports are (identity, n, k, passed, residual, note) tuples.
    """
    problems = []
    if len(reports) != report_count(nmax):
        problems.append(f"{len(reports)} reports, closed form gives {report_count(nmax)}")
    if Counter((r[0], r[1], r[2]) for r in reports) != _expected_keys(nmax):
        problems.append("report set differs from the identities, orders and indices expected")
    for identity, n, k, passed, residual, _ in reports:
        if passed is not paper_outcome(identity, n, k):
            problems.append(f"{identity} n={n} k={k}: pass={passed} contradicts the paper")
        elif passed and residual != "0":
            problems.append(f"{identity} n={n} k={k}: passes with residual {residual}")
    for report in sample:
        problems.extend(_recomputed(report))
    return problems


def report_tuple(report) -> tuple:
    return (report.identity, report.n, report.k, report.passed, report.residual, report.note)


# ---------------------------------------------------------------- CLI output


def _parse_coeffs(fmt: str, text: str) -> list[int]:
    if fmt == "json":
        return [int(c) for c in json.loads(text)["coeffs"]]
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "power,coeff":
            raise ValueError("bad csv header")
        return [int(line.split(",")[1]) for line in lines[1:]]
    lines = text.splitlines()
    return [int(c) for c in lines[1].removeprefix("coeffs:").split()]


def _parse_rule(fmt: str, text: str) -> tuple[list[float], list[float]]:
    if fmt == "json":
        d = json.loads(text)
        return d["nodes"], d["weights"]
    lines = text.splitlines()
    if fmt == "csv":
        rows = [line.split(",") for line in lines[1:]]
    else:
        rows = [line.split() for line in lines[2:]]
    return [float(r[1]) for r in rows], [float(r[2]) for r in rows]


def cli_problems(cmd: dict, code: int, out: str) -> list[str]:
    """Check one CLI call; ``cmd`` describes it (see workloads.CliMix)."""
    what = " ".join(cmd["argv"])
    if code != 0:
        return [f"{what}: exit code {code}"]
    kind, n, k = cmd["argv"][0], cmd.get("n"), cmd.get("k")
    try:
        if kind == "coeffs":
            got = _parse_coeffs(cmd["format"], out)
            if tuple(got) != oracle.coefficients(n, k):
                return [f"{what}: coefficients differ from the exact ones"]
            return []
        if kind == "eval":
            return value_problem(what, float(out), oracle.value(oracle.coefficients(n, k), cmd["x"]), VALUE_TOL)
        if kind == "rule":
            return rule_problems(n, k, *_parse_rule(cmd["format"], out))
        if kind == "integrate":
            exact = float(oracle.integral(cmd["poly"]))
            got = float(out)
            if abs(got - exact) <= INTEGRAL_RTOL * abs(exact):
                return []
            return [f"{what}: got {got!r}, exact {exact!r}"]
        if kind == "verify":
            reports = [
                (d["identity"], d["n"], d["k"], d["pass"], d["residual"], d["note"])
                for d in map(json.loads, out.splitlines())
            ]
            sample = [r for r in reports if r[0] in ("orthogonality", "aux_orthogonality")]
            return report_problems(reports, cmd["max_n"], sample)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{what}: unparsable output ({exc})"]
    return [f"{what}: unknown command"]
