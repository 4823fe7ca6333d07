"""Self-test of the benchmark's checks: perturbed results must be reported.

Run from the root of a source checkout:

    python3 bench/selftest.py

Each case takes a correct result from the package, confirms that the check
accepts it, perturbs it slightly, and confirms that the check now reports a
problem. Exits 0 when every perturbation is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(1, os.path.join(os.getcwd(), "src"))

import alpquad as aq  # noqa: E402
import checks  # noqa: E402
import oracle  # noqa: E402


def rule_case(scale_weight: bool) -> list[str]:
    rule = aq.build_rule(8, 3)
    weights = list(rule.weights)
    if scale_weight:
        weights[-1] *= 1 + 1e-9
    return checks.rule_problems(8, 3, rule.nodes, weights)


def coefficient_case(off_by_one: bool) -> list[str]:
    coeffs = [int(c) for c in aq.alp_coefficients(7, 2).coeffs]
    if off_by_one:
        coeffs[4] += 1
    text = "powers: " + " ".join(map(str, range(len(coeffs)))) + "\ncoeffs: " + " ".join(map(str, coeffs)) + "\n"
    cmd = {"argv": ["coeffs", "--n", "7", "--k", "2"], "n": 7, "k": 2, "format": "text"}
    return checks.cli_problems(cmd, 0, text)


def report_case(flip: bool) -> list[str]:
    nmax = 4
    reports = aq.verify_identity_suite(nmax)
    for n in range(nmax + 1):
        reports.extend(aq.verify_orthogonality(n))
        reports.extend(aq.verify_aux_orthogonality(n, nmax))
    if flip:
        i = next(i for i, r in enumerate(reports) if r.identity == "jacobi_form_published" and r.k < r.n)
        reports[i] = dataclasses.replace(reports[i], passed=not reports[i].passed)
    tuples = [checks.report_tuple(r) for r in reports]
    sample = [r for r in tuples if r[0] in ("orthogonality", "aux_orthogonality")]
    return checks.report_problems(tuples, nmax, sample)


def value_case(perturb: bool) -> list[str]:
    x = 0.3
    got = aq.alp_eval(12, 4, x)
    if perturb:
        got *= 1 + 1e-12
    return checks.value_problem("alp_eval(12,4,0.3)", got, oracle.value(oracle.coefficients(12, 4), x), checks.VALUE_TOL)


CASES = {
    "weight scaled by 1+1e-9": rule_case,
    "coefficient off by one": coefficient_case,
    "report pass flag flipped": report_case,
    "value scaled by 1+1e-12": value_case,
}


def main() -> int:
    bad = 0
    for name, case in CASES.items():
        clean, perturbed = case(False), case(True)
        ok = not clean and bool(perturbed)
        bad += not ok
        detail = clean[0] if clean else (perturbed[0] if perturbed else "not caught")
        print(f"selftest {name}: {'caught' if ok else 'FAILED'} ({detail})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
