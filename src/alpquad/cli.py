"""Command-line interface: coefficients, evaluation, rules, integration, verification.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 internal
numerical failure. Data goes to stdout, diagnostics to stderr; identical
arguments always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

from .family import alp_coefficients, alp_eval
from .horner import horner
from .quadrature import RootFindingError, build_rule, integrate, rule_to_csv, rule_to_json
from .verify import (
    expected_to_pass,
    reports_to_json_lines,
    suite_passes,
    verify_aux_orthogonality,
    verify_identity_suite,
    verify_orthogonality,
)

_NAMED_INTEGRANDS = {"exp": math.exp, "sin": math.sin, "log1p": math.log1p}
_DEFAULT_MAX_N = 30


def _max_n() -> int:
    # ALP_MAX_N may raise the guard; accuracy beyond 30 is not supported
    raw = os.environ.get("ALP_MAX_N", _DEFAULT_MAX_N)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ALP_MAX_N must be an integer, got {raw!r}") from None


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _cmd_coeffs(args) -> int:
    _require(0 <= args.k <= args.n <= _max_n(), f"require 0 <= k <= n <= {_max_n()}")
    cs = [str(c) for c in alp_coefficients(args.n, args.k).coeffs]
    if args.format == "json":
        body = ",".join(f'"{c}"' for c in cs)
        print(f'{{"n":{args.n},"k":{args.k},"coeffs":[{body}]}}')
    elif args.format == "csv":
        print("power,coeff")
        for power, c in enumerate(cs):
            print(f"{power},{c}")
    else:
        print("powers:", " ".join(str(p) for p in range(len(cs))))
        print("coeffs:", " ".join(cs))
    return 0


def _cmd_eval(args) -> int:
    _require(0 <= args.k <= args.n <= _max_n(), f"require 0 <= k <= n <= {_max_n()}")
    _require(math.isfinite(args.x), "x must be finite")
    print(_fmt17(alp_eval(args.n, args.k, args.x)))
    return 0


def _cmd_rule(args) -> int:
    _require(1 <= args.k <= args.n <= _max_n(), f"require 1 <= k <= n <= {_max_n()}")
    rule = build_rule(args.n, args.k)
    if args.format == "json":
        print(rule_to_json(rule))
    elif args.format == "csv":
        sys.stdout.write(rule_to_csv(rule))
    else:
        print(f"rule n={rule.n} k={rule.k} ({len(rule.nodes)} nodes)")
        print("j node weight")
        for j, (x, w) in enumerate(zip(rule.nodes, rule.weights), start=1):
            print(f"{j} {_fmt17(x)} {_fmt17(w)}")
    return 0


def _parse_integrand(spec: str):
    if spec.startswith("poly:"):
        body = spec[len("poly:"):]
        try:
            cs = [float(s) for s in body.split(",")]
        except ValueError:
            raise ValueError(f"malformed polynomial spec {spec!r}") from None
        _require(len(cs) > 0, "polynomial spec needs at least one coefficient")
        return lambda x: horner(cs, x)
    if spec in _NAMED_INTEGRANDS:
        return _NAMED_INTEGRANDS[spec]
    raise ValueError(
        f"unknown integrand {spec!r}; use poly:c0,c1,... or one of {sorted(_NAMED_INTEGRANDS)}"
    )


def _cmd_integrate(args) -> int:
    _require(1 <= args.k <= args.n <= _max_n(), f"require 1 <= k <= n <= {_max_n()}")
    f = _parse_integrand(args.f)
    rule = build_rule(args.n, args.k)
    print(_fmt17(integrate(rule, f)))
    return 0


def _cmd_verify(args) -> int:
    _require(0 <= args.max_n <= 12, "require 0 <= max-n <= 12")
    reports = verify_identity_suite(args.max_n)
    for n in range(args.max_n + 1):
        reports.extend(verify_orthogonality(n))
        reports.extend(verify_aux_orthogonality(n, args.max_n))
    reports.sort(key=lambda r: (r.n, r.k, r.identity, r.note))
    if args.format == "json":
        print(reports_to_json_lines(reports))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity", "n", "k", "pass", "residual", "note"])
        for r in reports:
            writer.writerow([r.identity, r.n, r.k, str(r.passed).lower(), r.residual, r.note])
        sys.stdout.write(buf.getvalue())
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            expected = "" if r.passed == expected_to_pass(r.identity, r.n, r.k) else " UNEXPECTED"
            note = f" ({r.note})" if r.note else ""
            print(f"{status}{expected} {r.identity} n={r.n} k={r.k} residual={r.residual}{note}")
    ok = suite_passes(reports)
    if args.format == "text":
        print(f"verify: {'ok' if ok else 'UNEXPECTED OUTCOMES'} over {len(reports)} checks")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpquad",
        description="Alternative Legendre polynomials on [0,1] and their Gauss-type quadrature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact coefficients of P_nk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate P_nk at a point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rule", help="nodes and weights of the (n,k) rule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_rule)

    p = sub.add_parser("integrate", help="apply the (n,k) rule to an integrand")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", type=str, required=True, help="poly:c0,c1,... or exp|sin|log1p")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
