"""Command-line interface: coefficients, evaluation, rules, integration, verification.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 internal
numerical failure. Data goes to stdout, diagnostics to stderr; identical
arguments always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

from .family import alp_coefficients, alp_eval
from .horner import horner
from .quadrature import RootFindingError, _fmt17, build_rule, integrate, rule_to_csv, rule_to_json
from .verify import _REPORT_SCHEMA, _report_fields, _report_stream, expected_to_pass, suite_passes

_NAMED_INTEGRANDS = {"exp": math.exp, "sin": math.sin, "log1p": math.log1p}
_DEFAULT_MAX_N = 30
# largest verify --max-n; README gives the measured time of a run at the cap
_VERIFY_MAX_N = 30


def _require_index(args, kmin: int) -> None:
    """The n, k guard of a command: kmin <= k <= n <= ALP_MAX_N, read once."""
    # ALP_MAX_N may raise the guard; accuracy beyond 30 is not supported
    raw = os.environ.get("ALP_MAX_N", _DEFAULT_MAX_N)
    try:
        max_n = int(raw)
    except ValueError:
        raise ValueError(f"ALP_MAX_N must be an integer, got {raw!r}") from None
    _require(kmin <= args.k <= args.n <= max_n, f"require {kmin} <= k <= n <= {max_n}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _cmd_coeffs(args) -> int:
    _require_index(args, 0)
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
    _require_index(args, 0)
    value = alp_eval(args.n, args.k, args.x)
    if math.isnan(value):
        print(f"error: eval overflowed to nan at n={args.n}, k={args.k}, x={args.x!r}", file=sys.stderr)
        return 3
    print(_fmt17(value))
    return 0


def _cmd_rule(args) -> int:
    _require_index(args, 1)
    rule = build_rule(args.n, args.k)
    if args.format == "json":
        print(rule_to_json(rule))
    elif args.format == "csv":
        sys.stdout.write(rule_to_csv(rule))
    else:
        print(f"rule n={rule.n} k={rule.k} ({len(rule.nodes)} nodes)")
        # the csv rows with spaces for commas; a %.17g float holds no comma
        sys.stdout.write(rule_to_csv(rule).replace(",", " "))
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
    _require_index(args, 1)
    f = _parse_integrand(args.f)
    rule = build_rule(args.n, args.k)
    print(_fmt17(integrate(rule, f)))
    return 0


def _cmd_verify(args) -> int:
    _require(0 <= args.max_n <= _VERIFY_MAX_N, f"require 0 <= max-n <= {_VERIFY_MAX_N}")
    reports = _report_stream(args.max_n)
    if args.format == "json":
        for r in reports:
            print(r.json_line())
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_REPORT_SCHEMA)
        for r in reports:
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in _report_fields(r)])
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
    index = argparse.ArgumentParser(add_help=False)
    index.add_argument("--n", type=int, required=True)
    index.add_argument("--k", type=int, required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("coeffs", parents=[index, fmt], help="exact coefficients of P_nk")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("eval", parents=[index], help="evaluate P_nk at a point")
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rule", parents=[index, fmt], help="nodes and weights of the (n,k) rule")
    p.set_defaults(func=_cmd_rule)

    p = sub.add_parser("integrate", parents=[index], help="apply the (n,k) rule to an integrand")
    p.add_argument("--f", type=str, required=True, help="poly:c0,c1,... or exp|sin|log1p")
    p.set_defaults(func=_cmd_integrate)

    # declared here, not through fmt, so that --format follows --max-n in usage and help
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
