"""CLI behaviour: formats, goldens, determinism, exit codes."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import alpquad
from alpquad import cli, verify
from alpquad.quadrature import RootFindingError
from test_quadrature import RULE_STREAM_SHA256


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_fresh(*args):
    """A new interpreter (`python <args>`) importing this alpquad; stdout as bytes."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(alpquad.__file__)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def test_coeffs_text(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--k", "0")
    assert code == 0
    assert out == "powers: 0 1 2\ncoeffs: 3 -12 10\n"


def test_coeffs_monomial_case(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == "coeffs: 0 0 1"


def test_coeffs_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--k", "2", "--format", "json")
    assert code == 0
    assert out.strip() == '{"n":3,"k":2,"coeffs":["0","0","6","-7"]}'
    assert json.loads(out) == {"n": 3, "k": 2, "coeffs": ["0", "0", "6", "-7"]}


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--k", "1", "--format", "csv")
    assert code == 0
    assert out == "power,coeff\n0,0\n1,4\n2,-5\n"


def test_eval_known_values(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "3", "--k", "3", "--x", "0.5")
    assert code == 0 and out.strip() == "0.125"
    code, out, _ = run_cli(capsys, "eval", "--n", "2", "--k", "0", "--x", "0")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "eval", "--n", "1", "--k", "0", "--x", "0.6666666666666666")
    assert code == 0 and abs(float(out)) <= 1e-15


def test_eval_nan_exits_3_and_overflow_prints_inf(capsys):
    assert run_cli(capsys, "eval", "--n", "5", "--k", "2", "--x", "1e100") == (0, "-inf\n", "")
    for n, k, x in ((20, 20, "1e20"), (20, 0, "1e15")):
        code, out, err = run_cli(capsys, "eval", "--n", str(n), "--k", str(k), "--x", x)
        assert (code, out) == (3, "") and f"n={n}, k={k}, x={float(x)!r}" in err


def test_rule_text_golden(capsys):
    code, out, _ = run_cli(capsys, "rule", "--n", "1", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule n=1 k=1 (1 nodes)"
    assert lines[1] == "j node weight"
    j, x, w = lines[2].split(" ")
    assert abs(float(x) - 2.0 / 3.0) <= 1e-13
    assert float(w) == 0.75


def test_rule_2_2_golden(capsys):
    code, out, _ = run_cli(capsys, "rule", "--n", "2", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["nodes"][0] - 0.8) <= 1e-13
    assert abs(data["weights"][0] - 125.0 / 256.0) <= 1e-13


def test_rule_csv_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "rule", "--n", "2", "--k", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,node,weight"
    ref = {
        1: (0.3550510257216822, 0.5124858261884216),
        2: (0.8449489742783178, 0.3764030627004673),
    }
    for line in lines[1:]:
        j, x, w = line.split(",")
        want = ref[int(j)]
        assert abs(float(x) - want[0]) <= 1e-12
        assert abs(float(w) - want[1]) <= 1e-12


@pytest.mark.parametrize(
    "fmt, want",
    [
        ("text", "5658c0d5bf7d950dded287e322caff17b880f0e0f7a504957ccd1ec8a067a6a4"),
        ("csv", "d04e616c4644626fcc4997cdde58ef2a4876645ba564d44593bcfd3548701a6b"),
        ("json", "4ae0fb06b4750649c1f6820dc27cce9e4830de28c34366adb32c28f8bc4d07fd"),
    ],
)
def test_rule_bytes_are_pinned(capsys, fmt, want):
    # a deliberate change of the nodes or weights re-pins this test as a spec change
    code, out, err = run_cli(capsys, "rule", "--n", "12", "--k", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert sha256(out) == want


def test_cli_byte_determinism(capsys):
    first = run_cli(capsys, "rule", "--n", "4", "--k", "2", "--format", "json")
    second = run_cli(capsys, "rule", "--n", "4", "--k", "2", "--format", "json")
    assert first == second
    v1 = run_cli(capsys, "verify", "--max-n", "1", "--format", "json")
    v2 = run_cli(capsys, "verify", "--max-n", "1", "--format", "json")
    assert v1 == v2


def test_integrate_examples(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--n", "1", "--k", "1", "--f", "poly:0,1")
    assert code == 0 and out.strip() == "0.5"
    code, out, _ = run_cli(capsys, "integrate", "--n", "1", "--k", "1", "--f", "poly:1")
    assert code == 0 and out.strip() == "0.75"
    code, out, _ = run_cli(
        capsys, "integrate", "--n", "4", "--k", "1", "--f", "poly:0,0,0,0,0,0,0,1"
    )
    assert code == 0 and out.strip() == "0.125"


def test_integrate_named_functions(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--n", "6", "--k", "1", "--f", "exp")
    assert code == 0
    # rules with k = 1 miss the constant moment; exp integrates to e-1 = 1.718...
    # with an O(1) constant defect, so just require a finite sane number
    assert math.isfinite(float(out))


def test_verify_exit_zero_and_line_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 40
    for line in lines:
        parsed = json.loads(line)
        assert set(parsed) == {"identity", "n", "k", "pass", "residual", "note"}


def test_verify_json_stream_is_pinned(capsys):
    # exact arithmetic makes the report stream (names, notes, order) a constant
    code, out, _ = run_cli(capsys, "verify", "--max-n", "8", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a8d39bb4d595c132104013e14899e3afe8da90b8c2b5180b4e025ae53f2a9976"


def verify_stream_by_note(fmt, out):
    """A `verify` stream re-sorted by the key it used until its reports were
    ordered by (n, k, identity) alone: (n, k, identity, note), under which the
    pairs of one k ran l = 0, 10, 11, ..., 1, 2, .... Only the order of the report
    lines changes; the csv header and the text summary stay where they are."""

    def old_key(line):
        if fmt == "json":
            d = json.loads(line)
            return d["n"], d["k"], d["identity"], d["note"]
        if fmt == "csv":
            identity, n, k, _, _, note = next(csv.reader([line]))
            return int(n), int(k), identity, note
        m = re.fullmatch(r"\S+(?: UNEXPECTED)? (\S+) n=(\d+) k=(\d+) residual=\S+(?: \((.*)\))?\n", line)
        return int(m[2]), int(m[3]), m[1], m[4] or ""

    lines = out.splitlines(keepends=True)
    head = lines[:1] if fmt == "csv" else []
    tail = lines[-1:] if fmt == "text" else []
    body = lines[len(head) : len(lines) - len(tail)]
    return "".join(head + sorted(body, key=old_key) + tail)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "fmt, want, by_note",
    [
        pytest.param(
            "text",
            "2e53ebf56052eb7a75c3a8603dbe5b7ef004d3dae89a30903042bdadbf06cc35",
            "1e7c8a5f7779486a6a25d3471dc12e1aa88da759e51976de17915f31cda13b49",
            id="text",
        ),
        pytest.param(
            "csv",
            "84e3fd1a8da0a954b3db748bb9de0b5c88c2d33197f327ef84e38da9ec665fdc",
            "7c57b9a1053970709c6b7c218fb3312bc8c59e8c980ee810b0b39eb0f994fb70",
            id="csv",
        ),
        pytest.param(
            "json",
            "c64fc85475c351791a4b8ca1189b1346776149fcd2d2d91271bda8616a883bd6",
            "93afbe46003b1eca8e57f56a2db7cbc479974003cc6f1a07fb84665391cf0703",
            id="json",
        ),
    ],
)
def test_verify_stream_is_pinned_at_max_n_12(capsys, fmt, want, by_note):
    # the residual strings are pinned as well: an integral residual prints as 5, never 5/1;
    # by_note is the pin of the stream sorted by note, which the re-sort must reproduce
    code, out, _ = run_cli(capsys, "verify", "--max-n", "12", "--format", fmt)
    assert code == 0
    assert sha256(out) == want
    assert sha256(verify_stream_by_note(fmt, out)) == by_note


def test_verify_stream_is_pinned_at_the_cap(capsys):
    # max-n 30 is the largest order `verify` accepts; the by-note pin was taken
    # with every identity residual built by Polynomial operator chains
    code, out, _ = run_cli(capsys, "verify", "--max-n", "30", "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == 17763
    assert sha256(out) == "054c090c40771bc4f94fadd4722378b3ebb73d7133f644cf3647159d4c4de04e"
    by_note = "6e508b2f7cd495d24636eeaf4c545ed0b7a45f833486e4863533a2321da0e387"
    assert sha256(verify_stream_by_note("json", out)) == by_note


def test_verify_max_n_zero(capsys):
    code, _, _ = run_cli(capsys, "verify", "--max-n", "0")
    assert code == 0


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "identity,n,k,pass,residual,note"


def test_verify_csv_rows_follow_the_json_fields(capsys):
    # each row is the report's field values in order, the bool as true/false
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))
    reports = verify._report_stream(6)
    assert len(rows) == len(reports)
    for row, report in zip(rows, reports):
        fields = json.loads(report.json_line()).values()
        assert row == [str(v).lower() if isinstance(v, bool) else str(v) for v in fields]


def test_verify_rejects_large_max_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "31")
    assert code == 2 and "max-n <= 30" in err
    assert run_cli(capsys, "verify", "--max-n", "-1")[0] == 2


def test_verify_accepts_max_n_above_the_old_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "13")
    assert code == 0
    assert out.endswith("verify: ok over 2548 checks\n")


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "coeffs", "--n", "5", "--k", "9")[0] == 2
    assert run_cli(capsys, "coeffs", "--n", "31", "--k", "0")[0] == 2
    assert run_cli(capsys, "rule", "--n", "3", "--k", "0")[0] == 2
    assert run_cli(capsys, "integrate", "--n", "1", "--k", "1", "--f", "tan")[0] == 2
    assert run_cli(capsys, "integrate", "--n", "1", "--k", "1", "--f", "poly:1,a")[0] == 2
    # the message comes from the library's point check, naming the point
    nan = run_cli(capsys, "eval", "--n", "2", "--k", "1", "--x", "nan")
    assert nan == (2, "", "error: evaluation point must be finite, got nan\n")


PARSER_PINS = [
    (["--help"], 0, "9312f4c97336a2c1b960fafa5e1071e7bcff0ad4989dee834032be00775b1ce4"),
    (["coeffs", "--help"], 0, "7fd9f953c20b1e092aa23f70d461a8e69b158b0fe0db0c8c11ee7ad098cc6666"),
    (["eval", "--help"], 0, "8a98df792f7979aa5c235c79fdd67d16b994844b950e5b6cd6877b32b9efcb35"),
    (["rule", "--help"], 0, "2f7a97112cb8a08a62da932d88899889917393e56fc4b1ec4e0a7f3dcd998196"),
    (["integrate", "--help"], 0, "0dea5a439c7b64a35b1d25c722e77556cb04845b9a2fc85362bfcd0b3f718647"),
    (["verify", "--help"], 0, "d26168dfea7f0218b9da49c04d712737e7c980f12e875d9830214f0958b8285e"),
    ([], 2, "496bca284dfecbbb55b33f25fe908811e24668f5308a73aff2dc7c023cb8f1e7"),
    (["coeffs", "--k", "2"], 2, "e345a755fc9fc0ba62391d0626138e135852530d10cfb36e95f58bc98556b25e"),
    (["rule", "--n", "2"], 2, "ba494a039a84ed82d9cda4e2e337f4377dbfb09eca44754f39eb4e5e5f7405eb"),
    (
        ["rule", "--n", "2", "--k", "1", "--format", "xml"],
        2,
        "28f6e148c40e1797abba7f158621eb28a1eee6bc2893f28918b2f969b0aa13cf",
    ),
    (
        ["eval", "--n", "two", "--k", "1", "--x", "0.5"],
        2,
        "21bfde4ef73e7bb0b6531e7cedef1710ea4cd6314607ce4e66055315d12e0285",
    ),
]


@pytest.mark.parametrize("argv, want_code, want", PARSER_PINS, ids=[" ".join(p[0]) or "none" for p in PARSER_PINS])
def test_parser_bytes_are_pinned(capsys, monkeypatch, argv, want_code, want):
    # help and usage errors as Python 3.11's argparse writes them; it wraps to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == want_code
    assert sha256(out + "\0" + err) == want


def test_argparse_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "--n", "2"])  # missing --k
    assert exc.value.code == 2


def test_env_raises_evaluation_guard(capsys, monkeypatch):
    monkeypatch.setenv("ALP_MAX_N", "35")
    code, out, _ = run_cli(capsys, "eval", "--n", "33", "--k", "33", "--x", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(0.5**33, rel=1e-12)
    monkeypatch.delenv("ALP_MAX_N")
    assert run_cli(capsys, "eval", "--n", "33", "--k", "33", "--x", "0.5")[0] == 2


def test_eval_bytes_at_order_400_are_pinned(capsys, monkeypatch):
    # a Jacobi-form member far above the default guard
    monkeypatch.setenv("ALP_MAX_N", "400")
    assert run_cli(capsys, "eval", "--n", "400", "--k", "1", "--x", "0.3") == (0, "0.057666038793072291\n", "")


def test_verify_at_the_cap_is_served_from_the_bounded_coefficient_cache(capsys):
    # verify --max-n 30 reads the 496 members with n <= 30; all of them
    # stay in the cache, so a second run misses none
    info = alpquad.alp_coefficients.cache_info
    assert info().maxsize == 1024
    assert run_cli(capsys, "verify", "--max-n", "30", "--format", "json")[0] == 0
    misses = info().misses
    assert run_cli(capsys, "verify", "--max-n", "30", "--format", "json")[0] == 0
    assert info().misses == misses


def test_env_max_n_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("ALP_MAX_N", "thirty")
    code, out, err = run_cli(capsys, "eval", "--n", "3", "--k", "1", "--x", "0.5")
    assert code == 2 and out == ""
    assert "ALP_MAX_N" in err


def test_internal_failure_maps_to_exit_3(capsys, monkeypatch):
    def boom(n, k):
        raise RootFindingError("simulated count mismatch")

    monkeypatch.setattr(cli, "build_rule", boom)
    code, _, err = run_cli(capsys, "rule", "--n", "3", "--k", "1")
    assert code == 3 and "simulated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--n", "12", "--k", "5", "--format", "json"],
        ["rule", "--n", "20", "--k", "6", "--format", "csv"],
        ["verify", "--max-n", "2", "--format", "json"],
    ],
)
def test_module_entry_point_matches_main(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    proc = run_fresh("-m", "alpquad", *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_numpy_stays_off_the_import_path():
    # every command runs on the exact core and Python floats alone: rules
    # take their eigenvalues from jacobi's QL iteration, not from eigvalsh
    script = """
import contextlib, io, sys
import alpquad, alpquad.cli
commands = [["coeffs", "--n", "30", "--k", "7"], ["eval", "--n", "30", "--k", "3", "--x", "0.3"],
            ["eval", "--n", "20", "--k", "3", "--x", "0.3"], ["verify", "--max-n", "2"],
            ["integrate", "--n", "10", "--k", "3", "--f", "poly:0,0,0,0,0,1"], ["integrate", "--n", "4", "--k", "1", "--f", "exp"]]
commands += [["rule", "--n", "30", "--k", "1", "--format", fmt] for fmt in ("text", "csv", "json")]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert alpquad.cli.main(argv) == 0
    print("numpy" in sys.modules)
"""
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"False"] * 9


# every public entry point that takes scalars, as an expression over `aq`
# (alpquad), `Fraction` and `jacobi_derivative_eval`
SCALAR_CALLS = [
    "aq.alp_coefficients(7, 3)",
    "aq.alp_coefficients_rodrigues(7, 3)",
    "aq.alp_coefficients_hypergeometric(7, 3, aq.PUBLISHED)",
    "aq.alp_coefficients_jacobi(7, 3)",
    "aq.reciprocity_transform(7, 3)",
    "aq.recurrence_coefficients(7, 3)",
    "aq.ode_residual(7, 3)",
    "aq.aux_coefficients(2, 5)",
    "aq.jacobi_shifted_coefficients(4, -3, Fraction(1, 2))",
    "aq.pochhammer(3, 4)",
    "aq.binomial_general(-3, 2)",
    "aq.inner_product(aq.alp_coefficients(4, 1), aq.Polynomial([0, 1]))",
    "aq.alp_coefficients(7, 3)(Fraction(1, 3))",
    "aq.alp_coefficients(7, 3)(0.3)",
    "aq.alp_eval_exact(7, 3, 0.3)",
    "aq.expand_in_alp(aq.Polynomial([0, 0, 1]), 3, 1)",
    "aq.verify_identity_suite(2)",
    "aq.verify_orthogonality(3)",
    "aq.verify_aux_orthogonality(1, 3)",
    "aq.suite_passes(aq.verify_identity_suite(2))",
    "aq.expected_to_pass('jacobi_form_published', 3, 1)",
    "aq.fit_lowering_coefficients(5, 2)",
    "aq.report_from_json(aq.reports_to_json_lines(aq.verify_orthogonality(1)[:1]))",
    "aq.alp_eval(22, 0, 0.3)",
    "aq.alp_eval(30, 3, Fraction(3, 10))",
    "aq.alp_eval_recurrence(7, 0.3)",
    "aq.alp_derivative_eval(7, 3, 0.3)",
    "aq.aux_eval(2, 5, 0.3)",
    "aq.jacobi_eval(9, 3, 0, 0.3)",
    "jacobi_derivative_eval(9, 3, 0, 0.3)",
    "aq.AlpFamily(30).eval(3, 1)",
    "aq.family(30).weight_denominator(3, 0.3)",
    "aq.family(30).weight_denominator(3, Fraction(3, 10))",
    "aq.nodes(7, 3)",
    "aq.weights(7, 3, [0.3, 0.6])",
    "aq.weights(7, 3, [Fraction(3, 10), Fraction(3, 5)])",
    "aq.weights(7, 3, (x for x in (0.3, 0.6)))",
    "aq.build_rule(7, 3)",
    "aq.integrate(aq.build_rule(7, 3), lambda x: x**4)",
    "aq.exactness_report(aq.build_rule(3, 2))",
    "aq.rule_to_json(aq.build_rule(7, 3))",
    "aq.rule_to_csv(aq.build_rule(7, 3))",
    # every rule with n <= 30, as rule_to_json writes it
    "hashlib.sha256(''.join(aq.rule_to_json(aq.build_rule(n, k)) + '\\n' for n in range(1, 31)"
    " for k in range(1, n + 1)).encode()).hexdigest()",
]

SCALAR_CALLS_SCRIPT = """
import hashlib, json, sys
{block}
from fractions import Fraction
import alpquad as aq
from alpquad.jacobi import jacobi_derivative_eval
for expr in json.loads(sys.argv[1]):
    try:
        out = repr(eval(expr))
    except Exception as exc:
        out = f"{{type(exc).__name__}}: {{exc}}"
    print(json.dumps([expr, out]))
print(json.dumps(["numpy", repr(sys.modules.get("numpy"))]))
"""


def test_rules_build_where_numpy_cannot_be_imported():
    # numpy blocked outright: every public scalar entry point runs, and gives
    # the repr, bits included, that it gives in a process that has numpy.
    # weight_denominator at a scalar returns a float, and weights() takes
    # any iterable of real numbers without numpy; the last call is the
    # pinned stream of every rule with n <= 30
    block = 'sys.modules["numpy"] = None'
    proc = run_fresh("-c", SCALAR_CALLS_SCRIPT.format(block=block), json.dumps(SCALAR_CALLS))
    assert proc.returncode == 0, proc.stderr
    blocked = [json.loads(line) for line in proc.stdout.splitlines()]
    proc = run_fresh("-c", SCALAR_CALLS_SCRIPT.format(block="import numpy"), json.dumps(SCALAR_CALLS))
    assert proc.returncode == 0, proc.stderr
    loaded = [json.loads(line) for line in proc.stdout.splitlines()]
    assert blocked[:-1] == loaded[:-1]
    assert blocked[-1] == ["numpy", "None"] and loaded[-1][1].startswith("<module 'numpy'")
    results = dict(blocked)
    assert not any(out.startswith(("TypeError", "ImportError", "ModuleNotFoundError")) for out in results.values())
    assert results[SCALAR_CALLS[-1]] == repr(RULE_STREAM_SHA256)
    assert results["aq.family(30).weight_denominator(3, 0.3)"] == repr(alpquad.family(30).weight_denominator(3, 0.3))
    assert results["aq.weights(7, 3, [Fraction(3, 10), Fraction(3, 5)])"] == results["aq.weights(7, 3, [0.3, 0.6])"]


def test_package_runs_in_a_venv_without_numpy(tmp_path):
    # numpy is not a declared dependency: the test extra brings it in, and
    # a fresh venv, which has no numpy, runs the CLI and the scalar API from
    # the source tree
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.dirname(alpquad.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
    assert any(re.match(r"numpy\b", req) for req in project["optional-dependencies"]["test"])
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(venv)], check=True, timeout=120)
    python = str(venv / ("Scripts" if os.name == "nt" else "bin") / "python")
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(alpquad.__file__))
    script = """
import importlib.util
import alpquad as aq
print(importlib.util.find_spec("numpy") is None)
print(aq.rule_to_json(aq.build_rule(7, 3)))
print(repr(aq.weights(7, 3, [0.3, 0.6])))
print(repr(aq.family(7).weight_denominator(3, 0.3)))
"""
    proc = subprocess.run([python, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [
        "True",
        alpquad.rule_to_json(alpquad.build_rule(7, 3)),
        repr(alpquad.weights(7, 3, [0.3, 0.6])),
        repr(alpquad.family(7).weight_denominator(3, 0.3)),
    ]
    assert proc.stdout.splitlines() == want
    argv = [python, "-m", "alpquad", "rule", "--n", "7", "--k", "3", "--format", "json"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == alpquad.rule_to_json(alpquad.build_rule(7, 3)) + "\n"


def test_array_made_after_import_is_checked():
    # numpy imported after alpquad: the finiteness check must still see it
    script = """
import alpquad
import numpy as np
try:
    alpquad.alp_eval(3, 1, np.array([0.5, np.nan]))
except ValueError:
    print("rejected")
"""
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"rejected"]
