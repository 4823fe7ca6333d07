"""CLI behaviour: formats, goldens, determinism, exit codes."""

import json
import math

import pytest

from alpquad import cli
from alpquad.quadrature import RootFindingError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


def test_verify_max_n_zero(capsys):
    code, _, _ = run_cli(capsys, "verify", "--max-n", "0")
    assert code == 0


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "identity,n,k,pass,residual,note"


def test_verify_rejects_large_max_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "13")
    assert code == 2 and "max-n" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "coeffs", "--n", "5", "--k", "9")[0] == 2
    assert run_cli(capsys, "coeffs", "--n", "31", "--k", "0")[0] == 2
    assert run_cli(capsys, "rule", "--n", "3", "--k", "0")[0] == 2
    assert run_cli(capsys, "integrate", "--n", "1", "--k", "1", "--f", "tan")[0] == 2
    assert run_cli(capsys, "integrate", "--n", "1", "--k", "1", "--f", "poly:1,a")[0] == 2
    assert run_cli(capsys, "eval", "--n", "2", "--k", "1", "--x", "nan")[0] == 2


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
