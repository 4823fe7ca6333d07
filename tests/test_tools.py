"""Smoke tests of the scripts under tools/, and of the benchmark's self-test."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_LINES = ROOT / "tools" / "code_lines.py"


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""A module docstring."""\n# a comment\n\nx = 1\ny = x + 1\n')
    assert load_code_lines().code_lines(path) == 2


def test_code_lines_reports_every_module_and_their_sum():
    out = subprocess.run([sys.executable, str(CODE_LINES)], capture_output=True, text=True, check=True, timeout=60)
    rows = [line.split() for line in out.stdout.splitlines()]
    *modules, (total_name, total) = rows
    assert [name for name, _ in modules] == sorted(p.stem for p in (ROOT / "src" / "alpquad").glob("*.py"))
    assert total_name == "total"
    assert int(total) == sum(int(count) for _, count in modules)


def test_benchmark_selftest_catches_every_injected_fault():
    """bench/selftest.py injects four faults into the package and must catch each,
    so a package change that breaks the harness's agreement with its oracle fails here."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert sum(": caught (" in line for line in out.stdout.splitlines()) == 4, out.stdout
