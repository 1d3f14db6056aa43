"""End-to-end CLI behaviour of ``python -m repro lint``."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURES = REPO / "tests" / "lint" / "fixtures"


def run_lint(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


def test_clean_tree_exits_zero():
    proc = run_lint("src/repro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lint: clean" in proc.stdout


def test_fixture_exits_nonzero_with_rule_id():
    proc = run_lint(str(FIXTURES / "flt001_float_eq.py"))
    assert proc.returncode == 1
    assert "FLT001" in proc.stdout
    line = proc.stdout.splitlines()[0]
    path, lineno, col = line.split(":")[:3]
    assert path.endswith("flt001_float_eq.py")
    assert lineno.isdigit() and col.isdigit()


def test_json_output_is_parseable():
    proc = run_lint(str(FIXTURES / "res001_inline_bound.py"), "--format", "json")
    assert proc.returncode == 1
    findings = json.loads(proc.stdout)
    assert [f["rule"] for f in findings] == ["RES001"]
    assert findings[0]["severity"] == "error"


def test_select_family():
    proc = run_lint(str(FIXTURES), "--select", "DET")
    assert proc.returncode == 1
    rules = {line.split()[1] for line in proc.stdout.splitlines()
             if ": DET" in line}
    assert rules <= {"DET001", "DET002", "DET003", "DET004"}
    assert "FLT001" not in proc.stdout


def test_unknown_select_is_usage_error():
    proc = run_lint("src/repro", "--select", "BOGUS")
    assert proc.returncode == 2


def test_missing_path_is_usage_error():
    proc = run_lint("no/such/dir")
    assert proc.returncode == 2


def test_list_rules_catalogue():
    proc = run_lint("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("DET001", "DET002", "DET003", "DET004",
                    "FLT001", "RES001", "HYG001", "HYG002"):
        assert rule_id in proc.stdout


def test_statistics_counts_per_rule():
    proc = run_lint(str(FIXTURES), "--statistics")
    assert proc.returncode == 1
    assert any(line.strip().endswith("FLT001") for line in proc.stdout.splitlines())
