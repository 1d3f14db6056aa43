"""SARIF output, --check-noqa, and the rule catalogue."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import Finding, lint_paths
from repro.lint.sarif import to_sarif

REPO = Path(__file__).resolve().parents[2]
FLOW_FIXTURES = REPO / "tests" / "lint" / "flow" / "fixtures"


def run_lint(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


# ------------------------------------------------------------------- SARIF
def test_sarif_structure_and_rule_catalogue():
    findings = [
        Finding(path="src/repro/core/x.py", line=3, col=5,
                rule="XPT001", message="handler-reachable global"),
        Finding(path="src/repro/core/y.py", line=1, col=1,
                rule="PARSE", message="cannot parse"),
    ]
    log = to_sarif(findings)
    assert log["version"] == "2.1.0"
    assert "sarif-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    # Registered and synthesised rules are all described.
    assert {"DET001", "FLOW001", "XPT001", "XPT003", "PARSE", "NOQA"} <= rule_ids
    first, second = run["results"]
    assert first["ruleId"] == "XPT001" and first["level"] == "error"
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/core/x.py"
    assert loc["region"] == {"startLine": 3, "startColumn": 5}
    assert second["ruleId"] == "PARSE"


def test_cli_sarif_on_fixture(tmp_path):
    proc = run_lint(str(FLOW_FIXTURES / "xpt001_handler_global.py"),
                    "--format", "sarif")
    assert proc.returncode == 1  # findings still drive the exit code
    log = json.loads(proc.stdout)
    rules_hit = {r["ruleId"] for r in log["runs"][0]["results"]}
    assert "XPT001" in rules_hit


def test_cli_sarif_clean_tree_is_valid_and_empty():
    proc = run_lint("src/repro/geometry/norms.py", "--format", "sarif")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    log = json.loads(proc.stdout)
    assert log["runs"][0]["results"] == []


# -------------------------------------------------------------- check-noqa
def test_stale_noqa_flagged_and_live_noqa_kept(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text(
        "# repro: lint-as core/x.py\n"
        "def f():\n"
        "    return 1  # repro: noqa[DET002]\n"
    )
    live = tmp_path / "live.py"
    live.write_text(
        "# repro: lint-as core/y.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa[DET002]\n"
    )
    findings = lint_paths([str(stale), str(live)], check_noqa=True)
    assert [f.rule for f in findings] == ["NOQA"]
    assert findings[0].path == str(stale)
    assert findings[0].line == 3


def test_docstring_mention_of_noqa_is_not_a_suppression(tmp_path):
    doc = tmp_path / "doc.py"
    doc.write_text(
        '"""Suppressions use ``# repro: noqa[RULE]`` on the line."""\n'
        "x = 1\n"
    )
    assert lint_paths([str(doc)], check_noqa=True) == []


def test_blanket_noqa_live_when_any_finding_on_line(tmp_path):
    f = tmp_path / "b.py"
    f.write_text(
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def g():\n"
        "    return time.time()  # repro: noqa\n"
    )
    assert lint_paths([str(f)], check_noqa=True) == []


def test_cli_check_noqa_gates(tmp_path):
    bad = tmp_path / "stale.py"
    bad.write_text("x = 1  # repro: noqa[DET001]\n")
    proc = run_lint(str(bad), "--check-noqa")
    assert proc.returncode == 1
    assert "NOQA" in proc.stdout
    proc = run_lint(str(bad))  # without the flag, stale noqa is invisible
    assert proc.returncode == 0


def test_shipped_tree_has_no_stale_noqa():
    findings = lint_paths([str(REPO / "src" / "repro")], check_noqa=True)
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


# --------------------------------------------------------------- catalogue
def test_list_rules_includes_flow_families():
    proc = run_lint("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("FLOW001", "QUO002", "XPT001", "XPT003"):
        assert rule_id in proc.stdout
