"""Fixture-driven tests: each flow family catches its seeded violation.

Fixtures opt into program scope with ``# repro: lint-as``; they are run
through :func:`repro.lint.lint_sources`, selecting the family under test
so unrelated families cannot mask an assertion.
"""

from pathlib import Path

import pytest

from repro.lint import lint_sources

FIXTURES = Path(__file__).parent / "fixtures"


def _flow(name, select=None, extra=()):
    path = FIXTURES / name
    files = [(str(path), path.read_text())]
    for extra_path, extra_src in extra:
        files.append((extra_path, extra_src))
    return [f for f in lint_sources(files, select=select) if f.path == str(path)]


def test_flow001_unhandled_kind():
    findings = _flow("flow001_unhandled_kind.py", select=["FLOW"])
    assert [f.rule for f in findings] == ["FLOW001"]
    assert "'ping'" in findings[0].message


def test_flow002_dead_handler():
    findings = _flow("flow002_dead_handler.py", select=["FLOW"])
    assert [f.rule for f in findings] == ["FLOW002"]
    assert "'legacy'" in findings[0].message


def test_quo002_threshold_without_provenance():
    findings = _flow("quo002_threshold_no_provenance.py", select=["QUO"])
    assert [f.rule for f in findings] == ["QUO002"]
    assert "'quorum'" in findings[0].message


def test_xpt001_handler_reachable_global():
    findings = _flow("xpt001_handler_global.py", select=["XPT"])
    assert [f.rule for f in findings] == ["XPT001"]
    assert "_DELIVERIES" in findings[0].message


def test_xpt003_seam_import_violation():
    findings = _flow("xpt003_seam_violation.py", select=["XPT"])
    assert [f.rule for f in findings] == ["XPT003"]
    assert "_drain_queues" in findings[0].message
    assert "AsyncScheduler" not in findings[0].message


def test_xpt003_private_attr_access_on_transport_object():
    net_src = (
        "# repro: lint-as system/network.py\n"
        "class Network:\n"
        "    def __init__(self):\n"
        "        self._links = {}\n"
    )
    proto_src = (
        "# repro: lint-as core/fixture_privattr.py\n"
        "def drain(net):\n"
        "    net._links.clear()\n"
    )
    findings = lint_sources(
        [("proto.py", proto_src), ("net.py", net_src)], select=["XPT003"]
    )
    assert [f.rule for f in findings] == ["XPT003"]
    assert "_links" in findings[0].message
    # `self._links` inside the transport module itself is not a finding.
    assert all(f.path == "proto.py" for f in findings)


def test_quo001_inline_system_bound():
    src = (
        "# repro: lint-as system/fixture_quo001.py\n"
        "def gate(n, f):\n"
        "    return n >= 3 * f + 1\n"
    )
    findings = lint_sources([("g.py", src)], select=["RES001"])
    assert [f.rule for f in findings] == ["RES001"]


def test_quo002_accepts_bounds_provenance():
    bounds_src = (
        "# repro: lint-as core/bounds.py\n"
        "def averaging_quorum(n, f):\n"
        "    return n - f\n"
    )
    ok_src = (
        "# repro: lint-as core/fixture_quo_ok.py\n"
        "from .bounds import averaging_quorum\n"
        "class P(SyncProcess):\n"
        "    def __init__(self, n, f):\n"
        "        self.quorum = averaging_quorum(n, f)\n"
    )
    findings = lint_sources(
        [("ok.py", ok_src), ("b.py", bounds_src)], select=["QUO002"]
    )
    assert findings == []


def test_noqa_suppresses_flow_findings():
    src = (
        "# repro: lint-as system/fixture_quo_noqa.py\n"
        "def gate(n, f):\n"
        "    return n >= 3 * f + 1  # repro: noqa[RES001]\n"
    )
    assert lint_sources([("g.py", src)], select=["RES001"]) == []


def test_fixture_directory_produces_exactly_the_seeded_findings():
    """Every fixture joins one model; families fire only on their file."""
    files = [
        (str(p), p.read_text()) for p in sorted(FIXTURES.glob("*.py"))
    ]
    findings = lint_sources(files, select=["FLOW", "QUO", "XPT"])
    by_file = {}
    for f in findings:
        by_file.setdefault(Path(f.path).name, set()).add(f.rule)
    assert by_file == {
        "flow001_unhandled_kind.py": {"FLOW001"},
        "flow002_dead_handler.py": {"FLOW002"},
        "quo002_threshold_no_provenance.py": {"QUO002"},
        "xpt001_handler_global.py": {"XPT001"},
        "xpt003_seam_violation.py": {"XPT003"},
    }


@pytest.mark.parametrize("family", ["FLOW", "QUO", "XPT"])
def test_families_selectable(family):
    files = [(str(p), p.read_text()) for p in sorted(FIXTURES.glob("*.py"))]
    findings = lint_sources(files, select=[family])
    assert findings, f"family {family} selected nothing"
    assert all(f.rule.startswith(family) for f in findings)
