"""Engine edge cases: lint-as + noqa interplay, multi-line statements,
decorated defs, and overlapping --select tokens."""

import pytest

from repro.lint import lint_sources
from repro.lint.engine import _select_rules


# --------------------------------------------------------- lint-as + noqa
def test_lint_as_scopes_in_and_noqa_suppresses_on_same_file():
    src = (
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa[DET002]\n"
    )
    assert lint_sources([("t.py", src)]) == []


def test_noqa_for_wrong_rule_does_not_suppress():
    src = (
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa[FLT001]\n"
    )
    findings = lint_sources([("t.py", src)])
    assert [f.rule for f in findings] == ["DET002"]


def test_family_prefix_noqa_suppresses_member_rule():
    src = (
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa[DET]\n"
    )
    assert lint_sources([("t.py", src)]) == []


def test_lint_as_directive_not_on_first_line_still_applies():
    src = (
        '"""Docstring first."""\n'
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    findings = lint_sources([("t.py", src)])
    assert [f.rule for f in findings] == ["DET002"]


# ------------------------------------------------------ multi-line statements
def test_multiline_call_finding_anchors_to_first_line():
    src = (
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time(\n"
        "    )\n"
    )
    findings = lint_sources([("t.py", src)])
    assert len(findings) == 1
    assert findings[0].line == 4  # the call's first physical line


def test_noqa_on_multiline_statement_must_sit_on_the_anchor_line():
    suppressed = (
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time(  # repro: noqa[DET002]\n"
        "    )\n"
    )
    assert lint_sources([("t.py", suppressed)]) == []
    # On the closing paren it does nothing: suppression is per-line.
    not_suppressed = (
        "# repro: lint-as core/x.py\n"
        "import time\n"
        "def f():\n"
        "    return time.time(\n"
        "    )  # repro: noqa[DET002]\n"
    )
    assert len(lint_sources([("t.py", not_suppressed)])) == 1


# -------------------------------------------------------------- decorated defs
def test_finding_inside_decorated_def():
    src = (
        "# repro: lint-as core/x.py\n"
        "import functools\n"
        "import time\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f():\n"
        "    return time.time()\n"
    )
    findings = lint_sources([("t.py", src)])
    assert [f.rule for f in findings] == ["DET002"]
    assert findings[0].line == 6


def test_decorated_handler_still_checked_by_hygiene():
    src = (
        "# repro: lint-as system/broadcast/x.py\n"
        "_STATE: dict = {}\n"
        "class S:\n"
        "    @staticmethod\n"
        "    def on_message(src, payload):\n"
        "        _STATE[src] = payload\n"
    )
    findings = lint_sources([("t.py", src)])
    assert "HYG001" in {f.rule for f in findings}


# ------------------------------------------------------- overlapping --select
def test_overlapping_select_tokens_do_not_duplicate_rules():
    rules = _select_rules(["DET", "DET001", "determinism"])
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids))
    assert "DET001" in ids and "DET002" in ids


def test_select_prefix_spans_per_file_and_flow_without_error():
    # 'DET' matches single-file rules, 'QUO' whole-program ones; both in
    # one select must validate.
    rules = _select_rules(["DET", "QUO"])
    assert {r.id for r in rules} >= {"DET001", "DET002", "DET003", "DET004"}


def test_select_flow_only_token_yields_no_per_file_rules():
    assert [r.id for r in _select_rules(["FLOW001"])] == ["FLOW001"]


def test_unknown_select_token_raises_even_with_valid_ones():
    with pytest.raises(ValueError, match="ZZZ"):
        _select_rules(["DET", "ZZZ"])
