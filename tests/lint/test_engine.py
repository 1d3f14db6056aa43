"""Engine-level behaviour: scoping, suppression, selection, fixtures."""

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_paths, lint_sources
from repro.lint.engine import logical_path_for

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the single rule id it must trigger
FIXTURE_RULES = {
    "det001_stdlib_random.py": "DET001",
    "det002_wall_clock.py": "DET002",
    "det003_unseeded_rng.py": "DET003",
    "det004_set_iteration.py": "DET004",
    "flt001_float_eq.py": "FLT001",
    "res001_inline_bound.py": "RES001",
    "hyg001_module_state.py": "HYG001",
    "hyg002_retain_forward.py": "HYG002",
    "obs001_bad_metric_name.py": "OBS001",
}


def test_registry_has_all_documented_rules():
    ids = {r.id for r in all_rules()}
    assert set(FIXTURE_RULES.values()) <= ids


def test_every_fixture_exists_for_every_rule_family():
    by_id = {r.id: r for r in all_rules()}
    families = {by_id[rid].family for rid in FIXTURE_RULES.values()}
    assert families == {"determinism", "float-safety", "resilience-bounds",
                        "handler-hygiene", "observability"}


@pytest.mark.parametrize("fixture,rule_id", sorted(FIXTURE_RULES.items()))
def test_fixture_triggers_exactly_its_rule(fixture, rule_id):
    findings = lint_paths([str(FIXTURES / fixture)])
    assert findings, f"{fixture} produced no findings"
    assert {f.rule for f in findings} == {rule_id}


def test_logical_path_mapping():
    assert logical_path_for("src/repro/core/bounds.py") == "core/bounds.py"
    assert (
        logical_path_for("/abs/src/repro/system/broadcast/bracha.py")
        == "system/broadcast/bracha.py"
    )
    assert logical_path_for("benchmarks/bench_scaling.py") == (
        "benchmarks/bench_scaling.py"
    )


def test_lint_as_directive_controls_scope():
    src = "import random\n"
    in_scope = lint_sources([("src/repro/core/x.py", src)])
    out_of_scope = lint_sources([("src/repro/analysis/x.py", src)])
    assert {f.rule for f in in_scope} == {"DET001"}
    assert out_of_scope == []


def test_noqa_suppresses_only_named_rule():
    src = "delta = 0.5\nok = delta == 0.0  # repro: noqa[FLT001]\n"
    assert lint_sources([("src/repro/geometry/x.py", src)]) == []
    src_wrong = "delta = 0.5\nok = delta == 0.0  # repro: noqa[RES001]\n"
    findings = lint_sources([("src/repro/geometry/x.py", src_wrong)])
    assert {f.rule for f in findings} == {"FLT001"}


def test_bare_noqa_suppresses_everything_on_line():
    src = "import random  # repro: noqa\n"
    assert lint_sources([("src/repro/core/x.py", src)]) == []


def test_noqa_family_prefix():
    src = "import random  # repro: noqa[DET]\n"
    assert lint_sources([("src/repro/core/x.py", src)]) == []


def test_select_restricts_rules():
    src = "import random\nx = 1.0\nok = x == 0.0\n"
    only_flt = lint_sources([("src/repro/core/x.py", src)], select=["FLT001"])
    assert {f.rule for f in only_flt} == {"FLT001"}
    only_det = lint_sources([("src/repro/core/x.py", src)], select=["determinism"])
    assert {f.rule for f in only_det} == {"DET001"}


def test_syntax_error_reported_as_parse_finding():
    findings = lint_sources([("src/repro/core/x.py", "def broken(:\n")])
    assert [f.rule for f in findings] == ["PARSE"]


def test_finding_format_is_path_line_col():
    f = lint_sources([("src/repro/core/x.py", "import random\n")])[0]
    text = f.format()
    assert text.startswith("src/repro/core/x.py:1:")
    assert "DET001" in text


@pytest.mark.parametrize("spec", ["FLT-typo", "handler-hygiene", ""])
def test_noqa_list_naming_no_rule_suppresses_nothing_and_is_stale(spec):
    src = f"import random  # repro: noqa[{spec}]\n"
    files = [("src/repro/core/x.py", src)]
    assert [f.rule for f in lint_sources(files)] == ["DET001"]
    audited = lint_sources(files, check_noqa=True)
    assert sorted(f.rule for f in audited) == ["DET001", "NOQA"]
