"""The gating lint run is one pass over the tree.

``python -m repro lint ... --check-noqa`` parses each file once and
builds the whole-program taint analysis once: suppression and the stale-
noqa audit filter one list of raw findings instead of linting again.
"""

import ast
from collections import Counter
from pathlib import Path

from repro.__main__ import main
from repro.lint.engine import iter_python_files
from repro.lint.flow import taint

LINT_TESTS = Path(__file__).parent
PATHS = [str(LINT_TESTS / "fixtures"), str(LINT_TESTS / "flow" / "fixtures")]


def test_check_noqa_parses_each_file_once_and_builds_taint_once(
    monkeypatch, capsys
):
    parses: Counter = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    builds = []
    real_init = taint.TaintAnalysis.__init__

    def counting_init(self, model):
        builds.append(model)
        real_init(self, model)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(taint.TaintAnalysis, "__init__", counting_init)
    assert main(["lint", *PATHS, "--check-noqa"]) == 1  # the fixtures trip
    assert "NOQA" not in capsys.readouterr().out

    files = list(iter_python_files(PATHS))
    assert {f: parses[f] for f in files} == {f: 1 for f in files}
    assert len(builds) == 1
