"""The gating lint run is one pass over the tree.

``python -m repro lint ... --check-noqa`` parses each file once and
builds the whole-program model once: suppression and the stale-
noqa audit filter one list of raw findings instead of linting again.
"""

import ast
from collections import Counter
from pathlib import Path

from repro.__main__ import main
from repro.lint.engine import iter_python_files
from repro.lint import engine

LINT_TESTS = Path(__file__).parent
PATHS = [str(LINT_TESTS / "fixtures"), str(LINT_TESTS / "flow" / "fixtures")]


def test_check_noqa_parses_each_file_once_and_builds_the_model_once(
    monkeypatch, capsys
):
    parses: Counter = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    builds = []
    real_build = engine.build_model

    def counting_build(modules):
        builds.append(modules)
        return real_build(modules)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(engine, "build_model", counting_build)
    assert main(["lint", *PATHS, "--check-noqa"]) == 1  # the fixtures trip
    assert "NOQA" not in capsys.readouterr().out

    files = list(iter_python_files(PATHS))
    assert {f: parses[f] for f in files} == {f: 1 for f in files}
    assert len(builds) == 1
