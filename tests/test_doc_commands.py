"""Every ``python -m repro ...`` line the repo shows a reader must parse.

The places a reader copies a command from — README, ``docs/``, the
verify skill, the CI workflow, and the replay lines ``fuzz`` prints —
are checked against ``build_parser()``, so a removed command or option
left behind in a document fails here instead of at the reader's shell.
Only parsing is checked; nothing is run.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [ROOT / "README.md", ROOT / ".claude/skills/verify/SKILL.md",
     ROOT / ".github/workflows/ci.yml", *(ROOT / "docs").glob("*.md")]
)
PREFIX = "python -m repro"


def commands(text: str) -> list[str]:
    """The argument text after each ``python -m repro`` in ``text``.

    Backslash-continued lines are joined; inside an inline code span the
    command ends at the closing backtick; shell operators and ``#``
    comments end it too (see ``argv``).
    """
    found = []
    for line in re.sub(r"\\\n\s*", " ", text).splitlines():
        for match in re.finditer(re.escape(PREFIX) + r"\b", line):
            rest = line[match.end():]
            if line.count("`", 0, match.start()) % 2:
                rest = rest.split("`", 1)[0]
            if argv(rest):  # a bare mention of the program is no command
                found.append(rest)
    return found


def argv(rest: str) -> list[str]:
    """Shell words of one command, up to the first ``| & ; < > ( )``."""
    rest = re.sub(r"(?<=\s)\d+(?=[<>])", "", rest)  # 2>/dev/null
    lexer = shlex.shlex(rest, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = []
    for word in lexer:
        if word[0] in "|&;<>()":
            break
        words.append(word)
    return words


CASES = [
    pytest.param(rest, id=f"{path.relative_to(ROOT)}:{i}")
    for path in SOURCES
    for i, rest in enumerate(commands(path.read_text(encoding="utf-8")))
]


def test_every_source_shows_commands():
    shown = {case.id.rsplit(":", 1)[0] for case in CASES}
    assert {"README.md", ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md"} <= shown


@pytest.mark.parametrize("rest", CASES)
def test_documented_command_parses(rest, capsys):
    try:
        build_parser().parse_args(argv(rest))
    except SystemExit:
        pytest.fail(f"{PREFIX}{rest}: {capsys.readouterr().err.strip()}")


def test_printed_replay_lines_parse():
    from repro.dst import Scenario, encode_token
    from repro.dst.explore import Violation, replay_command

    token = encode_token(Scenario(algorithm="algo", n=4, d=2, f=1, seed=11))
    violation = Violation(
        scenario=Scenario(algorithm="algo", n=4, d=2, f=1, seed=11),
        invariant="agreement", detail="", token=token,
        agreement_ok=False, validity_ok=True, termination_ok=True,
    )
    for line in (violation.replay_command, violation.shrink_command,
                 replay_command(token)):
        assert line.startswith(PREFIX + " ")
        args = build_parser().parse_args(argv(line[len(PREFIX):]))
        assert args.command == "replay" and args.token == token
