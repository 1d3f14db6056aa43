"""Rule registry, file walking, suppression — the linter's machinery.

The engine is deliberately small: a :class:`Rule` is an object with an
``id``, a ``severity``, a tuple of logical-path ``scopes`` it applies to,
and a ``check(module, program)`` generator over :class:`Finding`.  One
pass (:func:`lint_sources`) parses every file once into a
:class:`~repro.lint.flow.model.ModuleInfo`, builds the whole-program
model once, and runs every rule once per file in scope.  Everything
protocol-specific lives in :mod:`repro.lint.rules` (single-file rules)
and :mod:`repro.lint.flow.rules` (rules that follow values across files).

Scoping
-------
Rules are *path-aware*: the determinism family only fires inside the
modules the DST replay corpus must reproduce (``core/``, ``system/``,
``dst/``) plus the seeded-trajectory trees (``benchmarks/``,
``examples/``), the float-safety family inside ``geometry/`` and
``core/``, and so on.  A file's *logical path* is its path relative to
the nearest recognised root (``src/repro/``, ``benchmarks/``,
``examples/``, ``tests/``).  Fixture files can override it with a
file-level directive::

    # repro: lint-as core/fixture.py

Suppression
-----------
A finding on line ``L`` is suppressed when line ``L`` carries the comment
``# repro: noqa[RULE]`` naming its rule id (or an id prefix such as
``DET``), or a blanket ``# repro: noqa``.  Suppressions are deliberately per-line and
grep-able — the point of the linter is that exceptions are visible.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .flow.model import ModuleInfo, ProgramModel, build_model

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_sources",
    "parse_module",
    "register",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One ``file:line:col`` diagnostic."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        """Render as ``path:line:col: RULE message`` (the CLI text format)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: A bracket opens a rule list whatever it holds: ``noqa[FLT-typo]``
#: names no rule (and suppresses nothing), it is not a blanket noqa.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[^\]]*))?")
_LINT_AS_RE = re.compile(r"^#\s*repro:\s*lint-as\s+(?P<path>\S+)\s*$", re.MULTILINE)

#: Directory-name markers that anchor a file's logical path.
_ROOTS = ("src/repro", "benchmarks", "examples", "tests")


def logical_path_for(path: str) -> str:
    """Map a filesystem path to its repo-role path.

    ``src/repro/core/bounds.py`` -> ``core/bounds.py``;
    ``benchmarks/bench_table1.py`` -> ``benchmarks/bench_table1.py``;
    anything unrecognised keeps its basename (so ad-hoc files are linted
    with only the unscoped rules).
    """
    norm = path.replace(os.sep, "/")
    parts = norm.split("/")
    joined = "/".join(parts)
    for root in _ROOTS:
        marker = root + "/"
        idx = joined.find(marker)
        # Only match at a path-component boundary.
        if idx != -1 and (idx == 0 or joined[idx - 1] == "/"):
            rest = joined[idx + len(marker):]
            if root in ("benchmarks", "examples", "tests"):
                return f"{root}/{rest}"
            return rest
    return parts[-1]


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`, which
    the engine calls once for every parsed file in scope.  ``scopes`` is a
    tuple of logical-path prefixes the rule applies to (empty means every
    file); ``severity`` is ``"error"`` or ``"warning"`` — only errors
    affect the exit code.  ``program`` is the whole-program model all calls
    share, for rules that follow a value across files.
    """

    id: str = ""
    family: str = ""
    severity: str = "error"
    scopes: tuple[str, ...] = ()
    summary: str = ""

    def check(
        self, module: ModuleInfo, program: ProgramModel
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, module: ModuleInfo) -> bool:
        """True when ``module`` falls under any of the scope prefixes."""
        return not self.scopes or module.logical_path.startswith(self.scopes)

    # Convenience for subclasses.
    def finding(self, module: ModuleInfo, node: Any, message: str) -> Finding:
        """A finding at ``node``: anything with ``lineno`` / ``col_offset``
        (an AST node or a send site)."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (instance) to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def _matches(rule: Rule, token: str) -> bool:
    return rule.id.startswith(token) or rule.family == token


def _select_rules(select: Optional[Iterable[str]]) -> tuple[Rule, ...]:
    """Rules matching any id, id prefix or family name in ``select``
    (every rule when None); raises on a token that matches none."""
    if select is None:
        return all_rules()
    wanted = [s.strip() for s in select if s.strip()]
    unknown = [w for w in wanted if not any(_matches(r, w) for r in all_rules())]
    if unknown:
        raise ValueError(f"unknown rule or family: {', '.join(sorted(unknown))}")
    return tuple(r for r in all_rules() if any(_matches(r, w) for w in wanted))


def parse_module(path: str, source: str) -> ModuleInfo:
    """Parse one file (raises ``SyntaxError``).

    The logical path is :func:`logical_path_for` on ``path``, overridden
    by an in-file ``# repro: lint-as`` directive.
    """
    directive = _LINT_AS_RE.search(source)
    logical = directive.group("path") if directive else logical_path_for(path)
    return ModuleInfo(
        path, logical, ast.parse(source, filename=path), tuple(source.splitlines())
    )


#: line -> (the rule ids / prefixes a noqa names, or None for a blanket
#: noqa; the comment's column)
_NoqaTable = dict[int, tuple[Optional[tuple[str, ...]], int]]


def _noqa_comments(source: str) -> _NoqaTable:
    """Every noqa *comment* of a file.

    Tokenize-based so prose mentions of the directive inside docstrings
    (this repo documents its own linter) are not treated as
    suppressions.
    """
    table: _NoqaTable = {}
    if "noqa" not in source:
        return table
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            m = _NOQA_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
            if m is not None:
                spec = m.group("rules")
                names = None if spec is None else tuple(
                    n.strip() for n in spec.split(",") if n.strip()
                )
                table[tok.start[0]] = (names, tok.start[1])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return table


def _covers(names: Optional[tuple[str, ...]], rule: str) -> bool:
    """Does a noqa naming ``names`` (None: blanket) cover ``rule``?"""
    return names is None or rule.startswith(names)


def lint_sources(
    files: Iterable[tuple[str, str]],
    select: Optional[Iterable[str]] = None,
    check_noqa: bool = False,
) -> list[Finding]:
    """Lint ``(path, source)`` pairs; returns unsuppressed findings, sorted.

    Each file is parsed once, the whole-program model is built once over
    them, and each rule runs once on every file in its scope.  Suppression
    and the ``check_noqa`` audit are two filters over that one list of
    raw findings: a noqa comment is *stale* when no raw finding on its
    line is covered by it, and comes back as a ``NOQA`` finding — it hides
    nothing today and would silently hide a future regression.  With
    ``check_noqa`` every rule runs whatever ``select`` says, so staleness
    is judged against the whole catalogue.
    """
    selected = _select_rules(select)
    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    noqa: dict[str, _NoqaTable] = {}
    for path, source in files:
        try:
            module = parse_module(path, source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="PARSE",
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        modules.append(module)
        noqa[path] = _noqa_comments(source)
    program = build_model(modules)
    raw = [
        f
        for rule in (all_rules() if check_noqa else selected)
        for module in modules
        if rule.applies_to(module)
        for f in rule.check(module, program)
    ]
    wanted = {rule.id for rule in selected}
    for f in raw:
        names, _ = noqa[f.path].get(f.line, ((), 0))
        if f.rule in wanted and not _covers(names, f.rule):
            findings.append(f)
    if check_noqa:
        live: dict[tuple[str, int], set[str]] = {}
        for f in raw:
            live.setdefault((f.path, f.line), set()).add(f.rule)
        for path, table in noqa.items():
            for line, (names, col) in table.items():
                if not any(_covers(names, r) for r in live.get((path, line), ())):
                    findings.append(
                        Finding(
                            path=path,
                            line=line,
                            col=col + 1,
                            rule="NOQA",
                            message=(
                                "stale suppression: no finding on this line "
                                "matches; remove it or it will hide a future "
                                "regression"
                            ),
                        )
                    )
    return sorted(findings)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield p


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    on_file: Optional[Callable[[str], None]] = None,
    check_noqa: bool = False,
) -> list[Finding]:
    """Lint files and directories; the CLI's workhorse.

    ``on_file`` (when given) is called with each path as it is read —
    used by ``--verbose`` progress output.
    """
    sources: list[tuple[str, str]] = []
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        with open(path, encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    return lint_sources(sources, select=select, check_noqa=check_noqa)
