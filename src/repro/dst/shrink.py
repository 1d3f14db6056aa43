"""Greedy counterexample shrinking: smaller scenario, same violation.

A raw fuzz counterexample is rarely the story — it has incidental faults,
oversized systems, and schedule windows that play no role.  The shrinker
minimises a violating :class:`~repro.dst.scenarios.Scenario` along every
structural axis — n, d, f, fault-script length, clause severity, schedule
length and window width — **re-running the scenario after every candidate
edit** and keeping the edit only if the *same invariant* still breaks.
This is delta-debugging specialised to the scenario DSL: because every
candidate is itself a complete plain-data scenario, the final result is a
replayable token exactly like the original, just smaller.

The pass order is fixed and candidate generation draws no randomness, so
shrinking is deterministic: the same input scenario always shrinks to the
same output scenario in the same number of attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .explore import run_scenario
from .scenarios import Scenario, min_system_size

__all__ = ["ShrinkResult", "scenario_size", "shrink"]


def scenario_size(s: Scenario) -> tuple[int, int, int, int, int]:
    """Partial-order size: (n, d, f, fault clauses, schedule span).

    Shrinking never increases any component; ties are broken by trying
    the most aggressive edits first.
    """
    span = sum(w.end - w.start for w in s.schedule)
    return (s.n, s.d, s.f, len(s.faults), span)


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink run."""

    original: Scenario
    shrunk: Scenario
    invariant: str
    #: Candidate scenarios executed (both kept and rejected edits).
    attempts: int
    #: Edits that preserved the violation and were kept.
    accepted: int


def _renumber_without(s: Scenario, gone: int) -> Scenario:
    """Drop process ``gone`` from the system and close ranks (n - 1).

    Fault clauses for the removed pid vanish; higher pids shift down by
    one everywhere they appear (clauses, partition groups, victims).
    """

    def m(pid: int) -> int:
        return pid - 1 if pid > gone else pid

    faults = tuple(
        replace(c, pid=m(c.pid)) for c in s.faults if c.pid != gone
    )
    schedule = []
    for w in s.schedule:
        groups = tuple(
            tuple(sorted(m(p) for p in g if p != gone))
            for g in w.groups
        )
        groups = tuple(g for g in groups if g)
        victims = tuple(sorted(m(v) for v in w.victims if v != gone))
        if w.kind == "partition" and len(groups) < 2:
            continue  # partition degenerated; the drop-window pass covers it
        if w.kind == "delay" and not victims:
            continue
        schedule.append(replace(w, groups=groups, victims=victims))
    return replace(s, n=s.n - 1, faults=faults, schedule=tuple(schedule))


def _candidates(s: Scenario) -> Iterator[Scenario]:
    """Structural edits, most aggressive first, all strictly smaller."""
    # 1. Drop whole schedule windows (latest first: late windows are the
    #    most likely to be incidental).
    for i in reversed(range(len(s.schedule))):
        yield replace(s, schedule=s.schedule[:i] + s.schedule[i + 1:])
    # 2. Drop whole fault clauses.
    for i in reversed(range(len(s.faults))):
        yield replace(s, faults=s.faults[:i] + s.faults[i + 1:])
    # 3. Remove one process (prefer removing the highest honest pid, then
    #    the highest faulty one).
    floor = min_system_size(s.algorithm, s.d, s.f)
    if s.n > floor:
        faulty = set(p for c in s.faults for p in (c.pid,))
        honest = [p for p in range(s.n) if p not in faulty]
        order = list(reversed(honest)) + sorted(faulty, reverse=True)
        for gone in order[:2]:
            yield _renumber_without(s, gone)
    # 4. Reduce the dimension.
    if s.d > 1 and s.n >= min_system_size(s.algorithm, s.d - 1, s.f):
        yield replace(s, d=s.d - 1)
    # 5. Reduce f (only when the fault script fits in f - 1).
    if s.f > 1 and len({c.pid for c in s.faults}) <= s.f - 1:
        yield replace(s, f=s.f - 1)
    # 6. Halve schedule windows.
    for i, w in enumerate(s.schedule):
        width = w.end - w.start
        if width > 1:
            smaller = replace(w, end=w.start + width // 2)
            yield replace(s, schedule=s.schedule[:i] + (smaller,) + s.schedule[i + 1:])
    # 7. Simplify clauses: anything exotic becomes silent; shrink params.
    for i, c in enumerate(s.faults):
        if c.kind not in ("silent", "honest"):
            simpler = replace(c, kind="silent", param=1.0)
            yield replace(s, faults=s.faults[:i] + (simpler,) + s.faults[i + 1:])
        if c.end is None and c.start > 0:
            yield replace(
                s, faults=s.faults[:i] + (replace(c, start=0),) + s.faults[i + 1:]
            )


def _violates(s: Scenario, invariant: str) -> bool:
    try:
        s.validate()
    except ValueError:
        return False
    result = run_scenario(s)
    return invariant in result.violations


def shrink(
    scenario: Scenario,
    *,
    invariant: Optional[str] = None,
    max_attempts: int = 200,
) -> ShrinkResult:
    """Minimise ``scenario`` while the same invariant keeps failing.

    Parameters
    ----------
    scenario:
        A scenario known (or believed) to violate an invariant.
    invariant:
        The invariant to preserve; by default the first one the original
        scenario violates.  Raises ``ValueError`` when the original does
        not violate anything — shrinking needs a bug to hold on to.
    max_attempts:
        Re-execution budget; greedy passes stop when it runs out.
    """
    scenario.validate()
    first = run_scenario(scenario)
    if first.ok:
        raise ValueError(
            "scenario violates no invariant; nothing to shrink "
            "(did you mean to pass inject=... or a different seed?)"
        )
    target = invariant if invariant is not None else first.invariant
    assert target is not None
    if target not in first.violations:
        raise ValueError(
            f"scenario does not violate {target!r} "
            f"(it violates {sorted(first.violations)})"
        )

    current = scenario
    attempts = 0
    accepted = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            if _violates(candidate, target):
                current = candidate
                accepted += 1
                progress = True
                break  # restart the pass from the smaller scenario
    return ShrinkResult(
        original=scenario,
        shrunk=current,
        invariant=target,
        attempts=attempts,
        accepted=accepted,
    )
