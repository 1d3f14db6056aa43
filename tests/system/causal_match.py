"""Two causal traces of one run, compared up to a renaming of event ids.

A broadcast is one send event however it travels, so a run that sends a
burst records fewer send events than one that sends its ``n`` copies,
and the lockstep round records its deliveries in another global order
than ``Network.drain_all`` does.  Neither changes what happened at a
process or what it could have known.  :func:`renamed` compares whole
traces (every event's Lamport stamp and clock too) whose send events
correspond one to one; :func:`assert_same_run` compares the rest of two
traces whose send events do not.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence


def _fields(ev: Any) -> tuple:
    return (ev.kind, ev.src, ev.dst, ev.tag, ev.time, ev.fields)


def renamed(events: Sequence[Any]) -> dict[int, list[tuple]]:
    """Per pid, its events in program order, each with its Lamport stamp
    and clock and its cause's ``(pid, position in program order)``."""
    where: dict[int, tuple[int, int]] = {}
    per_pid: dict[int, list[tuple]] = defaultdict(list)
    for ev in events:
        mine = per_pid[ev.pid]
        where[ev.eid] = (ev.pid, len(mine))
        mine.append((*_fields(ev), ev.lamport, ev.clock,
                     None if ev.cause is None else where[ev.cause]))
    return dict(sorted(per_pid.items()))


def _non_send_view(events: Sequence[Any]) -> dict[int, list[tuple]]:
    """Per pid, its non-send events in program order, each with whether a
    send caused it and, as a vector clock, how many non-send events of
    every pid happen before it or are it: happens-before restricted to
    the non-send events."""
    n = 1 + max((ev.pid for ev in events), default=-1)
    seen: dict[int, list[int]] = {}
    last: dict[int, int] = {}
    view: dict[int, list[tuple]] = defaultdict(list)
    for ev in events:  # eid order: every cause and program-order
        clock = [0] * n  # predecessor comes first
        for prior in (last.get(ev.pid), ev.cause):
            if prior is not None:
                clock = list(map(max, clock, seen[prior]))
        if ev.kind != "send":
            clock[ev.pid] += 1
            view[ev.pid].append((*_fields(ev), ev.cause is not None, tuple(clock)))
        seen[ev.eid] = clock
        last[ev.pid] = ev.eid
    return dict(sorted(view.items()))


def _causes_are_sends(events: Sequence[Any]) -> bool:
    """Every deliver with a cause names a send of its own ``(src, tag)``."""
    return all(
        events[ev.cause].kind == "send"
        and (events[ev.cause].src, events[ev.cause].tag) == (ev.src, ev.tag)
        for ev in events if ev.cause is not None
    )


def sends(events: Sequence[Any]) -> int:
    return sum(ev.kind == "send" for ev in events)


def assert_same_run(
    events: Sequence[Any], ref_events: Sequence[Any],
    envelopes: int, ref_envelopes: int,
) -> None:
    """``events`` and ``ref_events`` agree up to one renaming of event
    ids, however many send events each records: per pid the non-send
    events in program order, happens-before among them, deliver for
    deliver a send cause of the same ``(src, tag)``; and each trace has
    one send event per envelope its run submitted."""
    assert _non_send_view(events) == _non_send_view(ref_events)
    assert _causes_are_sends(events) and _causes_are_sends(ref_events)
    assert (sends(events), sends(ref_events)) == (envelopes, ref_envelopes)
