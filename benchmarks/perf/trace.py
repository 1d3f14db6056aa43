"""Per-layer spans recorded from outside the program.

:func:`install` wraps the layers' public callables: class methods are
patched on the class, module functions on their defining module and on
every loaded ``repro.*`` module that imported the name; :func:`uninstall`
puts every original object back.  A span is ``(layer, name, start, end,
parent)``; the parent comes from a stack, so only synchronous callables
are wrapped (coroutine layers are read from their public counters).

Self time is a span's duration minus the part its child spans cover, so
SciPy, ``copy``, ``pickle`` and asyncio time lands in the repo layer that
called it.  Spans are aggregated per ``(layer, callable)`` as they close;
raw spans are kept for the first top-level span (one ``run`` call) only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = [
    "LAYERS",
    "SpanRecorder",
    "WRAP_POINTS",
    "install",
    "self_times",
    "uninstall",
]

#: layer -> [(module, class-or-None, attribute), ...]
WRAP_POINTS: dict[str, list[tuple[str, Optional[str], str]]] = {
    "core.run": [
        ("repro.core.runner", None, "run"),
        ("repro.core.problems", "ProblemSpec", "check"),
    ],
    "core": [
        ("repro.core.averaging", "VerifiedAveragingProcess", "on_start"),
        ("repro.core.averaging", "VerifiedAveragingProcess", "on_message"),
        ("repro.core.broadcast_all", "BroadcastAllProcess", "on_round"),
    ],
    "geometry": [
        ("repro.geometry.minimax", None, "delta_star"),
        ("repro.geometry.intersections", None, "gamma_point"),
        ("repro.geometry.intersections", None, "gamma_delta_p_point"),
        ("repro.geometry.tverberg", None, "tverberg_partition"),
        ("repro.geometry.tverberg", None, "tverberg_point"),
        # The checker's entry points into geometry: without them the
        # verdict's distance solves (45 % of sim-geometry) read as
        # core.run self time.
        ("repro.geometry.distance", None, "distance_to_hull"),
        ("repro.geometry.relaxed", "KRelaxedHull", "violation"),
        ("repro.geometry.relaxed", "DeltaPHull", "violation"),
    ],
    "system.scheduler": [
        ("repro.system.transport.sim", "SimTransport", "run_sync"),
        ("repro.system.transport.sim", "SimTransport", "run_async"),
        ("repro.system.scheduler", "RandomPolicy", "choose"),
        ("repro.system.scheduler", "FifoPolicy", "choose"),
        ("repro.system.scheduler", "DelayPolicy", "choose"),
    ],
    "system.network": [
        ("repro.system.network", "Network", "submit"),
        ("repro.system.network", "Network", "pop"),
        ("repro.system.network", "Network", "pending_links"),
        ("repro.system.network", "Network", "pending_count"),
        ("repro.system.network", "Network", "drain_all"),
    ],
    "system.messages": [
        ("repro.system.messages", None, "estimate_bytes"),
        ("repro.system.messages", None, "canonical_bytes"),
        ("repro.system.messages", None, "defensive_copy"),
    ],
    "system.broadcast": [
        ("repro.system.broadcast.bracha", "BrachaState", "start"),
        ("repro.system.broadcast.bracha", "BrachaState", "on_message"),
        ("repro.system.broadcast.om", "EIGState", "messages_for_round"),
        ("repro.system.broadcast.om", "EIGState", "receive"),
        ("repro.system.broadcast.om", "EIGState", "decide"),
        ("repro.system.broadcast.dolev_strong", "DolevStrongState", "messages_for_round"),
        ("repro.system.broadcast.dolev_strong", "DolevStrongState", "receive"),
        ("repro.system.broadcast.dolev_strong", "DolevStrongState", "decide"),
    ],
    "system.adversary": [
        ("repro.system.adversary", "Adversary", "transform_outbox"),
    ],
    "system.transport.wire": [
        ("repro.system.transport.wire", None, "encode_for_version"),
        ("repro.system.transport.wire", None, "encode_record"),
        ("repro.system.transport.wire", None, "decode_body"),
    ],
    "system.transport.live": [
        ("repro.system.transport.live", "LiveTransport", "run_sync"),
        ("repro.system.transport.live", "LiveTransport", "run_async"),
    ],
}

LAYERS = tuple(WRAP_POINTS)


@dataclass
class _Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class SpanRecorder:
    """Span stack plus running per-``(layer, callable)`` totals."""

    def __init__(self) -> None:
        self.totals: dict[tuple[str, str], _Totals] = {}
        #: Open spans, innermost last: ``[key, start, child_seconds, raw_index]``.
        self.stack: list[list[Any]] = []
        #: Set to keep raw spans; cleared when the first top-level span closes.
        self.keep_raw = False
        #: ``(layer, name, start, end, parent_index)`` in opening order.
        self.raw: list[tuple[str, str, float, float, int]] = []

    def open(self, key: tuple[str, str]) -> list[Any]:
        index = -1
        if self.keep_raw:
            index = len(self.raw)
            parent = self.stack[-1][3] if self.stack else -1
            self.raw.append((key[0], key[1], 0.0, 0.0, parent))
        frame = [key, perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def close(self, frame: list[Any], *, count_call: bool = True) -> None:
        end = perf_counter()
        self.stack.pop()
        key, start, child_s, index = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        totals = self.totals.get(key)
        if totals is None:
            totals = self.totals[key] = _Totals()
        totals.calls += count_call
        totals.self_s += duration - child_s
        totals.total_s += duration
        if index >= 0:
            layer, name, _, _, parent = self.raw[index]
            self.raw[index] = (layer, name, start, end, parent)
        if not self.stack:
            self.keep_raw = False


def self_times(
    spans: list[tuple[str, str, float, float, int]],
) -> list[float]:
    """Self time of each raw span: duration minus its direct children's."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _wrap(recorder: SpanRecorder, key: tuple[str, str], fn: Callable) -> Callable:
    stack = recorder.stack

    if inspect.isgeneratorfunction(fn):
        # The body runs during iteration, interleaved with the consumer:
        # each resumption is its own slice of the span, one call in total.
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = fn(*args, **kwargs)
            first = True
            while True:
                frame = recorder.open(key)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.close(frame, count_call=first)
                    first = False
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        # A callable that recurses through its own module global
        # (``estimate_bytes``) is one span, not one per level.
        if stack and stack[-1][0] is key:
            return fn(*args, **kwargs)
        frame = recorder.open(key)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(frame)

    return wrapper


#: ``(owner, attribute, original)`` — what :func:`uninstall` restores.
Patch = tuple[Any, str, Any]


def install(recorder: SpanRecorder) -> list[Patch]:
    """Wrap every :data:`WRAP_POINTS` callable; return the undo list.

    Import the modules first (lazily loaded backends included) so that a
    module that binds a wrapped name later cannot keep the original.
    """
    patches: list[Patch] = []
    for points in WRAP_POINTS.values():
        for module_name, _cls, _attr in points:
            importlib.import_module(module_name)
    repro_modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for layer, points in WRAP_POINTS.items():
        for module_name, cls_name, attr in points:
            module = sys.modules[module_name]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                key = (layer, f"{cls_name}.{attr}")
                patches.append((owner, attr, original))
                setattr(owner, attr, _wrap(recorder, key, original))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(recorder, (layer, attr), original)
            for holder in repro_modules:
                for bound_name, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, bound_name, original))
                        setattr(holder, bound_name, wrapped)
    return patches


def uninstall(patches: list[Patch]) -> None:
    """Restore every patched attribute to the object it held before."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
