"""JSONL serialisation of traces and metrics, with a validating reader.

One trace file is a sequence of JSON objects, one per line, each with a
``"type"`` discriminator:

* ``{"type": "header", "schema", "run_id", "wall_time"}`` (at most one,
  always first; files written before schema 2 have none)
* ``{"type": "span", "id", "parent", "name", "t0", "t1", "tags"}``
* ``{"type": "event", "t", "name", "level", "fields"}``
* ``{"type": "causal", "eid", "kind", "pid", "lamport", "clock", ...}``
  (see :meth:`repro.obs.causal.CausalCollector.to_records`)
* ``{"type": "metrics", "metrics": {name: {...}, ...}}`` (at most one,
  conventionally last)

All span/event timestamps are monotonic-clock seconds (comparable within
one file, meaningless across files); the header's ``wall_time`` is the
one wall-clock anchor, recorded so a file can be placed in real time
without making any record depend on it.  ``read_jsonl`` round-trips
exactly what ``write_jsonl`` wrote and rejects malformed lines, so CI
can use it as a format check.  Readers accept old headerless files.
"""

from __future__ import annotations

import json
import time
import uuid
from typing import Any, Optional, Sequence, TextIO, Union

from .metrics import MetricsRegistry
from .tracer import EventRecord, SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "header_record",
    "trace_to_records",
    "write_jsonl",
    "dump_jsonl",
    "read_jsonl",
    "validate_records",
]

_TYPES = ("header", "span", "event", "causal", "metrics")

#: Version stamped into header records.  2 = headers + causal records.
SCHEMA_VERSION = 2


def header_record(run_id: Optional[str] = None) -> dict[str, Any]:
    """A fresh ``{"type": "header"}`` record (schema version, run id,
    wall-clock anchor).  ``run_id`` defaults to a random 12-hex id."""
    return {
        "type": "header",
        "schema": SCHEMA_VERSION,
        "run_id": run_id if run_id is not None else uuid.uuid4().hex[:12],
        "wall_time": time.time(),
    }


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of tag/field values to JSON-safe data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        try:
            return value.item()
        except Exception:  # pragma: no cover - exotic array types
            pass
    if hasattr(value, "tolist"):  # numpy arrays
        try:
            return value.tolist()
        except Exception:  # pragma: no cover - exotic array types
            pass
    return repr(value)


def trace_to_records(
    tracer: Any = None,
    registry: Optional[MetricsRegistry] = None,
    collector: Any = None,
) -> list[dict[str, Any]]:
    """Flatten a tracer, registry, and/or causal collector into
    JSON-ready record dicts (no header — callers prepend one)."""
    records: list[dict[str, Any]] = []
    if tracer is not None:
        for span in getattr(tracer, "spans", ()):
            assert isinstance(span, SpanRecord)
            records.append(
                {
                    "type": "span",
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "t0": span.t0,
                    "t1": span.t1,
                    "tags": _jsonable(span.tags),
                }
            )
        for ev in getattr(tracer, "events", ()):
            assert isinstance(ev, EventRecord)
            records.append(
                {
                    "type": "event",
                    "t": ev.t,
                    "name": ev.name,
                    "level": ev.level,
                    "fields": _jsonable(ev.fields),
                }
            )
    if collector is not None and getattr(collector, "enabled", False):
        records.extend(collector.to_records())
    if registry is not None:
        records.append(
            {"type": "metrics", "metrics": _jsonable(registry.snapshot())}
        )
    return records


def dump_jsonl(records: Sequence[dict[str, Any]], fp: TextIO) -> int:
    """Write records to an open text file; returns the line count."""
    count = 0
    for rec in records:
        fp.write(json.dumps(rec, sort_keys=True) + "\n")
        count += 1
    return count


def write_jsonl(
    path: Union[str, Any],
    tracer: Any = None,
    registry: Optional[MetricsRegistry] = None,
    collector: Any = None,
    run_id: Optional[str] = None,
) -> int:
    """Export a tracer/registry/causal collector to a JSONL file (header
    first); returns the line count."""
    records = [header_record(run_id)]
    records.extend(trace_to_records(tracer, registry, collector))
    with open(path, "w", encoding="utf-8") as fp:
        return dump_jsonl(records, fp)


def validate_records(records: Sequence[dict[str, Any]]) -> None:
    """Raise ``ValueError`` on structurally invalid trace records.

    A header is optional (old files have none) but when present must be
    the first record, and there can be at most one.
    """
    span_ids = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or rec.get("type") not in _TYPES:
            raise ValueError(f"record {i}: missing/unknown type: {rec!r}")
        if rec["type"] == "header":
            if i != 0:
                raise ValueError(
                    f"record {i}: header must be the first record (and "
                    "there can be only one)"
                )
            for key in ("schema", "run_id", "wall_time"):
                if key not in rec:
                    raise ValueError(f"record {i}: header missing {key!r}")
        elif rec["type"] == "span":
            for key in ("id", "name", "t0"):
                if key not in rec:
                    raise ValueError(f"record {i}: span missing {key!r}")
            span_ids.add(rec["id"])
        elif rec["type"] == "event":
            for key in ("t", "name", "level"):
                if key not in rec:
                    raise ValueError(f"record {i}: event missing {key!r}")
        elif rec["type"] == "causal":
            for key in ("eid", "kind", "pid", "lamport", "clock"):
                if key not in rec:
                    raise ValueError(f"record {i}: causal missing {key!r}")
        else:
            if not isinstance(rec.get("metrics"), dict):
                raise ValueError(f"record {i}: metrics payload must be a dict")
    for i, rec in enumerate(records):
        if rec["type"] == "span" and rec.get("parent") is not None:
            if rec["parent"] not in span_ids:
                raise ValueError(
                    f"record {i}: parent {rec['parent']} is not a span id"
                )


def read_jsonl(path: Union[str, Any]) -> list[dict[str, Any]]:
    """Load and validate a JSONL trace file."""
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    validate_records(records)
    return records
