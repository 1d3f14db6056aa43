"""docs/transport.md states each boundary's schema; the code owns it.

The wire's per-kind field table and the topology file's knob table are
written out in the docs for readers; this keeps them the same rows, in
the same order, as ``wire.RECORD_FIELDS`` / ``wire.STAMP_FIELDS`` and
``repro.core.runspec.RUN_KNOBS``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.runspec import RUN_KNOBS
from repro.system.transport import wire

DOC = Path(__file__).resolve().parents[1] / "docs" / "transport.md"


def table_after(heading: str) -> list[list[str]]:
    """Body rows (cells stripped of backticks) of the first markdown
    table under ``heading``."""
    section = DOC.read_text(encoding="utf-8").split(heading, 1)[1]
    rows: list[list[str]] = []
    for line in section.splitlines():
        if line.startswith("|"):
            rows.append([c.strip().strip("`") for c in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # header and |---| separator


def type_names(types) -> str:
    if types is None:
        return "any"
    return " or ".join(
        "None" if t is type(None) else t.__name__ for t in types
    )


def test_wire_field_table_is_the_codes():
    expected = [
        [kind, field, type_names(types)]
        for kind, fields in wire.RECORD_FIELDS.items()
        for field, types in fields
    ] + [["stamp", field, type_names(types)] for field, types in wire.STAMP_FIELDS]
    assert table_after("### Field types") == expected


def test_topology_knob_table_is_the_codes():
    rows = table_after("### Topology knobs")
    assert [row[0] for row in rows] == list(RUN_KNOBS)
    for (name, types), row in zip(RUN_KNOBS.items(), rows):
        # The first type is the one written; None reads as JSON null.
        written = types[0].__name__
        expected = f"{written} or null" if type(None) in types else written
        assert row[1] == expected, name


def test_record_shapes_name_every_field():
    rows = {row[0]: row[1] for row in table_after("## Wire protocol")}
    for kind, fields in wire.RECORD_FIELDS.items():
        shape = re.findall(r"\w+", rows[kind.upper()])
        assert shape[0] == kind
        assert shape[1:] == [field for field, _ in fields], kind
