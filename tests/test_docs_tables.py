"""docs/transport.md states each boundary's schema; the code owns it.

The wire's frame layouts, the door's payload schemas and the topology
file's knob table are written out in the docs for readers; this keeps
them the same rows, in the same order, as ``wire.RECORD_LAYOUTS`` plus
``repro.system.door.LAYOUTS``, ``repro.system.door.SCHEMAS`` and
``repro.core.runspec.RUN_KNOBS``.  The link telemetry table names
exactly the ``net.live.*`` metrics the live fold emits, each with its
kind.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.runspec import RUN_KNOBS
from repro.obs.metrics import MetricsRegistry
from repro.system.door import LAYOUTS, SCHEMAS
from repro.system.transport import wire
from repro.system.transport.live import LiveNode, NodeAddress, _fold_live_metrics

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


def test_wire_field_table_is_the_codes():
    # One table: each record's layout, then each family's payload layout.
    expected = [[name, layout] for name, layout in wire.RECORD_LAYOUTS.items()] + [
        [family, pack.__doc__.strip()] for family, (pack, _) in LAYOUTS.items()
    ]
    assert table_after("### Frame layouts") == expected


def test_payload_schema_table_is_the_codes():
    rows = table_after("### Payload schemas")
    assert [[row[0], row[2]] for row in rows] == [
        [family, build.__doc__.strip()] for family, build in SCHEMAS.items()
    ]
    for row in rows:
        assert row[1].startswith(row[0]), row


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
    assert set(rows) == {kind.upper() for kind in wire.RECORD_LAYOUTS if kind != "stamp"}
    for kind, layout in wire.RECORD_LAYOUTS.items():
        if kind == "stamp":
            continue
        shape = re.findall(r"\w+", rows[kind.upper()])
        assert shape[0] == kind
        # Every field of the decoded record is one its layout writes.
        assert all(field in layout for field in shape[1:]), kind


def test_link_telemetry_table_is_the_emitted_metrics(tmp_path):
    addresses = {
        pid: NodeAddress(pid, "uds", path=str(tmp_path / f"n{pid}.sock"))
        for pid in range(2)
    }
    node = LiveNode(0, 2, 0, process=None, address=addresses[0], instance="docs")
    node.connect_peers(addresses)
    (link,) = node._peer_links
    # A peak and a sample, so the gauge and the histogram are emitted too.
    link.stats.queue_depth_peak = 1
    link.stats.queue_wait_samples.append(1e-3)
    registry = MetricsRegistry()
    _fold_live_metrics(registry, [node])
    emitted = {name: metric["type"] for name, metric in registry.snapshot().items()}
    rows = table_after("### Link telemetry")
    assert {row[0]: row[1] for row in rows} == emitted
    assert len(rows) == len(emitted)
