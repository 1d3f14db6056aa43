"""Tests for JSONL export/read round-trips and the renderers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.profiling import (
    metrics_record,
    render_flame,
    render_summary,
    summarize_spans,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    read_jsonl,
    trace_to_records,
    use_registry,
    use_tracer,
    validate_records,
    write_jsonl,
)
from repro.obs.tracer import trace_span


def _sample_trace():
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        with trace_span("run", n=4):
            with trace_span("round", round=0):
                registry.inc("msgs", 12)
            with trace_span("round", round=1):
                registry.observe("lat.seconds", 0.25)
        tracer.event("done", level="info", ok=True)
    return tracer, registry


class TestRoundTrip:
    def test_write_read_identical(self, tmp_path):
        tracer, registry = _sample_trace()
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(path, tracer, registry)
        records = trace_to_records(tracer, registry)
        # written file = 1 header + 3 spans + 1 event + metrics
        assert lines == len(records) + 1 == 6
        loaded = read_jsonl(path)
        assert loaded[0]["type"] == "header"
        assert loaded[1:] == json.loads(json.dumps(records))  # full fidelity

    def test_numpy_tags_serialised(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("np", value=np.float64(0.5), vec=np.arange(3)):
                pass
        path = tmp_path / "np.jsonl"
        write_jsonl(path, tracer)
        header, rec = read_jsonl(path)
        assert header["type"] == "header"
        assert rec["tags"] == {"value": 0.5, "vec": [0, 1, 2]}

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "id": 0, "name": "a", "t0": 1}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            read_jsonl(path)

    def test_deeply_nested_line_rejected(self, tmp_path):
        # json.loads raises RecursionError here, not JSONDecodeError.
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "\n")
        with pytest.raises(ValueError, match="deep.jsonl:1: invalid JSON"):
            read_jsonl(path)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            validate_records([{"type": "mystery"}])

    def test_dangling_parent_rejected(self):
        with pytest.raises(ValueError, match="not a span id"):
            validate_records(
                [{"type": "span", "id": 1, "parent": 99, "name": "a", "t0": 0.0}]
            )

    def test_missing_metrics_payload_rejected(self):
        with pytest.raises(ValueError, match="metrics payload"):
            validate_records([{"type": "metrics"}])


class TestRenderers:
    def test_summary_aggregates_by_name(self):
        tracer, registry = _sample_trace()
        records = trace_to_records(tracer, registry)
        stats = {s.name: s for s in summarize_spans(records)}
        assert stats["round"].count == 2
        assert stats["run"].count == 1
        assert stats["run"].total >= stats["round"].total
        text = render_summary(records)
        assert "span summary" in text and "metrics" in text
        assert "msgs" in text and "lat.seconds" in text

    def test_flame_tree_indented(self):
        tracer, registry = _sample_trace()
        records = trace_to_records(tracer, registry)
        flame = render_flame(records)
        lines = flame.splitlines()
        assert lines[0].startswith("run")
        assert all("  round" in ln for ln in lines[1:3])
        assert "round=0" in flame and "round=1" in flame

    def test_flame_truncates_wide_sibling_lists(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("root"):
                for i in range(30):
                    with trace_span("step", i=i):
                        pass
        flame = render_flame(trace_to_records(tracer), max_children=10)
        assert "(20 more children)" in flame

    def test_empty_inputs(self):
        assert "no spans" in render_flame([])
        assert "no spans" in render_summary([])
        assert metrics_record([]) is None


class TestHeader:
    def test_header_carries_run_identity(self, tmp_path):
        from repro.obs import SCHEMA_VERSION, header_record

        tracer, registry = _sample_trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer, registry, run_id="abc123")
        header = read_jsonl(path)[0]
        assert header["type"] == "header"
        assert header["schema"] == SCHEMA_VERSION
        assert header["run_id"] == "abc123"
        assert header["wall_time"] > 0
        fresh = header_record()
        assert fresh["run_id"]  # generated when not supplied

    def test_headerless_files_still_accepted(self, tmp_path):
        # files written before schema 2 carry no header record
        tracer, registry = _sample_trace()
        records = trace_to_records(tracer, registry)
        path = tmp_path / "old.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        loaded = read_jsonl(path)
        assert [r["type"] for r in loaded][0] == "span"

    def test_header_must_be_first(self):
        from repro.obs import header_record

        with pytest.raises(ValueError, match="header"):
            validate_records(
                [{"type": "event", "t": 0.0, "name": "x.y", "level": "info",
                  "fields": {}},
                 header_record()]
            )

    def test_at_most_one_header(self):
        from repro.obs import header_record

        with pytest.raises(ValueError, match="header"):
            validate_records([header_record(), header_record()])

    def test_incomplete_header_rejected(self):
        with pytest.raises(ValueError):
            validate_records([{"type": "header", "schema": 2}])

    def test_causal_records_validate_in_stream(self, tmp_path):
        from repro.obs.causal import CausalCollector

        collector = CausalCollector(2)
        collector.on_send(0, 1, "m", time=0)
        collector.on_deliver(1, collector.pop_send(0, 1), time=0)
        tracer, registry = _sample_trace()
        path = tmp_path / "full.jsonl"
        write_jsonl(path, tracer, registry, collector=collector)
        loaded = read_jsonl(path)
        kinds = [r["type"] for r in loaded]
        assert kinds[0] == "header"
        assert "causal" in kinds

    def test_malformed_causal_record_rejected(self):
        with pytest.raises(ValueError, match="causal"):
            validate_records([{"type": "causal", "eid": 0}])
