"""Tests for the span/event tracer and its no-op default."""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    trace_event,
    trace_span,
    use_tracer,
)


class TestSpans:
    def test_nested_spans_parented(self):
        t = Tracer()
        with use_tracer(t):
            with trace_span("outer", n=4):
                with trace_span("inner"):
                    with trace_span("leaf"):
                        pass
                with trace_span("inner2"):
                    pass
        names = {s.name: s for s in t.spans}
        assert set(names) == {"outer", "inner", "inner2", "leaf"}
        outer = names["outer"]
        assert outer.parent_id is None
        assert names["inner"].parent_id == outer.span_id
        assert names["inner2"].parent_id == outer.span_id
        assert names["leaf"].parent_id == names["inner"].span_id
        assert outer.tags == {"n": 4}

    def test_span_timing_monotone(self):
        t = Tracer()
        with use_tracer(t):
            with trace_span("a"):
                pass
        (span,) = t.spans
        assert span.t1 is not None
        assert span.t1 >= span.t0

    def test_sibling_spans_share_parent_across_exits(self):
        t = Tracer()
        with use_tracer(t):
            with trace_span("root"):
                for _ in range(3):
                    with trace_span("child"):
                        pass
        root = next(s for s in t.spans if s.name == "root")
        children = [s for s in t.spans if s.name == "child"]
        assert len(children) == 3
        assert all(c.parent_id == root.span_id for c in children)

    def test_tag_after_open(self):
        t = Tracer()
        with use_tracer(t):
            with trace_span("solve") as span:
                span.tag(value=0.5, iterations=7)
        assert t.spans[0].tags == {"value": 0.5, "iterations": 7}

    def test_clear(self):
        t = Tracer()
        with use_tracer(t):
            with trace_span("a"):
                trace_event("e")
        t.clear()
        assert t.spans == [] and t.events == []


class TestNullTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_noop_records_nothing_and_never_raises(self):
        # No tracer installed: spans/events must be free and silent.
        with trace_span("hot.path", step=1) as span:
            span.tag(extra=True)
        trace_event("hot.event", level="debug", x=1)
        assert len(NULL_TRACER.spans) == 0
        assert len(NULL_TRACER.events) == 0

    def test_noop_span_is_shared_singleton(self):
        # Zero-allocation contract: the disabled path hands back one
        # preallocated span object every time.
        assert trace_span("a") is trace_span("b")

    def test_use_tracer_restores_previous(self):
        t = Tracer()
        with use_tracer(t):
            assert get_tracer() is t
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_resets_to_null(self):
        prev = set_tracer(Tracer())
        assert prev is NULL_TRACER
        set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestEvents:
    def test_level_filter(self):
        t = Tracer(level="info")
        with use_tracer(t):
            trace_event("kept.info")
            trace_event("kept.warning", level="warning")
            trace_event("dropped.debug", level="debug")
        assert [e.name for e in t.events] == ["kept.info", "kept.warning"]

    def test_verbose_level_keeps_debug(self):
        t = Tracer(level="debug")
        with use_tracer(t):
            trace_event("dbg", level="debug", detail=42)
        assert t.events[0].fields == {"detail": 42}

    def test_quiet_level_drops_info(self):
        t = Tracer(level="warning")
        with use_tracer(t):
            trace_event("info.msg")
            trace_event("warn.msg", level="warning")
        assert [e.name for e in t.events] == ["warn.msg"]

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            Tracer(level="chatty")


class TestEdgeCases:
    def test_open_span_exports_with_null_t1(self):
        # A span never exited (crash mid-run) must still export cleanly:
        # t1 stays None in the record.
        from repro.obs import trace_to_records, validate_records

        t = Tracer()
        with use_tracer(t):
            span = trace_span("sched.sync.run")
            span.__enter__()  # deliberately never exited
            with trace_span("sched.sync.round", round=0):
                pass
        open_rec = next(s for s in t.spans if s.name == "sched.sync.run")
        assert open_rec.t1 is None
        # the nested span still parented under the open one
        inner = next(s for s in t.spans if s.name == "sched.sync.round")
        assert inner.parent_id == open_rec.span_id
        records = trace_to_records(tracer=t)
        validate_records(records)
        exported = next(r for r in records if r["name"] == "sched.sync.run")
        assert exported["t1"] is None

    def test_event_at_exact_threshold_kept(self):
        # filtering is >= threshold, not >: an info event on an info
        # tracer (and warning on warning) is recorded, not dropped
        t = Tracer(level="info")
        with use_tracer(t):
            trace_event("at.threshold", level="info")
        assert [e.name for e in t.events] == ["at.threshold"]
        tw = Tracer(level="warning")
        with use_tracer(tw):
            trace_event("warn.threshold", level="warning")
        assert [e.name for e in tw.events] == ["warn.threshold"]

    def test_use_tracer_restores_on_error(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(t):
                assert get_tracer() is t
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_previous_tracer_on_error(self):
        outer = Tracer()
        inner = Tracer()
        with use_tracer(outer):
            with pytest.raises(ValueError):
                with use_tracer(inner):
                    raise ValueError("boom")
            assert get_tracer() is outer
        assert get_tracer() is NULL_TRACER
