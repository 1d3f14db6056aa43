# repro: lint-as system/fixture_obs001.py
"""Fixture: off-namespace telemetry names -> OBS001 findings only.

The first two calls break the dotted-lowercase shape, the third is a
histogram without a unit suffix, and the first ``trace_span`` is an
undotted span name; the conforming calls (and the f-string, which is
out of static reach) stay clean.
"""

from repro.obs import metrics, trace_event, trace_span


def emit(component: str) -> None:
    metrics.inc("MessagesSent")                     # not dotted
    trace_event("sched.Async.step")                 # upper-case segment
    metrics.observe("sched.round_latency", 0.1)     # histogram, no unit
    metrics.inc("sched.sync.rounds")                # conforming
    metrics.observe("sched.round.seconds", 0.1)     # conforming
    metrics.observe("net.live.queue_wait_us", 42.0)  # conforming (_us unit)
    metrics.inc(f"probe.{component}.violations")    # f-string: skipped
    with trace_span("RoundSpan"):                   # span: not dotted
        pass
    with trace_span("sched.sync.round"):            # conforming span
        pass
