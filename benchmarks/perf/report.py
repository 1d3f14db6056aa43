"""Metric definitions and arithmetic (stdlib only, no program imports).

Everything here is a pure function of worker events, so the aggregation
rules — speed normalisation, median-of-R latency, percentiles,
``failed_share``, per-layer ratios, the compare verdicts — are testable
on synthetic samples.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
from typing import Any, Optional

from .trace import LAYERS

__all__ = [
    "END_TO_END",
    "EXACT_COUNTS",
    "GLOBAL_LAYER_UNITS",
    "LAYER_HIGHER_IS_BETTER",
    "LAYER_UNITS",
    "NAME_RE",
    "aggregate",
    "compare",
    "layer_metrics",
    "percentile",
    "speed_factors",
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: An instance's speed factor averages the quanta (``worker.Quantum``)
#: this many instances either side of it — about a second of the pass.
#: Every reported time is the measured one over its speed factor: "ms"
#: reads "ms on the reference machine" (README, "Speed normalisation").
SPEED_WINDOW = 3

#: name -> (unit, better, bound).  Each bound is at least 2.8 times the
#: largest ten-seed spread measured in ``baseline.json`` (README, "Bounds").
#: ``failed_share`` has no ratio bound: it may not rise at all (and is 0 on
#: the baseline, so no ratio exists).
END_TO_END: dict[str, tuple[str, str, Optional[float]]] = {
    "setup_s": ("s", "lower", 0.25),
    "decisions_per_s": ("1/s", "higher", 0.20),
    "instance_ms_p50": ("ms", "lower", 0.25),
    "instance_ms_p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "failed_share": ("ratio", "lower", None),
}

#: Per-workload per-layer metric -> unit, in reporting order.
LAYER_UNITS: dict[str, str] = {
    **{
        f"{layer}.{suffix}": unit
        for layer in LAYERS
        for suffix, unit in (
            ("calls_per_decision", "count"),
            ("self_ms_per_decision", "ms"),
            ("self_share", "ratio"),
        )
    },
    "core.run.py_calls_per_decision": "count",
    "core.run.check_ms_per_instance": "ms",
    "core.run.tolerance_miss_share": "ratio",
    "core.handler_us_mean": "us",
    "geometry.solves_per_decision": "count",
    "geometry.cache_hit_ratio": "ratio",
    "geometry.solve_ms_mean": "ms",
    "system.scheduler.steps_per_decision": "count",
    "system.scheduler.choose_us_mean": "us",
    "system.network.msgs_per_decision": "count",
    "system.network.bytes_per_decision": "B",
    "system.network.undelivered_share": "ratio",
    "system.network.pending_scan_us_mean": "us",
    "system.messages.estimate_bytes_us_mean": "us",
    "system.messages.canonical_bytes_us_mean": "us",
    "system.messages.defensive_copy_us_mean": "us",
    "system.broadcast.step_us_mean": "us",
    "system.broadcast.instances_per_decision": "count",
    "system.adversary.out_in_ratio": "ratio",
    "system.transport.wire.encode_us_mean": "us",
    "system.transport.wire.decode_us_mean": "us",
    "system.transport.wire.bytes_per_frame": "B",
    "system.transport.wire.frames_per_decision": "count",
    "system.transport.peer.queue_wait_us_p50": "us",
    "system.transport.peer.queue_wait_us_p90": "us",
    "system.transport.peer.queue_depth_peak": "count",
    "system.transport.peer.retransmits": "count",
    "system.transport.peer.reconnects": "count",
    "system.transport.peer.backpressure_waits": "count",
    "system.transport.live.idle_share": "ratio",
    "system.transport.live.handshakes_per_instance": "count",
    "obs.tracer_overhead_ratio": "ratio",
    "obs.causal_overhead_ratio": "ratio",
    "obs.profiler_overhead_ratio": "ratio",
    "obs.probes_overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics where a larger value is the better one; for every
#: other, less (time, calls, bytes, overhead) is better.
LAYER_HIGHER_IS_BETTER = frozenset({"geometry.cache_hit_ratio"})

#: Measured once per ``run``, not per workload (``null`` when nproc is 1).
GLOBAL_LAYER_UNITS: dict[str, str] = {
    "exec.overhead_share": "ratio",
    "exec.parallel_speedup": "ratio",
}

#: Per-layer counts that must repeat exactly on the sim workloads.
EXACT_COUNTS = (
    "system.network.msgs_per_decision",
    "system.scheduler.steps_per_decision",
    "geometry.solves_per_decision",
)


def percentile(values: list[float], q: float) -> float:
    """``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------- end to end


def speed_factors(quanta: list[float]) -> list[float]:
    """How much slower than the reference machine each instance of a pass
    ran.  ``quanta[j]`` was measured just before instance ``j`` and
    ``quanta[j + 1]`` just after it, so ``n + 1`` quanta give ``n``
    factors: each the mean of the quanta within :data:`SPEED_WINDOW`
    instances."""
    return [
        statistics.fmean(quanta[max(0, j + 1 - SPEED_WINDOW): j + 1 + SPEED_WINDOW])
        for j in range(len(quanta) - 1)
    ]


def _normalised(samples: list[dict[str, Any]]) -> dict[int, list[dict[str, Any]]]:
    """Samples by pass, in instance order, each with ``norm_ms`` (its
    latency over its speed factor) and ``speed`` added."""
    passes: dict[int, list[dict[str, Any]]] = {}
    for sample in samples:
        passes.setdefault(sample["pass"], []).append(dict(sample))
    for group in passes.values():
        group.sort(key=lambda s: s["i"])
        quanta = [group[0]["quanta"][0]] + [s["quanta"][1] for s in group]
        for sample, speed in zip(group, speed_factors(quanta)):
            sample["speed"] = speed
            sample["norm_ms"] = sample["ms"] / speed
    return passes


def aggregate(
    attempted: int,
    samples: list[dict[str, Any]],
    setup: list[tuple[float, float]],
    peak_rss_mb: list[float],
) -> dict[str, Any]:
    """End-to-end metrics of one workload from its ``sample`` events.

    ``samples`` may hold several rounds (``pass``) of the same instance
    (``i``); an instance's latency is the median of its rounds' speed-
    normalised latencies.  An instance with no sample was cut by the pass
    timeout and counts as failed; one that failed in any round counts as
    failed.  Tolerance misses are not failures but add no decisions to the
    throughput numerator.  ``setup`` holds ``(seconds, speed factor)`` of
    every set-up.
    """
    passes = _normalised(samples)
    by_instance: dict[int, list[dict[str, Any]]] = {}
    for _pass, group in sorted(passes.items()):
        for sample in group:
            by_instance.setdefault(sample["i"], []).append(sample)
    latency_ms: list[float] = []
    decisions = failed = tolerance = 0
    known: list[dict[str, Any]] = []
    digests: list[str] = []
    mismatches: list[int] = []
    for index in range(attempted):
        rounds = by_instance.get(index)
        if not rounds:
            failed += 1
            known.append({"i": index, "kind": "failed", "error": "cut by the pass timeout"})
            continue
        seen = sorted({s["digest"] for s in rounds if "digest" in s})
        digests.extend(seen[:1])
        if len(seen) > 1:
            mismatches.append(index)
        latency_ms.append(statistics.median(s["norm_ms"] for s in rounds))
        kinds = [s["kind"] for s in rounds]
        if "failed" in kinds:
            failed += 1
        elif "tolerance" in kinds:
            tolerance += 1
        else:
            decisions += rounds[0]["decisions"]
            continue
        worst = next(s for s in rounds if s["kind"] != "ok")
        known.append({
            key: worst[key]
            for key in ("i", "id", "kind", "violation", "error")
            if key in worst
        })
    per_round = _per_round(passes, attempted)
    per_round["setup_s"] = [seconds / speed for seconds, speed in setup]
    per_round["setup_speed"] = [speed for _seconds, speed in setup]
    per_round["peak_rss_mb"] = peak_rss_mb
    return {
        "metrics": {
            "setup_s": statistics.median(per_round["setup_s"]),
            "decisions_per_s": _ratio(decisions, sum(latency_ms) / 1e3),
            "instance_ms_p50": percentile(latency_ms, 50) if latency_ms else 0.0,
            "instance_ms_p90": percentile(latency_ms, 90) if latency_ms else 0.0,
            "peak_rss_mb": max(peak_rss_mb),
            "failed_share": failed / attempted,
        },
        "attempted": attempted,
        "failed": failed,
        "tolerance_misses": tolerance,
        "samples": len(latency_ms),
        "known_failures": known,
        "per_round": per_round,
        # One digest over every instance's exact decisions (sim only); an
        # instance whose decisions differ between rounds is a mismatch.
        "digest": (
            hashlib.sha256("\n".join(digests).encode()).hexdigest()
            if len(digests) == attempted and not mismatches else None
        ),
        "digest_mismatches": mismatches,
    }


def _per_round(passes: dict[int, list[dict[str, Any]]], attempted: int) -> dict[str, list[float]]:
    """The latency metrics of each *complete* round on its own, and the
    round's mean speed factor (normalised x speed = as measured) — the
    values behind the median-of-R, kept so their spread can be inspected."""
    out: dict[str, list[float]] = {
        "decisions_per_s": [], "instance_ms_p50": [], "instance_ms_p90": [], "speed": [],
    }
    for _round, group in sorted(passes.items()):
        if len(group) < attempted:
            continue
        ms = [s["norm_ms"] for s in group]
        ok = sum(s["decisions"] for s in group if s["kind"] == "ok")
        out["decisions_per_s"].append(_ratio(ok, sum(ms) / 1e3))
        out["instance_ms_p50"].append(percentile(ms, 50))
        out["instance_ms_p90"].append(percentile(ms, 90))
        out["speed"].append(statistics.fmean(s["speed"] for s in group))
    return out


# -------------------------------------------------------------- per layer


def layer_metrics(
    event: dict[str, Any], tolerance_miss_share: float = 0.0
) -> dict[str, Optional[float]]:
    """Every :data:`LAYER_UNITS` metric from one worker ``trace`` event."""
    spans: dict[tuple[str, str], tuple[int, float, float]] = {}
    for key, (calls, self_s, total_s) in event["spans"].items():
        layer, name = key.split("|", 1)
        spans[(layer, name)] = (calls, self_s, total_s)

    def pick(layer: str, *names: str) -> tuple[int, float, float]:
        calls, self_s, total_s = 0, 0.0, 0.0
        for (lay, name), (c, s, t) in spans.items():
            if lay == layer and (not names or name.rsplit(".", 1)[-1] in names):
                calls, self_s, total_s = calls + c, self_s + s, total_s + t
        return calls, self_s, total_s

    def mean_us(layer: str, *names: str) -> float:
        calls, _self, total_s = pick(layer, *names)
        return _ratio(total_s * 1e6, calls)

    c = event["counters"]
    decisions = c["decisions"]
    instances = event["instances"]
    traced_wall = pick("core.run", "run")[2]
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s, _total = pick(layer)
        out[f"{layer}.calls_per_decision"] = _ratio(calls, decisions)
        out[f"{layer}.self_ms_per_decision"] = _ratio(self_s * 1e3, decisions)
        out[f"{layer}.self_share"] = _ratio(self_s, traced_wall)

    hits, misses = c["geometry.cache.hits"], c["geometry.cache.misses"]
    sent = c["messages_sent"]
    frames = c["net.live.frames_sent"]
    waits = c["queue_wait_us"]
    latency = event["latency_s"]
    out.update({
        "core.run.py_calls_per_decision": _ratio(event["py_calls"], decisions),
        "core.run.check_ms_per_instance": _ratio(pick("core.run", "check")[2] * 1e3, instances),
        "core.run.tolerance_miss_share": tolerance_miss_share,
        "core.handler_us_mean": mean_us("core"),
        "geometry.solves_per_decision": _ratio(misses, decisions),
        "geometry.cache_hit_ratio": _ratio(hits, hits + misses),
        "geometry.solve_ms_mean": _ratio(pick("geometry")[1] * 1e3, misses),
        "system.scheduler.steps_per_decision": _ratio(c["steps"], decisions),
        "system.scheduler.choose_us_mean": mean_us("system.scheduler", "choose"),
        "system.network.msgs_per_decision": _ratio(sent, decisions),
        "system.network.bytes_per_decision": _ratio(c["bytes_estimate"], decisions),
        "system.network.undelivered_share": _ratio(sent - c["messages_delivered"], sent),
        "system.network.pending_scan_us_mean": mean_us(
            "system.network", "pending_links", "pending_count"),
        "system.messages.estimate_bytes_us_mean": mean_us("system.messages", "estimate_bytes"),
        "system.messages.canonical_bytes_us_mean": mean_us("system.messages", "canonical_bytes"),
        "system.messages.defensive_copy_us_mean": mean_us("system.messages", "defensive_copy"),
        "system.broadcast.step_us_mean": mean_us("system.broadcast"),
        "system.broadcast.instances_per_decision": _ratio(
            c["bcast.bracha.delivered"] + c["bcast.om.decisions"] + c["bcast.ds.accepted"],
            decisions),
        "system.adversary.out_in_ratio": _ratio(
            c["sched.adversary.messages_out"], c["sched.adversary.messages_in"]),
        "system.transport.wire.encode_us_mean": mean_us("system.transport.wire", "encode_record"),
        "system.transport.wire.decode_us_mean": mean_us("system.transport.wire", "decode_body"),
        "system.transport.wire.bytes_per_frame": _ratio(c["net.live.bytes_sent"], frames),
        "system.transport.wire.frames_per_decision": _ratio(frames, decisions),
        "system.transport.peer.queue_wait_us_p50": percentile(waits, 50) if waits else 0.0,
        "system.transport.peer.queue_wait_us_p90": percentile(waits, 90) if waits else 0.0,
        "system.transport.peer.queue_depth_peak": float(c["queue_depth_peak"]),
        "system.transport.peer.retransmits": float(c["net.live.retransmits"]),
        "system.transport.peer.reconnects": float(c["net.live.reconnects"]),
        "system.transport.peer.backpressure_waits": float(c["net.live.backpressure_waits"]),
        "system.transport.live.idle_share": (
            max(0.0, 1.0 - _ratio(event["cpu_s"], event["wall_s"]))
            if pick("system.transport.live")[0] else 0.0
        ),
        "system.transport.live.handshakes_per_instance": _ratio(
            c["net.live.handshakes"], instances),
        "trace.overhead_ratio": _ratio(latency["traced"], latency["off"]),
    })
    for feature in ("tracer", "causal", "profiler", "probes"):
        # None when the pass was skipped (``run --quick``)
        out[f"obs.{feature}_overhead_ratio"] = (
            _ratio(latency[feature], latency["off"]) if feature in latency else None
        )
    # Times of the traced pass, brought to the reference machine's speed
    # (``latency_s`` already is; counts and shares need nothing).
    for name, unit in LAYER_UNITS.items():
        if unit in ("ms", "us"):
            out[name] /= event["speed"]
    return out


def unattributed(event: dict[str, Any]) -> list[dict[str, Any]]:
    """The ``core.run`` callables' self shares, largest first — what to
    wrap next when ``core.run.self_share`` is too large."""
    wall = event["spans"]["core.run|run"][2]
    rows = [
        {"callable": key.split("|", 1)[1], "self_share": _ratio(self_s, wall)}
        for key, (_calls, self_s, _total) in event["spans"].items()
        if key.startswith("core.run|")
    ]
    return sorted(rows, key=lambda row: -row["self_share"])


# ---------------------------------------------------------------- compare


def _spread(values: list[float]) -> float:
    """(max - min) / median of the per-round values; 0 with one round."""
    if len(values) < 2:
        return 0.0
    return _ratio(max(values) - min(values), statistics.median(values))


def compare(base: dict[str, Any], new: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric): ratio against its bound.

    ``ok`` — not worse than the bound.  ``worse`` — worse by more than the
    bound.  ``unresolved`` — the per-round spread of either document is
    wider than the bound, so the ratio cannot carry a verdict.  Exact
    per-layer counts are compared for equality on the sim workloads.
    """
    rows: list[dict[str, Any]] = []
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        a, b = base["workloads"][name], new["workloads"][name]
        for metric, (unit, better, bound) in END_TO_END.items():
            old, cur = a["metrics"][metric], b["metrics"][metric]
            row: dict[str, Any] = {
                "workload": name, "metric": metric, "unit": unit,
                "base": old, "new": cur, "bound": bound,
            }
            if bound is None:
                row.update(ratio=None, verdict="worse" if cur > old else "ok")
                rows.append(row)
                continue
            worse_by = (cur - old) / old if better == "lower" else (old - cur) / old
            spread = max(_spread(doc["per_round"].get(metric, [])) for doc in (a, b))
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            row.update(ratio=cur / old, worse_by=worse_by, spread=spread, verdict=verdict)
            rows.append(row)
        if name.startswith("sim-"):
            for count in EXACT_COUNTS + ("digest",):
                old = a["digest"] if count == "digest" else a["layers"].get(count)
                cur = b["digest"] if count == "digest" else b["layers"].get(count)
                rows.append({
                    "workload": name, "metric": count, "unit": "exact",
                    "base": old, "new": cur, "bound": 0.0, "ratio": None,
                    "verdict": "ok" if old == cur else "worse",
                })
    return rows
