"""One workload in one fresh process: set up, run, report as JSON lines.

Started by :mod:`benchmarks.perf.orchestrate` as a subprocess pinned to
one CPU.  Every result leaves as one JSON object per line on stdout and
is flushed at once, so a worker killed by the pass timeout still leaves
the samples it finished:

``ready``   set-up done (import, instance generation, one warm-up per cell)
``sample``  one ``run(spec)`` call: latency, the speed factors measured
            just before and after it (:class:`Quantum`), verdict class,
            decision count and (sim workloads) the SHA-256 of the exact
            decisions
``pass``    end of one timed pass: its wall time
``trace``   the per-layer numbers of the traced/count/obs passes
``done``    peak RSS and environment; absent when the worker was cut

Modes: ``setup`` stops after ``ready``; ``timed`` runs the closed loop
(one client: the next instance starts when the previous returned), each
pass in a child forked from the set-up process;
``trace`` runs the instrumented passes over the first rep of each cell.
"""

from __future__ import annotations

import argparse
import copy
import cProfile
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import sys
from contextlib import nullcontext
from time import perf_counter, process_time
from typing import Any, Callable, Iterator, Optional

#: A further timed pass is not started for less closed-loop time than this.
MIN_PASS_S = 1.0
#: A validity miss no larger than this is LP tolerance against checker
#: headroom (the checker's own ``tol`` is 1e-7), not a wrong decision.
TOLERANCE_MISS_MAX = 1e-6


def emit(event: str, **fields: Any) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


class Quantum:
    """A fixed piece of work timed next to every instance: how much slower
    than the reference machine the box runs *right now*.

    The box's speed drifts by tens of percent within seconds (shared
    host), far more than any bound on a timing, so ``report`` divides the
    factors measured here out of every latency.  Four parts, because they
    slow down differently and the program is a mix of them: interpreter
    arithmetic, container allocation and sorting, object-graph copying
    and pickling (what messages cost), and small LAPACK solves (call
    overhead into native code, as the LP kernels have).  None of it is
    the program's code.
    """

    #: Milliseconds the quantum takes on the reference machine — the sizing
    #: box on a quiet minute, where each of the four parts takes 0.8 ms.
    #: Times are reported "as on that machine".
    REFERENCE_MS = 3.2

    def __init__(self) -> None:
        import numpy

        #: Seconds spent calibrating so far.
        self.spent_s = 0.0
        self._solve = numpy.linalg.solve
        self._matrix = numpy.random.default_rng(0).normal(size=(60, 60))
        self._graph = {f"k{i}": (i, [float(i)] * 4, {"a": i}) for i in range(200)}

    def __call__(self) -> float:
        """The speed factor: measured time over the reference time.

        The collector is off meanwhile: its passes are triggered by the
        allocations here but cost by the program's heap, which would make
        the factor depend on what the program left behind.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            x = 0
            for i in range(20_000):
                x += i * i % 7
            table = {}
            for i in range(2_800):
                table[(i, i % 13)] = [i, float(i), str(i)]
            sorted(table, key=lambda key: key[1])
            [tuple(row) for row in table.values()]
            copy.deepcopy(self._graph)
            pickle.loads(pickle.dumps(self._graph))
            rhs = self._matrix[0]
            for _ in range(35):
                self._solve(self._matrix, rhs)
            elapsed = perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.spent_s += elapsed
        return elapsed * 1e3 / self.REFERENCE_MS


def pin(cpu: Optional[int]) -> Optional[int]:
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------- one run


def classify(outcome: Any) -> tuple[str, float]:
    """``(kind, violation)`` from the repo's own verdict.

    ``ok`` — agreement, validity and termination hold.  ``tolerance`` —
    the run completed and agreed, and validity missed by no more than
    :data:`TOLERANCE_MISS_MAX`.  ``failed`` — anything else.
    """
    report = outcome.report
    violation = max(report.violations.values(), default=0.0)
    if outcome.ok and outcome.result.completed:
        return "ok", 0.0
    if (
        outcome.result.completed
        and report.agreement_ok
        and report.termination_ok
        and not report.validity_ok
        and violation <= TOLERANCE_MISS_MAX
    ):
        return "tolerance", violation
    return "failed", violation


def verdict_fields(outcome: Any) -> dict[str, Any]:
    """The ``sample`` fields read off one outcome."""
    kind, violation = classify(outcome)
    fields: dict[str, Any] = {"kind": kind, "decisions": len(outcome.decisions)}
    if kind != "ok":
        fields["violation"] = violation
    return fields


def run_instance(inst: Any, run: Callable[[Any], Any], quantum: Quantum, before: float,
                 ) -> tuple[dict[str, Any], Any]:
    """Time one ``run(spec)`` call and measure the speed factor after it
    (``before`` is the one measured before it); a raised exception is a
    failed sample."""
    spec = inst.to_spec()
    t0 = perf_counter()
    try:
        outcome = run(spec)
    except Exception as exc:  # boundary: a failing instance is data, not a crash
        ms = (perf_counter() - t0) * 1e3
        return {"ms": ms, "quanta": [before, quantum()], "kind": "failed",
                "decisions": 0, "error": f"{type(exc).__name__}: {exc}"}, None
    ms = (perf_counter() - t0) * 1e3
    return {"ms": ms, "quanta": [before, quantum()], **verdict_fields(outcome)}, outcome


def decisions_digest(outcome: Any) -> str:
    """SHA-256 over the exact (``float.hex``) decisions of one run."""
    from repro.exec.results import decisions_to_hex

    return hashlib.sha256(repr(decisions_to_hex(outcome.decisions)).encode()).hexdigest()


# ------------------------------------------------------------------ set-up


def set_up(workload: str, seed: int, reps: Optional[int], quantum: Quantum,
           ) -> tuple[list[Any], list[Any], float]:
    """Import the program, generate the list, warm every cell up once (on
    an instance of its own, so the timed ones meet cold caches).  Also
    returns the mean speed factor measured along the way."""
    quanta = [quantum()]
    import repro.core
    from benchmarks.perf.workloads import WORKLOADS, cells_of, generate, warmups

    instances = generate(workload, seed, reps=reps)
    quanta.append(quantum())
    for inst in warmups(workload, seed):
        sample, _outcome = run_instance(inst, repro.core.run, quantum, quanta[-1])
        quanta.append(sample["quanta"][1])
    first_reps = instances[: len(cells_of(WORKLOADS[workload]))]
    return instances, first_reps, sum(quanta) / len(quanta)


# -------------------------------------------------------------- timed mode


def _timed_pass(instances: list[Any], round_index: int, seconds: Optional[float],
                deterministic: bool, quantum: Quantum) -> None:
    import repro.core
    from repro.geometry.cache import clear_cache

    clear_cache()
    start = perf_counter()
    speed = quantum()
    for index, inst in enumerate(instances):
        if seconds is not None and perf_counter() - start >= seconds:
            break
        sample, outcome = run_instance(inst, repro.core.run, quantum, speed)
        speed = sample["quanta"][1]
        if deterministic and outcome is not None:
            sample["digest"] = decisions_digest(outcome)
        emit("sample", **{"pass": round_index}, i=index, id=inst.id, **sample)
    emit("pass", **{"pass": round_index}, wall_s=perf_counter() - start)


def timed(instances: list[Any], seconds: Optional[float], deterministic: bool,
          quantum: Quantum) -> None:
    """Closed-loop passes over the list, each in a forked child.

    Every pass starts from the very process state set-up left behind — no
    pass sees what an earlier one cached — without paying for set-up
    again.  Without ``seconds`` there is one pass; with it, passes follow
    until the time is used: the first completes, later ones are cut.
    """
    gc.collect()
    gc.freeze()
    start = perf_counter()
    round_index = 0
    while True:
        left = None
        if seconds is not None and round_index:
            left = seconds - (perf_counter() - start)
            if left < MIN_PASS_S:
                break
        sys.stdout.flush()
        child = os.fork()
        if child == 0:
            status = 1
            try:
                _timed_pass(instances, round_index, left, deterministic, quantum)
                status = 0
            finally:
                sys.stdout.flush()
                os._exit(status)
        _, status = os.waitpid(child, 0)
        if status != 0 or seconds is None:
            break
        round_index += 1


# -------------------------------------------------------------- trace mode


def _pass(instances: list[Any], quantum: Quantum,
          context: Callable[[], Any] = nullcontext, probes: tuple = (),
          ) -> tuple[list[float], list[Any], list[float]]:
    """One pass with an observability feature on: latencies (seconds),
    outcomes and the ``len(instances) + 1`` speed factors measured around
    the instances."""
    import repro.core
    from repro.geometry.cache import clear_cache

    clear_cache()
    latencies, outcomes = [], []
    quanta = [quantum()]
    for inst in instances:
        spec = inst.to_spec(probes=probes)
        with context():
            t0 = perf_counter()
            outcome = repro.core.run(spec)
            latencies.append(perf_counter() - t0)
        quanta.append(quantum())
        outcomes.append(outcome)
    return latencies, outcomes, quanta


def _at_reference(latencies: list[float], quanta: list[float]) -> list[float]:
    """Each latency over its speed factor."""
    from benchmarks.perf.report import speed_factors

    return [latency / speed for latency, speed in zip(latencies, speed_factors(quanta))]


def _obs_contexts() -> Iterator[tuple[str, Callable[[], Any], tuple]]:
    from repro.obs.causal import CausalCollector, use_causal_collector
    from repro.obs.perf import PhaseProfiler, use_profiler
    from repro.obs.tracer import Tracer, use_tracer

    yield "tracer", lambda: use_tracer(Tracer(level="warning")), ()
    yield "causal", lambda: use_causal_collector(CausalCollector()), ()
    yield "profiler", lambda: use_profiler(PhaseProfiler()), ()
    yield "probes", nullcontext, ("all",)


def _counters(outcomes: list[Any]) -> dict[str, Any]:
    """Counts from public results only: ``RunResult.stats``, ``.rounds``
    and ``RunResult.metrics`` (``net.*``, ``sched.*``, ``bcast.*``,
    ``geometry.cache.*``, ``net.live.*``)."""
    names = (
        "geometry.cache.hits", "geometry.cache.misses",
        "sched.adversary.messages_in", "sched.adversary.messages_out",
        "bcast.bracha.delivered", "bcast.om.decisions", "bcast.ds.accepted",
        "net.live.frames_sent", "net.live.bytes_sent", "net.live.retransmits",
        "net.live.reconnects", "net.live.backpressure_waits",
        "net.live.handshakes",
    )
    out: dict[str, Any] = {name: 0 for name in names}
    out.update(decisions=0, steps=0, messages_sent=0, messages_delivered=0,
               bytes_estimate=0, queue_depth_peak=0)
    waits: list[float] = []
    for outcome in outcomes:
        result = outcome.result
        metrics = result.metrics
        out["decisions"] += len(outcome.decisions)
        out["steps"] += result.rounds
        out["messages_sent"] += result.stats.messages_sent
        out["messages_delivered"] += result.stats.messages_delivered
        out["bytes_estimate"] += result.stats.bytes_estimate
        for name in names:
            out[name] += metrics.counter_value(name)
        snapshot = metrics.snapshot()
        peak = snapshot.get("net.live.queue_depth_peak", {}).get("value", 0)
        out["queue_depth_peak"] = max(out["queue_depth_peak"], peak)
        if "net.live.queue_wait_us" in snapshot:
            waits.extend(metrics.histogram("net.live.queue_wait_us").samples)
    out["queue_wait_us"] = sorted(waits)
    return out


def _traced_pass(instances: list[Any], quantum: Quantum, keep_raw: bool,
                 ) -> tuple[Any, list[float], list[Any], list[float]]:
    from benchmarks.perf import trace

    recorder = trace.SpanRecorder()
    recorder.keep_raw = keep_raw
    patches = trace.install(recorder)
    try:
        latencies, outcomes, quanta = _pass(instances, quantum)
    finally:
        trace.uninstall(patches)
    return recorder, latencies, outcomes, quanta


def traced(instances: list[Any], seconds: float, trace_out: Optional[str],
           deterministic: bool, quick: bool, quantum: Quantum) -> None:
    """The instrumented passes over ``instances``.

    First a traced pass on cold caches: its spans and public counters are
    the per-layer numbers (its mean speed factor goes with them), and the
    raw spans of its first instance go to ``trace_out``.  Then rounds of
    untraced / traced / one-obs-feature-on passes whose best
    speed-normalised latencies give the overhead ratios; those all meet
    the same (warm) protocol-level caches, so the ratios compare like
    with like.  Rounds repeat while another one fits into ``seconds``.
    Last a count-only pass under cProfile.

    The first untraced pass also leaves as ``sample`` events; ``quick``
    (where the list *is* the whole workload) reports those as the timed
    pass and skips the obs-feature passes.
    """
    import repro.core
    from repro.geometry.cache import clear_cache

    gc.collect()
    gc.freeze()
    start = perf_counter()
    recorder, _latencies, outcomes, quanta = _traced_pass(instances, quantum, keep_raw=True)
    speed = sum(quanta) / len(quanta)
    counters = _counters(outcomes)
    kinds = [classify(outcome)[0] for outcome in outcomes]

    features = [] if quick else list(_obs_contexts())
    best: dict[str, list[float]] = {}

    def keep(label: str, latencies: list[float], quanta: list[float]) -> None:
        latencies = _at_reference(latencies, quanta)
        old = best.get(label)
        best[label] = latencies if old is None else [
            min(a, b) for a, b in zip(old, latencies)
        ]

    cpu_s = wall_s = 0.0
    rounds = 0
    while True:
        round_start = perf_counter()
        cpu0 = process_time()
        calibrating_s = -quantum.spent_s
        latencies, outcomes, quanta = _pass(instances, quantum)
        keep("off", latencies, quanta)
        if rounds == 0:
            # The quanta are pure CPU: neither idle nor the program's.
            calibrating_s += quantum.spent_s
            cpu_s = process_time() - cpu0 - calibrating_s
            wall_s = perf_counter() - round_start - calibrating_s
            for index, (inst, latency, outcome) in enumerate(zip(instances, latencies, outcomes)):
                sample = {"ms": latency * 1e3, "quanta": quanta[index:index + 2],
                          **verdict_fields(outcome)}
                if deterministic:
                    sample["digest"] = decisions_digest(outcome)
                emit("sample", **{"pass": 0}, i=index, id=inst.id, **sample)
            emit("pass", **{"pass": 0}, wall_s=wall_s)
        _recorder, latencies, _outcomes, quanta = _traced_pass(
            instances, quantum, keep_raw=False)
        keep("traced", latencies, quanta)
        for label, context, probes in features:
            latencies, _outcomes, quanta = _pass(instances, quantum, context, probes)
            keep(label, latencies, quanta)
        rounds += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    clear_cache()
    specs = [inst.to_spec() for inst in instances]
    profile = cProfile.Profile()
    profile.enable()
    for spec in specs:
        repro.core.run(spec)
    profile.disable()
    py_calls = sum(entry.callcount for entry in profile.getstats())

    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump({"instance": instances[0].id,
                       "columns": ["layer", "name", "start", "end", "parent"],
                       "spans": recorder.raw}, fh)
    emit(
        "trace",
        instances=len(instances),
        failed=kinds.count("failed"),
        tolerance=kinds.count("tolerance"),
        rounds=rounds,
        py_calls=py_calls,
        cpu_s=cpu_s,
        wall_s=wall_s,
        speed=speed,
        latency_s={label: sum(values) for label, values in best.items()},
        spans={
            f"{layer}|{name}": [t.calls, t.self_s, t.total_s]
            for (layer, name), t in sorted(recorder.totals.items())
        },
        counters=counters,
    )


# --------------------------------------------------------------- exec mode


def exec_probe() -> None:
    """``run_grid(bench_grid("small"))`` at 1 worker and at min(2, nproc):
    the engine's own overhead and its parallel speed-up (unpinned)."""
    from repro.exec.bench import bench_grid
    from repro.exec.engine import run_grid
    from repro.geometry.cache import clear_cache

    grid = bench_grid("small")
    nproc = os.cpu_count() or 1
    clear_cache()
    t0 = perf_counter()
    serial = run_grid(grid, workers=1)
    serial_s = perf_counter() - t0
    trial_s = sum(trial.wall_seconds for trial in serial.trials)
    metrics: dict[str, Any] = {
        "exec.overhead_share": {"value": 1.0 - trial_s / serial_s, "unit": "ratio"},
    }
    if nproc < 2:
        metrics["exec.parallel_speedup"] = {
            "value": None, "unit": "ratio",
            "reason": "nproc == 1: workers would time-share one core",
        }
    else:
        clear_cache()
        t0 = perf_counter()
        parallel = run_grid(grid, workers=2)
        parallel_s = perf_counter() - t0
        if parallel.decisions_digest() != serial.decisions_digest():
            raise RuntimeError("parallel sweep digest differs from the serial one")
        metrics["exec.parallel_speedup"] = {"value": serial_s / parallel_s, "unit": "ratio"}
    emit("exec", metrics=metrics, trials=serial.trial_count)


# -------------------------------------------------------------------- main


def environment(cpu: Optional[int]) -> dict[str, Any]:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "pinned_cpu": cpu,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace", "exec"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "exec":
        exec_probe()
        return 0
    cpu = pin(args.cpu)
    quantum = Quantum()
    instances, first_reps, speed = set_up(args.workload, args.seed, args.reps, quantum)
    # perf_counter is CLOCK_MONOTONIC, shared with the spawning process.
    emit("ready", setup_s=perf_counter() - args.spawned_at, instances=len(instances),
         speed=speed)

    from benchmarks.perf.workloads import WORKLOADS

    deterministic = WORKLOADS[args.workload].deterministic
    if args.mode == "timed":
        timed(instances, args.seconds, deterministic, quantum)
    elif args.mode == "trace":
        traced(first_reps, args.seconds or 0.0, args.trace_out, deterministic, args.quick,
               quantum)
    # ru_maxrss is KiB on Linux; the timed passes ran in waited-for children.
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    emit("done", peak_rss_mb=peak_kib / 1024.0, environment=environment(cpu))
    return 0


if __name__ == "__main__":
    sys.exit(main())
