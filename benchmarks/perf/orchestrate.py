"""Spawn pinned worker processes and turn their events into results.

Stdlib only: the orchestrating process never imports the program, so a
worker's measured set-up time is the whole cost of getting ready.

Two protocols share the worker:

* :func:`measure` — what ``bench.py`` (the benchmark driver's entry
  point) calls: one workload, one seed, ``--seconds`` of closed-loop
  timing, or the traced passes.
* :func:`run_all` — ``python -m benchmarks.perf run``: every workload,
  ``--rounds`` interleaved rounds (A B C D, A B C D, ...), each round of
  each workload in a fresh worker, then one traced worker per workload
  and the ``exec`` probe.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from . import report
from .workloads import WORKLOADS

__all__ = ["ROOT", "measure", "program_present", "run_all", "spawn"]

ROOT = Path(__file__).resolve().parents[2]
_WORKER = Path(__file__).with_name("worker.py")

#: Allowance for a worker to start, import and warm up, in seconds.
SETUP_ALLOWANCE_S = 60.0
#: A pass may take this many times its expected time before it is cut.
TIMEOUT_FACTOR = 10.0
#: Expected seconds for one pass over a full list on the sizing box (the
#: slowest workload's; the others take 11 s).
EXPECTED_PASS_S = 14.0
#: A ``bench.py`` run must end within 180 s; its workers are cut before that.
RUN_BUDGET_S = 170.0
#: Longest ``TMPDIR`` under which the live backend's socket paths still fit.
MAX_TMPDIR_CHARS = 70
#: Set-up samples taken by :func:`measure` (the timed worker's plus
#: set-up-only workers), reported as their median.
SETUP_SAMPLES = 3


def program_present() -> bool:
    """False in a directory that holds the benchmark but not the program."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def pick_cpu() -> Optional[int]:
    """The last CPU this process may run on (the first is where the
    kernel parks most housekeeping)."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One pinned CPU: extra BLAS threads could only contend for it.  A
    # fixed hash seed keeps dict/set layout, and so timing, repeatable.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # The live backend binds its Unix sockets under tempfile's directory:
    # keep that inside the checkout wherever the path leaves room for
    # "repro-uds-XXXXXXXX/nNN.sock" within sun_path's 108 bytes.
    tmp = ROOT / ".bench_build" / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR_CHARS:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def spawn(
    workload: str,
    seed: int,
    mode: str,
    *,
    timeout: float,
    seconds: Optional[float] = None,
    reps: Optional[int] = None,
    cpu: Optional[int] = None,
    trace_out: Optional[str] = None,
    quick: bool = False,
) -> dict[str, Any]:
    """Run one worker to completion (or kill it at ``timeout``) and parse
    the JSON lines it managed to print."""
    cmd = [sys.executable, str(_WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    for flag, value in (("--seconds", seconds), ("--reps", reps), ("--cpu", cpu),
                        ("--trace-out", trace_out)):
        if value is not None:
            cmd += [flag, str(value)]
    if quick:
        cmd.append("--quick")
    cmd += ["--spawned-at", repr(perf_counter())]
    # Its own session, so that a timeout takes the worker's children (the
    # forked passes, the exec probe's pool) down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = False
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    out: dict[str, Any] = {"samples": [], "passes": [], "timed_out": timed_out,
                           "returncode": proc.returncode, "stderr": stderr[-2000:]}
    for line in stdout.splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue  # a line cut in half by the kill
        kind = event.pop("event", None)
        if kind == "sample":
            out["samples"].append(event)
        elif kind == "pass":
            out["passes"].append(event)
        elif kind in ("ready", "trace", "done", "exec"):
            out[kind] = event
    return out


def _require(result: dict[str, Any], event: str, what: str) -> dict[str, Any]:
    if event not in result:
        raise RuntimeError(
            f"{what}: worker ended without its {event!r} event "
            f"(exit {result['returncode']}, timed out: {result['timed_out']})\n"
            f"{result['stderr']}"
        )
    return result[event]


def _setup(ready: dict[str, Any]) -> tuple[float, float]:
    """``(seconds, speed factor)`` of one set-up."""
    return ready["setup_s"], ready["speed"]


def _end_to_end(workers: list[dict[str, Any]],
                extra_setup: list[tuple[float, float]]) -> dict[str, Any]:
    """Aggregate timed workers into one workload result; rounds are
    numbered across workers in the order they ran."""
    attempted = max(w["ready"]["instances"] for w in workers if "ready" in w)
    samples = []
    offset = 0
    for worker in workers:
        samples += [{**s, "pass": s["pass"] + offset} for s in worker["samples"]]
        offset += max((s["pass"] for s in worker["samples"]), default=-1) + 1
    setup = [_setup(w["ready"]) for w in workers if "ready" in w] + extra_setup
    rss = [w["done"]["peak_rss_mb"] for w in workers if "done" in w]
    out = report.aggregate(attempted, samples, setup, rss or [0.0])
    out["timed_out"] = any(w["timed_out"] for w in workers)
    return out


# ------------------------------------------------------- driver protocol


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark-driver run: ``{"correct", "attempted", "failed", "metrics"}``.

    One worker times ``seconds`` of closed-loop passes over the whole
    list (the first pass completes, later ones are cut when the time is
    up); set-up-only workers bring the set-up samples to
    :data:`SETUP_SAMPLES`.
    """
    start = perf_counter()
    cpu = pick_cpu()

    def left() -> float:
        return RUN_BUDGET_S - (perf_counter() - start)

    if trace:
        result = spawn(workload, seed, "trace", seconds=seconds, cpu=cpu, timeout=left())
        event = _require(result, "trace", f"{workload} traced passes")
        values = report.layer_metrics(event, event["tolerance"] / event["instances"])
        return {
            "correct": event["failed"] == 0,
            "attempted": event["instances"],
            "failed": event["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in report.LAYER_UNITS.items()},
        }
    extra_setup = []
    for _ in range(SETUP_SAMPLES - 1):
        result = spawn(workload, seed, "setup", cpu=cpu,
                       timeout=min(left(), SETUP_ALLOWANCE_S))
        extra_setup.append(_setup(_require(result, "ready", f"{workload} set-up")))
    timed = spawn(workload, seed, "timed", seconds=seconds, cpu=cpu, timeout=left())
    _require(timed, "ready", f"{workload} timed passes")
    out = _end_to_end([timed], extra_setup)
    metrics = out["metrics"]
    return {
        "correct": not out["digest_mismatches"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _better, bound) in report.END_TO_END.items()
            if bound is not None
        },
    }


# ------------------------------------------------------- developer protocol


def _loadavg() -> Optional[list[float]]:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run_all(seed: int, rounds: int, *, quick: bool = False,
            trace_out: Optional[str] = None, log: Any = None) -> dict[str, Any]:
    """The full protocol: interleaved rounds, traced passes, exec probe.

    ``quick`` is the smoke run: one rep per cell, so the traced worker's
    list is the whole workload and its untraced pass stands in for the
    single timed round; the obs-feature passes and the exec probe are
    skipped and their metrics read ``null``.
    """
    say = log or (lambda message: None)
    cpu = pick_cpu()
    load_start = _loadavg()
    timed: dict[str, list[dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for round_index in range(0 if quick else rounds):
        for name in WORKLOADS:
            say(f"round {round_index + 1}/{rounds}: {name}")
            timeout = SETUP_ALLOWANCE_S + TIMEOUT_FACTOR * EXPECTED_PASS_S
            timed[name].append(spawn(name, seed, "timed", cpu=cpu, timeout=timeout))
    workloads: dict[str, Any] = {}
    environment: dict[str, Any] = {}
    for name in WORKLOADS:
        say(f"traced passes: {name}")
        path = f"{trace_out}.{name}.json" if trace_out else None
        traced = spawn(name, seed, "trace", seconds=0.0, cpu=cpu, trace_out=path,
                       reps=1 if quick else None, quick=quick,
                       timeout=SETUP_ALLOWANCE_S + 240.0)
        event = _require(traced, "trace", f"{name} traced passes")
        out = _end_to_end([traced] if quick else timed[name],
                          [] if quick else [_setup(traced["ready"])])
        out["layers"] = report.layer_metrics(
            event, out["tolerance_misses"] / out["attempted"])
        out["unattributed"] = report.unattributed(event)
        out["why"] = WORKLOADS[name].why
        workloads[name] = out
        environment = traced.get("done", {}).get("environment", environment)
    doc: dict[str, Any] = {
        "schema": "benchmarks.perf/1",
        "seed": seed,
        "rounds": 1 if quick else rounds,
        "quick": quick,
        "note": ("no message delay is injected: latency is processor time only, "
                 "reported at the reference machine's speed (measured = reported x "
                 "speed factor); live-uds runs honest nodes over loopback sockets "
                 "in one process"),
        "environment": {**environment, "loadavg_start": load_start},
        "workloads": workloads,
    }
    if quick:
        doc["global"] = {name: {"value": None, "unit": unit, "reason": "skipped by --quick"}
                         for name, unit in report.GLOBAL_LAYER_UNITS.items()}
    else:
        say("exec probe")
        probe = spawn("sim-rva", seed, "exec", timeout=SETUP_ALLOWANCE_S + 240.0)
        doc["global"] = _require(probe, "exec", "exec probe")["metrics"]
    doc["environment"]["loadavg_end"] = _loadavg()
    return doc
