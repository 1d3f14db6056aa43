"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``claims``    the paper's answers for one (d, f): the tight process-count
              bounds, δ*(S) of random inputs, and the Theorem 3–6
              impossibility constructions
``explain``   run one spec under causal tracing and reconstruct the
              provenance (causal cone) of a process's decision
``fuzz``      deterministic-simulation soak test of one algorithm
``replay``    re-execute a replay token / seed file; ``--shrink`` minimises
              the violating scenario instead
``sweep``     run an experiment grid (algorithm × d × f × n × adversary),
              optionally across a worker pool, with serial/parallel
              bit-identity checking and a JSON report
``launch``    spawn an n-node local live cluster (TCP or UDS), collect
              every node's decision, and judge agreement
``node``      run ONE live consensus node (own OS process) from a
              topology file; prints a one-line JSON decision record
``fleet``     stitch per-node live trails: causal graph, post-hoc probes,
              cross-node explanations, aggregated Prometheus metrics
``lint``      protocol-aware static analysis in one pass: single-file
              rule families (determinism/float-safety/resilience-
              bounds/handler-hygiene/observability) and whole-program
              ones (message exhaustiveness, quorum provenance,
              transport readiness); SARIF output and a
              stale-suppression audit (``--check-noqa``)

``fuzz``/``replay`` are the deterministic simulation-testing loop (see
``docs/fuzzing.md``): every violation ``fuzz`` prints comes with a replay
token; ``replay --shrink`` minimises it; ``replay`` reproduces it
bit-for-bit.

Every command accepts ``--quiet`` / ``--verbose``, wired to the tracer's
log level (``--verbose`` echoes debug events to stderr as they happen).
``explain``, ``fuzz``, ``replay`` and ``sweep`` also take ``--trace-out
FILE``: the run's spans, events and metrics go to FILE as JSONL and a
timing summary follows the command's own output (``--verbose`` adds the
span tree).  Every bad argument exits 2 with one ``error:`` line.

Examples::

    python -m repro claims --d 5 --f 2
    python -m repro claims --d 4 --n 5 --seed 0 --p inf
    python -m repro explain --algorithm algo --d 4 --seed 3
    python -m repro explain --algorithm algo --d 3 --trace-out run.jsonl
    python -m repro explain --algorithm algo --d 2 --f 1 --pid 0 --probes all
    python -m repro explain --algorithm averaging --format dot --out cone.dot
    python -m repro fuzz --algorithm averaging --trials 50 --seed 7
    python -m repro fuzz --algorithm algo --trials 5 --inject split-brain
    python -m repro replay --shrink --token dst1-... --out seed.json
    python -m repro replay --token dst1-... --trace-out failure.jsonl
    python -m repro sweep --algorithms algo,exact --d 2,3 --reps 4 --workers 4
    python -m repro sweep --reps 8 --workers 2 --compare --out sweep.json
    python -m repro sweep --algorithms algo,averaging --reps 2 --trace-out s.jsonl
    python -m repro launch --algorithm averaging --n 4 --d 2 --transport tcp
    python -m repro node --topology cluster/topology.json --id 2
    python -m repro fleet metrics --trail-dir traces --out fleet.prom
    python -m repro lint src/repro benchmarks examples --check-noqa
    python -m repro lint src/repro benchmarks examples --format sarif
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

import numpy as np


class UsageError(Exception):
    """A bad argument or an unusable path: ``main`` prints one ``error:``
    line and exits 2, never a traceback."""


def _write(path: str, content: "str | list[dict[str, Any]]", quiet: bool) -> None:
    """Write one output file: text, or a list of JSONL records."""
    from .obs.export import dump_jsonl

    try:
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                dump_jsonl(content, fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None
    if not quiet:
        lines = "" if isinstance(content, str) else f" ({len(content)} lines)"
        print(f"wrote {path}{lines}")


def _json_text(doc: Any, sort_keys: bool = True) -> str:
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"


def _cmd_claims(args: argparse.Namespace) -> int:
    from .core import (
        bounds,
        theorem3_verdict,
        theorem4_verdict,
        theorem5_verdict,
        theorem6_verdict,
    )
    from .geometry import delta_star
    from .geometry.norms import max_edge_length, min_edge_length

    d, f = args.d, args.f
    n = args.n if args.n is not None else d + 1
    if d < 2:
        raise UsageError(f"--d must be >= 2 (Theorem 5's construction), got {d}")
    if n < 2:
        raise UsageError(f"--n must be >= 2, got {n}")
    if not 0 <= f < n:
        raise UsageError(f"inconsistent --n/--f: need 0 <= f < n, got n={n}, f={f}")

    rows = [
        ("exact BVC (sync)", bounds.exact_bvc_min_n(d, f)),
        ("approximate BVC (async)", bounds.approx_bvc_min_n(d, f)),
        ("k-relaxed exact, k=1", bounds.k_relaxed_exact_min_n(d, f, 1)),
        ("k-relaxed exact, 2<=k<=d", bounds.k_relaxed_exact_min_n(d, f, min(2, d))),
        ("(δ,p) exact, constant δ", bounds.delta_p_exact_min_n(d, f, 1.0)),
        ("(δ,p) approx, constant δ", bounds.delta_p_approx_min_n(d, f, 1.0)),
        ("input-dependent δ (Lemma 10 floor)", bounds.input_dependent_min_n(f)),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"tight process-count bounds for d={d}, f={f}:")
    for name, val in rows:
        print(f"  {name.ljust(width)}  n >= {val}")
    if f >= 1 and 3 * f + 1 <= (d + 1) * f:
        k = bounds.kappa(3 * f + 1, f, d, 2)
        print(f"  κ(3f+1={3 * f + 1}, f, d, 2) = {k:.4f}  "
              f"(δ* < κ · max-edge at the minimum system size)")

    rng = np.random.default_rng(args.seed)
    S = rng.normal(size=(n, d))
    res = delta_star(S, f, p=args.p)
    print(f"\nrandom inputs: n={n}, d={d}, f={f}, p={args.p}, seed={args.seed}")
    print(f"δ*(S)      = {res.value:.9f}   (certified gap {res.gap:.2e})")
    print(f"minimiser  = {np.round(res.point, 5)}")
    print(f"min-edge/2 = {min_edge_length(S) / 2:.9f}")
    if n >= 3:
        print(f"max-edge/(n-2) = {max_edge_length(S) / (n - 2):.9f}")

    print(f"\nimpossibility constructions at d={d} (f=1):")
    if d >= 3:
        print(f"  Theorem 3 (k=2, n=d+1):      Ψ(Y) empty = {theorem3_verdict(d)}")
        sep, thr = theorem4_verdict(d)
        print(f"  Theorem 4 (k=2, n=d+2):      forced sep {sep} >= 2ε = {thr}")
    else:
        print("  Theorems 3/4 need d >= 3")
    print(f"  Theorem 5 (δ=0.25, n=d+1):   intersection empty = "
          f"{theorem5_verdict(d, 0.25)}")
    sep, thr = theorem6_verdict(d, 0.25, 0.1)
    print(f"  Theorem 6 (δ=0.25, n=d+2):   forced sep {sep} > ε = {thr}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .dst import encode_token, explore, save_seed, shrink
    from .dst.explore import replay_command

    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    try:
        violations = explore(args.algorithm, trials=args.trials,
                             seed=args.seed, inject=args.inject,
                             workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"{args.trials} sampled scenarios of {args.algorithm!r}: "
          f"{len(violations)} invariant violations")
    for i, v in enumerate(violations):
        s = v.scenario
        print(f"  [{i}] {v.invariant}: {v.detail}")
        print(f"      scenario: n={s.n} d={s.d} f={s.f} seed={s.seed} "
              f"faults={s.strategy_label()} windows={len(s.schedule)}")
        if args.shrink:
            res = shrink(s, invariant=v.invariant)
            small = res.shrunk
            print(f"      shrunk:   n={small.n} d={small.d} f={small.f} "
                  f"clauses={len(small.faults)} windows={len(small.schedule)} "
                  f"({res.accepted} edits kept of {res.attempts} tried)")
            print(f"      replay: {replay_command(encode_token(small))}")
        else:
            print(f"      replay: {v.replay_command}")
            print(f"      shrink: {v.shrink_command}")
        if args.save_dir:
            import os

            os.makedirs(args.save_dir, exist_ok=True)
            target = s if not args.shrink else res.shrunk
            path = os.path.join(
                args.save_dir, f"{args.algorithm}-{v.invariant}-{s.seed}.json"
            )
            save_seed(path, target, expect={"violates": v.invariant},
                      notes=f"found by: python -m repro fuzz --algorithm "
                            f"{args.algorithm} --trials {args.trials} "
                            f"--seed {args.seed}"
                            + (f" --inject {args.inject}" if args.inject else ""))
            print(f"      saved: {path}")
    return 1 if violations else 0


def _int_tuple(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list CLI value."""
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _str_tuple(text: str) -> tuple[str, ...]:
    """Parse a comma-separated string list CLI value."""
    values = tuple(x.strip() for x in text.split(",") if x.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .exec import SweepGrid, compare_grid, run_grid
    from .geometry import cache_disabled

    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    cache_scope = cache_disabled if args.no_cache else nullcontext
    try:
        grid = SweepGrid(
            algorithms=args.algorithms,
            dimensions=args.d,
            faults=args.f,
            sizes=() if args.n is None else args.n,
            adversaries=args.adversaries,
            reps=args.reps,
            base_seed=args.seed,
            p=args.p,
            k=args.k,
            epsilon=args.epsilon,
            probes=args.probes if args.probes else (),
        )
        with cache_scope():
            if args.compare:
                doc = compare_grid(grid, workers=args.workers,
                                   chunksize=args.chunksize,
                                   measure_cache=args.measure_cache)
            else:
                result = run_grid(grid, workers=args.workers,
                                  chunksize=args.chunksize)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if args.compare:
        summary = doc["summary"]
        if not args.quiet:
            print(f"{doc['trial_count']} trials "
                  f"({doc['skipped_trials']} trials skipped), "
                  f"{summary['ok']} ok, cpu_count={doc['cpu_count']}")
            for mode in doc["modes"]:
                print(f"  workers={mode['workers']}: "
                      f"{mode['wall_seconds']:.3f}s")
            cache = summary["geometry_cache"]
            print(f"  geometry cache: {cache['hits']:.0f} hits / "
                  f"{cache['misses']:.0f} misses "
                  f"(hit rate {cache['hit_rate']:.1%})")
            if "cache_off" in doc:
                off = doc["cache_off"]
                print(f"  cache off: {off['wall_seconds']:.3f}s "
                      f"(speedup {off['cache_speedup']:.2f}x, identical="
                      f"{off['identical_to_cached']})")
        print("serial/parallel decisions identical: "
              f"{doc['identical']} "
              f"(digest {doc['decisions_digest']['serial'][:16]}...)")
        if args.out:
            _write(args.out, _json_text(doc, sort_keys=False), args.quiet)
        return 0 if doc["identical"] else 1

    summary = result.summary()
    print(f"{result.trial_count} trials ({result.skipped_trials} trials "
          f"skipped), {result.ok_count} ok, workers={result.workers}, "
          f"{result.wall_seconds:.3f}s")
    if not args.quiet:
        if args.probes:
            print(f"  probe violations: {summary['probe_violations']}")
        cache = summary["geometry_cache"]
        print(f"  geometry cache: {cache['hits']:.0f} hits / "
              f"{cache['misses']:.0f} misses "
              f"(hit rate {cache['hit_rate']:.1%})")
        for name, row in summary["per_algorithm"].items():
            print(f"  {name}: {row['ok']}/{row['trials']} ok, "
                  f"{row['messages']} msgs, {row['wall_seconds']:.3f}s")
    if args.out:
        _write(args.out, result.to_json() + "\n", args.quiet)
    return 0 if result.ok_count == result.trial_count else 1


def _resolve_scenario(args: argparse.Namespace) -> tuple:
    """``--token`` / ``--seed-file`` to (scenario, seed case or None)."""
    from .dst import decode_token
    from .dst.corpus import load_seed

    if bool(args.token) == bool(args.seed_file):
        raise UsageError("provide exactly one of --token or --seed-file")
    if args.token:
        try:
            return decode_token(args.token), None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        case = load_seed(args.seed_file)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(
            f"cannot load seed file {args.seed_file!r}: {exc}"
        ) from None
    return case.scenario, case


def _shrink(args: argparse.Namespace, scenario, case) -> int:
    from .dst import encode_token, save_seed, shrink
    from .dst.explore import replay_command

    invariant = args.invariant
    if invariant is None and case is not None:
        invariant = case.expected_violation
    try:
        res = shrink(scenario, invariant=invariant,
                     max_attempts=args.max_attempts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    o, s = res.original, res.shrunk
    print(f"shrinking while {res.invariant!r} stays violated: "
          f"{res.accepted} edits kept of {res.attempts} tried")
    print(f"  original: n={o.n} d={o.d} f={o.f} clauses={len(o.faults)} "
          f"windows={len(o.schedule)}")
    print(f"  shrunk:   n={s.n} d={s.d} f={s.f} clauses={len(s.faults)} "
          f"windows={len(s.schedule)}")
    token = encode_token(s)
    print(f"  token:  {token}")
    print(f"  replay: {replay_command(token)}")
    if args.out:
        try:
            save_seed(args.out, s, expect={"violates": res.invariant},
                      notes=args.notes or "shrunk counterexample")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from None
        print(f"  saved:  {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .dst import replay

    scenario, case = _resolve_scenario(args)
    if args.shrink:
        return _shrink(args, scenario, case)
    stray = [f"--{name}" for name in ("invariant", "out", "notes")
             if getattr(args, name)]
    if stray:
        raise UsageError(f"only valid with --shrink: {', '.join(stray)}")
    try:
        report = replay(scenario, probes=args.probes if args.probes else ())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    s = scenario
    print(f"replayed {s.algorithm!r}: n={s.n} d={s.d} f={s.f} seed={s.seed} "
          f"faults={s.strategy_label()} windows={len(s.schedule)}"
          + (f" inject={s.inject}" if s.inject else ""))
    result = report.result
    if result.ok:
        print("invariants: all hold (agreement, validity, termination)")
    else:
        for name, detail in sorted(result.violations.items()):
            print(f"violated {name}: {detail}")
    for probe_report in result.probe_reports:
        status = ("ok" if not probe_report.violations
                  else f"{len(probe_report.violations)} violation(s)")
        print(f"probe {probe_report.name}: {status} "
              f"({probe_report.checks} checks)")
        for v in probe_report.violations[:5]:
            pids = ",".join(str(p) for p in v.pids) or "-"
            print(f"  t={v.time} pids={pids}: {v.detail}")
    m = report.metrics
    print(f"forensics: {len(report.tracer.spans)} spans, "
          f"{m.counter_value('net.messages_sent')} messages, "
          f"{result.outcome.result.rounds} rounds/steps")
    if case is not None:
        mismatch = case.check(result)
        if mismatch:
            print(f"expectation MISMATCH: {mismatch}")
            return 1
        print(f"expectation holds: "
              + ("clean run" if case.expect_ok
                 else f"reproduces {case.expected_violation!r}"))
        return 0
    return 1 if not result.ok else 0


def _show(args: argparse.Namespace, graph) -> None:
    """Render a causal graph in ``--format`` for ``--pid``, to ``--out``
    or stdout (``explain`` and ``fleet explain``)."""
    from .analysis.timeline import (
        cone_json,
        render_dot,
        render_explanation,
        render_timeline,
    )

    pid = args.pid
    if pid is None:
        decided = graph.decided_pids()
        pid = decided[0] if decided else 0
    if args.format == "timeline":
        rendered = render_timeline(graph)
    elif args.format == "json":
        rendered = json.dumps(cone_json(graph, pid), indent=2, sort_keys=True)
    elif args.format == "dot":
        rendered = render_dot(graph, pid=pid)
    else:
        rendered = render_explanation(graph, pid)
    if args.out:
        _write(args.out, rendered + "\n", args.quiet)
    else:
        print(rendered)


def _runspec(args: argparse.Namespace, **fields: Any):
    """The ``RunSpec`` of the shared spec options (see ``_spec_options``)."""
    from .core import RunSpec

    return RunSpec(
        algorithm=args.algorithm, n=args.n, d=args.d, f=args.f,
        seed=args.seed, p=args.p, k=args.k, epsilon=args.epsilon,
        rounds=args.rounds, **fields,
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.timeline import CausalGraph
    from .core import run
    from .exec.grid import build_adversary, min_trial_size
    from .obs.causal import CausalCollector, use_causal_collector
    from .obs.export import header_record

    try:
        if args.n is None:
            args.n = min_trial_size(args.algorithm, args.d, args.f, args.k)
        spec = _runspec(
            args, adversary=build_adversary(args.adversary, args.n, args.f),
            probes=args.probes if args.probes else (),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.pid is not None and not 0 <= args.pid < args.n:
        raise UsageError(f"--pid must be in 0..{args.n - 1}, got {args.pid}")
    collector = CausalCollector(args.n)
    with use_causal_collector(collector):
        try:
            out = run(spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    graph = CausalGraph.from_source(collector)
    _show(args, graph)
    if not args.quiet:
        print(f"\nrun: ok={out.ok} algorithm={args.algorithm} n={args.n} "
              f"d={args.d} f={args.f} adversary={args.adversary} "
              f"seed={args.seed}; {len(graph)} causal events, "
              f"decided pids {graph.decided_pids()}")
        for report in out.probe_reports:
            status = "ok" if report.ok else "VIOLATED"
            print(f"probe {report.name}: {status} "
                  f"({report.checks} checks, {len(report.violations)} "
                  f"violations)")
    if args.causal_out:
        _write(args.causal_out, [header_record()] + collector.to_records(),
               args.quiet)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .obs.export import header_record
    from .obs.fleet import (
        aggregate_metrics,
        discover_trails,
        fleet_probes,
        load_trails,
        stitch,
    )

    paths = list(args.trails)
    if args.trail_dir:
        paths.extend(discover_trails(args.trail_dir))
    if not paths:
        raise UsageError(
            "fleet needs per-node trails: positional JSONL files and/or "
            "--trail-dir (written by 'repro launch --trace-dir' or "
            "'repro node --trace')"
        )
    try:
        trails = load_trails(sorted(set(paths)))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load trails: {exc}") from None

    if args.action == "metrics":
        from .obs.prom import render_metrics_snapshot

        text = render_metrics_snapshot(aggregate_metrics(trails))
        if args.out:
            _write(args.out, text, args.quiet)
        else:
            print(text, end="")
        return 0

    try:
        graph, report = stitch(trails)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot stitch trails: {exc}") from None

    if not args.quiet:
        print(
            f"stitched {len(report.nodes)} trails (nodes "
            f"{list(report.nodes)}): {report.events} events, "
            f"{report.stitched_edges} cross-node edges, "
            f"{report.orphan_delivers} orphan delivers, "
            f"{report.duplicate_delivers_dropped} duplicates dropped"
        )

    if args.action == "stitch":
        if args.out:
            _write(args.out, [header_record()] + list(graph.events), args.quiet)
        if not report.complete:
            print(
                f"INCOMPLETE: {report.orphan_delivers} delivers have no "
                "matching send (missing or truncated trails?)",
                file=sys.stderr,
            )
        return 0 if report.complete else 1

    if args.action == "probes":
        try:
            reports, context = fleet_probes(trails, graph, inject=args.inject)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        for probe in reports:
            status = "ok" if probe.ok else "VIOLATED"
            print(f"probe {probe.name}: {status} ({probe.checks} checks, "
                  f"{len(probe.violations)} violations)")
            for violation in probe.violations:
                print(f"  - {violation.detail}")
        ok = all(probe.ok for probe in reports)
        if not args.quiet:
            inject = f" inject={args.inject}" if args.inject else ""
            print(f"fleet probes on {context['algorithm']} "
                  f"n={context['n']} d={context['d']} f={context['f']}"
                  f"{inject} -> " + ("OK" if ok else "FAILED"))
        if args.out:
            payload = {
                "stitch": report.to_dict(),
                "probes": [probe.to_dict() for probe in reports],
                "context": context,
                "ok": ok,
            }
            _write(args.out, _json_text(payload), args.quiet)
        return 0 if ok else 1

    # explain: cross-node decision cone over the merged graph
    _show(args, graph)
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from .exec.live_launch import load_topology, run_node
    from .system.transport.base import TransportError

    try:
        doc = load_topology(args.topology)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load topology {args.topology!r}: {exc}") from None
    if not 0 <= args.id < doc["n"]:
        raise UsageError(f"--id must be in 0..{doc['n'] - 1}, got {args.id}")

    def emit(record: dict) -> None:
        # Printed before any --linger window so the launcher can read the
        # decision while this node keeps serving /metrics.
        print(json.dumps(record, sort_keys=True), flush=True)

    try:
        record = run_node(
            doc, args.id, metrics_port=args.metrics_port,
            linger=args.linger, trace_path=args.trace, emit=emit,
        )
    except (TransportError, OSError) as exc:
        raise UsageError(f"node {args.id} failed: {exc}") from None
    return 0 if record["decided"] and record["completed"] else 1


def _cmd_launch(args: argparse.Namespace) -> int:
    from .exec.live_launch import launch_local

    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    try:
        report = launch_local(
            _runspec(args, broadcast=args.broadcast), kind=args.transport,
            timeout=args.timeout, metrics_port=args.metrics_port,
            linger=args.linger, trace_dir=args.trace_dir,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"launched {report['n']} {args.transport} nodes: "
          f"{report['algorithm']} d={report['d']} f={report['f']} "
          f"seed={report['seed']} ({report['instance']})")
    for record in report["nodes"]:
        if record is None:
            continue
        decision = record["decision"]
        shown = ("-" if decision is None
                 else str([round(x, 4) for x in decision]))
        print(f"  node {record['node']}: decided={record['decided']} "
              f"rounds={record['rounds']} decision={shown}")
    for err in report["errors"]:
        print(f"  ERROR {err}", file=sys.stderr)
    print(f"agreement spread {report['agreement_spread']:.3e} "
          f"(tolerance {report['agreement_tolerance']:.3e}); "
          f"{report['decided_nodes']}/{report['n']} decided -> "
          + ("OK" if report["ok"] else "FAILED"))
    if args.out:
        _write(args.out, _json_text(report), args.quiet)
    return 0 if report["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """A command parser that lets files follow options.

    Plain argparse fills a ``nargs="*"`` positional at its first chance,
    so in ``fleet stitch --out x.jsonl a.jsonl`` the trail list is
    already closed (empty) when ``a.jsonl`` arrives.  Parsing options
    first and positionals second (``parse_known_intermixed_args``) takes
    the files wherever they stand.
    """

    _mixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._mixing:
            return super().parse_known_args(args, namespace)
        self._mixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._mixing = False


def _spec_options(
    algorithm: str, n: Optional[int], n_help: str
) -> argparse.ArgumentParser:
    """The ``RunSpec`` options of ``explain`` and ``launch``.

    Built fresh per command: argparse shares a parent's action objects
    with every child, so one parent could not carry two defaults.
    """
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--algorithm", default=algorithm,
                      help="exact,algo,krelaxed,scalar,iterative,averaging "
                           f"(default {algorithm})")
    spec.add_argument("--n", type=int, default=n, help=n_help)
    spec.add_argument("--d", type=int, default=2)
    spec.add_argument("--f", type=int, default=1)
    spec.add_argument("--seed", type=int, default=0,
                      help="master seed: inputs, per-process rngs, "
                           "signature keys")
    spec.add_argument("--p", type=float, default=2.0)
    spec.add_argument("--k", type=int, default=1)
    spec.add_argument("--epsilon", type=float, default=5e-2)
    spec.add_argument("--rounds", type=int, default=None,
                      help="protocol rounds (default: the algorithm's own "
                           "estimate)")
    return spec


def build_parser() -> argparse.ArgumentParser:
    from .dst.injections import INJECTIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Relaxed Byzantine Vector Consensus — reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    verbosity = common.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true",
                           help="warnings only (tracer level 'warning')")
    verbosity.add_argument("--verbose", action="store_true",
                           help="echo debug events (tracer level 'debug')")
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the run's spans, events and metrics to "
                             "FILE as JSONL and print a timing summary "
                             "(--verbose adds the span tree)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser(
        "claims", parents=[common],
        help="the paper's claims at (d, f): tight n-bounds, δ*(S), and "
             "the Theorem 3-6 impossibility constructions",
    )
    p.add_argument("--d", type=int, default=3,
                   help="dimension (default 3; the constructions need d >= 2)")
    p.add_argument("--f", type=int, default=1, help="fault budget (default 1)")
    p.add_argument("--n", type=int, default=None,
                   help="processes of the random δ*(S) instance (default d+1)")
    p.add_argument("--p", type=float, default=2.0,
                   help="norm of δ*(S) (default 2; 1 and inf are exact LPs)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random δ*(S) inputs")
    p.set_defaults(func=_cmd_claims)

    p = sub.add_parser(
        "explain", parents=[common, traced, _spec_options(
            "algo", None, "processes (default: smallest legal n for the cell)"
        )],
        help="run one spec under causal tracing; explain a decision's "
             "provenance (causal cone / timeline / DOT)",
    )
    p.add_argument("--adversary", default="none",
                   help="named adversary: none,honest,silent,crash,mutate,"
                        "equivocate,duplicate (default none)")
    p.add_argument("--pid", type=int, default=None,
                   help="process whose decision to explain (default: the "
                        "lowest decided pid)")
    p.add_argument("--probes", type=_str_tuple, default=None,
                   help="comma list of online probes to run alongside "
                        "(validity,agreement,broadcast or 'all')")
    p.add_argument("--format", default="cone",
                   choices=["cone", "timeline", "json", "dot"],
                   help="cone: text causal cone (default); timeline: "
                        "per-round event groups; json: machine-readable "
                        "cone; dot: Graphviz DAG")
    p.add_argument("--out", default=None,
                   help="write the rendering to this file instead of stdout")
    p.add_argument("--causal-out", default=None,
                   help="also dump the full causal event log as JSONL")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("fuzz", parents=[common, traced],
                       help="deterministic-simulation soak test")
    p.add_argument("--algorithm", default="algo",
                   choices=["exact", "algo", "k1", "averaging"])
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject", default=None,
                   choices=sorted(INJECTIONS),
                   help="enable a named bug injection (demo/testing of the "
                        "fuzz->shrink->replay loop)")
    p.add_argument("--shrink", action="store_true",
                   help="minimise each violation before printing its token")
    p.add_argument("--save-dir", default=None,
                   help="write each violation as a seed file in this directory")
    p.add_argument("--workers", type=int, default=1,
                   help="fan trials over N worker processes (violations are "
                        "identical to a serial run's)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "replay", parents=[common, traced],
        help="re-execute a token/seed file under full tracing, or "
             "minimise it (--shrink)",
    )
    p.add_argument("--token", default=None,
                   help="replay token (dst1-...) as printed by fuzz")
    p.add_argument("--seed-file", default=None,
                   help="corpus seed file (tests/corpus/*.json)")
    p.add_argument("--probes", type=_str_tuple, default=(),
                   help="comma-separated online probes to run alongside "
                        "the replay (validity, agreement, broadcast, or "
                        "'all')")
    p.add_argument("--shrink", action="store_true",
                   help="minimise the scenario while the same invariant "
                        "keeps failing, instead of replaying it")
    p.add_argument("--invariant", default=None,
                   choices=["agreement", "validity", "termination"],
                   help="with --shrink: invariant to preserve (default: "
                        "first violated)")
    p.add_argument("--max-attempts", type=int, default=200,
                   help="with --shrink: edits to try (default 200)")
    p.add_argument("--out", default=None,
                   help="with --shrink: write the shrunk scenario as a "
                        "seed file")
    p.add_argument("--notes", default=None,
                   help="with --shrink: notes stored in the --out seed file")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "sweep", parents=[common, traced],
        help="run a deterministic experiment grid (optionally in parallel)",
    )
    p.add_argument("--algorithms", type=_str_tuple, default=("algo",),
                   help="comma list: exact,algo,krelaxed,scalar,iterative,"
                        "averaging (default algo)")
    p.add_argument("--d", type=_int_tuple, default=(2,),
                   help="comma list of dimensions (default 2)")
    p.add_argument("--f", type=_int_tuple, default=(1,),
                   help="comma list of fault budgets (default 1)")
    p.add_argument("--n", type=_int_tuple, default=None,
                   help="comma list of system sizes (default: the smallest "
                        "legal n per cell; undersized cells are skipped)")
    p.add_argument("--adversaries", type=_str_tuple, default=("none",),
                   help="comma list: none,honest,silent,crash,mutate,"
                        "equivocate,duplicate (default none)")
    p.add_argument("--reps", type=int, default=1,
                   help="repetitions per cell, each with its own derived seed")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed hashed into every cell's trial seed")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=5e-2)
    p.add_argument("--probes", type=_str_tuple, default=None,
                   help="comma list of online probes for every trial "
                        "(validity,agreement,broadcast or 'all'); violation "
                        "totals land in the summary, never in the digest")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process serial)")
    p.add_argument("--chunksize", type=int, default=None,
                   help="trials per pool chunk (default ~4 chunks/worker)")
    p.add_argument("--compare", action="store_true",
                   help="run serially AND in parallel; exit 1 unless the "
                        "decision digests are identical")
    p.add_argument("--measure-cache", action="store_true",
                   help="with --compare: add a cache-disabled pass to "
                        "measure the geometry cache speedup")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the geometry kernel cache for this sweep")
    p.add_argument("--out", default=None,
                   help="write the sweep/comparison report as JSON")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "launch",
        parents=[common, _spec_options("averaging", 4, "processes (default 4)")],
        help="spawn an n-node local live cluster and judge agreement",
    )
    p.add_argument("--transport", default="tcp", choices=["tcp", "uds"],
                   help="loopback TCP or Unix-domain sockets (default tcp)")
    p.add_argument("--broadcast", default="eig",
                   choices=["eig", "dolev-strong", "atomic"],
                   help="sync algorithms' broadcast primitive (default eig)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="whole-cluster wall-clock budget in seconds")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="base port: node PID serves /metrics on "
                        "metrics-port + PID (every node)")
    p.add_argument("--linger", type=float, default=0.0,
                   help="nodes keep serving /metrics this long after "
                        "deciding")
    p.add_argument("--trace-dir", default=None,
                   help="collect one causal-traced JSONL trail per node "
                        "in this directory (enables the fleet probe "
                        "block in the report)")
    p.add_argument("--out", default=None,
                   help="write the full launch report as JSON")
    p.set_defaults(func=_cmd_launch)

    p = sub.add_parser(
        "node", parents=[common],
        help="run one live consensus node from a topology file "
             "(prints a one-line JSON decision record)",
    )
    p.add_argument("--topology", required=True,
                   help="topology JSON (repro.transport.topology/1), "
                        "shared by every node of the cluster")
    p.add_argument("--id", type=int, required=True,
                   help="this node's id (0..n-1)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve live Prometheus text at /metrics on this "
                        "port for the whole run")
    p.add_argument("--linger", type=float, default=0.0,
                   help="keep serving /metrics this many seconds after "
                        "the decision line is printed")
    p.add_argument("--trace", default=None,
                   help="export this node's trail (spans, metrics, causal "
                        "events) as JSONL; enables causal tracing")
    p.set_defaults(func=_cmd_node)

    p = sub.add_parser(
        "fleet", parents=[common],
        help="stitch per-node live trails into one causal graph; "
             "post-hoc probes, explanations, aggregated metrics",
    )
    p.add_argument("action",
                   choices=["stitch", "probes", "explain", "metrics"],
                   help="stitch: merge trails (JSONL out); probes: "
                        "post-hoc invariant verdicts; explain: cross-"
                        "node decision cone; metrics: aggregated "
                        "Prometheus exposition")
    p.add_argument("trails", nargs="*",
                   help="per-node trail JSONL files")
    p.add_argument("--trail-dir", default=None,
                   help="directory of *.jsonl trails (repro launch "
                        "--trace-dir output)")
    p.add_argument("--pid", type=int, default=None,
                   help="explain: node whose decision to explain "
                        "(default: lowest decided)")
    p.add_argument("--format", default="explain",
                   choices=["explain", "timeline", "json", "dot"],
                   help="explain rendering (default explain)")
    p.add_argument("--inject", default=None,
                   choices=sorted(INJECTIONS),
                   help="probes: perturb the logged decisions to "
                        "demonstrate probe sensitivity")
    p.add_argument("--out", default=None,
                   help="write the action's artifact (stitched JSONL, "
                        "probe report JSON, rendering, or exposition)")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "lint", parents=[common],
        help="protocol-aware static analysis of the source tree",
    )
    from .lint import cli as lint_cli

    lint_cli.add_arguments(p)
    p.set_defaults(func=lint_cli.run)
    return parser


def _report_trace(args: argparse.Namespace, tracer, registry) -> None:
    """Write the ``--trace-out`` trail and print its timing summary."""
    from .analysis.profiling import render_flame, render_summary
    from .obs import header_record, trace_to_records

    records = trace_to_records(tracer, registry)
    _write(args.trace_out, [header_record()] + records, quiet=True)
    if not args.quiet:
        print(f"\n--- trace: {len(tracer.spans)} spans, "
              f"{len(tracer.events)} events -> {args.trace_out} "
              f"({len(records) + 1} lines)")
        print(render_summary(records))
        if args.verbose:
            print("\n" + render_flame(records))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (returns the process exit code)."""
    from contextlib import ExitStack

    from .obs import MetricsRegistry, Tracer, use_registry, use_tracer

    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    tracer = registry = None
    try:
        with ExitStack() as scope:
            if trace_out or args.verbose:
                # --verbose alone echoes debug events without keeping a
                # trail; --trace-out keeps every span, event and metric
                level = ("warning" if args.quiet
                         else "debug" if args.verbose else "info")
                tracer = scope.enter_context(
                    use_tracer(Tracer(level=level, echo=args.verbose)))
            if trace_out:
                registry = scope.enter_context(use_registry(MetricsRegistry()))
            code = args.func(args)
        if trace_out:
            _report_trace(args, tracer, registry)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
