"""``python -m benchmarks.perf run | compare | check`` (see README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from . import orchestrate, report
from .workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK_JSON = orchestrate.ROOT / "BENCHMARK.json"
BASELINE_JSON = orchestrate.ROOT / "benchmarks" / "perf" / "baseline.json"


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_result(doc: dict[str, Any]) -> None:
    print(f"# {doc['note']}")
    env = doc["environment"]
    print(f"# nproc={env.get('nproc')} pinned_cpu={env.get('pinned_cpu')} "
          f"cpu={env.get('cpu_model')!r} python={env.get('python')} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')} "
          f"load={env.get('loadavg_start')}->{env.get('loadavg_end')}")
    for name, out in doc["workloads"].items():
        print(f"\n== {name}: {out['why']}")
        print(f"   attempted={out['attempted']} failed={out['failed']} "
              f"tolerance_misses={out['tolerance_misses']} "
              f"latency samples={out['samples']} digest={out['digest']}")
        print(f"   times are at reference speed; the rounds ran "
              f"{[round(v, 3) for v in out['per_round']['speed']]} times slower")
        for metric, (unit, _better, _bound) in report.END_TO_END.items():
            rounds = out["per_round"].get(metric)
            extra = f"   rounds: {[round(v, 4) for v in rounds]}" if rounds else ""
            print(f"   {metric:<48} {_fmt(out['metrics'][metric]):>12} {unit}{extra}")
        for metric, unit in report.LAYER_UNITS.items():
            value = out["layers"][metric]
            reason = "   (skipped by --quick)" if value is None else ""
            print(f"   {metric:<48} {_fmt(value):>12} {unit}{reason}")
        for failure in out["known_failures"]:
            print(f"   known_failure: {failure}")
        top = out["unattributed"][0]
        print(f"   core.run self is largest in {top['callable']} "
              f"({top['self_share']:.1%} of the traced wall)")
    print("\n== global")
    for metric, cell in doc["global"].items():
        reason = f"   ({cell['reason']})" if cell.get("reason") else ""
        print(f"   {metric:<48} {_fmt(cell['value']):>12} {cell['unit']}{reason}")


def _problems(doc: dict[str, Any]) -> list[str]:
    """Why a run must exit non-zero: a failed share above the stored
    baseline, a sim digest that differs between rounds, a missing metric."""
    baseline = json.loads(BASELINE_JSON.read_text()) if BASELINE_JSON.is_file() else {}
    allowed = baseline.get("failed_share", {})
    problems = []
    for name, out in doc["workloads"].items():
        if out["metrics"]["failed_share"] > allowed.get(name, 0.0):
            problems.append(f"{name}: failed_share {out['metrics']['failed_share']:.4f} "
                            f"exceeds the baseline {allowed.get(name, 0.0):.4f}")
        if out["digest_mismatches"]:
            problems.append(f"{name}: decisions differ between rounds for instances "
                            f"{out['digest_mismatches']}")
        missing = [m for m in report.LAYER_UNITS
                   if out["layers"].get(m) is None and not doc["quick"]]
        missing += [m for m in report.END_TO_END if out["metrics"].get(m) is None]
        if missing:
            problems.append(f"{name}: metrics missing: {missing}")
    return problems


def cmd_run(args: argparse.Namespace) -> int:
    if not orchestrate.program_present():
        print("error: src/repro is not in this checkout", file=sys.stderr)
        return 2
    rounds = 1 if args.quick else args.rounds
    doc = orchestrate.run_all(
        args.seed, rounds, quick=args.quick, trace_out=args.trace_out,
        log=lambda message: print(f"[perf] {message}", file=sys.stderr, flush=True),
    )
    _print_result(doc)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    problems = _problems(doc)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    rows = report.compare(base, new)
    for row in rows:
        ratio = "exact" if row["ratio"] is None else f"x{row['ratio']:.4f}"
        bound = "" if not row["bound"] else f" bound {row['bound']:.0%}"
        spread = f" spread {row['spread']:.1%}" if "spread" in row else ""
        print(f"{row['verdict']:<10} {row['workload']:<14} {row['metric']:<40} "
              f"{_fmt(row['new'])} vs base {_fmt(row['base'])} {row['unit']} "
              f"{ratio}{bound}{spread}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def check(declared: dict[str, Any], doc: Optional[dict[str, Any]]) -> list[str]:
    """Problems with ``BENCHMARK.json`` itself and against a result."""
    problems = []
    workloads = [w["name"] for w in declared["workloads"]]
    if workloads != list(WORKLOADS):
        problems.append(f"workloads {workloads} != {list(WORKLOADS)}")
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    per_layer = {m["name"]: m for m in declared["per_layer"]}
    for name in [*workloads, *end_to_end, *per_layer]:
        if not report.NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(end_to_end) > 16 or len(per_layer) > 128:
        problems.append("too many metrics declared")
    for name, metric in end_to_end.items():
        unit, better, bound = report.END_TO_END.get(name, (None, None, None))
        if (metric["unit"], metric["better"], metric["bound"]) != (unit, better, bound):
            problems.append(f"end_to_end {name}: declared {metric} but the benchmark "
                            f"measures unit={unit} better={better} bound={bound}")
    for name, metric in per_layer.items():
        better = "higher" if name in report.LAYER_HIGHER_IS_BETTER else "lower"
        if (metric["unit"], metric["better"]) != (report.LAYER_UNITS.get(name), better):
            problems.append(f"per_layer {name}: declared {metric} but the benchmark "
                            f"measures unit={report.LAYER_UNITS.get(name)} better={better}")
    if doc is not None:
        for workload in workloads:
            out = doc["workloads"].get(workload)
            if out is None:
                problems.append(f"result has no workload {workload}")
                continue
            for name in end_to_end:
                if out["metrics"].get(name) is None:
                    problems.append(f"{workload}: {name} not emitted")
            for name in per_layer:
                if name not in out["layers"]:
                    problems.append(f"{workload}: {name} not emitted")
                elif out["layers"][name] is None and not doc["quick"]:
                    problems.append(f"{workload}: {name} is null without a reason")
    return problems


def cmd_check(args: argparse.Namespace) -> int:
    declared = json.loads(BENCHMARK_JSON.read_text())
    doc = None
    if args.result:
        with open(args.result) as fh:
            doc = json.load(fh)
    problems = check(declared, doc)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not problems:
        print(f"ok: {len(declared['workloads'])} workloads, "
              f"{len(declared['end_to_end'])} end-to-end and "
              f"{len(declared['per_layer'])} per-layer metrics"
              + (", all emitted on every workload" if doc else ""))
    return 1 if problems else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="all workloads, interleaved rounds, traced passes")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--rounds", type=int, default=3)
    run.add_argument("--quick", action="store_true",
                     help="one rep per cell, one round, no exec probe")
    run.add_argument("--out", help="write the result document here")
    run.add_argument("--trace-out", help="prefix for one raw-span file per workload")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="ratio of every end-to-end metric to its bound")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)
    chk = sub.add_parser("check", help="verify BENCHMARK.json (against a result)")
    chk.add_argument("result", nargs="?")
    chk.set_defaults(func=cmd_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
