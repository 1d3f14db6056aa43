"""Benchmark-driver entry point (``BENCHMARK.json``'s ``command``).

``python3 benchmarks/perf/bench.py --workload W --seed N --seconds S --trace 0|1``

Runs one workload for ``S`` seconds and prints, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, where the program
under test is absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import orchestrate  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf/bench.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not orchestrate.program_present():
        print("error: src/repro is not in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        result = orchestrate.measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
