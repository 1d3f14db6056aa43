"""Deterministic simulation testing (DST) for the consensus stack.

FoundationDB-style discipline applied to the paper's algorithms: every
adversarial execution is a plain-data :class:`Scenario` (who is
Byzantine, doing what, when; how the async schedule misbehaves), every
run is deterministic in the scenario alone, and every invariant
violation becomes a one-command, minimized, committed regression test.

The loop (see ``docs/fuzzing.md``):

1. **fuzz** — :func:`explore` samples scenarios and checks the
   agreement/validity/termination invariants on each run;
2. **shrink** — :func:`shrink` greedily minimises a violating scenario
   while re-running to confirm the same invariant still breaks;
3. **replay** — :func:`replay` re-executes any scenario or token under
   full tracing/metrics and compares against a committed expectation;
4. **promote** — :func:`save_seed` commits the shrunk scenario to
   ``tests/corpus/`` where the suite replays it forever.
"""

from .corpus import (
    ReplayReport,
    SeedCase,
    decode_token,
    encode_token,
    load_corpus,
    replay,
    save_seed,
)
from .explore import (
    ALGORITHM_NAMES,
    INJECTIONS,
    ExplorationResult,
    Violation,
    explore,
    run_scenario,
    sample_scenario,
)
from .scenarios import (
    FaultClause,
    Scenario,
    ScenarioPolicy,
    ScheduleWindow,
    ScriptedStrategy,
    build_adversary,
    build_policy,
    min_system_size,
)
from .shrink import ShrinkResult, scenario_size, shrink

__all__ = [
    "ALGORITHM_NAMES",
    "INJECTIONS",
    "ExplorationResult",
    "FaultClause",
    "ReplayReport",
    "Scenario",
    "ScenarioPolicy",
    "ScheduleWindow",
    "ScriptedStrategy",
    "SeedCase",
    "ShrinkResult",
    "Violation",
    "build_adversary",
    "build_policy",
    "decode_token",
    "encode_token",
    "explore",
    "load_corpus",
    "min_system_size",
    "replay",
    "run_scenario",
    "sample_scenario",
    "save_seed",
    "scenario_size",
    "shrink",
]
