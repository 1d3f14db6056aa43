"""DET — replay determinism of the simulated protocol stack.

The DST subsystem (PR 2) replays executions bit-for-bit from a compact
seed token.  That only works while every source of randomness inside the
replayed modules flows from the scenario's seeded
``np.random.Generator`` and no code path consults wall-clock time or
iterates a ``set`` in hash order (string hashing is salted per process,
so set order varies across runs).  These rules fence off the modules the
replay corpus covers — ``core/``, ``system/``, ``dst/``, ``exec/`` (the
sweep engine's serial-vs-parallel bit-identity contract is a determinism
guarantee) — plus the ``benchmarks/`` and ``examples/`` trees, whose
trajectories must stay comparable across machines.

Rules
-----
* ``DET001`` — the stdlib ``random`` module (global, unseedable-per-run
  state) is banned; draw from the run's ``np.random.Generator``.
* ``DET002`` — wall-clock reads (``time.time()``, ``datetime.now()``,
  …) are banned; ``time.perf_counter()`` is deliberately allowed for
  observability timings that never feed protocol decisions.
* ``DET003`` — unseeded RNG construction (``np.random.default_rng()``
  with no seed, ``np.random.RandomState()``) and the legacy global
  ``np.random.*`` draw functions.
* ``DET004`` — iterating a set (or materialising one into an ordered
  container) — order depends on hash salting; sort first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Rule, register
from ..flow.model import ModuleInfo, ProgramModel
from .common import call_dotted_name, dotted_name

__all__ = ["StdlibRandom", "WallClock", "UnseededRng", "SetIteration"]

_SCOPES = ("core/", "system/", "dst/", "exec/", "benchmarks/", "examples/")

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Legacy global-state draw/seed functions on ``np.random``.
_GLOBAL_DRAWS = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "randint",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "seed",
        "get_state",
        "set_state",
    }
)

_NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")


@register
class StdlibRandom(Rule):
    id = "DET001"
    family = "determinism"
    scopes = _SCOPES
    summary = "stdlib `random` (global state) in a replay-deterministic module"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module, node,
                            "stdlib `random` uses process-global state; draw "
                            "from the run's seeded np.random.Generator",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module, node,
                        "stdlib `random` uses process-global state; draw "
                        "from the run's seeded np.random.Generator",
                    )
            elif isinstance(node, ast.Call):
                name = call_dotted_name(node)
                if name is not None and name.startswith("random."):
                    yield self.finding(
                        module, node,
                        f"`{name}()` draws from the global stdlib RNG; use "
                        "the run's seeded np.random.Generator",
                    )


@register
class WallClock(Rule):
    id = "DET002"
    family = "determinism"
    scopes = _SCOPES
    summary = "wall-clock read in a replay-deterministic module"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Call):
                name = call_dotted_name(node)
                if name in _WALL_CLOCK:
                    yield self.finding(
                        module, node,
                        f"`{name}()` reads the wall clock — replays cannot "
                        "reproduce it; use logical rounds/steps (or "
                        "time.perf_counter() for observability-only timing)",
                    )


@register
class UnseededRng(Rule):
    id = "DET003"
    family = "determinism"
    scopes = _SCOPES
    summary = "unseeded or global-state NumPy RNG"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_dotted_name(node)
            if name is None:
                continue
            unseeded = not node.args and not any(
                kw.arg in (None, "seed") for kw in node.keywords
            )
            if name.endswith(".default_rng") or name == "default_rng":
                if unseeded:
                    yield self.finding(
                        module, node,
                        "unseeded default_rng(); pass an explicit seed so "
                        "runs (and benchmark trajectories) are reproducible",
                    )
            elif name.endswith(".RandomState") and unseeded:
                yield self.finding(
                    module, node,
                    "unseeded RandomState(); pass an explicit seed",
                )
            elif any(name.startswith(p) for p in _NP_RANDOM_PREFIXES):
                if name.rsplit(".", 1)[-1] in _GLOBAL_DRAWS:
                    yield self.finding(
                        module, node,
                        f"`{name}()` uses NumPy's process-global RNG; use an "
                        "explicitly seeded np.random.default_rng(seed)",
                    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


@register
class SetIteration(Rule):
    id = "DET004"
    family = "determinism"
    scopes = _SCOPES
    summary = "ordering-sensitive iteration over a set"

    _MATERIALISERS = ("list", "tuple", "enumerate")

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        msg = (
            "iteration order over a set depends on hash salting and varies "
            "across runs; iterate sorted(...) instead"
        )
        for node in module.nodes:
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(module, node.iter, msg)
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.finding(module, gen.iter, msg)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name in self._MATERIALISERS
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(module, node, msg)
