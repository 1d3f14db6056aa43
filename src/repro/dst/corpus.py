"""Replay tokens and the committed regression-seed corpus.

Two persistence layers:

* **Replay tokens** — a scenario compressed into one URL-safe string
  (``dst1-`` + base64(zlib(canonical JSON))).  Tokens are what the fuzz
  CLI prints next to every violation and what ``python -m repro replay
  --token ...`` consumes; they are self-contained, so a failure found on
  one machine replays bit-for-bit on another.

* **Seed files** — JSON documents under ``tests/corpus/`` committing a
  known-interesting scenario together with its *expectation*: either
  ``{"ok": true}`` (the invariants must hold — a regression fence around
  a once-scary schedule) or ``{"violates": "<invariant>"}`` (an
  expected-failure seed, e.g. an injected-bug demo).  The test suite
  replays every committed seed on every run.

Replays execute under a real :class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` (the installed ones, when a
caller such as ``--trace-out`` installed them; fresh ones otherwise), so
a reproduced failure comes with a span/metrics forensic trail.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from ..obs import MetricsRegistry, Tracer, get_tracer, use_registry, use_tracer
from ..obs.metrics import active_registry
from ..obs.probes import Probe
from .explore import ExplorationResult, run_scenario
from .scenarios import Scenario

__all__ = [
    "ReplayReport",
    "SeedCase",
    "decode_token",
    "encode_token",
    "load_corpus",
    "replay",
    "save_seed",
]

_TOKEN_PREFIX = "dst1-"


def encode_token(scenario: Scenario) -> str:
    """Compress a scenario into a self-contained replay token."""
    payload = json.dumps(
        scenario.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    packed = base64.urlsafe_b64encode(zlib.compress(payload, 9)).decode("ascii")
    return _TOKEN_PREFIX + packed.rstrip("=")


def decode_token(token: str) -> Scenario:
    """Inverse of :func:`encode_token` (validates the scenario)."""
    token = token.strip()
    if not token.startswith(_TOKEN_PREFIX):
        raise ValueError(
            f"not a replay token (expected {_TOKEN_PREFIX!r} prefix): {token[:16]!r}..."
        )
    packed = token[len(_TOKEN_PREFIX):]
    packed += "=" * (-len(packed) % 4)
    try:
        inflater = zlib.decompressobj()
        payload = inflater.decompress(base64.urlsafe_b64decode(packed.encode("ascii")), 1 << 20)
        if inflater.unconsumed_tail:  # a scenario inflates to a few hundred bytes
            raise ValueError("inflates past 1 MiB")
        data = json.loads(payload.decode("utf-8"))
    except Exception as exc:
        raise ValueError(f"corrupt replay token: {exc}") from exc
    return Scenario.from_dict(data)


# ---------------------------------------------------------------------------
# replay with forensics
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    """One traced replay: the run's verdicts plus its forensic trail."""

    result: ExplorationResult
    tracer: Tracer
    metrics: MetricsRegistry


def replay(
    scenario_or_token: Union[Scenario, str],
    *,
    probes: Sequence[Union[str, Probe]] = (),
) -> ReplayReport:
    """Re-execute a scenario under full observability.

    The run always collects spans and metrics, into the installed tracer
    and registry when there are any (``--trace-out`` writes those as
    JSONL), else into fresh ones.  ``probes`` enables online invariant
    probes (see :func:`repro.dst.explore.run_scenario`); their reports
    ride on ``report.result.probe_reports``.
    """
    scenario = (
        decode_token(scenario_or_token)
        if isinstance(scenario_or_token, str)
        else scenario_or_token
    )
    ambient = get_tracer()
    tracer = ambient if isinstance(ambient, Tracer) else Tracer(level="info")
    registry = active_registry() or MetricsRegistry()
    tracer.event(
        "dst.replay.start",
        algorithm=scenario.algorithm,
        n=scenario.n,
        d=scenario.d,
        f=scenario.f,
        seed=scenario.seed,
        token=encode_token(scenario),
    )
    with use_tracer(tracer), use_registry(registry):
        result = run_scenario(scenario, probes=probes)
    tracer.event(
        "dst.replay.done",
        ok=result.ok,
        violations=sorted(result.violations),
        probe_violations=result.probe_violations,
    )
    return ReplayReport(result=result, tracer=tracer, metrics=registry)


# ---------------------------------------------------------------------------
# seed files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedCase:
    """One committed corpus entry.

    ``expect`` is either ``{"ok": True}`` or ``{"violates": "<name>"}``.
    """

    name: str
    scenario: Scenario
    expect: Mapping[str, Any] = field(default_factory=lambda: {"ok": True})
    notes: str = ""
    path: Optional[str] = None

    @property
    def expect_ok(self) -> bool:
        return bool(self.expect.get("ok", False))

    @property
    def expected_violation(self) -> Optional[str]:
        v = self.expect.get("violates")
        return str(v) if v is not None else None

    def check(self, result: ExplorationResult) -> Optional[str]:
        """Return a mismatch description, or None when the replay matches."""
        if self.expect_ok:
            if result.ok:
                return None
            return (
                f"seed {self.name!r} expected clean invariants but violated "
                f"{sorted(result.violations)}"
            )
        want = self.expected_violation
        if want is None:
            return f"seed {self.name!r} has no usable expectation: {dict(self.expect)}"
        if want in result.violations:
            return None
        return (
            f"seed {self.name!r} expected a {want!r} violation but got "
            f"{sorted(result.violations) or 'a clean run'}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "notes": self.notes,
            "expect": dict(self.expect),
            "scenario": self.scenario.to_dict(),
            "token": encode_token(self.scenario),
        }


def save_seed(
    path: Union[str, Path],
    scenario: Scenario,
    *,
    name: Optional[str] = None,
    expect: Optional[Mapping[str, Any]] = None,
    notes: str = "",
) -> SeedCase:
    """Write a scenario as a corpus seed file (promotion workflow)."""
    path = Path(path)
    case = SeedCase(
        name=name or path.stem,
        scenario=scenario,
        expect=dict(expect) if expect is not None else {"ok": True},
        notes=notes,
        path=str(path),
    )
    path.write_text(json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return case


def load_seed(path: Union[str, Path]) -> SeedCase:
    """Load one seed file; the embedded token must match the scenario."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    scenario = Scenario.from_dict(data["scenario"])
    token = data.get("token")
    if token is not None and decode_token(token) != scenario:
        raise ValueError(
            f"{path}: embedded token does not match the scenario body "
            "(hand-edited seed? regenerate with save_seed)"
        )
    return SeedCase(
        name=str(data.get("name", path.stem)),
        scenario=scenario,
        expect=dict(data.get("expect", {"ok": True})),
        notes=str(data.get("notes", "")),
        path=str(path),
    )


def load_corpus(directory: Union[str, Path]) -> list[SeedCase]:
    """Load every ``*.json`` seed in a corpus directory (sorted by name)."""
    directory = Path(directory)
    return [load_seed(p) for p in sorted(directory.glob("*.json"))]
