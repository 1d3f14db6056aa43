"""Bug injections: deliberately broken post-processing of a decision map.

An injection perturbs the decisions *after* a run (or after a cluster
logged them), the way an implementation bug in a decision rule would.
They exist to exercise and demo the fuzz → shrink → replay loop and the
invariant probes against a stack whose real algorithms (correctly)
refuse to produce counterexamples.  The perturbed map is judged by the
same ``ProblemSpec.check`` as a real outcome.

Leaf module (numpy only): the DST explorer and the post-hoc fleet
probes both import it.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

__all__ = ["INJECTIONS", "inject"]

Decisions = dict[int, np.ndarray]


def _split_brain(out: Decisions, input_scale: float, d: int) -> None:
    """One process 'decides' an offset value — a broken decision rule."""
    if out:
        pid = min(out)
        out[pid] = out[pid] + 10.0 * input_scale


def _stale_echo(out: Decisions, input_scale: float, d: int) -> None:
    """Two processes swap halves of their decisions — a buffer-reuse bug."""
    pids = sorted(out)
    if len(pids) >= 2:
        a, b = pids[0], pids[1]
        half = max(1, d // 2)
        out[a][:half], out[b][:half] = out[b][:half].copy(), out[a][:half].copy()
        out[a][:half] += input_scale


#: name -> in-place perturbation of a (copied) decision map.
INJECTIONS: dict[str, Callable[[Decisions, float, int], None]] = {
    "split-brain": _split_brain,
    "stale-echo": _stale_echo,
}


def inject(
    name: str, decisions: Mapping[int, np.ndarray], input_scale: float, d: int
) -> Decisions:
    """A perturbed copy of ``decisions`` under the injection ``name``."""
    if name not in INJECTIONS:
        raise ValueError(
            f"unknown injection {name!r}; choices {sorted(INJECTIONS)}"
        )
    out = {
        pid: np.array(v, dtype=float, copy=True) for pid, v in decisions.items()
    }
    INJECTIONS[name](out, input_scale, d)
    return out
