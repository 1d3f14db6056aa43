"""Bracha's asynchronous reliable broadcast (Bracha 1987, paper ref [4]).

The asynchronous algorithms of §10 (Relaxed Verified Averaging) rely on
reliable broadcast: even with a Byzantine sender, all correct processes
that deliver a value for an instance deliver the *same* value, and if any
correct process delivers, every correct process eventually does
(totality).  Requires ``n >= 3f + 1`` — which is exactly why the paper's
asynchronous results also assume ``n >= 3f + 1``.

Protocol per instance (sender ``s``, value ``v``):

* sender sends ``INIT(v)`` to all;
* on first ``INIT(v)`` from ``s``: send ``ECHO(v)`` to all;
* on ``ceil((n+f+1)/2)`` ``ECHO(v)`` or ``f+1`` ``READY(v)`` (first time):
  send ``READY(v)`` to all;
* on ``2f+1`` ``READY(v)``: deliver ``v``.

The machine is message-driven: :meth:`on_message` returns the phase
payloads to broadcast to all (``[]`` or one), and sets
:attr:`delivered_value` when delivery happens.  Duplicate
phase messages from the same process are counted once (Byzantine processes
cannot inflate quorums by repetition).
"""

from __future__ import annotations

from typing import Any, Optional

from ...obs import metrics as _obs
from ..messages import canonical_bytes, defensive_copy

__all__ = ["BrachaState", "INIT", "ECHO", "READY"]

INIT, ECHO, READY = "init", "echo", "ready"

#: Canonical key of each (door-admitted, deeply immutable) value object a
#: BrachaState serialised, by identity, shared by all instances: all copies
#: of a simulated broadcast carry one object.  Each entry holds its object,
#: so no id is reused while keyed.  Cleared wholesale past the bound.
_KEYS: dict[int, tuple[Any, bytes]] = {}
_KEYS_MAX = 4096


def _key(value: Any) -> bytes:
    """Serialise a value :meth:`BrachaState.on_message` found in no entry."""
    key = canonical_bytes(value)
    if len(_KEYS) > _KEYS_MAX:
        _KEYS.clear()
    _KEYS[id(value)] = (value, key)
    return key


class BrachaState:
    """Per-process state of one reliable-broadcast instance."""

    def __init__(self, n: int, f: int, sender: int, pid: int) -> None:
        # Function-level import: core.__init__ imports the averaging
        # module, which imports this one — a module-level import of
        # core.bounds here would close that cycle.
        from ...core.bounds import bracha_echo_quorum, bracha_ready_quorum, rbc_min_n

        if n < rbc_min_n(f):
            raise ValueError(f"Bracha RBC requires n >= 3f+1, got n={n}, f={f}")
        self.n, self.f = n, f
        self.sender = sender
        self.pid = pid
        self.echo_threshold = bracha_echo_quorum(n, f)
        self.ready_threshold = bracha_ready_quorum(f)
        self._echoed = False
        self._readied = False
        self._echoes: dict[bytes, set[int]] = {}
        self._readys: dict[bytes, set[int]] = {}
        self._values: dict[bytes, Any] = {}
        # Phase messages handled since the last publish_counts().
        self._seen = {INIT: 0, ECHO: 0, READY: 0}
        self.delivered_value: Optional[Any] = None
        self.delivered = False

    # ------------------------------------------------------------- sending
    def start(self, value: Any = None) -> list[tuple[str, Any]]:
        """Sender's ``INIT`` payload to broadcast (none for non-senders)."""
        if self.pid != self.sender:
            return []
        return [(INIT, value)]

    def _voters(self, votes: dict[bytes, set[int]], key: bytes, value: Any) -> set[int]:
        # First vote of its phase for this key: the value outlives the
        # handler, so it is kept as a defensive copy (HYG002).
        if key not in self._values:
            self._values[key] = defensive_copy(value)
        voters = votes[key] = set()
        return voters

    def publish_counts(self) -> None:
        """Add the phase messages handled so far to the ambient
        ``bcast.bracha.init / echo / ready`` counters.

        :meth:`on_message` runs once per delivery and only counts on the
        instance; the host publishes when it stops (``on_stop``).
        """
        for phase, count in self._seen.items():
            if count:
                _obs.inc(f"bcast.bracha.{phase}", count)
                self._seen[phase] = 0

    # ----------------------------------------------------------- receiving
    def on_message(self, src: int, payload: tuple[str, Any]) -> list[tuple[str, Any]]:
        """Process one phase message; returns the payload to broadcast,
        if any.

        ``payload`` has passed the door (:mod:`repro.system.door`).
        """
        phase, value = payload
        self._seen[phase] += 1
        # A closed phase — INIT once echoed, ECHO / READY once READY is sent
        # and the value delivered — could change only voter sets, which
        # nothing reads any more: it is counted, not keyed.
        closed = self._echoed if phase == INIT else self.delivered and self._readied
        if closed:
            return []
        hit = _KEYS.get(id(value))
        key = hit[1] if hit is not None and hit[0] is value else _key(value)
        out: list[tuple[str, Any]] = []

        if phase == INIT:
            if src == self.sender:
                self._echoed = True
                out = [(ECHO, value)]
        elif phase == ECHO:
            voters = self._echoes.get(key)
            if voters is None:
                voters = self._voters(self._echoes, key, value)
            voters.add(src)
            if len(voters) >= self.echo_threshold and not self._readied:
                self._readied = True
                out = [(READY, value)]
        else:
            voters = self._readys.get(key)
            if voters is None:
                voters = self._voters(self._readys, key, value)
            voters.add(src)
            if len(voters) >= self.f + 1 and not self._readied:
                self._readied = True
                out = [(READY, value)]
            if len(voters) >= self.ready_threshold and not self.delivered:
                self.delivered = True
                self.delivered_value = self._values[key]
                _obs.inc("bcast.bracha.delivered")
        return out
