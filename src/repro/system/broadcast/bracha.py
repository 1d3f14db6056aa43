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

The machine is message-driven: :meth:`on_message` returns the messages to
send, and sets :attr:`delivered_value` when delivery happens.  Duplicate
phase messages from the same process are counted once (Byzantine processes
cannot inflate quorums by repetition).
"""

from __future__ import annotations

from typing import Any, Optional

from ...obs import metrics as _obs
from ..messages import canonical_bytes, defensive_copy

__all__ = ["BrachaState", "INIT", "ECHO", "READY"]

INIT, ECHO, READY = "init", "echo", "ready"


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
        self.delivered_value: Optional[Any] = None
        self.delivered = False

    # ------------------------------------------------------------- sending
    def start(self, value: Any = None) -> list[tuple[int, tuple[str, Any]]]:
        """Sender's initial ``INIT`` burst (empty for non-senders)."""
        if self.pid != self.sender:
            return []
        return self._burst(INIT, value)

    def _burst(self, phase: str, value: Any) -> list[tuple[int, tuple[str, Any]]]:
        # One payload object for all n destinations: the network sizes a
        # burst once, by payload identity.
        payload = (phase, value)
        return [(dst, payload) for dst in range(self.n)]

    def _retain(self, key: bytes, value: Any) -> None:
        # Retained past the handler while `value` is also forwarded:
        # store a private copy so a sender-side mutation of the live
        # payload cannot rewrite what we later deliver.  The first copy
        # under a key stays private, so later votes need none.
        if key not in self._values:
            self._values[key] = defensive_copy(value)

    # ----------------------------------------------------------- receiving
    def on_message(
        self, src: int, payload: tuple[str, Any]
    ) -> list[tuple[int, tuple[str, Any]]]:
        """Process one phase message; returns the messages to send."""
        try:
            phase, value = payload
        except (TypeError, ValueError):
            _obs.inc("bcast.bracha.malformed")
            return []
        out: list[tuple[int, tuple[str, Any]]] = []
        key = canonical_bytes(value)
        if phase in (INIT, ECHO, READY):
            _obs.inc(f"bcast.bracha.{phase}")

        if phase == INIT:
            if src == self.sender and not self._echoed:
                self._echoed = True
                out = self._burst(ECHO, value)
        elif phase == ECHO:
            self._retain(key, value)
            voters = self._echoes.setdefault(key, set())
            voters.add(src)
            if len(voters) >= self.echo_threshold and not self._readied:
                self._readied = True
                out = self._burst(READY, value)
        elif phase == READY:
            self._retain(key, value)
            voters = self._readys.setdefault(key, set())
            voters.add(src)
            if len(voters) >= self.f + 1 and not self._readied:
                self._readied = True
                out = self._burst(READY, value)
            if len(voters) >= self.ready_threshold and not self.delivered:
                self.delivered = True
                self.delivered_value = self._values[key]
                _obs.inc("bcast.bracha.delivered")
        return out
