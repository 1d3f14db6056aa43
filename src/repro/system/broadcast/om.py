"""Oral-messages Byzantine broadcast — OM(f) via exponential information
gathering (Lamport, Shostak & Pease 1982, the paper's reference [12]).

One instance disseminates one sender's ("commander's") value to all
processes such that all correct processes agree on the outcome, and the
outcome equals the sender's value when the sender is correct.  Requires
``n >= 3f + 1`` and runs ``f + 1`` communication rounds; message complexity
is exponential in ``f`` (that is inherent to unauthenticated OM — use
:mod:`repro.system.broadcast.dolev_strong` for larger ``f``).

EIG structure
-------------
Values are stored in a tree indexed by *paths* — tuples of distinct process
ids starting with the commander.  ``tree[(c, i1, ..., ik)]`` is "the value
``ik`` said that ``i(k-1)`` said ... that the commander said".

* Round 0: the commander sends ``((c,), v)`` to everyone.
* Round ``r`` (1..f): each process relays every path of length ``r`` it
  received in the previous round and does not itself appear on, appending
  its own id.
* After round ``f + 1`` deliveries, each process decides by recursive
  strict majority over the tree (:meth:`EIGState.decide`), with missing or
  malformed entries treated as the protocol default.

The machine validates every incoming relay: the path must start at the
commander, consist of distinct ids, have the sender as its last hop, and
have the length dictated by the round — so Byzantine processes cannot
inject values into parts of the tree they do not control.
"""

from __future__ import annotations

from typing import Any

from ...obs import metrics as _obs
from .interface import BroadcastDefault, majority

__all__ = ["EIGState"]

Path = tuple[int, ...]


class EIGState:
    """Per-process state of one OM(f) broadcast instance.

    Parameters
    ----------
    n, f:
        System parameters (``n >= 3f + 1`` for correctness).
    commander:
        The broadcasting process id.
    pid:
        The hosting process id.
    default:
        Value decided when the (necessarily faulty) commander cannot be
        attributed a single value.
    """

    def __init__(
        self, n: int, f: int, commander: int, pid: int, default: Any = BroadcastDefault
    ) -> None:
        # Function-level import — see BrachaState.__init__ for why.
        from ...core.bounds import rbc_min_n

        if n < rbc_min_n(f):
            raise ValueError(f"OM(f) requires n >= 3f+1, got n={n}, f={f}")
        if not (0 <= commander < n and 0 <= pid < n):
            raise ValueError("commander/pid out of range")
        self.n, self.f = n, f
        self.commander = commander
        self.pid = pid
        self.default = default
        self.tree: dict[Path, Any] = {}
        self._decided: bool = False
        self._decision: Any = None
        # Receipts since the last publication (see _publish_receipts).
        self._stored = 0
        self._rejected = 0

    def _publish_receipts(self) -> None:
        # ``receive`` runs once per delivered relay; its two counters
        # reach the metrics registry once per round instead, from the
        # send / decide step that follows the round's deliveries.
        if self._stored:
            _obs.inc("bcast.om.relays_stored", self._stored)
            self._stored = 0
        if self._rejected:
            _obs.inc("bcast.om.relays_rejected", self._rejected)
            self._rejected = 0

    # ------------------------------------------------------------- sending
    def messages_for_round(
        self, r: int, value_if_commander: Any = None
    ) -> list[tuple[int, tuple[Path, Any]]]:
        """Outgoing ``(dst, (path, value))`` pairs for scheduler round ``r``.

        Round 0 is the commander's initial send; rounds ``1..f`` are
        relays of the previous round's paths.  The ``n`` destinations of
        one path share one payload object (as ``BrachaState._burst``
        does): the network sizes a burst once, by payload identity.
        """
        self._publish_receipts()
        out: list[tuple[int, tuple[Path, Any]]] = []
        if r == 0:
            if self.pid == self.commander:
                payload = ((self.commander,), value_if_commander)
                out = [(dst, payload) for dst in range(self.n)]
            return out
        if r > self.f:
            return out
        for path, value in self.tree.items():
            if len(path) != r or self.pid in path:
                continue
            payload = (path + (self.pid,), value)
            for dst in range(self.n):
                out.append((dst, payload))
        if out:
            _obs.inc("bcast.om.relays_sent", len(out))
        return out

    # ----------------------------------------------------------- receiving
    def receive(self, r: int, src: int, payload: tuple[Path, Any]) -> None:
        """Store one relayed ``(path, value)`` delivered in round ``r``.

        Malformed relays (wrong length, wrong last hop, repeated ids, not
        rooted at the commander) are discarded — a correct process never
        produces them, so they can only come from Byzantine senders.
        First write wins, so duplicates cannot overwrite.
        """
        try:
            path, value = payload
            path = tuple(map(int, path))
        except (TypeError, ValueError):
            self._rejected += 1
            return
        if (
            len(path) != r
            or not path
            or path[0] != self.commander
            or path[-1] != src
            or len(set(path)) != len(path)
            or min(path) < 0
            or max(path) >= self.n
        ):
            self._rejected += 1
            return
        if path not in self.tree:
            self.tree[path] = value
            self._stored += 1

    # ------------------------------------------------------------ deciding
    def decide(self) -> Any:
        """Recursive-majority resolution of the EIG tree (run once, after
        all ``f + 1`` delivery rounds)."""
        self._publish_receipts()
        if not self._decided:
            self._decision = self._resolve((self.commander,))
            self._decided = True
            _obs.inc("bcast.om.decisions")
        return self._decision

    def _resolve(self, path: Path) -> Any:
        stored = self.tree.get(path, self.default)
        if len(path) == self.f + 1:
            return stored
        children = [
            self._resolve(path + (j,)) for j in range(self.n) if j not in path
        ]
        if not children:  # pragma: no cover - n > f+1 always gives children
            return stored
        return majority(children, default=self.default)
