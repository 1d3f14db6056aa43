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
commander, have the sender as its last hop and the length dictated by the
round (the door checks its ids are distinct) — so Byzantine processes
cannot inject values into parts of the tree they do not control.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import is_, itemgetter
from typing import Any

from ...obs import metrics as _obs
from .. import messages
from .interface import BroadcastDefault

__all__ = ["EIGState"]

Path = tuple[int, ...]

#: Exact types whose canonical bytes name the type: values of two of them
#: never serialise alike (a list or a dict would pool with a tuple).
_PLAIN = frozenset({int, float, bool, str, bytes, type(None), tuple})


def _majority(values: list[Any], default: Any, keys: dict[int, bytes]) -> Any:
    """:func:`~repro.system.broadcast.interface.majority`, reading and
    filling the caller's ``id(vote) -> canonical bytes`` memo.  The
    caller keeps every vote it keys alive for as long as it holds
    ``keys``, so no id is reused under it."""
    if not values:
        return default
    first = values[0]
    if all(map(is_, values, repeat(first))):
        return first
    top, votes = Counter(map(id, values)).most_common(1)[0]
    if 2 * votes > len(values):
        # One object holds a majority, so its byte class wins, and the
        # count below would return that class's last vote: the object's
        # last occurrence, or a later vote equal to it in bytes.
        later = []
        for v in reversed(values):
            if id(v) == top:
                break
            later.append(v)
        for w in later:
            if type(w) is not type(v) and type(w) in _PLAIN and type(v) in _PLAIN:
                continue
            won = keys.get(id(v)) or keys.setdefault(id(v), messages.canonical_bytes(v))
            if won == (keys.get(id(w)) or keys.setdefault(id(w), messages.canonical_bytes(w))):
                return w
        return v
    counts: dict[bytes, tuple[int, Any]] = {}
    for v in values:
        key = keys.get(id(v))
        if key is None:
            key = keys[id(v)] = messages.canonical_bytes(v)
        cnt, _ = counts.get(key, (0, v))
        counts[key] = (cnt + 1, v)
    best_cnt, best_val = max(counts.values(), key=itemgetter(0))
    if 2 * best_cnt > len(values):
        return best_val
    return default


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
    ) -> list[tuple[Path, Any]]:
        """Outgoing ``(path, value)`` payloads for scheduler round ``r``,
        each to be sent to all ``n`` processes (``Context.broadcast``).

        Round 0 is the commander's initial send; rounds ``1..f`` are
        relays of the previous round's paths.
        """
        self._publish_receipts()
        if r == 0:
            if self.pid == self.commander:
                return [((self.commander,), value_if_commander)]
            return []
        if r > self.f:
            return []
        pid = self.pid
        out = [(path + (pid,), value) for path, value in self.tree.items()
               if len(path) == r and pid not in path]
        if out:
            _obs.inc("bcast.om.relays_sent", len(out) * self.n)
        return out

    # ----------------------------------------------------------- receiving
    def receive(self, r: int, src: int, payload: tuple[Path, Any]) -> None:
        """Store one relayed ``(path, value)`` delivered in round ``r``.

        Its shape passed the door (:mod:`repro.system.door`).  A relay of
        the wrong length for the round, not rooted at the commander or not
        last relayed by its sender is discarded — a correct process never
        sends one.  First write wins, so duplicates cannot overwrite.
        """
        path, value = payload
        if len(path) != r or path[0] != self.commander or path[-1] != src:
            self._rejected += 1
            return
        if path not in self.tree:
            self.tree[path] = value
            self._stored += 1

    # ------------------------------------------------------------ deciding
    def decide(self) -> Any:
        """Recursive-majority resolution of the EIG tree (run once, after
        all ``f + 1`` delivery rounds).  Each distinct vote object is
        serialised at most once per resolution; the memo goes with it."""
        self._publish_receipts()
        if not self._decided:
            root = (self.commander,)
            self._decision = (
                self._resolve(root, {}) if self.f
                else self.tree.get(root, self.default)
            )
            self._decided = True
            _obs.inc("bcast.om.decisions")
        return self._decision

    def _resolve(self, path: Path, keys: dict[int, bytes]) -> Any:
        """Majority over the children of ``path`` (``len(path) <= f``):
        the stored leaves one level up from the bottom, else each child's
        own resolution.  Missing entries count as the default."""
        others = [j for j in range(self.n) if j not in path]
        if len(path) == self.f:
            tree, default = self.tree, self.default
            children = [tree.get(path + (j,), default) for j in others]
        else:
            children = [self._resolve(path + (j,), keys) for j in others]
        return _majority(children, self.default, keys)
