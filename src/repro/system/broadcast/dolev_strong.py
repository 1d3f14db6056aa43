"""Authenticated Byzantine broadcast (Dolev & Strong 1983).

With (simulated) unforgeable signatures, broadcast needs only ``f + 1``
rounds and polynomially many messages, and tolerates any ``f < n`` for
agreement/validity of the broadcast itself.  We include it as the
polynomial-cost alternative to OM(f) for larger ``f`` — the consensus
layer still requires ``n >= 3f + 1`` for its own reasons (the paper's
Lemma 10).

Protocol (one instance, sender ``s``):

* Round 0: ``s`` signs its value and sends ``(v, [sig_s])`` to everyone.
* Round ``r`` (1..f): when a process first *accepts* a value in round
  ``r-1`` (valid chain: distinct signers, first is ``s``, length ``>= r``),
  it appends its own signature and relays to everyone.
* After round ``f + 1`` deliveries: if exactly one value was accepted,
  decide it; otherwise decide the default (sender provably faulty).

The signature chain makes equivocation self-defeating: to make value
``v'`` appear at a correct process in the final round, ``f + 1`` signers
must have vouched for it — at least one correct, who would have relayed it
to everyone in time.
"""

from __future__ import annotations

from typing import Any

from ...obs import metrics as _obs
from ..crypto import Signature, SignatureScheme
from ..messages import canonical_bytes
from .interface import BroadcastDefault

__all__ = ["DolevStrongState"]

Chain = tuple[Signature, ...]


class DolevStrongState:
    """Per-process state of one authenticated-broadcast instance.

    Parameters
    ----------
    scheme:
        The run's :class:`~repro.system.crypto.SignatureScheme` (used for
        verification; correct processes sign through it as themselves).
    instance:
        Instance label mixed into every signed payload, so signatures from
        parallel broadcasts cannot be replayed across instances.
    """

    def __init__(
        self,
        n: int,
        f: int,
        sender: int,
        pid: int,
        scheme: SignatureScheme,
        instance: Any = 0,
        default: Any = BroadcastDefault,
    ) -> None:
        self.n, self.f = n, f
        self.sender = sender
        self.pid = pid
        self.scheme = scheme
        self.instance = instance
        self.default = default
        self.accepted: dict[bytes, Any] = {}
        self._chains: dict[bytes, Chain] = {}
        self._newly_accepted: list[bytes] = []

    # ----------------------------------------------------------- utilities
    def _signed_obj(self, value: Any) -> Any:
        return ("ds", self.instance, self.sender, value)

    def _valid_chain(self, value: Any, chain: Chain, min_len: int) -> bool:
        if len(chain) < min_len:
            return False
        signers = [sig.signer for sig in chain]
        if len(set(signers)) != len(signers):
            return False
        if not signers or signers[0] != self.sender:
            return False
        return self.scheme.verify_all(self._signed_obj(value), chain)

    # ------------------------------------------------------------- sending
    def messages_for_round(
        self, r: int, value_if_sender: Any = None
    ) -> list[tuple[Any, Chain]]:
        """Outgoing ``(value, chain)`` payloads for round ``r``, each to
        be sent to all ``n`` processes (``Context.broadcast``)."""
        out: list[tuple[Any, Chain]] = []
        if r == 0:
            if self.pid == self.sender:
                sig = self.scheme.sign(self.pid, self._signed_obj(value_if_sender))
                out = [(value_if_sender, (sig,))]
            return out
        if r > self.f:
            return out
        # Relay everything newly accepted last round, with our signature.
        for key in self._newly_accepted:
            value = self.accepted[key]
            chain = self._chains[key]
            if any(sig.signer == self.pid for sig in chain):
                continue
            sig = self.scheme.sign(self.pid, self._signed_obj(value))
            out.append((value, chain + (sig,)))
        self._newly_accepted = []
        if out:
            _obs.inc("bcast.ds.relays_sent", len(out) * self.n)
        return out

    # ----------------------------------------------------------- receiving
    def receive(self, r: int, src: int, payload: tuple[Any, Chain]) -> None:
        """Verify and record a relayed value delivered in round ``r``."""
        value, chain = payload
        if not self._valid_chain(value, chain, min_len=r):
            _obs.inc("bcast.ds.rejected")
            return
        key = canonical_bytes(value)
        if key in self.accepted:
            return
        self.accepted[key] = value
        self._chains[key] = chain
        self._newly_accepted.append(key)
        _obs.inc("bcast.ds.accepted")

    # ------------------------------------------------------------ deciding
    def decide(self) -> Any:
        """Final extraction: the unique accepted value, else the default."""
        if len(self.accepted) == 1:
            return next(iter(self.accepted.values()))
        return self.default
