"""Simulated unforgeable digital signatures.

The authenticated broadcast protocol (Dolev–Strong) assumes signatures a
Byzantine process cannot forge on behalf of a correct process.  We simulate
this with keyed hashes: a :class:`SignatureScheme` holds one random secret
per process and signs by hashing ``secret || message``.  Unforgeability is
*enforced by the API*, not by cryptographic hardness: adversary code only
ever receives signing capabilities for the faulty ids (see
:meth:`SignatureScheme.signer_for`), so a forged token would require
guessing a 16-byte secret — the standard idealised-signature simulation.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .messages import canonical_bytes

__all__ = ["Signature", "SignatureScheme"]


@dataclass(frozen=True)
class Signature:
    """A signature token: ``(signer, digest)``."""

    signer: int
    digest: bytes

    def __repr__(self) -> str:
        return f"Sig(p{self.signer}:{self.digest.hex()[:8]})"


class SignatureScheme:
    """Per-run signature oracle with one secret per process.

    Parameters
    ----------
    n:
        Number of processes.
    rng:
        Source of the per-process secrets — pass the run's seeded
        generator so executions are reproducible.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self._secrets = [rng.bytes(16) for _ in range(n)]
        self.n = n

    def sign(self, signer: int, obj: Any) -> Signature:
        """Sign ``obj`` as process ``signer``.

        Protocol code for correct processes calls this with their own id;
        adversaries must go through :meth:`signer_for`, which refuses
        non-faulty ids.
        """
        if not 0 <= signer < self.n:
            raise ValueError(f"unknown signer {signer}")
        digest = hmac.new(
            self._secrets[signer], canonical_bytes(obj), hashlib.sha256
        ).digest()
        return Signature(signer, digest)

    def verify(self, obj: Any, sig: Signature) -> bool:
        """Check that ``sig`` is a valid signature on ``obj``."""
        return self.verify_all(obj, (sig,))

    def verify_all(self, obj: Any, sigs: Iterable[Signature]) -> bool:
        """Check every signature in ``sigs`` on ``obj``, serialised once."""
        data = canonical_bytes(obj)
        return all(
            0 <= s.signer < self.n and hmac.compare_digest(
                hmac.new(self._secrets[s.signer], data, hashlib.sha256).digest(), s.digest)
            for s in sigs
        )

    def signer_for(self, pids: set[int]) -> Callable[[int, Any], Signature]:
        """A signing capability restricted to the given process ids.

        This is what adversary strategies receive: they can sign anything
        as any *faulty* process but cannot produce signatures for correct
        ones — modelling unforgeability.
        """
        allowed = set(pids)

        def sign(signer: int, obj: Any) -> Signature:
            if signer not in allowed:
                raise PermissionError(
                    f"adversary cannot sign as correct process {signer}"
                )
            return self.sign(signer, obj)

        return sign
