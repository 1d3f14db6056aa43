"""One record on one link, through the link's one send method.

``PeerLink.send_shared`` takes a record encoded once for all the links it
goes out on; these build that record for a single link, as the tests
send it.  Each returns what ``send_shared`` returns: the backpressure
waiter to await, or ``None``.
"""

from __future__ import annotations

from typing import Any, Awaitable, Optional

from repro.system.transport import wire


def send_message(link: Any, msg: Any, stamp: Optional[tuple] = None) -> Optional[Awaitable[None]]:
    """One protocol message, optionally with its causal stamp."""
    return link.send_shared(wire.shared_frame(wire.message_record(msg, 0, stamp)))


def send_round(link: Any, round: int, decided: bool) -> Optional[Awaitable[None]]:
    return link.send_shared(wire.shared_frame((wire.ROUND, 0, int(round), bool(decided))))


def send_decided(link: Any) -> Optional[Awaitable[None]]:
    return link.send_shared(wire.shared_frame((wire.DECIDED, 0, link.self_id)))
