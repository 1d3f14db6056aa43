"""Transport backends: one protocol surface, sim + live execution.

The public surface is :mod:`repro.system.transport.base` — protocol code
selects a backend by name (``"sim"``, ``"live-tcp"``, ``"live-uds"``)
through :func:`get_transport` and never imports the backend modules
directly.  The wire protocol, peer links, and node
drivers under this package are implementation details of the live
backends.
"""

from .base import (
    Transport,
    TransportError,
    get_transport,
    transport_names,
)

__all__ = [
    "Transport",
    "TransportError",
    "get_transport",
    "transport_names",
]
