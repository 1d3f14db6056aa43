"""Distributed-system simulation substrate.

A complete-graph message-passing system with up to ``f`` Byzantine
processes: process abstractions, FIFO network, synchronous (lockstep) and
asynchronous (adversarially scheduled) executors, a library of Byzantine
strategies, simulated signatures, and the three broadcast protocols the
consensus algorithms are built on.
"""

from .adversary import (
    Adversary,
    AdversaryView,
    ByzantineStrategy,
    CrashStrategy,
    DuplicateStrategy,
    EquivocateStrategy,
    HonestStrategy,
    MutateStrategy,
    SilentStrategy,
)
from .crypto import Signature, SignatureScheme
from .ids import ProcessId, Round, validate_system_size
from .messages import ALL, Message, canonical_bytes
from .network import Network, NetworkStats
from .process import AsyncProcess, Context, Inbox, SyncProcess
from .topology import (
    Topology,
    complete_topology,
    random_regular_topology,
    ring_lattice_topology,
    wheel_of_cliques_topology,
)
from .scheduler import (
    AsyncScheduler,
    DelayPolicy,
    DeliveryPolicy,
    FifoPolicy,
    RandomPolicy,
    RunResult,
    SynchronousScheduler,
)

__all__ = [
    "ALL",
    "Adversary",
    "AdversaryView",
    "AsyncProcess",
    "AsyncScheduler",
    "ByzantineStrategy",
    "Context",
    "CrashStrategy",
    "DelayPolicy",
    "DeliveryPolicy",
    "DuplicateStrategy",
    "EquivocateStrategy",
    "FifoPolicy",
    "HonestStrategy",
    "Inbox",
    "Message",
    "MutateStrategy",
    "Network",
    "NetworkStats",
    "ProcessId",
    "RandomPolicy",
    "Round",
    "RunResult",
    "Signature",
    "SignatureScheme",
    "SilentStrategy",
    "SyncProcess",
    "SynchronousScheduler",
    "Topology",
    "canonical_bytes",
    "complete_topology",
    "random_regular_topology",
    "ring_lattice_topology",
    "validate_system_size",
    "wheel_of_cliques_topology",
]
