"""The synchronous round's exchange against the buffered network.

``SynchronousScheduler`` moves a round's messages straight into the next
round's inboxes.  The reference is what a lockstep round did through the
asynchronous buffer: ``Network.submit`` for every message, then
``Network.drain_all`` fanning each one out.  Inboxes (key order
included), ``NetworkStats.as_dict()`` (key order included) and the
causal trace, up to a renaming of event ids, must come out the same: the
round records every process's deliveries in the order the reference
does, though not interleaved across processes the same way.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunSpec, run
from repro.exec.grid import build_adversary
from repro.obs.causal import CausalCollector, use_causal_collector
from repro.system.messages import ALL, BURST, Message, expand_bursts
from repro.system.network import Network
from repro.system.process import SyncProcess
from repro.system.scheduler import SynchronousScheduler
from repro.system.topology import ring_lattice_topology

from .causal_match import renamed, sends

N = 5
#: Shared payload objects: consecutive sends of one object under one tag
#: are sized once, so identity and tag runs both matter to the stats.
_PAYLOADS = (None, 0, "x", (1.0, 2.0), ((0, 1), (3.0,)), b"\x00" * 9)


class Idle(SyncProcess):
    def on_round(self, ctx, r, inbox):
        pass


def _message(src, dst, tag, payload, seq):
    return Message(src, dst, tag, _PAYLOADS[payload], round=0, seq=seq)


_MESSAGES = st.builds(
    _message,
    src=st.integers(0, N - 1),
    dst=st.sampled_from([ALL, *range(N)]),
    tag=st.sampled_from(["a", "bc:0", "bc:1", "z"]),
    payload=st.integers(0, len(_PAYLOADS) - 1),
    seq=st.integers(0, 50),
)
_ROUNDS = st.lists(st.lists(_MESSAGES, max_size=40), min_size=1, max_size=4)


def _items(inboxes):
    """Inboxes as nested item lists, so comparing them compares key order."""
    return [(pid, list(box.items())) for pid, box in inboxes.items()]


def reference(rounds, topology):
    """Submit + drain through ``Network``, then fan out, round by round."""
    net = Network(N)
    net.collector = collector = CausalCollector(N)
    inboxes_per_round, sent_per_round = [], []
    for r, msgs in enumerate(rounds):
        collector.now = r
        sent = [
            m for m in msgs
            if topology is None or m.dst == ALL or topology.allows(m.src, m.dst)
        ]
        for m in sent:
            net.submit(m)
        inboxes = {pid: {} for pid in range(N)}
        for m in net.drain_all():
            send_eid = collector.pop_send(m.src, m.dst)
            if m.dst != ALL:
                targets = (m.dst,)
            elif topology is None:
                targets = range(N)
            else:
                targets = (*topology.neighbors(m.src), m.src)
            for dst in targets:
                collector.on_deliver(dst, send_eid, time=r)
                inboxes[dst].setdefault(m.src, []).append((m.tag, m.payload))
        inboxes_per_round.append(_items(inboxes))
        sent_per_round.append(sent)
    return inboxes_per_round, sent_per_round, net.stats, collector


@settings(max_examples=200, deadline=None)
@given(_ROUNDS, st.booleans())
def test_exchange_matches_submit_and_drain_all(rounds, ring):
    topology = ring_lattice_topology(N, 1) if ring else None
    collector = CausalCollector(N)
    sched = SynchronousScheduler(
        [Idle() for _ in range(N)], f=0, topology=topology, collector=collector,
    )
    inboxes_per_round, sent_per_round = [], []
    for r, msgs in enumerate(rounds):
        collector.now = r
        sent_per_round.append(sched._exchange(list(msgs), r))
        inboxes_per_round.append(_items(sched._inboxes))

    ref_inboxes, ref_sent, ref_stats, ref_collector = reference(rounds, topology)
    assert inboxes_per_round == ref_inboxes
    assert sent_per_round == ref_sent
    assert [[m.seq for m in sent] for sent in sent_per_round] == [
        [m.seq for m in sent] for sent in ref_sent
    ]
    stats = sched.network.stats.as_dict()
    assert repr(stats) == repr(ref_stats.as_dict())
    assert renamed(collector.events) == renamed(ref_collector.events)
    assert sends(collector.events) == sum(map(len, sent_per_round))


#: SHA-256 of the causal records and edges of one sync EIG run at
#: (n, d, f) = (7, 2, 2) under the equivocating adversary, cut when a
#: broadcast became one send event: 703 sends (1,813 while each copy was
#: its own) for the same 1,813 deliveries.
EQUIVOCATE_CAUSAL_SHA256 = (
    "663fe64409df8e5988dbee767276431d6391032c59b6c583442fb0cc601d6b3b"
)


def test_sync_eig_equivocate_causal_trace_is_unchanged():
    collector = CausalCollector(7)
    with use_causal_collector(collector):
        outcome = run(RunSpec(
            algorithm="algo",
            inputs=np.random.default_rng(5).normal(size=(7, 2)),
            f=2,
            adversary=build_adversary("equivocate", 7, 2),
            seed=11,
            broadcast="eig",
        ))
    assert outcome.ok
    assert (len(collector.events), len(collector.edges)) == (2523, 1813)
    blob = json.dumps([collector.to_records(), collector.edges]).encode()
    assert hashlib.sha256(blob).hexdigest() == EQUIVOCATE_CAUSAL_SHA256


# ---------------------------------------------------------------------------
# bursts: one envelope for Context.broadcast's n copies
# ---------------------------------------------------------------------------

_BURSTS = st.builds(
    _message,
    src=st.integers(0, N - 1),
    dst=st.just(BURST),
    tag=st.sampled_from(["a", "bc:0", "bc:1", "z"]),
    payload=st.integers(0, len(_PAYLOADS) - 1),
    seq=st.integers(0, 50),
)
_BURSTY_ROUNDS = st.lists(
    st.lists(st.one_of(_MESSAGES, _BURSTS), max_size=40), min_size=1, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(_BURSTY_ROUNDS, st.booleans(), st.booleans())
def test_bursts_match_their_copies_through_submit_and_drain_all(rounds, ring, traced):
    """A burst against the reference: ``Network.submit`` expands it into
    its copies.  Under a topology the reference's filter sees the copies
    too, as a lockstep round sees them.  Untraced and without a topology
    the round consumes the bursts themselves."""
    topology = ring_lattice_topology(N, 1) if ring else None
    collector = CausalCollector(N) if traced else None
    sched = SynchronousScheduler(
        [Idle() for _ in range(N)], f=0, topology=topology, collector=collector,
    )
    inboxes_per_round, sent_per_round = [], []
    envelopes = 0
    for r, msgs in enumerate(rounds):
        if traced:
            collector.now = r
        sent = sched._exchange(list(msgs), r)
        envelopes += len(sent)
        sent_per_round.append(expand_bursts(sent, N))
        inboxes_per_round.append(_items(sched._inboxes))

    submitted = [expand_bursts(m, N) for m in rounds] if ring else rounds
    ref_inboxes, ref_sent, ref_stats, ref_collector = reference(submitted, topology)
    assert inboxes_per_round == ref_inboxes
    ref_copies = [expand_bursts(sent, N) for sent in ref_sent]
    assert [[(m, m.seq) for m in sent] for sent in sent_per_round] == [
        [(m, m.seq) for m in sent] for sent in ref_copies
    ]
    assert repr(sched.network.stats.as_dict()) == repr(ref_stats.as_dict())
    if traced:
        # The reference's network records a burst as one send event too.
        assert renamed(collector.events) == renamed(ref_collector.events)
        assert sends(collector.events) == envelopes
