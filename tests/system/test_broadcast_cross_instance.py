"""Cross-instance and replay-safety tests for the broadcast protocols.

The consensus layer multiplexes ``n`` simultaneous broadcast instances;
these tests pin the isolation properties that makes that sound —
especially signature domain separation (a Dolev–Strong signature from one
instance must be useless in another) and EIG tree isolation.
"""

from __future__ import annotations


from repro.system.broadcast.dolev_strong import DolevStrongState
from repro.system.broadcast.om import EIGState
from repro.system.crypto import SignatureScheme

from .broadcast_harness import relays


class TestDolevStrongDomainSeparation:
    def test_signature_not_replayable_across_instances(self, rng):
        scheme = SignatureScheme(4, rng)
        a = DolevStrongState(4, 1, 0, 1, scheme, instance="a")
        b = DolevStrongState(4, 1, 0, 1, scheme, instance="b")
        sig_a = scheme.sign(0, ("ds", "a", 0, 42))
        a.receive(1, 0, (42, (sig_a,)))
        assert len(a.accepted) == 1
        # replay the same (value, chain) into instance b: must be rejected
        b.receive(1, 0, (42, (sig_a,)))
        assert b.accepted == {}

    def test_signature_not_replayable_across_senders(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 2, 1, scheme, instance=0)
        # signature binds sender id 0, but this instance's sender is 2
        sig = scheme.sign(0, ("ds", 0, 0, 42))
        st.receive(1, 0, (42, (sig,)))
        assert st.accepted == {}

    def test_chain_extension_requires_valid_prefix(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 0, 1, scheme, instance=0)
        good = scheme.sign(0, ("ds", 0, 0, "v"))
        bad = scheme.sign(3, ("ds", 0, 0, "OTHER"))  # signs a different value
        st.receive(2, 3, ("v", (good, bad)))
        assert st.accepted == {}


class TestEIGInstanceIsolation:
    def test_paths_rooted_at_wrong_commander_rejected(self):
        st = EIGState(4, 1, commander=0, pid=1)
        st.receive(1, 2, ((2,), "v"))  # rooted at 2, not the commander
        assert st.tree == {}

    def test_parallel_instances_do_not_interfere(self):
        states = {c: EIGState(4, 1, c, 1) for c in range(4)}
        # feed instance-0's round-1 message into all states: only the
        # commander-0 instance stores it
        for c, st in states.items():
            st.receive(1, 0, ((0,), "v0"))
        assert states[0].tree == {(0,): "v0"}
        for c in (1, 2, 3):
            assert states[c].tree == {}

    def test_decide_idempotent(self):
        st = EIGState(4, 1, 0, 1)
        st.receive(1, 0, ((0,), "v"))
        first = st.decide()
        st.receive(2, 2, ((0, 2), "w"))  # late delivery after deciding
        assert st.decide() == first

    def test_relay_skips_own_paths(self):
        st = EIGState(4, 1, 0, 1)
        st.receive(1, 0, ((0,), "v"))
        msgs = relays(st, 1, None)
        # relays (0, 1) to everyone; never relays a path containing itself twice
        assert all(payload[0] == (0, 1) for _, payload in msgs)
        assert len(msgs) == 4

    def test_no_relay_beyond_f_rounds(self):
        st = EIGState(4, 1, 0, 1)
        st.receive(1, 0, ((0,), "v"))
        assert st.messages_for_round(2, None) == []
