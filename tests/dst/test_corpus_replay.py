"""Replay-token round-trips and the committed regression-seed corpus.

``tests/corpus/*.json`` is the promoted-counterexample store: every seed
is replayed on every test run and must match its recorded expectation —
``{"ok": true}`` seeds are regression fences (the invariants must hold),
``{"violates": ...}`` seeds are expected failures (the injected-bug demo
must keep failing the same way).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dst.corpus import (
    decode_token,
    encode_token,
    load_corpus,
    load_seed,
    replay,
    save_seed,
)
from repro.dst.scenarios import FaultClause, Scenario, ScheduleWindow
from repro.obs import read_jsonl

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
CORPUS = load_corpus(CORPUS_DIR)


def small_scenario(**kw):
    base = dict(
        algorithm="averaging", n=4, d=2, f=1, seed=21,
        faults=(FaultClause(pid=3, kind="silent", start=2, end=9),),
        schedule=(ScheduleWindow(kind="delay", start=0, end=30, victims=(1,)),),
    )
    base.update(kw)
    return Scenario(**base)


class TestTokens:
    def test_round_trip(self):
        s = small_scenario()
        assert decode_token(encode_token(s)) == s

    def test_token_is_urlsafe_single_line(self):
        tok = encode_token(small_scenario())
        assert tok.startswith("dst1-")
        assert "\n" not in tok and " " not in tok
        assert "=" not in tok  # padding stripped

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError, match="not a replay token"):
            decode_token("xyz-AAAA")

    def test_corrupt_payload_rejected(self):
        with pytest.raises(ValueError, match="corrupt replay token"):
            decode_token("dst1-not!really@base64")

    def test_tokens_canonical(self):
        # Same scenario -> same token, independent of construction order.
        a = small_scenario()
        b = Scenario.from_dict(json.loads(json.dumps(a.to_dict())))
        assert encode_token(a) == encode_token(b)


class TestReplay:
    def test_replay_collects_forensics(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rep = replay(small_scenario(), trace_path=out)
        assert rep.ok
        events = {e.name for e in rep.tracer.events}
        assert {"dst.replay.start", "dst.replay.done"} <= events
        assert rep.tracer.spans  # the protocol stack emitted spans
        assert out.exists()
        assert read_jsonl(out)  # parses back

    def test_replay_from_token_matches_scenario_replay(self):
        s = small_scenario()
        assert replay(encode_token(s)).ok == replay(s).ok


class TestSeedFiles:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "seed.json"
        saved = save_seed(path, small_scenario(), expect={"ok": True},
                          notes="round-trip test")
        loaded = load_seed(path)
        assert loaded.scenario == saved.scenario
        assert loaded.expect_ok and loaded.expected_violation is None
        assert loaded.notes == "round-trip test"

    def test_hand_edited_seed_detected(self, tmp_path):
        path = tmp_path / "seed.json"
        save_seed(path, small_scenario())
        data = json.loads(path.read_text())
        data["scenario"]["seed"] += 1  # token now stale
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="token does not match"):
            load_seed(path)

    def test_expectation_mismatch_reported(self):
        from repro.dst.corpus import SeedCase

        rep = replay(small_scenario())
        bad = SeedCase(name="x", scenario=small_scenario(),
                       expect={"violates": "agreement"})
        msg = bad.check(rep.result)
        assert msg is not None and "expected a 'agreement' violation" in msg


class TestCommittedCorpus:
    def test_corpus_is_populated(self):
        assert len(CORPUS) >= 5

    def test_corpus_covers_all_algorithms(self):
        assert {c.scenario.algorithm for c in CORPUS} == {
            "exact", "algo", "k1", "averaging"
        }

    def test_corpus_has_an_expected_failure_seed(self):
        assert any(c.expected_violation for c in CORPUS)

    @pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
    def test_seed_replays_to_expectation(self, case):
        rep = replay(case.scenario)
        mismatch = case.check(rep.result)
        assert mismatch is None, mismatch

    @pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
    def test_seed_token_matches_body(self, case):
        # load_seed already validates this; assert explicitly so a future
        # format change cannot silently drop the check.
        raw = json.loads(Path(case.path).read_text())
        assert decode_token(raw["token"]) == case.scenario
