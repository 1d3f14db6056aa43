"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_nine_commands(self):
        import argparse

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["claims", "explain", "fuzz", "replay",
                                     "sweep", "launch", "node", "fleet",
                                     "lint"]

    def test_bounds(self, capsys):
        assert main(["claims", "--d", "3", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "n >= 5" in out  # exact BVC at d=3, f=1
        assert "n >= 6" in out  # approximate

    def test_delta(self, capsys):
        assert main(["claims", "--n", "4", "--d", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "δ*(S)" in out and "certified gap" in out

    def test_delta_p_inf(self, capsys):
        assert main(["claims", "--n", "4", "--d", "3", "--p", "inf"]) == 0

    def test_verdicts(self, capsys):
        assert main(["claims", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ψ(Y) empty = True" in out

    def test_verdicts_low_d(self, capsys):
        assert main(["claims", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "need d >= 3" in out

    def test_claims_prints_three_sections(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        for header in ("tight process-count bounds for d=3, f=1:",
                       "random inputs: n=4, d=3, f=1, p=2.0, seed=0",
                       "impossibility constructions at d=3 (f=1):"):
            assert header in out

    def test_fuzz_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--algorithm", "k1", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 invariant violations" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_is_not_a_command(self, capsys):
        # the one benchmark is `python -m benchmarks.perf`, outside the CLI
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--algorithm", "bogus"])


class TestDstLoop:
    """The fuzz -> replay --shrink -> replay loop exposed by the CLI."""

    def find_token(self, capsys) -> str:
        code = main(["fuzz", "--algorithm", "algo", "--trials", "1",
                     "--seed", "3", "--inject", "split-brain"])
        assert code == 1  # violations found -> nonzero, CI-friendly
        out = capsys.readouterr().out
        assert "1 invariant violations" in out
        line = next(l for l in out.splitlines() if "replay --token" in l)
        return line.split("--token", 1)[1].strip()

    def test_fuzz_prints_replayable_token(self, capsys):
        token = self.find_token(capsys)
        assert token.startswith("dst1-")

    def test_replay_token_reproduces_violation(self, capsys):
        token = self.find_token(capsys)
        assert main(["replay", "--token", token]) == 1
        out = capsys.readouterr().out
        assert "violated agreement" in out
        assert "forensics:" in out

    def test_shrink_token_and_save_seed(self, tmp_path, capsys):
        token = self.find_token(capsys)
        seed_file = tmp_path / "seed.json"
        assert main(["replay", "--shrink", "--token", token,
                     "--out", str(seed_file)]) == 0
        out = capsys.readouterr().out
        assert "shrunk:" in out and seed_file.exists()
        # The saved seed replays with its recorded expectation.
        assert main(["replay", "--seed-file", str(seed_file)]) == 0
        assert "expectation holds" in capsys.readouterr().out

    def test_replay_writes_trace(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        token = self.find_token(capsys)
        trace = tmp_path / "replay.jsonl"
        main(["replay", "--token", token, "--trace-out", str(trace)])
        records = read_jsonl(trace)
        assert any(r["type"] == "span" for r in records)
        assert "forensics:" in capsys.readouterr().out

    def test_replay_clean_corpus_seed_exits_zero(self, capsys):
        from pathlib import Path

        seed = Path(__file__).parent / "corpus" / "exact-boundary-equivocate.json"
        assert main(["replay", "--seed-file", str(seed)]) == 0
        assert "expectation holds" in capsys.readouterr().out

    def test_token_and_seed_file_mutually_exclusive(self, capsys):
        assert main(["replay"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_bad_token_clean_error(self, capsys):
        assert main(["replay", "--token", "dst1-garbage!"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shrink_clean_scenario_clean_error(self, capsys):
        from repro.dst import Scenario, encode_token

        token = encode_token(Scenario(algorithm="algo", n=4, d=2, f=1, seed=11))
        assert main(["replay", "--shrink", "--token", token]) == 2
        assert "nothing to shrink" in capsys.readouterr().err

    def test_shrink_options_need_shrink(self, tmp_path, capsys):
        from repro.dst import Scenario, encode_token

        token = encode_token(Scenario(algorithm="algo", n=4, d=2, f=1, seed=11))
        out = tmp_path / "seed.json"
        assert main(["replay", "--token", token, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: only valid with --shrink: --out\n"
        )
        assert not out.exists()


class TestArgumentValidation:
    """Inconsistent sizes exit with a one-line error, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--n", "3"],  # n < 3f+1 at f=1
            ["explain", "--n", "6", "--f", "2"],
            ["explain", "--d", "0"],
            ["explain", "--f", "-1"],
            ["claims", "--n", "1", "--d", "2"],
            ["claims", "--n", "4", "--d", "2", "--f", "4"],
            ["fuzz", "--trials", "0"],
            # values the library rejects, and ranges the command checks
            pytest.param(["explain", "--algorithm", "nope"], id="explain-algorithm"),
            pytest.param(["explain", "--algorithm", "krelaxed", "--k", "0"],
                         id="explain-k"),
            pytest.param(["explain", "--pid", "99"], id="explain-pid"),
            pytest.param(["sweep", "--d", "0"], id="sweep-d"),
            pytest.param(["claims", "--d", "0"], id="claims-d0"),
            pytest.param(["claims", "--d", "1"], id="claims-d1"),
            pytest.param(["claims", "--f", "-1"], id="claims-f"),
        ],
    )
    def test_inconsistent_args_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_size_error_names_the_bound(self, capsys):
        main(["explain", "--n", "3"])
        assert "n >= 3f+1" in capsys.readouterr().err


class TestQuietVerbose:
    def test_quiet_explain_prints_only_the_rendering(self, capsys):
        assert main(["explain", "--quiet", "--d", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "causal cone" in out
        assert "run: ok=" not in out

    def test_verbose_echoes_events(self, capsys):
        assert main(["explain", "--verbose", "--d", "3", "--seed", "1"]) == 0
        err = capsys.readouterr().err
        assert "core.algo.decide" in err

    def test_quiet_and_verbose_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["claims", "--quiet", "--verbose"])


class TestTrace:
    """``--trace-out FILE`` on explain, fuzz, replay and sweep."""

    def test_trace_demo_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.analysis.profiling import metrics_record, summarize_spans
        from repro.obs import read_jsonl

        out = tmp_path / "demo.jsonl"
        assert main(["explain", "--algorithm", "algo", "--d", "3",
                     "--trace-out", str(out)]) == 0
        records = read_jsonl(out)  # validates structure
        names = {s.name for s in summarize_spans(records)}
        assert "sched.sync.run" in names
        assert "sched.sync.round" in names
        assert "geometry.delta_star" in names
        metrics = metrics_record(records)
        assert metrics["net.messages_sent"]["value"] > 0
        assert metrics["net.bytes_estimate"]["value"] > 0
        assert metrics["geometry.delta_star.seconds"]["count"] > 0
        assert "span summary" in capsys.readouterr().out

    def test_trace_async_run_has_step_spans(self, tmp_path, capsys):
        from repro.analysis.profiling import summarize_spans
        from repro.obs import read_jsonl

        out = tmp_path / "fuzz.jsonl"
        code = main(["fuzz", "--algorithm", "averaging", "--trials", "1",
                     "--trace-out", str(out)])
        assert code == 0
        names = {s.name for s in summarize_spans(read_jsonl(out))}
        assert "sched.async.run" in names
        assert "sched.async.step" in names

    def test_trace_flame_prints_tree(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        argv = ["explain", "--d", "3", "--trace-out", str(out)]
        assert main(argv) == 0
        assert "\n  sched.sync.run " not in capsys.readouterr().out
        assert main(argv + ["--verbose"]) == 0
        assert "\n  sched.sync.run " in capsys.readouterr().out

    def test_trace_propagates_inner_exit_code(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        out = tmp_path / "found.jsonl"
        assert main(["fuzz", "--trials", "1", "--seed", "3", "--inject",
                     "split-brain", "--trace-out", str(out)]) == 1
        assert read_jsonl(out)

    def test_trace_unwritable_out_path_clean_error(self, capsys):
        code = main(["explain", "--d", "3",
                     "--trace-out", "/nonexistent/dir/x.jsonl"])
        assert code == 2
        assert "error: cannot write" in capsys.readouterr().err


class TestSweep:
    """The parallel sweep engine exposed as `python -m repro sweep`."""

    TINY = ["sweep", "--algorithms", "algo", "--d", "2", "--f", "1",
            "--adversaries", "none,silent", "--reps", "2", "--seed", "7"]

    def test_basic_sweep_exits_zero(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "4 trials" in out
        assert "geometry cache" in out

    def test_compare_asserts_bit_identity(self, capsys):
        assert main(self.TINY + ["--compare", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "serial/parallel decisions identical: True" in out

    def test_out_writes_sweep_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        assert main(self.TINY + ["--out", str(path)]) == 0
        trials = json.loads(path.read_text())["trials"]
        assert len(trials) == 4
        assert all(t["ok"] for t in trials)

    def test_compare_out_writes_document(self, tmp_path, capsys):
        import json

        path = tmp_path / "cmp.json"
        assert main(self.TINY + ["--compare", "--workers", "2",
                                 "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["identical"] is True
        assert doc["decisions_digest"]["serial"] == \
            doc["decisions_digest"]["parallel"]

    def test_no_cache_flag(self, capsys):
        from repro.geometry import cache_enabled

        assert cache_enabled()
        assert main(self.TINY + ["--no-cache"]) == 0
        assert cache_enabled()  # off for the sweep only, then restored

    @pytest.mark.parametrize("extra", [[], ["--compare", "--workers", "2"]])
    def test_unwritable_out_path_clean_error(self, extra, capsys):
        code = main(self.TINY + extra + ["--out", "/nonexistent/dir/x.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot write" in err and "Traceback" not in err

    def test_bad_algorithm_exits_two(self, capsys):
        code = main(["sweep", "--algorithms", "bogus"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_bad_int_list_exits_two(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--d", "2,x"])


class TestExplainCLI:
    BASE = ["explain", "--algorithm", "algo", "--d", "2", "--f", "1",
            "--seed", "11"]

    def test_cone_text(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "causal cone" in out and "decide" in out

    def test_timeline_format(self, capsys):
        assert main(self.BASE + ["--format", "timeline"]) == 0
        assert "t=0" in capsys.readouterr().out

    def test_json_format_parses(self, capsys):
        import json as _json

        assert main(self.BASE + ["--format", "json", "--quiet"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["cone_size"] > 0

    def test_dot_format(self, capsys):
        assert main(self.BASE + ["--format", "dot", "--quiet"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_causal_out_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = tmp_path / "causal.jsonl"
        assert main(self.BASE + ["--causal-out", str(path)]) == 0
        records = read_jsonl(path)
        assert records[0]["type"] == "header"
        assert any(r["type"] == "causal" for r in records[1:])

    def test_probes_reported(self, capsys):
        assert main(self.BASE + ["--probes", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("validity", "agreement", "broadcast"):
            assert f"probe {name}: ok" in out


class TestReplayProbesCLI:
    def test_replay_with_probes_prints_reports(self, capsys):
        from repro.dst import encode_token
        from repro.dst.scenarios import Scenario

        token = encode_token(
            Scenario(algorithm="algo", n=6, d=2, f=1, seed=3,
                     inject="split-brain"))
        assert main(["replay", "--token", token, "--probes", "all"]) == 1
        out = capsys.readouterr().out
        assert "probe validity" in out
        assert "probe agreement" in out


class TestFleetCLI:
    """``repro fleet`` over a synthetic two-node trail directory."""

    def write_cluster(self, tmp_path, orphan=False):
        import json

        import numpy as np

        from repro.core import RunSpec
        from repro.obs.causal import CausalCollector

        seed, n, d, scale = 7, 2, 2, 1.0
        knobs = RunSpec(algorithm="averaging", n=n, d=d, f=0, seed=seed,
                        input_scale=scale, epsilon=0.05,
                        rounds=3).to_document()
        mean = np.random.default_rng(seed).normal(
            scale=scale, size=(n, d)
        ).mean(axis=0)
        c0, c1 = CausalCollector(n), CausalCollector(n)
        e0 = c0.on_send(0, 1, "bc:0", time=0, digest="aaaa", round=0)
        origin_eid, lamport, clock = c0.stamp(e0)
        c1.on_send(1, 0, "bc:1", time=0, digest="bbbb", round=0)
        c1.on_deliver_remote(
            1, 0, origin_eid, lamport, clock, src=0, tag="bc:0", time=1
        )
        c0.on_mark("decide", 0, time=2)
        c1.on_mark("decide", 1, time=2)
        for pid, coll in ((0, c0), (1, c1)):
            if orphan and pid == 0:
                continue  # sender trail missing: the deliver orphans
            records = [
                {"type": "header", "schema": 2,
                 "run_id": f"cli-n{pid}", "wall_time": 100.0},
                {"type": "event", "t": 0.0,
                 "name": "transport.node.topology", "level": "info",
                 "fields": {"pid": pid, "instance": "cli", "kind": "uds",
                            **knobs}},
                {"type": "event", "t": 1.0,
                 "name": "transport.node.decision", "level": "info",
                 "fields": {"pid": pid, "decided": True,
                            "decision": list(mean), "rounds": 3,
                            "completed": True, "delta_used": None}},
                {"type": "metrics", "metrics": {
                    "net.live.frames_sent": {"type": "counter", "value": 1},
                }},
            ]
            records[-1:-1] = coll.to_records()
            with open(tmp_path / f"trail-n{pid}.jsonl", "w") as fp:
                for rec in records:
                    fp.write(json.dumps(rec) + "\n")
        return str(tmp_path)

    def test_stitch_writes_mergeable_graph(self, tmp_path, capsys):
        from repro.obs.export import read_jsonl

        trail_dir = self.write_cluster(tmp_path)
        out = tmp_path / "stitched.jsonl"
        code = main(["fleet", "stitch", "--trail-dir", trail_dir,
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "stitched 2 trails" in stdout
        assert "0 orphan delivers" in stdout
        records = read_jsonl(str(out))
        assert records[0]["type"] == "header"
        assert sum(1 for r in records if r.get("type") == "causal") == 5

    def test_stitch_incomplete_exits_nonzero(self, tmp_path, capsys):
        trail_dir = self.write_cluster(tmp_path, orphan=True)
        assert main(["fleet", "stitch", "--trail-dir", trail_dir]) == 1
        err = capsys.readouterr().err
        assert "INCOMPLETE" in err

    def test_probes_clean_and_injected(self, tmp_path, capsys):
        import json

        trail_dir = self.write_cluster(tmp_path)
        assert main(["fleet", "probes", "--trail-dir", trail_dir]) == 0
        out = capsys.readouterr().out
        assert "probe validity: ok" in out
        assert "probe agreement: ok" in out
        assert "-> OK" in out

        payload_path = tmp_path / "verdict.json"
        code = main(["fleet", "probes", "--trail-dir", trail_dir,
                     "--inject", "split-brain", "--out", str(payload_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "probe validity: VIOLATED" in out
        payload = json.loads(payload_path.read_text())
        assert payload["ok"] is False
        assert payload["context"]["inject"] == "split-brain"
        assert payload["stitch"]["complete"] is True

    def test_explain_renders_cross_node_cone(self, tmp_path, capsys):
        trail_dir = self.write_cluster(tmp_path)
        assert main(["fleet", "explain", "--trail-dir", trail_dir,
                     "--pid", "1"]) == 0
        out = capsys.readouterr().out
        assert "deliver" in out and "origin=[0, 0]" in out

    def test_metrics_aggregates_to_prometheus_text(self, tmp_path, capsys):
        from repro.obs.prom import parse_prometheus_text

        trail_dir = self.write_cluster(tmp_path)
        assert main(["fleet", "metrics", "--trail-dir", trail_dir]) == 0
        body = capsys.readouterr().out
        samples = {
            name: value for name, _, value in parse_prometheus_text(body)
        }
        assert samples["repro_net_live_frames_sent"] == 2.0  # summed

    def test_trail_files_after_options(self, tmp_path, capsys):
        import os

        trail_dir = self.write_cluster(tmp_path)
        files = sorted(os.path.join(trail_dir, name)
                       for name in os.listdir(trail_dir))
        out = tmp_path / "stitched.jsonl"
        assert main(["fleet", "stitch", "--out", str(out), *files]) == 0
        assert "stitched 2 trails" in capsys.readouterr().out
        assert main(["fleet", "explain", "--pid", "1", files[0],
                     "--format", "explain", files[1]]) == 0
        assert "origin=[0, 0]" in capsys.readouterr().out

    def test_no_trails_is_a_usage_error(self, capsys):
        assert main(["fleet", "stitch"]) == 2
        assert "fleet needs per-node trails" in capsys.readouterr().err
