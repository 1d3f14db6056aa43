"""Topology documents: one knob table, written and read through it."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.runspec import RUN_KNOBS, RunSpec
from repro.exec.live_launch import (
    build_topology,
    load_topology,
    write_topology,
)
from repro.system.transport.live import NodeAddress

from .topology_cases import MALFORMED, SPEC, good_document, pinned_nodes


@pytest.mark.parametrize("name", sorted(MALFORMED))
class TestMalformedDocuments:
    def _write(self, tmp_path, name) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MALFORMED[name](good_document())))
        return str(path)

    def test_load_raises_value_error(self, tmp_path, name):
        with pytest.raises(ValueError):
            load_topology(self._write(tmp_path, name))

    def test_node_command_reports_one_line(self, tmp_path, name, capsys):
        # Regression: a nodes entry without "id" ended `repro node` in a
        # KeyError traceback, `"n": null` in a TypeError one.
        code = main(["node", "--topology", self._write(tmp_path, name),
                     "--id", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot load topology ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestRoundTrip:
    def test_spec_survives_the_file(self, tmp_path):
        spec = RunSpec(
            algorithm="iterative", n=5, d=2, f=1, seed=7, epsilon=0.1,
            alpha=0.25, broadcast="atomic", p=float("inf"), input_scale=1.5,
        )
        nodes = [NodeAddress(pid, "tcp", port=40000 + pid) for pid in range(5)]
        doc = build_topology(spec, nodes, kind="tcp", instance="custom")
        path = str(tmp_path / "topology.json")
        write_topology(path, doc)
        loaded = load_topology(path)
        assert loaded == doc
        back = RunSpec.from_document(
            loaded, envelope=("schema", "instance", "kind", "nodes")
        )
        # What build_topology resolves, every node must read back.
        assert (back.rounds, back.max_rounds) == (30, 32)
        for name in RUN_KNOBS:
            if name not in ("rounds", "max_rounds"):
                assert getattr(back, name) == getattr(spec, name), name
        assert back.resolved_inputs().tobytes() == spec.resolved_inputs().tobytes()

    def test_document_is_exactly_the_knob_table_plus_the_envelope(self):
        assert set(good_document()) == set(RUN_KNOBS) | {
            "schema", "instance", "kind", "nodes",
        }

    def test_uncarried_fields_are_refused_not_dropped(self):
        explicit = replace(SPEC, inputs=np.zeros((4, 2)), n=None, d=None)
        with pytest.raises(ValueError, match="inputs"):
            build_topology(explicit, pinned_nodes(), kind="uds")


#: ``write_topology`` of the same run at the parent commit (where it was
#: ``build_topology("averaging", 4, 2, 1, nodes, kind="uds", seed=2016)``).
PINNED_FILE = """{
  "algorithm": "averaging",
  "alpha": 0.5,
  "broadcast": "eig",
  "d": 2,
  "delta": 0.0,
  "epsilon": 0.05,
  "f": 1,
  "input_scale": 3.0,
  "instance": "launch-averaging-uds-n4-s2016",
  "k": 1,
  "kind": "uds",
  "max_rounds": 64,
  "max_steps": 2000000,
  "mode": "optimal",
  "n": 4,
  "nodes": [
%s
  ],
  "p": 2.0,
  "rounds": 7,
  "schema": "repro.transport.topology/1",
  "seed": 2016
}
""" % ",\n".join(
    """    {
      "host": "127.0.0.1",
      "id": %d,
      "kind": "uds",
      "path": "/tmp/pinned/n%d.sock",
      "port": 0
    }""" % (pid, pid)
    for pid in range(4)
)


def test_file_format_did_not_move(tmp_path):
    path = tmp_path / "topology.json"
    write_topology(str(path), good_document())
    assert path.read_text() == PINNED_FILE
