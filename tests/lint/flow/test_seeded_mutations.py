"""Seeded defects in the *shipped* tree: every rule must catch its seed.

The sources are read once, one defect is seeded in memory (the linter
takes ``(path, source)`` pairs), and the whole tree is re-linted — no
disk copies.  Each row of :data:`SEEDS` names the file, a unique anchor,
its replacement, and the exact set of rules the mutated tree trips.  The
unmutated tree is clean, so every finding is attributable to the seed.
The table is the linter's catch set: a refactor of the engine must keep
every row passing unchanged.
"""

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_sources
from repro.lint.engine import iter_python_files

REPO = Path(__file__).resolve().parents[3]
SRC = REPO / "src" / "repro"

#: (id, file, anchor, replacement, rules the mutated tree trips).  The
#: TNT rows keep the ids of the taint rules they were written for; the
#: timer they plant is DET002's in core/ and system/ now.
SEEDS = [
    (
        "DET001-stdlib-random",
        "core/runner.py",
        "from dataclasses import dataclass\n",
        "import random\nfrom dataclasses import dataclass\n",
        {"DET001"},
    ),
    (
        "DET002-wall-clock",
        "core/averaging.py",
        "        value = tuple(float(x) for x in self.input_value)\n",
        "        import time\n"
        "        started = time.time()\n"
        "        value = tuple(float(x) for x in self.input_value)\n",
        {"DET002"},
    ),
    (
        "DET003-unseeded-rng",
        "core/averaging.py",
        "        value = tuple(float(x) for x in self.input_value)\n",
        "        jitter = np.random.default_rng()\n"
        "        value = tuple(float(x) for x in self.input_value)\n",
        {"DET003"},
    ),
    (
        "DET004-set-order",
        "core/averaging.py",
        "                ready = self._ready.get(t, ())\n",
        "                ready = list(set(self._ready.get(t, ())))\n",
        {"DET004"},
    ),
    (
        "FLT001-float-eq",
        "geometry/intersections.py",
        "    if near_zero(delta):\n        return gamma_point(S, f)\n",
        "    if delta == 0.0:\n        return gamma_point(S, f)\n",
        {"FLT001"},
    ),
    (
        "HYG001-module-state",
        "system/broadcast/bracha.py",
        "        self._seen[phase] += 1\n",
        "        self._seen[phase] += 1\n        _obs.last_src = src\n",
        {"HYG001"},
    ),
    (
        "HYG002-store-and-forward",
        "system/broadcast/bracha.py",
        "                out = [(ECHO, value)]\n",
        "                self._init_value = value\n"
        "                return [(ECHO, value)]\n",
        {"HYG002"},
    ),
    (
        "OBS001-metric-name",
        "system/broadcast/bracha.py",
        '            _obs.inc("bcast.bracha.delivered")\n',
        '            _obs.inc("BrachaDelivered")\n',
        {"OBS001"},
    ),
    (
        "RES001-core-bound",
        "core/exact_bvc.py",
        "{tverberg_min_n(d, f)} (Theorem 1)",
        "{(d + 1) * f + 1} (Theorem 1)",
        {"RES001"},
    ),
    (
        "RES001-system-quorum",
        "system/broadcast/bracha.py",
        "self.ready_threshold = bracha_ready_quorum(f)",
        "self.ready_threshold = 2 * f + 1",
        {"RES001", "QUO002"},
    ),
    (
        "QUO002-threshold",
        "system/broadcast/bracha.py",
        "self.echo_threshold = bracha_echo_quorum(n, f)",
        "self.echo_threshold = (n + f) // 2 + 1",
        {"QUO002"},
    ),
    (
        "TNT001-timer-decision",
        "core/averaging.py",
        "            ctx.decide(self.my_values[self.num_rounds].copy())\n",
        "            import time\n"
        "            ctx.decide(self.my_values[self.num_rounds] * time.perf_counter())\n",
        {"DET002"},
    ),
    (
        "TNT002-clock-payload",
        "core/broadcast_all.py",
        'ctx.atomic_broadcast("abc", self._own_value, round=0)',
        "import time\n"
        "            stamped = (self._own_value, time.time())\n"
        '            ctx.atomic_broadcast("abc", stamped, round=0)',
        {"DET002"},
    ),
    (
        "TNT003-timer-cache-key",
        "core/averaging.py",
        "        key = (self.mode, self.delta, self.p, self.f, *_memo_key(rows))\n",
        "        import time\n"
        "        key = (self.mode, self.delta, self.p, self.f, *_memo_key(rows), "
        "time.perf_counter())\n",
        {"DET002"},
    ),
    (
        "XPT001-mutable-global",
        "core/averaging.py",
        "_SELECT_CACHE_MAX = 4096\n\n\n"
        "def rb_tag(sender: int, round: int) -> str:\n"
        '    """Network tag of the reliable-broadcast instance ``(sender, round)``."""\n',
        "_SELECT_CACHE_MAX = 4096\n_OPENED: list = []\n\n\n"
        "def rb_tag(sender: int, round: int) -> str:\n"
        '    """Network tag of the reliable-broadcast instance ``(sender, round)``."""\n'
        "    _OPENED.append((sender, round))\n",
        {"XPT001"},
    ),
    (
        "XPT003-non-seam-import",
        "core/runner.py",
        "from ..system.scheduler import RunResult",
        "from ..system.scheduler import _make_contexts\n"
        "from ..system.scheduler import RunResult",
        {"XPT003"},
    ),
    (
        "FLOW-renamed-arm",
        "core/averaging.py",
        'parts[0] != "rva"',
        'parts[0] != "zzz"',
        {"FLOW001", "FLOW002"},
    ),
    (
        "FLOW001-unhandled-kind",
        "core/lemma10.py",
        '            ctx.broadcast("val", tuple(map(float, self.input_value)), round=0)\n',
        '            ctx.broadcast("hello", (), round=0)\n'
        '            ctx.broadcast("val", tuple(map(float, self.input_value)), round=0)\n',
        {"FLOW001"},
    ),
    (
        "FLOW002-dead-arm",
        "core/lemma10.py",
        '                if tag == "val" and src != ctx.pid:\n',
        '                if tag == "value":\n'
        "                    continue\n"
        '                if tag == "val" and src != ctx.pid:\n',
        {"FLOW002"},
    ),
]


@pytest.fixture(scope="module")
def shipped_sources():
    return {
        path: Path(path).read_text()
        for path in iter_python_files([str(SRC)])
    }


def _mutate(sources, filename, old, new):
    (path,) = [p for p in sources if p.endswith("/" + filename)]
    source = sources[path]
    assert source.count(old) == 1, f"anchor not unique in {filename}: {old!r}"
    return [
        (p, source.replace(old, new) if p == path else s)
        for p, s in sources.items()
    ]


def test_shipped_tree_flow_clean(shipped_sources):
    findings = lint_sources(list(shipped_sources.items()))
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_every_rule_has_a_seed():
    seeded = set().union(*(rules for *_, rules in SEEDS))
    assert {r.id for r in all_rules()} <= seeded


def test_every_rule_is_alone_on_a_seed():
    # A rule that only ever fires next to another one buys nothing the
    # other does not: each rule must be the whole catch of some seed.
    alone = {next(iter(rules)) for *_, rules in SEEDS if len(rules) == 1}
    assert {r.id for r in all_rules()} - alone == set()


@pytest.mark.parametrize(
    "filename,old,new,expected",
    [row[1:] for row in SEEDS],
    ids=[row[0] for row in SEEDS],
)
def test_seeded_defect_is_caught(shipped_sources, filename, old, new, expected):
    findings = lint_sources(_mutate(shipped_sources, filename, old, new))
    assert {f.rule for f in findings} == expected, "\n".join(
        f.format() for f in findings
    )
    assert all(f.path.endswith("/" + filename) for f in findings)
