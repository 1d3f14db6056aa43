"""Per-family rule behaviour: positives, negatives, scope edges."""

from repro.lint import lint_sources


def rules_in(src: str, logical: str = "core/x.py", **kw) -> list[str]:
    return [f.rule for f in lint_sources([(f"src/repro/{logical}", src)], **kw)]


# -- determinism (DET00x) ----------------------------------------------------

class TestDeterminism:
    def test_stdlib_random_flagged_in_core_not_analysis(self):
        src = "import random\n"
        assert rules_in(src, "core/x.py") == ["DET001"]
        assert rules_in(src, "analysis/x.py") == []

    def test_wall_clock_flagged_perf_counter_allowed(self):
        src = "import time\nt0 = time.perf_counter()\nt1 = time.time()\n"
        findings = lint_sources([("src/repro/exec/x.py", src)])
        assert [(f.rule, f.line) for f in findings] == [("DET002", 3)]

    def test_timers_flagged_in_core_and_system(self):
        src = (
            "import time\nfrom time import monotonic\n"
            "a = time.perf_counter()\nb = time.perf_counter_ns()\n"
            "c = time.monotonic_ns()\nd = monotonic()\n"
        )
        for logical in ("core/x.py", "system/transport/x.py"):
            assert rules_in(src, logical) == ["DET002"] * 4
        assert rules_in(src, "geometry/x.py") == []
        assert rules_in(src, "dst/x.py") == []

    def test_datetime_now_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert "DET002" in rules_in(src, "dst/x.py")

    def test_unseeded_default_rng_flagged_seeded_ok(self):
        assert rules_in(
            "import numpy as np\nrng = np.random.default_rng()\n",
            "benchmarks/x.py",
        ) == ["DET003"]
        assert rules_in(
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "benchmarks/x.py",
        ) == []
        assert rules_in(
            "import numpy as np\nrng = np.random.default_rng(seed=7)\n",
            "benchmarks/x.py",
        ) == []

    def test_legacy_global_np_random_draw_flagged(self):
        src = "import numpy as np\nx = np.random.random(3)\n"
        assert rules_in(src, "examples/x.py") == ["DET003"]

    def test_set_iteration_flagged_sorted_ok(self):
        assert rules_in("for x in {1, 2}:\n    pass\n") == ["DET004"]
        assert rules_in("for x in sorted({1, 2}):\n    pass\n") == []

    def test_set_comprehension_generator_flagged(self):
        assert rules_in("ys = [y for y in {1, 2}]\n") == ["DET004"]


# -- float safety (FLT001) ---------------------------------------------------

class TestFloatSafety:
    def test_float_equality_flagged_in_geometry_and_core(self):
        src = "ok = delta == 0.0\n"
        assert rules_in(src, "geometry/x.py") == ["FLT001"]
        assert rules_in(src, "core/x.py") == ["FLT001"]
        assert rules_in(src, "system/x.py") == []

    def test_not_equal_flagged_too(self):
        assert rules_in("ok = p != 2.0\n", "geometry/x.py") == ["FLT001"]

    def test_integer_equality_not_flagged(self):
        assert rules_in("ok = k == 2\n", "geometry/x.py") == []

    def test_tolerance_helpers_are_clean(self):
        src = (
            "from repro.geometry.tolerance import near_zero, norm_order_is\n"
            "a = near_zero(delta)\n"
            "b = norm_order_is(p, 1.0)\n"
        )
        assert rules_in(src, "geometry/x.py") == []


# -- resilience bounds (RES001) ----------------------------------------------

class TestResilienceBounds:
    def test_tverberg_shape_flagged(self):
        assert rules_in("bad = n < (d + 1) * f + 1\n") == ["RES001"]

    def test_coefficient_times_f_flagged(self):
        assert rules_in("bad = n <= 3 * f\n") == ["RES001"]

    def test_round_count_f_plus_one_allowed(self):
        # f+1 rounds is protocol structure, not a resilience precondition.
        assert rules_in("rounds = f + 1\n") == []

    def test_bounds_module_itself_exempt(self):
        src = "def tverberg_min_n(d, f):\n    return (d + 1) * f + 1\n"
        assert rules_in(src, "core/bounds.py") == []

    def test_self_attribute_f_flagged(self):
        src = "need = (self.d + 1) * self.f + 1\n"
        assert rules_in(src) == ["RES001"]

    def test_not_flagged_outside_core(self):
        assert rules_in("bad = n < (d + 1) * f + 1\n", "geometry/x.py") == []


# -- handler hygiene (HYG00x) ------------------------------------------------

_HANDLER = """
STATE = {{}}


class P:
    def __init__(self):
        self.store = {{}}
        self.out = []

    def on_message(self, src, payload):
{body}
"""


def handler(body: str) -> str:
    indented = "\n".join("        " + line for line in body.splitlines())
    return _HANDLER.format(body=indented)


class TestHandlerHygiene:
    def test_module_state_write_flagged(self):
        src = handler("STATE[src] = payload")
        assert "HYG001" in rules_in(src, "system/broadcast/x.py")

    def test_global_statement_flagged(self):
        src = handler("global STATE\nSTATE = {}")
        assert "HYG001" in rules_in(src, "system/broadcast/x.py")

    def test_instance_state_write_ok(self):
        src = handler("self.store[src] = list(payload)\nreturn None")
        assert rules_in(src, "system/broadcast/x.py") == []

    def test_retain_and_forward_flagged(self):
        src = handler("self.store[src] = payload\nreturn [payload]")
        assert rules_in(src, "system/broadcast/x.py") == ["HYG002"]

    def test_copy_sanitizes_taint(self):
        src = handler(
            "import copy\n"
            "self.store[src] = copy.deepcopy(payload)\n"
            "return [payload]"
        )
        assert rules_in(src, "system/broadcast/x.py") == []

    def test_store_without_forward_ok(self):
        src = handler("self.store[src] = payload\nreturn []")
        assert rules_in(src, "system/broadcast/x.py") == []

    def test_non_handler_method_not_checked(self):
        src = (
            "STATE = {}\n"
            "class P:\n"
            "    def helper(self, payload):\n"
            "        STATE[0] = payload\n"
        )
        assert rules_in(src, "system/broadcast/x.py") == []

    def test_scope_excludes_other_system_modules(self):
        src = handler("STATE[src] = payload")
        assert rules_in(src, "system/network.py") == []


# -- observability naming (OBS001) -------------------------------------------

class TestObservabilityNaming:
    def test_undotted_name_flagged(self):
        src = 'from repro.obs import metrics\nmetrics.inc("MessagesSent")\n'
        assert rules_in(src, "system/x.py") == ["OBS001"]

    def test_uppercase_segment_flagged(self):
        src = 'from repro.obs import trace_event\ntrace_event("sched.Async.step")\n'
        assert rules_in(src, "obs/x.py") == ["OBS001"]

    def test_histogram_requires_unit_suffix(self):
        bad = 'from repro.obs import metrics\nmetrics.observe("sched.round_latency", 0.1)\n'
        ok = 'from repro.obs import metrics\nmetrics.observe("sched.round.seconds", 0.1)\n'
        assert rules_in(bad, "system/x.py") == ["OBS001"]
        assert rules_in(ok, "system/x.py") == []

    def test_microsecond_suffix_accepted(self):
        # _us is a unit suffix: link-latency histograms like
        # net.live.queue_wait_us must pass without a dotted unit segment.
        ok = (
            "from repro.obs import metrics\n"
            'metrics.observe("net.live.queue_wait_us", 42.0)\n'
        )
        assert rules_in(ok, "system/x.py") == []

    def test_fstring_and_variable_names_skipped(self):
        src = (
            "from repro.obs import metrics\n"
            'metrics.inc(f"probe.{name}.violations")\n'
            "metrics.inc(name)\n"
        )
        assert rules_in(src, "obs/x.py") == []

    def test_conforming_names_clean(self):
        src = (
            "from repro.obs import metrics, trace_span\n"
            'metrics.inc("bcast.bracha.echo")\n'
            'with trace_span("sched.sync.round"):\n'
            "    pass\n"
        )
        assert rules_in(src, "system/x.py") == []

    def test_span_name_must_be_dotted(self):
        bad = 'from repro.obs import trace_span\nwith trace_span("RoundSpan"):\n    pass\n'
        assert rules_in(bad, "system/x.py") == ["OBS001"]

    def test_tests_are_out_of_scope(self):
        src = 'from repro.obs import metrics\nmetrics.inc("msgs")\n'
        assert rules_in(src, "tests/obs/x.py") == []
