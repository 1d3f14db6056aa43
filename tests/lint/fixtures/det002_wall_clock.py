# repro: lint-as system/fixture_det002.py
"""Fixture: wall-clock read in a deterministic layer -> DET002.

In ``system/`` (and ``core/``) the timer is a finding too: protocol code
times nothing, so both calls below are DET002.
"""

import time


def stamp() -> float:
    _ = time.perf_counter()
    return time.time()
