"""Experiment E-SCALE — substrate scaling in n and d.

The paper's motivation: "the number of processes necessary becomes large
when the vector dimension is large."  This bench quantifies the cost side
of that story in our implementation: how the geometric kernels (hull
distance, Γ feasibility LP, δ* optimisation) and the broadcast layer
scale with n and d — the practical reason relaxations that lower n
matter.
"""

from __future__ import annotations

import time


from repro.geometry.distance import nearest_point_l2
from repro.geometry.intersections import f_subsets, gamma_point
from repro.geometry.minimax import delta_star

from ._util import report, rng_for, run_spec


def _time(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestScaling:
    def test_dimension_scaling_table(self):
        """Wall-clock of each kernel vs d (f=1, n=d+1) — and the subset
        blow-up C(n,f) that drives the f >= 2 cost."""
        rows = []
        for d in (3, 5, 7, 9):
            rng = rng_for(f"scale-{d}")
            S = rng.normal(size=(d + 1, d))
            x = rng.normal(size=d) * 3
            t_proj = _time(lambda: nearest_point_l2(S, x))
            t_gamma = _time(lambda: gamma_point(S, 1))
            t_delta = _time(lambda: delta_star(S, 1))
            rows.append([d, d + 1, len(f_subsets(d + 1, 1)),
                         t_proj * 1e3, t_gamma * 1e3, t_delta * 1e3])
        report(
            "Substrate scaling vs dimension (times in ms; f=1, n=d+1)",
            ["d", "n", "#subsets", "hull-proj ms", "Gamma-LP ms", "delta* ms"],
            rows,
        )

    def test_fault_scaling_table(self):
        """Subset count C(n,f) — the combinatorial price of Γ/δ* as f
        grows (why the paper's n-reduction matters doubly for f >= 2)."""
        rows = []
        for n, f in [(4, 1), (7, 2), (10, 3), (13, 4)]:
            subsets = len(f_subsets(n, f))
            rng = rng_for(f"scale-f-{n}-{f}")
            S = rng.normal(size=(n, 3))
            t_gamma = _time(lambda: gamma_point(S, f))
            rows.append([n, f, subsets, t_gamma * 1e3])
        report(
            "Gamma-LP cost vs fault budget (d=3; times in ms)",
            ["n", "f", "C(n,f) subsets", "Gamma-LP ms"],
            rows,
        )

    def test_broadcast_message_scaling(self):
        """OM(f) message growth vs Dolev–Strong — the transport
        trade-off documented in DESIGN.md."""
        from repro.system.adversary import Adversary

        rows = []
        for n, f, transport in [(5, 1, "eig"), (7, 2, "eig"),
                                (5, 1, "dolev-strong"), (7, 2, "dolev-strong")]:
            rng = rng_for(f"scale-bc-{n}-{f}-{transport}")
            inputs = rng.normal(size=(n, 2))
            out = run_spec(
                algorithm="exact", inputs=inputs, f=f,
                adversary=Adversary(faulty=[n - 1]), broadcast=transport,
            )
            rows.append([transport, n, f, out.result.stats.messages_sent,
                         "OK" if out.ok else "FAILED"])
            assert out.ok
        report(
            "Broadcast transport scaling (full exact-BVC runs)",
            ["transport", "n", "f", "messages", "verdict"],
            rows,
        )
