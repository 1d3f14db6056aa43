"""repro — Relaxed Byzantine Vector Consensus.

A complete reproduction of *Relaxed Byzantine Vector Consensus* (Zhuolun
Xiang & Nitin H. Vaidya; brief announcement at SPAA 2016, full version
arXiv:1601.08067): the k-relaxed and (δ,p)-relaxed consensus problems,
the paper's algorithms (ALGO, Relaxed Verified Averaging), the baselines
they modify (exact BVC, verified averaging, scalar consensus, Byzantine /
reliable broadcast), the full geometric substrate (relaxed hulls, the
Γ/Ψ intersection operators, the certified δ* min-max solver, simplex
in-sphere geometry, Tverberg machinery), and a message-passing simulator
with pluggable Byzantine adversaries.

Quickstart
----------
>>> import numpy as np
>>> from repro import RunSpec, run
>>> from repro.system import Adversary
>>> rng = np.random.default_rng(0)
>>> inputs = rng.normal(size=(4, 3))          # n = 4 processes, d = 3
>>> out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
...                   adversary=Adversary(faulty=[3])))
>>> out.ok, out.delta_used is not None
(True, True)

Subpackages
-----------
``repro.geometry``  — convex-geometric substrate
``repro.system``    — message-passing simulator + broadcast protocols
``repro.core``      — the consensus problems, algorithms and bounds
``repro.analysis``  — workloads, metrics, table rendering
"""

from . import analysis, core, geometry, system
from .core import ConsensusOutcome, RunSpec, run
from .core import bounds
from .geometry import (
    DeltaPHull,
    KRelaxedHull,
    delta_star,
    gamma_point,
    inradius,
    psi_k_point,
    tverberg_partition,
    tverberg_point,
)

__version__ = "1.0.0"

__all__ = [
    "ConsensusOutcome",
    "DeltaPHull",
    "KRelaxedHull",
    "RunSpec",
    "__version__",
    "analysis",
    "bounds",
    "core",
    "delta_star",
    "gamma_point",
    "geometry",
    "inradius",
    "psi_k_point",
    "run",
    "system",
    "tverberg_partition",
    "tverberg_point",
]
