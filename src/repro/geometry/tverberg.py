"""Radon and Tverberg partitions (paper §8).

Tverberg's theorem: any multiset of at least ``(d+1)f + 1`` points in
``R^d`` can be partitioned into ``f + 1`` nonempty parts whose convex hulls
share a common point.  This is exactly why ``Γ(Y)`` is nonempty — hence why
exact BVC is solvable — when ``n ≥ (d+1)f + 1``: whichever ``f`` points an
adversary contributed, a Tverberg point is in the hull of every size
``n - f`` subset.

The paper's §8 observes that the theorem (and the tightness of the bound)
survives replacing ``H`` with the relaxed hulls ``H_k`` / ``H_{(δ,p)}``;
:func:`partition_intersection_nonempty` lets the benchmarks check all three
variants with one code path.

Implementation notes
--------------------
* Radon partitions (``f = 1``, ``d + 2`` points) come from a null vector of
  the homogenised point matrix — exact linear algebra.
* General Tverberg partitions are found by exhaustive search over set
  partitions into ``f + 1`` nonempty parts (checking each candidate with
  the joint-LP hull intersection).  Finding Tverberg partitions efficiently
  is a famous open problem; exhaustive search is the honest choice at the
  paper's scales (``n ≤ 13``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ..obs import metrics as _obs
from ..obs.tracer import trace_span
from .cache import cached_kernel
from .intersections import HullSystem, intersection_point
from .projection import enumerate_coordinate_subsets, project_multiset

__all__ = [
    "RadonPartition",
    "radon_partition",
    "TverbergPartition",
    "iter_set_partitions",
    "tverberg_partition",
    "tverberg_point",
    "has_tverberg_partition",
    "partition_intersection_nonempty",
]

PNorm = Union[float, int]


@dataclass(frozen=True)
class RadonPartition:
    """A Radon partition: two index sets with intersecting hulls."""

    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    point: np.ndarray


def radon_partition(points: np.ndarray, tol: float = 1e-12) -> RadonPartition:
    """Radon's theorem, constructively: split ``d + 2`` points in ``R^d``.

    Finds coefficients ``α`` with ``Σ α_i x_i = 0`` and ``Σ α_i = 0`` (a
    null vector of the homogenised matrix); the positive and negative
    supports give the two parts, and the common point is the matching
    convex combination.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    if m < d + 2:
        raise ValueError(f"Radon partition needs at least d+2={d + 2} points, got {m}")
    _obs.inc("geometry.radon.calls")
    M = np.vstack([pts.T, np.ones(m)])  # (d+1, m)
    _, s, vt = np.linalg.svd(M)
    alpha = vt[-1]
    if s.size >= m and s[m - 1] > tol * max(1.0, s[0]):  # pragma: no cover
        raise ValueError("points admit no Radon coefficients (numerically)")
    pos = np.flatnonzero(alpha > tol)
    neg = np.flatnonzero(alpha < -tol)
    if pos.size == 0 or neg.size == 0:  # pragma: no cover - null vec has both signs
        raise ValueError("degenerate Radon coefficients")
    wa = alpha[pos] / alpha[pos].sum()
    point = wa @ pts[pos]
    return RadonPartition(tuple(int(i) for i in pos), tuple(int(i) for i in neg), point)


@dataclass(frozen=True)
class TverbergPartition:
    """A Tverberg partition with a common point of the part hulls."""

    parts: tuple[tuple[int, ...], ...]
    point: np.ndarray


def iter_set_partitions(n: int, r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of ``range(n)`` into exactly ``r`` nonempty parts.

    Canonical (restricted-growth) enumeration: element 0 is always in part
    0, and element ``i`` may open at most one new part — so each partition
    is produced exactly once, without the ``r!`` relabelling blowup.
    """
    if r < 1 or r > n:
        return
    assignment = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            if used == r:
                parts: list[list[int]] = [[] for _ in range(r)]
                for idx, a in enumerate(assignment):
                    parts[a].append(idx)
                yield tuple(tuple(p) for p in parts)
            return
        # prune: remaining elements must be able to fill all r parts
        if used + (n - i) < r:
            return
        for a in range(min(used + 1, r)):
            assignment[i] = a
            yield from rec(i + 1, max(used, a + 1))

    yield from rec(0, 0)


def partition_intersection_nonempty(
    points: np.ndarray,
    parts: Sequence[Sequence[int]],
    hull_kind: str = "convex",
    *,
    k: Optional[int] = None,
    delta: float = 0.0,
    p: PNorm = 2,
) -> Optional[np.ndarray]:
    """Common point of the part hulls under a chosen hull notion, or None.

    ``hull_kind``:

    * ``"convex"`` — ordinary convex hulls, exact joint LP;
    * ``"k-relaxed"`` — ``H_k`` hulls (requires ``k``); the convex-hull
      point is a witness when there is one (``H ⊆ H_k``, §8), otherwise
      one joint LP over every part's cylinders, as :func:`repro.geometry
      .intersections.psi_k_point` encodes them;
    * ``"delta-p"`` — ``H_{(δ,p)}`` hulls; the same convex witness,
      otherwise one joint :class:`HullSystem` LP, which refuses ``δ > 0``
      at ``p`` outside ``{1, ∞}`` with a ``ValueError``.
    """
    if hull_kind not in ("convex", "k-relaxed", "delta-p"):
        raise ValueError(f"unknown hull_kind {hull_kind!r}")
    if hull_kind == "k-relaxed" and k is None:
        raise ValueError("k-relaxed check requires k")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    groups = [pts[list(part)] for part in parts]
    if any(g.shape[0] == 0 for g in groups):
        raise ValueError("all parts must be nonempty")
    base = intersection_point(groups)
    if hull_kind == "convex" or base is not None:
        return base  # H(Y_l) ⊆ H_k(Y_l) and ⊆ H_{(δ,p)}(Y_l): a witness (§8)
    d = pts.shape[1]
    sys_ = HullSystem(d)
    for g in groups:
        if hull_kind == "delta-p":
            sys_.add_hull_constraint(g, delta=delta, p=p)
        else:
            for D in enumerate_coordinate_subsets(d, k):
                sys_.add_hull_constraint(project_multiset(g, D), coords=list(D))
    return sys_.central_point()


@cached_kernel("tverberg_partition")
def _tverberg_search(pts: np.ndarray, r: int) -> Optional[TverbergPartition]:
    """Exhaustive canonical-order search (memoised)."""
    reg = _obs.current_registry()
    for parts in iter_set_partitions(pts.shape[0], r):
        reg.inc("geometry.tverberg.partitions_checked")
        point = partition_intersection_nonempty(pts, parts)
        if point is not None:
            return TverbergPartition(parts, point)
    return None


def tverberg_partition(points: np.ndarray, r: int) -> Optional[TverbergPartition]:
    """First convex-hull Tverberg partition of ``points`` into ``r`` parts,
    or None.

    Exhaustive search in canonical partition order; deterministic for a
    given input.  The search itself is memoised per process (the call
    counter and wall-time histogram stay live per caller).  For relaxed
    hulls, ask :func:`partition_intersection_nonempty` about a partition.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    reg = _obs.current_registry()
    reg.inc("geometry.tverberg.calls")
    t0 = time.perf_counter()
    try:
        with trace_span("geometry.tverberg"):
            return _tverberg_search(pts, r)
    finally:
        reg.observe("geometry.tverberg.seconds", time.perf_counter() - t0)


def has_tverberg_partition(points: np.ndarray, r: int) -> bool:
    """True iff some partition into ``r`` parts has intersecting hulls."""
    return tverberg_partition(points, r) is not None


def tverberg_point(points: np.ndarray, f: int) -> np.ndarray:
    """A Tverberg point for ``f + 1`` parts; guaranteed to exist when
    ``len(points) >= (d+1)f + 1``.

    Raises
    ------
    ValueError
        If no partition exists (only possible below the Tverberg bound).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    result = tverberg_partition(pts, f + 1)
    if result is None:
        if n >= (d + 1) * f + 1:  # pragma: no cover - contradicts the theorem
            raise RuntimeError("Tverberg's theorem violated — numerical failure")
        raise ValueError(
            f"no Tverberg partition: n={n} < (d+1)f+1={(d + 1) * f + 1}"
        )
    return result.point

