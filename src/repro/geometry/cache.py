"""Canonical-key memoisation for the hot geometry kernels.

The consensus algorithms re-solve identical geometric instances
constantly: every process in a run broadcasts the same multiset ``S`` and
then runs the same deterministic kernel on it, so an ``n``-process ALGO
run performs ``n`` bit-identical ``δ*(S)`` solves, and the ``C(n, n-f)``
subset loops of ``exact_bvc`` and ``averaging`` re-enumerate the same
hull systems across rounds.  This module gives those kernels a
process-local cache so the second and later solves are dictionary
lookups.

Keys
----
A cache key is built from the kernel name plus every argument, encoded
canonically:

* arrays are cast to ``float64`` C-order and keyed on their **exact**
  bytes together with their shape — only bit-identical inputs share an
  entry.  Sub-tolerance jitter (and ``-0.0`` vs ``+0.0``) deliberately
  gets distinct entries: substituting a near-equal neighbour's result
  would make outputs depend on per-process call history, which differs
  between serial and parallel sweeps and would break the engine's
  bit-identity contract;
* scalars use exact encodings (``float.hex`` for floats), since knobs
  like ``delta``/``tol``/``p`` are passed-in values, not computed noise;
* anything else (e.g. a ``probe`` callable) is *not* canonicalisable:
  the call bypasses the cache entirely rather than guessing.

Results are frozen before they are stored — returned arrays are
read-only copies — so a caller mutating a result raises instead of
silently poisoning every later hit.

Observability
-------------
Hits and misses are counted on the ambient
:class:`~repro.obs.metrics.MetricsRegistry` (``geometry.cache.hits`` /
``geometry.cache.misses`` plus per-kernel ``geometry.cache.<name>.*``),
so every ``RunResult.metrics`` reports its own hit rate.  Each miss
computation runs under a ``geometry.solve.<name>`` span (hits stay
un-timed: a dict lookup is noise next to a solver call).

Determinism
-----------
Keys are exact and the kernels are pure, so a hit returns exactly the
bits the kernel would have computed for those arguments — caching never
changes a result, regardless of what ran earlier in the process, and
serial and parallel sweeps stay bit-identical (each worker simply warms
its own cache).  Eviction clears the whole table (deterministic, like
the verified-averaging selection cache) and the table is never iterated.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import wraps
from typing import Any, Callable, Iterator, Optional, TypeVar, cast

import numpy as np

from ..obs import metrics as _obs
from ..obs.tracer import trace_span

__all__ = [
    "cache_disabled",
    "cache_enabled",
    "cached_kernel",
    "canonical_array_bytes",
    "clear_cache",
    "freeze_array",
    "set_cache_enabled",
]

F = TypeVar("F", bound=Callable[..., Any])


def canonical_array_bytes(arr: Any) -> bytes:
    """Canonical byte encoding of an array-like: exact bytes + shape.

    The only canonicalisation is representational — cast to ``float64``
    in C order — never numeric: two inputs share bytes iff they are
    bit-identical as float64 arrays of the same shape.  No rounding, no
    ``-0.0`` folding: a hit must return exactly what the kernel would
    compute for *these* argument bits.
    """
    a = np.ascontiguousarray(arr, dtype=float)
    return repr(a.shape).encode() + b"|" + a.tobytes()


def _encode_part(part: Any) -> Optional[bytes]:
    """Encode one key part, or None when it is not canonicalisable."""
    if part is None:
        return b"N"
    if isinstance(part, bool):
        return b"T" if part else b"F"
    if isinstance(part, (int, np.integer)):
        return b"i" + str(int(part)).encode()
    if isinstance(part, (float, np.floating)):
        return b"x" + float(part).hex().encode()
    if isinstance(part, str):
        return b"s" + part.encode()
    if isinstance(part, np.ndarray):
        return b"a" + canonical_array_bytes(part)
    if isinstance(part, (tuple, list)):
        encoded = []
        for item in part:
            enc = _encode_part(item)
            if enc is None:
                return None
            encoded.append(enc)
        return b"(" + b",".join(encoded) + b")"
    return None


def _encode_key(name: str, args: tuple, kwargs: dict[str, Any]) -> Optional[bytes]:
    parts = [name.encode()]
    for a in args:
        enc = _encode_part(a)
        if enc is None:
            return None
        parts.append(enc)
    for k in sorted(kwargs):
        enc = _encode_part(kwargs[k])
        if enc is None:
            return None
        parts.append(k.encode() + b"=" + enc)
    return b";".join(parts)


def freeze_array(a: np.ndarray) -> np.ndarray:
    """Read-only copy of ``a`` — safe to hand to every future hit."""
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _freeze_result(value: Any) -> Any:
    """Make a kernel result safe to share across cache hits.

    Arrays become read-only copies; the frozen result dataclasses
    (``DeltaStarResult``, ``TverbergPartition``, ``RadonPartition``) are
    rebuilt around a read-only ``point``, the one array each carries;
    scalars/None pass through.
    """
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return freeze_array(value)
    if isinstance(value, tuple):
        return tuple(_freeze_result(v) for v in value)
    point = getattr(value, "point", None)
    if isinstance(point, np.ndarray):
        return replace(value, point=freeze_array(point))
    return value


class _GeometryCache:
    """Bounded dict cache; eviction clears the whole table (deterministic)."""

    def __init__(self, max_entries: int = 8192) -> None:
        self.max_entries = max_entries
        self._store: dict[bytes, Any] = {}

    def lookup(self, key: bytes) -> tuple[bool, Any]:
        if key in self._store:
            return True, self._store[key]
        return False, None

    def store(self, key: bytes, value: Any) -> None:
        if len(self._store) >= self.max_entries:
            self._store.clear()
        self._store[key] = value

    def clear(self) -> None:
        self._store.clear()


_CACHE = _GeometryCache()
_ENABLED = True


def cache_enabled() -> bool:
    """Whether the geometry cache is active in this process."""
    return _ENABLED


def set_cache_enabled(enabled: bool) -> bool:
    """Turn the process-wide cache on or off; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Scope with the cache off — for un-memoised reference runs in tests."""
    previous = set_cache_enabled(False)
    try:
        yield
    finally:
        set_cache_enabled(previous)


def clear_cache() -> None:
    """Drop every stored entry."""
    _CACHE.clear()


def cached_kernel(name: str) -> Callable[[F], F]:
    """Decorator memoising a pure geometry kernel under canonical keys.

    ``name`` labels the per-kernel hit/miss counters.  Calls whose
    arguments cannot be canonically encoded (callables, arbitrary
    objects) run the kernel directly, uncounted.  The undecorated kernel
    stays reachable as ``fn.__wrapped__`` for reference comparisons.
    """

    def deco(fn: F) -> F:
        solve_span = f"geometry.solve.{name}"

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return fn(*args, **kwargs)
            key = _encode_key(name, args, kwargs)
            if key is None:
                return fn(*args, **kwargs)
            hit, value = _CACHE.lookup(key)
            if hit:
                _obs.inc("geometry.cache.hits")
                _obs.inc(f"geometry.cache.{name}.hits")
                return value
            _obs.inc("geometry.cache.misses")
            _obs.inc(f"geometry.cache.{name}.misses")
            with trace_span(solve_span):
                value = _freeze_result(fn(*args, **kwargs))
            _CACHE.store(key, value)
            return value

        return cast(F, wrapper)

    return deco
