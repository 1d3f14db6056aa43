"""The one door: :class:`~repro.system.process.Node` drops a payload that
:func:`reject` finds failing the schema of its tag's family (the text
before the first ``:``): exact builtin types, lengths from the run's
``(n, d, f)``, finite floats.  The verdict is a pure function of
``(tag, payload, n, d, f)``, so every correct node drops the same
messages and Bracha's agreement and totality arguments stand; it reads
only positions whose length it has bounded, so a pickle-memo DAG fails
at its first wrong type.  ``-0.0`` is not normalised: that would build a
tuple per delivery and break Bracha's identity memo, to which ``0.0`` and
``-0.0`` are just two byte-keys."""

from __future__ import annotations

from math import isfinite
from typing import Any, Callable, Optional

from ..obs import metrics as _obs
from .crypto import Signature

__all__ = ["SCHEMAS", "reject"]

_FLOAT, _INT = frozenset({float}), frozenset({int})
_PIDS: dict[int, frozenset[int]] = {}  # n -> its pids
#: Admitted payloads by identity and check: a simulated burst shares one,
#: and one admitted is deeply immutable, so its verdict holds while held.
_ADMITTED: dict[tuple[Any, ...], Any] = {}


def _floats(tag: str, p: Any, n: int, d: Optional[int], f: int) -> bool:
    """a bare tuple of d floats"""
    return (type(p) is tuple and len(p) == d
            and _FLOAT.issuperset(map(type, p)) and all(map(isfinite, p)))


def _pids(v: Any, least: int, most: int, n: int) -> bool:
    pids = _PIDS.get(n) or _PIDS.setdefault(n, frozenset(range(n)))
    return (type(v) is tuple and least <= len(v) <= most and _INT.issuperset(map(type, v))
            and len(pids.intersection(v)) == len(v))


def _rva(tag: str, p: Any, n: int, d: Optional[int], f: int) -> bool:
    """(phase, ("val", d floats)) on round 0, (phase, ("refs", n − f distinct pids)) after"""
    try:
        sender, round_ = map(int, tag.split(":")[1:])
    except ValueError:
        return False
    return (0 <= sender < n and round_ >= 0 and type(p) is tuple and len(p) == 2
            and type(p[0]) is str and p[0] in ("init", "echo", "ready")
            and type(p[1]) is tuple and len(p[1]) == 2 and type(p[1][0]) is str
            and (p[1][0] == "val" and _floats(tag, p[1][1], n, d, f) if round_ == 0
                 else p[1][0] == "refs" and _pids(p[1][1], n - f, n - f, n)))


def _eig(tag: str, p: Any, n: int, d: Optional[int], f: int) -> bool:
    """(path, d floats): a path of 1 to f + 1 distinct pids"""
    return (type(p) is tuple and len(p) == 2
            and _pids(p[0], 1, f + 1, n) and _floats(tag, p[1], n, d, f))


def _ds(tag: str, p: Any, n: int, d: Optional[int], f: int) -> bool:
    """(d floats, chain): a chain of 1 to f + 1 Signature"""
    return (type(p) is tuple and len(p) == 2 and _floats(tag, p[0], n, d, f)
            and type(p[1]) is tuple and 0 < len(p[1]) <= f + 1
            and all(type(s) is Signature and type(getattr(s, "signer", None)) is int
                    and type(getattr(s, "digest", None)) is bytes for s in p[1]))


#: Tag family -> check; docs/transport.md shows each one's docstring.
SCHEMAS: dict[str, Callable[[str, Any, int, Optional[int], int], bool]] = {
    "rva": _rva, "bc": _eig, "ds": _ds, "abc": _floats, "iter": _floats, "val": _floats}


def reject(tag: str, payload: Any, n: int, d: Optional[int], f: int) -> Optional[str]:
    """The family whose schema ``payload`` fails under ``tag``, counted as
    ``node.malformed.<family>``; else None (a tag of no family passes)."""
    key = (id(payload), tag, n, d, f)
    if payload is None or _ADMITTED.get(key) is not payload:
        family = tag.split(":", 1)[0]
        check = SCHEMAS.get(family)
        if check is not None and not check(tag, payload, n, d, f):
            _obs.inc(f"node.malformed.{family}")
            return family
        if len(_ADMITTED) > 4096:
            _ADMITTED.clear()
        _ADMITTED[key] = payload
    return None
