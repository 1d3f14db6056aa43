"""The one door: :class:`~repro.system.process.Node` drops a payload that
:func:`reject` finds failing the schema of its tag's family (the text
before the first ``:``): exact builtin types, lengths from the run's
``(n, d, f)``, finite floats.  The verdict is a pure function of
``(tag, payload, n, d, f)``, so every correct node drops the same
messages and Bracha's agreement and totality arguments stand; it reads
only positions whose length it has bounded, so a memo DAG fails
at its first wrong type.  ``-0.0`` is not normalised: that would build a
tuple per delivery and break Bracha's identity memo, to which ``0.0`` and
``-0.0`` are just two byte-keys.

Each family also has its live-wire layout in :data:`LAYOUTS`: a pack
that takes exactly the types its check reads, and an unpack that gives
them back.  A layout knows no ``(n, d, f)``: its counts (d, path, refs,
chain) are one byte each, in the frame; the check bounds them."""

from __future__ import annotations

from math import isfinite
from struct import Struct
from typing import Any, Callable, Optional

from ..obs import metrics as _obs
from .crypto import Signature

__all__ = ["LAYOUTS", "SCHEMAS", "reject"]

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
    """(d floats, chain): a chain of 1 to f + 1 Signature, each by a pid with a 32-byte digest"""
    return (type(p) is tuple and len(p) == 2 and _floats(tag, p[0], n, d, f)
            and type(p[1]) is tuple and 0 < len(p[1]) <= f + 1
            and all(type(s) is Signature and type(getattr(s, "signer", None)) is int
                    and 0 <= s.signer < n and type(getattr(s, "digest", None)) is bytes
                    and len(s.digest) == 32 for s in p[1]))


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


# ------------------------------------------------------------ wire layouts

_F64 = tuple(Struct(f"!B{k}d") for k in range(256))  # a count byte, then floats
_U16 = tuple(Struct(f"!B{k}H") for k in range(256))  # a count byte, then pids
_SIG = Struct("!H32s")  # signer, SHA-256 digest
_PHASES, _KINDS = ("init", "echo", "ready"), ("val", "refs")
Share = Callable[[bytes, Any], Any]
Layout = tuple[Callable[[Any], bytes], Callable[[bytes, int, Share], tuple[Any, int]]]


def _out(v: Any, structs: tuple[Struct, ...] = _F64, exact: frozenset = _FLOAT) -> bytes:
    if type(v) is not tuple or not exact.issuperset(map(type, v)):
        raise TypeError(f"not a tuple of {next(iter(exact)).__name__}: {v!r:.80}")
    return structs[len(v)].pack(len(v), *v)


def _in(b: bytes, i: int, share: Optional[Share] = None,
        structs: tuple[Struct, ...] = _F64) -> tuple[Any, int]:
    s = structs[b[i]]
    v, j = s.unpack_from(b, i)[1:], i + s.size
    return (v if share is None else share(b"v" + b[i:j], v)), j


def _pair(p: Any) -> Any:
    if type(p) is not tuple or len(p) != 2:
        raise TypeError(f"not a pair: {p!r:.80}")
    return p


def _rva_out(p: Any) -> bytes:
    """u8 phase (init, echo, ready) · u8 kind (val, refs) · u8 d + d × f64, or u8 k + k × u16 pids"""
    phase, (kind, body) = _pair(p)[0], _pair(p[1])
    k = _KINDS.index(kind)
    return bytes((_PHASES.index(phase), k)) + (_out(body, _U16, _INT) if k else _out(body))


def _rva_in(b: bytes, i: int, share: Share) -> tuple[Any, int]:
    kind = _KINDS[b[i + 1]]
    body, j = _in(b, i + 2, None, _U16 if kind == "refs" else _F64)
    return (_PHASES[b[i]], share(b"r" + b[i + 1:j], (kind, body))), j


def _eig_out(p: Any) -> bytes:
    """u8 k + k × u16 path · u8 d + d × f64"""
    return _out(_pair(p)[0], _U16, _INT) + _out(p[1])


def _eig_in(b: bytes, i: int, share: Share) -> tuple[Any, int]:
    path, j = _in(b, i, None, _U16)
    v, j = _in(b, j, share)
    return (path, v), j


def _ds_out(p: Any) -> bytes:
    """u8 d + d × f64 · u8 k + k × (u16 signer, 32-byte digest)"""
    v, chain = _pair(p)
    if type(chain) is not tuple or not all(
            type(s) is Signature and type(s.signer) is int and type(s.digest) is bytes
            and len(s.digest) == 32 for s in chain):
        raise TypeError(f"not a chain of Signatures: {chain!r:.80}")
    return _out(v) + bytes((len(chain),)) + b"".join(_SIG.pack(s.signer, s.digest) for s in chain)


def _ds_in(b: bytes, i: int, share: Share) -> tuple[Any, int]:
    v, j = _in(b, i, share)
    end = j + 1 + b[j] * _SIG.size
    if end > len(b):
        raise ValueError(f"a chain of {b[j]} Signatures past the frame's end")
    return (v, tuple(Signature(*_SIG.unpack_from(b, m)) for m in range(j + 1, end, _SIG.size))), end


def _vec_out(p: Any) -> bytes:
    """u8 d + d × f64"""
    return _out(p)


#: Tag family -> (pack, unpack), in SCHEMAS' order; docs/transport.md
#: shows each pack's docstring.  ``unpack(b, i, share)`` reads a payload
#: at ``b[i:]`` and returns it with its end, passing the part an identity
#: memo keys (Bracha's value, an EIG or Dolev–Strong vote) through
#: ``share(key, part)``, which returns the one object of those bytes.
LAYOUTS: dict[str, Layout] = {
    "rva": (_rva_out, _rva_in), "bc": (_eig_out, _eig_in), "ds": (_ds_out, _ds_in),
    **dict.fromkeys(("abc", "iter", "val"), (_vec_out, _in))}
