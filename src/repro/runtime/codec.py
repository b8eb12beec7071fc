"""The wire codec of the asyncio backend: marshal frames with tagged types.

Protocol messages between TM and participants carry Python values --
transaction ids, node ids, vote booleans, and (in prepare payloads)
``{key: Version}`` maps. The asyncio backend serializes every registered
protocol message through this codec so the run genuinely crosses a wire
boundary: a frame is ``encode``-d at the sender, carried as ``bytes``,
and ``decode``-d at the receiver into fresh objects (no shared references
between sender and receiver state machines).

A frame is ``marshal.dumps((name, wire_args))``: stdlib, written in C, and
like JSON it hands the receiver freshly built objects. Frames never leave
the process that wrote them. ``marshal`` is not a safe format for
untrusted bytes and is not stable across Python versions, so a
multi-process deployment (the parked socket daemon) would need its own
versioned format. The wire type system is JSON's, whatever the carrier:

- :class:`~repro.cluster.versions.Version` ->
  ``{"__v__": [timestamp, seq, size]}`` (a dict revives only when that
  tag is its sole key);
- tuples and sets become lists (sets sorted, for determinism);
- dict keys are strings.

The file WAL (:mod:`repro.runtime.wal`) writes its records through the
same :func:`to_wire` tagging, so the wire and the disk share one type tag.
"""

from __future__ import annotations

import marshal
from typing import Any, List, Tuple

from repro.common.errors import SimulationError
from repro.cluster.versions import Version

__all__ = ["encode", "decode", "to_wire", "from_wire"]

_VERSION_TAG = "__v__"
#: Types that are their own wire form.
_SCALARS = frozenset((type(None), bool, int, float, str))


def to_wire(value: Any) -> Any:
    """Recursively convert ``value`` into wire data (JSON's type system).

    Subclasses of ``int``, ``float`` and ``str`` collapse to their base
    type (``marshal`` writes exact types only), as JSON would write them.
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Version):
        return {_VERSION_TAG: [value.timestamp, value.write_id, value.size]}
    if isinstance(value, dict):
        return {str(k): to_wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_wire(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [to_wire(v) for v in sorted(value)]
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    raise SimulationError(
        f"cannot encode {type(value).__name__} on the wire: {value!r}"
    )


def from_wire(value: Any) -> Any:
    """Invert :func:`to_wire` (lists stay lists; tagged Versions revive)."""
    t = type(value)
    if t is list:
        return [from_wire(v) for v in value]
    if t is dict:
        if len(value) == 1:
            tagged = value.get(_VERSION_TAG)
            if tagged is not None:
                ts, seq, size = tagged
                return Version(float(ts), int(seq), int(size))
        return {k: from_wire(v) for k, v in value.items()}
    return value


def encode(name: str, args: Tuple[Any, ...]) -> bytes:
    """One wire frame: the registered handler name plus its arguments."""
    return marshal.dumps(
        (name, [a if type(a) in _SCALARS else to_wire(a) for a in args])
    )


def decode(frame: bytes) -> Tuple[str, List[Any]]:
    """Parse a frame back into ``(handler_name, args)`` with fresh objects."""
    name, args = marshal.loads(frame)
    return name, [a if type(a) in _SCALARS else from_wire(a) for a in args]
