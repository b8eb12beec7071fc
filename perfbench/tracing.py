"""Outside-in tracing: spans around calls into each layer's public methods.

Nothing here edits the program. :class:`Tracer` replaces the listed class
attributes (and the codec's module functions) with timing wrappers for
the duration of one traced call and restores them afterwards. Because the
wrappers are installed before the deployment is built, bound methods the
program captures at build time (message handlers, timer callbacks) are
wrapped too.

Spans are kept in memory as parallel arrays -- start, end, parent index and
name id -- with the parent being whichever wrapped call was on the stack
when the span opened. Every wrapped method is synchronous, so a stack is
exact even on the asyncio engine: no span is left open across an
``await``. A span's *self* time is its duration minus the part covered by
its child spans, so code the tracer does not wrap is charged to the nearest
wrapped caller (for example, coordinator internals run from a simulator
event are charged to ``Simulator.run``).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.cluster.node import StorageNode
from repro.cluster.store import ReplicatedStore
from repro.harmony.engine import HarmonyEngine
from repro.monitor.collector import ClusterMonitor
from repro.net.latency import LatencyModel
from repro.net.transport import Network
from repro.obs.recorder import RunObserver
from repro.runtime import codec
from repro.runtime.aio import AsyncioTransport
from repro.runtime.wal import FileWriteAheadLog
from repro.simcore.simulator import Simulator
from repro.txn.participant import TxnParticipant
from repro.txn.tm import TransactionManager
from repro.workload.distributions import KeyChooser


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _handlers(cls: type) -> List[str]:
    return sorted(
        a for a, v in vars(cls).items() if a.startswith("on_") and callable(v)
    )


#: layer -> [(owner, method names)]. The layer names are the keys of the
#: ``<layer>.self_s`` metrics.
LAYERS: Dict[str, List[Tuple[Any, List[str]]]] = {
    "simcore": [(Simulator, ["schedule", "schedule_at", "run"])],
    "net.send": [(Network, ["send"])],
    "net.latency": [
        (c, ["sample"]) for c in _with_subclasses(LatencyModel) if "sample" in vars(c)
    ],
    "cluster.coord": [(ReplicatedStore, ["read", "write"])],
    "cluster.node": [(StorageNode, ["handle_read", "handle_write"])],
    "harmony": [(HarmonyEngine, ["read_level"])],
    "monitor": [(ClusterMonitor, ["on_op_complete"])],
    "workload": [
        (c, ["next_index"])
        for c in _with_subclasses(KeyChooser)
        if "next_index" in vars(c)
    ],
    "txn.tm": [(TransactionManager, _handlers(TransactionManager))],
    "txn.participant": [(TxnParticipant, _handlers(TxnParticipant))],
    "obs": [(RunObserver, _handlers(RunObserver))],
    "runtime.codec": [(codec, ["encode", "decode"])],
    "runtime.send": [(AsyncioTransport, ["send"])],
    "runtime.wal": [(FileWriteAheadLog, ["append"])],
}


class Tracer:
    """In-memory span recorder over the methods named in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        #: total bytes of the frames ``codec.encode`` returned.
        self.frame_bytes = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / remove ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, owners in LAYERS.items():
            for owner, methods in owners:
                for meth in methods:
                    self._wrap(layer, owner, meth)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, layer: str, owner: Any, attr: str) -> None:
        orig = vars(owner)[attr]
        sid = len(self.names)
        self.names.append(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
        self.layer_of.append(layer)
        start, end, parent, name, stack = (
            self.start, self.end, self.parent, self.name, self._stack,
        )
        clock = time.perf_counter
        sizes = owner is codec and attr == "encode"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(sid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sizes:
                self.frame_bytes += len(out)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    # -- analysis ----------------------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        """Span count per wrapped method (``Class.method``)."""
        counts = np.bincount(
            np.frombuffer(self.name, dtype=np.uint16), minlength=len(self.names)
        )
        return {n: int(c) for n, c in zip(self.names, counts)}

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        out = {layer: 0.0 for layer in LAYERS}
        if not len(self.start):
            return out
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        per_name = np.bincount(
            np.frombuffer(self.name, dtype=np.uint16),
            weights=dur - child,
            minlength=len(self.names),
        )
        for sid, secs in enumerate(per_name):
            out[self.layer_of[sid]] += float(secs)
        return out

    def write(self, path: str) -> None:
        """Write the spans as a compressed ``.npz`` plus the name table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            name=np.asarray(self.name, dtype=np.uint16),
            names=np.asarray(self.names),
            layers=np.asarray(self.layer_of),
        )


def count_python_calls(fn: Callable[[], Any]) -> Tuple[Any, int]:
    """Run ``fn`` under a ``sys.setprofile`` hook counting Python and builtin calls."""
    n = 0

    def hook(frame: Any, event: str, arg: Any) -> None:
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, n


class LoopLagProbe:
    """A periodic timer on the running loop that records how late it fires."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.lags: List[float] = []
        self._handle: Any = None
        self._due = 0.0

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._due = loop.time() + self.interval
        self._handle = loop.call_at(self._due, self._tick)

    def _tick(self) -> None:
        now = self._loop.time()
        self.lags.append(now - self._due)
        self._due = now + self.interval
        self._handle = self._loop.call_at(self._due, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
