"""The asyncio localhost :class:`Transport`: real timers, a real wire.

``AsyncioTransport`` runs the *same* protocol classes the simulator runs
-- the TM, participant and coordinator state machines are imported once
and never forked -- but executes them on an asyncio event loop:

- **clock** -- ``loop.time()``, rebased to 0 at :meth:`start` and divided
  by ``time_scale``, so protocol-visible seconds match the scenario's
  configured timeouts while the wall-clock run can be uniformly sped up;
- **messages** -- every registered protocol handler crosses the marshal
  wire codec (:mod:`repro.runtime.codec`): the frame is encoded at the
  sender, scheduled after a sampled link delay, and decoded into fresh
  objects at the receiver. Frames never leave the process. Unregistered
  callables (client completion callbacks, coordinator closures) deliver
  as local closures -- they are the client-side half of the run, not
  protocol traffic;
- **link model** -- delays are sampled from the same
  :class:`~repro.net.topology.Topology` latency models the simulator
  uses, and delivery per (src, dst) link is FIFO (a message never
  overtakes an earlier one on the same link -- the TCP-like guarantee the
  conformance suite asserts for both backends). A frame goes on the
  loop's timer heap at its arrival time, never earlier than its link's
  previous frame; a zero-delay frame goes straight to the ready queue
  (``call_soon``) when no earlier frame of its link waits in the heap;
- **timers** -- ``loop.call_later`` handles, cancellable exactly like sim
  events;
- **partitions** -- dropped at send time by datacenter pair, mirroring
  :meth:`repro.net.transport.Network.send`.

What asyncio does *not* guarantee (and the sim does): determinism.
Callback interleavings depend on the OS scheduler, so two runs with one
seed differ in timing. Cross-backend comparison therefore happens at the
*trend* level -- see :mod:`repro.runtime.xval`.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import spawn_rng
from repro.net.topology import Topology
from repro.net.transport import TrafficMatrix
from repro.runtime import codec
from repro.runtime.interface import Transport

__all__ = ["AsyncioTransport"]


class _Link:
    """One (src, dst) link: its route, cached, and its FIFO state."""

    __slots__ = ("cls", "dcs", "model", "last", "in_heap")

    def __init__(self, topology: Topology, src: int, dst: int):
        self.cls = topology.link_class(src, dst)
        a, b = topology.dc_of(src), topology.dc_of(dst)
        #: the sorted datacenter pair, as partitions are keyed.
        self.dcs = (a, b) if a <= b else (b, a)
        self.model = topology.latency_models[self.cls]
        #: loop time of the latest scheduled arrival: the FIFO floor.
        self.last = -math.inf
        #: frames scheduled by ``call_at`` and not yet dispatched.
        self.in_heap = 0


class AsyncioTransport(Transport):
    """Localhost asyncio transport over a topology's latency models.

    Parameters
    ----------
    topology:
        Datacenters, node placement and per-link-class latency models --
        the identical object a sim deployment would use.
    rng:
        Seed or generator for link-delay sampling (protocol timing on this
        backend is wall-clock, so the seed shapes delays but cannot make
        the run deterministic).
    time_scale:
        Wall seconds per protocol second. ``0.1`` runs the deployment 10x
        faster than real time -- message delays *and* timer delays shrink
        uniformly, so relative protocol behaviour (timeout-to-RTT ratios,
        abort windows) is preserved while wall time stays bounded.
    """

    def __init__(
        self,
        topology: Topology,
        rng: Any = None,
        time_scale: float = 1.0,
    ):
        if time_scale <= 0:
            raise ConfigError(f"time_scale must be positive, got {time_scale}")
        self.topology = topology
        self.rng = spawn_rng(rng)
        self.time_scale = float(time_scale)
        self.traffic = TrafficMatrix()
        self.dropped = 0
        self.delivered = 0
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._names: Dict[Callable[..., Any], str] = {}
        self._partitioned: set = set()
        #: per-(src, dst) route and FIFO state, built on first use.
        self._links: Dict[Tuple[int, int], _Link] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        """Bind to the running loop and rebase the protocol clock to 0."""
        self._loop = loop or asyncio.get_event_loop()
        self._t0 = self._loop.time()
        self._closed = False
        self._links.clear()

    def close(self) -> None:
        """Stop delivering; in-flight frames and timers become no-ops."""
        self._closed = True

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise SimulationError("AsyncioTransport.start() was never called")
        return self._loop

    # -- clock -------------------------------------------------------------------

    @property
    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._t0) / self.time_scale

    # -- messaging ---------------------------------------------------------------

    def register(self, name: str, deliver: Callable[..., Any]) -> None:
        if name in self._handlers:
            raise ConfigError(f"handler {name!r} registered twice")
        self._handlers[name] = deliver
        self._names[deliver] = name

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callable[..., Any],
        *args: Any,
    ) -> Optional[float]:
        loop = self._loop
        if loop is None:
            raise SimulationError("AsyncioTransport.start() was never called")
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = _Link(self.topology, src, dst)
        if self._partitioned and link.dcs in self._partitioned:
            self.dropped += 1
            return None
        self.traffic.record(link.cls, int(nbytes))
        delay = float(link.model.sample(self.rng))

        name = self._names.get(deliver)
        if name is not None:
            # Registered protocol handler: genuinely cross the wire codec.
            fn, payload = self._dispatch, codec.encode(name, args)
        else:
            # Client-side closure (operation callbacks): local delivery.
            fn, payload = self._local, (deliver, args)

        now = loop.time()
        if delay == 0.0 and not link.in_heap:
            # Nothing earlier on this link waits in the timer heap, so the
            # ready queue cannot let this frame overtake one.
            link.last = now
            loop.call_soon(fn, None, payload)
        else:
            # FIFO per link: a frame arrives after its predecessor. Equal
            # deadlines would pop from the heap in no fixed order.
            when = now + delay * self.time_scale
            if when <= link.last:
                when = math.nextafter(link.last, math.inf)
            link.last = when
            link.in_heap += 1
            loop.call_at(when, fn, link, payload)
        return delay

    def _dispatch(self, link: Optional[_Link], frame: bytes) -> None:
        if link is not None:
            link.in_heap -= 1
        if self._closed:
            return
        name, args = codec.decode(frame)
        self._handlers[name](*args)

    def _local(
        self, link: Optional[_Link], call: Tuple[Callable[..., Any], tuple]
    ) -> None:
        if link is not None:
            link.in_heap -= 1
        if self._closed:
            return
        deliver, args = call
        deliver(*args)

    def sample_delay(self, src: int, dst: int) -> float:
        return float(self.topology.latency_model(src, dst).sample(self.rng))

    # -- timers ------------------------------------------------------------------

    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> Any:
        if delay < 0:
            raise SimulationError(f"cannot set a timer in the past ({delay})")
        loop = self._require_loop()
        return loop.call_later(
            delay * self.time_scale, self._fire, fn, args
        )

    def set_timer_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Any:
        return self.set_timer(max(0.0, when - self.now), fn, *args)

    def _fire(self, fn: Callable[..., Any], args: tuple) -> None:
        if self._closed:
            return
        fn(*args)

    # -- fault injection -----------------------------------------------------------

    def _is_cut(self, dc_a: int, dc_b: int) -> bool:
        if not self._partitioned:
            return False
        pair = (dc_a, dc_b) if dc_a <= dc_b else (dc_b, dc_a)
        return pair in self._partitioned

    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        if dc_a == dc_b:
            raise ConfigError(f"cannot partition datacenter {dc_a} from itself")
        pair = (dc_a, dc_b) if dc_a <= dc_b else (dc_b, dc_a)
        self._partitioned.add(pair)

    def heal_partition(self, dc_a: int, dc_b: int) -> None:
        pair = (dc_a, dc_b) if dc_a <= dc_b else (dc_b, dc_a)
        self._partitioned.discard(pair)

    def heal_all(self) -> None:
        self._partitioned.clear()

    def is_partitioned(self, dc_a: int, dc_b: int) -> bool:
        return self._is_cut(dc_a, dc_b)
