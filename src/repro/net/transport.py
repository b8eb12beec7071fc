"""Message transport: delay sampling, delivery, traffic accounting, faults.

:class:`Network` is the single fabric every node and coordinator sends
through, and the simulator's :class:`~repro.runtime.interface.Transport`:
the protocol core reads the clock and sets timers through it too. It does
three jobs:

1. **delivery** -- sample a one-way delay from the topology's latency model
   for the link class and schedule the receive callback on the simulator;
2. **accounting** -- count messages and bytes per link class into a
   :class:`TrafficMatrix`; the billing model prices exactly this matrix
   (inter-AZ / inter-region bytes are the paper's "network cost" bill part);
3. **fault injection** -- datacenter partitions (messages silently dropped,
   as on a real WAN cut) and additive delay (congestion episodes).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.net.topology import LinkClass, Topology
from repro.runtime.interface import Transport
from repro.simcore.simulator import Simulator

__all__ = ["TrafficMatrix", "Network"]


#: Stable small-int code per link class (list index into the hot counters).
_CLASS_LIST = list(LinkClass)
_CLASS_CODE: Dict[LinkClass, int] = {cls: i for i, cls in enumerate(_CLASS_LIST)}


class TrafficMatrix:
    """Per-link-class message and byte counters.

    The unit of account for the network part of the cloud bill. Counters are
    cumulative; :meth:`snapshot` + :meth:`delta` support per-interval billing.

    Internally the counters are lists indexed by a small int code:
    ``Enum.__hash__`` is a Python-level call, and two enum-keyed dict
    updates per message were among the hottest lines of a full store run.
    The public ``messages`` / ``bytes`` mappings are built on access --
    reporting and billing read them a handful of times per run.
    """

    __slots__ = ("_messages", "_bytes")

    def __init__(self) -> None:
        self._messages: List[int] = [0] * len(_CLASS_LIST)
        self._bytes: List[int] = [0] * len(_CLASS_LIST)

    @property
    def messages(self) -> Dict[LinkClass, int]:
        """Message count per link class (snapshot view)."""
        return {cls: self._messages[i] for i, cls in enumerate(_CLASS_LIST)}

    @property
    def bytes(self) -> Dict[LinkClass, int]:
        """Byte count per link class (snapshot view)."""
        return {cls: self._bytes[i] for i, cls in enumerate(_CLASS_LIST)}

    def record(self, cls: LinkClass, nbytes: int) -> None:
        """Count one message of ``nbytes`` on link class ``cls``."""
        code = _CLASS_CODE[cls]
        self._messages[code] += 1
        self._bytes[code] += nbytes

    def record_code(self, code: int, nbytes: int) -> None:
        """Hot-path variant of :meth:`record` taking the precomputed code."""
        self._messages[code] += 1
        self._bytes[code] += nbytes

    def total_bytes(self) -> int:
        """All bytes across all link classes."""
        return sum(self._bytes)

    def billable_bytes(self) -> int:
        """Bytes on link classes clouds charge for (inter-AZ + inter-region)."""
        return (
            self._bytes[_CLASS_CODE[LinkClass.INTER_AZ]]
            + self._bytes[_CLASS_CODE[LinkClass.INTER_REGION]]
        )

    def snapshot(self) -> "TrafficMatrix":
        """Deep copy of the current counters."""
        snap = TrafficMatrix()
        snap._messages = list(self._messages)
        snap._bytes = list(self._bytes)
        return snap

    def delta(self, earlier: "TrafficMatrix") -> "TrafficMatrix":
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`)."""
        d = TrafficMatrix()
        d._messages = [a - b for a, b in zip(self._messages, earlier._messages)]
        d._bytes = [a - b for a, b in zip(self._bytes, earlier._bytes)]
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{cls.value}={self._bytes[i]}B/{self._messages[i]}msg"
            for i, cls in enumerate(_CLASS_LIST)
            if self._messages[i]
        )
        return f"TrafficMatrix({parts or 'empty'})"


class Network(Transport):
    """The message fabric between nodes (the discrete-event ``Transport``).

    Parameters
    ----------
    sim:
        Owning simulator.
    topology:
        Node placement and latency models.
    rng:
        Seed or generator for delay sampling (deterministic by default).

    Notes
    -----
    Delivery is fire-and-forget: :meth:`send` schedules
    ``deliver(*args)`` after the sampled delay. Reliability is modelled at
    this layer only through partitions; omission failures of individual
    nodes are modelled by the cluster layer marking nodes down. Callbacks
    are plain function references inside one process, so
    :meth:`register` has nothing to record.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rng: "np.random.Generator | int | None" = None,
    ):
        self.sim = sim
        self.topology = topology
        self.rng = spawn_rng(rng)
        self.traffic = TrafficMatrix()
        self.dropped: int = 0
        self._partitioned: Set[Tuple[int, int]] = set()  # (dc_a, dc_b) ordered pairs
        self._extra_delay: float = 0.0
        # Per-(src, dst) route memo: (link class, its int code, latency
        # model, DC pair). link_class + the enum-keyed dict lookups per
        # message add up -- every replica fan-out crosses this path -- so
        # the resolve happens once per node pair. Invalidated when the
        # topology gains nodes (:meth:`clear_topology_cache`, called by the
        # store's bootstrap).
        self._route_cache: Dict[
            Tuple[int, int], Tuple[LinkClass, int, Any, Tuple[int, int]]
        ] = {}

    def _route(
        self, src: int, dst: int
    ) -> Tuple[LinkClass, int, Any, Tuple[int, int]]:
        route = self._route_cache.get((src, dst))
        if route is None:
            cls = self.topology.link_class(src, dst)
            dcs = (self.topology.dc_of(src), self.topology.dc_of(dst))
            route = (cls, _CLASS_CODE[cls], self.topology.latency_models[cls], dcs)
            self._route_cache[(src, dst)] = route
        return route

    def clear_topology_cache(self) -> None:
        """Drop memoized routes after the topology changed (elastic growth)."""
        self._route_cache.clear()

    # -- clock and timers ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> Any:
        return self.sim.schedule(delay, fn, *args)

    def set_timer_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Any:
        return self.sim.schedule_at(when, fn, *args)

    # -- fault injection --------------------------------------------------------

    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        """Cut both directions between two datacenters (messages are dropped)."""
        if dc_a == dc_b:
            raise ConfigError("cannot partition a datacenter from itself")
        self._partitioned.add((dc_a, dc_b))
        self._partitioned.add((dc_b, dc_a))

    def heal_partition(self, dc_a: int, dc_b: int) -> None:
        """Restore connectivity between two datacenters."""
        self._partitioned.discard((dc_a, dc_b))
        self._partitioned.discard((dc_b, dc_a))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitioned.clear()

    def set_extra_delay(self, delay: float) -> None:
        """Add a constant delay to every non-local message (congestion)."""
        if delay < 0:
            raise ConfigError(f"extra delay must be >= 0, got {delay}")
        self._extra_delay = float(delay)

    def is_partitioned(self, dc_a: int, dc_b: int) -> bool:
        """Whether traffic between two datacenters (indices) is being dropped."""
        return (dc_a, dc_b) in self._partitioned

    # -- data plane ---------------------------------------------------------------

    def register(self, name: str, deliver: Callable[..., Any]) -> None:
        """No-op: sim delivery calls ``deliver`` by reference, never by name."""

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callable[..., Any],
        *args: Any,
    ) -> Optional[float]:
        """Send ``nbytes`` from node ``src`` to node ``dst``.

        Returns the sampled one-way delay, or ``None`` if the message was
        dropped by a partition. ``deliver(*args)`` fires at ``now + delay``.
        Bytes are counted even for local messages (zero-priced link class).
        """
        cls, code, model, dcs = self._route(src, dst)
        local = cls is LinkClass.LOCAL
        if not local and self._partitioned and dcs in self._partitioned:
            self.dropped += 1
            return None
        self.traffic.record_code(code, int(nbytes))
        delay = model.sample(self.rng)
        if not local:
            delay += self._extra_delay
        self.sim.schedule(delay, deliver, *args)
        return delay

    def sample_delay(self, src: int, dst: int) -> float:
        """Sample a delay without sending (used by monitors probing RTT)."""
        cls = self.topology.link_class(src, dst)
        return self.topology.latency_models[cls].sample(self.rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(nodes={self.topology.n_nodes}, "
            f"traffic={self.traffic.total_bytes()}B, dropped={self.dropped})"
        )
