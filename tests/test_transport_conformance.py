"""Transport-conformance suite: one contract, every backend.

Each test in :class:`TestTransportContract` runs twice -- once over
:class:`~repro.net.transport.Network` (discrete-event virtual time)
and once over :class:`~repro.runtime.aio.AsyncioTransport` (real asyncio
timers and a JSON wire codec) -- through a tiny harness that hides *only*
how time advances. The protocol-visible behaviour asserted here is what
:class:`~repro.runtime.interface.Transport` promises both engines honour:

- per-link FIFO delivery under the (default) constant-latency models;
- partitions drop at send time (``send`` returns ``None``) and heal;
- cancelled timers never fire, and cancelling twice is harmless;
- ``set_timer_at`` never fires early on the protocol clock;
- registered handlers receive *equal* argument values (and, on the
  asyncio backend, *fresh* objects -- the wire codec forbids shared
  references);
- a crashed :class:`~repro.runtime.localhost.LocalhostStore` replica set
  makes reads unavailable until recovery, on either transport.

Because the test body is identical per backend, a divergence pinpoints an
engine bug rather than a protocol bug -- this suite is the safety net for
the "same protocol classes on both backends" claim.
"""

import asyncio

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.cluster.versions import Version
from repro.net.topology import Datacenter, Topology, LinkClass
from repro.net.transport import Network
from repro.runtime.aio import AsyncioTransport
from repro.runtime.localhost import LocalhostStore
from repro.simcore.simulator import Simulator


def two_dc_topology() -> Topology:
    """3+3 nodes across two regions: intra-DC, and true WAN links."""
    return Topology(
        [Datacenter("east", "us-east"), Datacenter("west", "eu-west")], [3, 3]
    )


class SimHarness:
    """Conformance driver over the discrete-event backend."""

    backend = "sim"

    def __init__(self, topology, seed=7):
        self.topology = topology
        self.sim = Simulator()
        self.transport = Network(self.sim, topology, rng=seed)

    def run(self, setup, until):
        """Call ``setup(transport)`` at t=0, then advance to ``until``."""
        setup(self.transport)
        self.sim.run(until=until)


class AioHarness:
    """Conformance driver over the asyncio backend (scaled wall clock)."""

    backend = "asyncio"
    #: wall seconds per protocol second; keeps each test well under 1s of
    #: wall time while protocol timers still span a meaningful range.
    TIME_SCALE = 0.05

    def __init__(self, topology, seed=7):
        self.topology = topology
        self.transport = AsyncioTransport(
            topology, rng=seed, time_scale=self.TIME_SCALE
        )

    def run(self, setup, until):
        async def main():
            self.transport.start(asyncio.get_running_loop())
            setup(self.transport)
            # Margin over the scaled horizon absorbs call_later jitter.
            await asyncio.sleep(until * self.TIME_SCALE + 0.1)

        asyncio.run(main())
        self.transport.close()


@pytest.fixture(params=["sim", "asyncio"])
def harness(request):
    """Factory for a fresh backend harness; ``harness.backend`` names it."""

    def make(topology=None, seed=7):
        topo = topology if topology is not None else two_dc_topology()
        cls = SimHarness if request.param == "sim" else AioHarness
        return cls(topo, seed=seed)

    make.backend = request.param
    return make


class TestTransportContract:
    def test_per_link_delivery_is_fifo(self, harness):
        # 25 frames down one WAN link, registered so the asyncio side
        # genuinely crosses the codec: arrival order == send order.
        h = harness()
        got = []

        def setup(t):
            def sink(i):
                got.append(i)

            t.register("sink", sink)
            for i in range(25):
                t.send(0, 3, 64 + i, sink, i)

        h.run(setup, until=1.0)
        assert got == list(range(25))

    def test_send_returns_sampled_delay(self, harness):
        h = harness()
        delays = {}

        def setup(t):
            delays["wan"] = t.send(0, 3, 64, lambda: None)
            delays["lan"] = t.send(0, 1, 64, lambda: None)

        h.run(setup, until=1.0)
        # Default models are constant per link class: 40 ms WAN, 0.25 ms LAN.
        assert delays["wan"] == pytest.approx(0.040)
        assert delays["lan"] == pytest.approx(0.00025)

    def test_partition_drops_at_send_time_then_heals(self, harness):
        h = harness()
        got = []
        sent = {}

        def setup(t):
            def sink(tag):
                got.append(tag)

            t.register("sink", sink)
            t.partition_dcs(0, 1)
            sent["cut"] = t.send(0, 3, 64, sink, "cut")  # cross-DC: dropped
            sent["lan"] = t.send(0, 1, 64, sink, "lan")  # intra-DC: unaffected
            sent["was_partitioned"] = t.is_partitioned(0, 1)

            def heal_and_resend():
                t.heal_partition(0, 1)
                sent["healed"] = t.send(0, 3, 64, sink, "healed")
                sent["still_partitioned"] = t.is_partitioned(0, 1)

            t.set_timer(0.5, heal_and_resend)

        h.run(setup, until=2.0)
        assert sent["cut"] is None
        assert sent["lan"] is not None
        assert sent["was_partitioned"]
        assert sent["healed"] is not None
        assert not sent["still_partitioned"]
        assert got == ["lan", "healed"]

    def test_heal_all_clears_every_partition(self, harness):
        topo = Topology(
            [
                Datacenter("a", "r-a"),
                Datacenter("b", "r-b"),
                Datacenter("c", "r-c"),
            ],
            [1, 1, 1],
        )
        t = harness(topo).transport
        t.partition_dcs(0, 1)
        t.partition_dcs(2, 1)  # either argument order cuts the pair
        assert t.is_partitioned(1, 0) and t.is_partitioned(1, 2)
        t.heal_all()
        assert not t.is_partitioned(0, 1)
        assert not t.is_partitioned(1, 2)

    def test_cancelled_timer_never_fires(self, harness):
        h = harness()
        fired = []

        def setup(t):
            doomed = t.set_timer(0.2, fired.append, "cancelled")
            doomed.cancel()
            doomed.cancel()  # idempotent per the TimerHandle contract
            t.set_timer(0.4, fired.append, "kept")

        h.run(setup, until=1.0)
        assert fired == ["kept"]

    def test_timer_at_never_fires_early(self, harness):
        h = harness()
        seen = {}

        def setup(t):
            seen["t0"] = t.now
            t.set_timer_at(seen["t0"] + 0.5, lambda: seen.update(fire=t.now))

        h.run(setup, until=2.0)
        assert seen["fire"] >= seen["t0"] + 0.5 - 1e-9

    def test_sample_delay_matches_link_class(self, harness):
        t = harness().transport
        assert t.sample_delay(0, 1) == pytest.approx(0.00025)  # intra-DC
        assert t.sample_delay(0, 3) == pytest.approx(0.040)  # inter-region

    def test_unregistered_callable_delivers_locally(self, harness):
        # Client-side completion closures are not protocol traffic: they
        # deliver without a codec round-trip, payload passed through as-is.
        h = harness()
        got = []
        payload = {"k": 1, "nested": [1, 2]}

        def setup(t):
            t.send(1, 2, 64, got.append, payload)

        h.run(setup, until=1.0)
        assert got == [payload]
        assert got[0] is payload

    def test_registered_handler_preserves_values_crossing_the_wire(self, harness):
        # Prepare-style payload: a {key: Version} map. Values must arrive
        # equal on both backends; the asyncio codec additionally forbids
        # shared references (fresh objects at the receiver).
        h = harness()
        got = []
        writes = {"row1": Version(1.5, 3, 64), "row2": Version(2.0, 7, 128)}

        def setup(t):
            def on_prepare(txn_id, wmap):
                got.append((txn_id, wmap))

            t.register("p3.on_prepare", on_prepare)
            t.send(0, 3, 256, on_prepare, 42, writes)

        h.run(setup, until=1.0)
        assert len(got) == 1
        txn_id, wmap = got[0]
        assert txn_id == 42
        assert wmap == writes
        assert isinstance(wmap["row1"], Version)
        if h.backend == "asyncio":
            assert wmap is not writes
            assert wmap["row1"] is not writes["row1"]

    def test_traffic_is_accounted_per_link_class(self, harness):
        h = harness()

        def setup(t):
            t.send(0, 3, 500, lambda: None)  # inter-region
            t.send(0, 1, 100, lambda: None)  # intra-DC

        h.run(setup, until=1.0)
        traffic = h.transport.traffic
        assert traffic.bytes[LinkClass.INTER_REGION] == 500
        assert traffic.bytes[LinkClass.INTRA_DC] == 100

    def test_crashed_replicas_silence_reads_until_recovery(self, harness):
        # The LocalhostStore facade runs over either transport (that is
        # how repro.runtime.xval compares backends); crashing the whole
        # replica set of a key must fail reads, recovery must restore them.
        h = harness()
        results = []
        state = {}

        def setup(t):
            store = LocalhostStore(
                h.topology, t, replication_factor=2, seed=3
            )
            state["store"] = store
            replicas, _ = store.replica_sets("key1")
            for r in replicas:
                store.crash_node(r)
            store.read("key1", None, results.append)

            def recover_and_read():
                for r in replicas:
                    store.recover_node(r)
                store.read("key1", None, results.append)

            t.set_timer(0.5, recover_and_read)

        h.run(setup, until=2.0)
        assert len(results) == 2
        assert not results[0].ok
        assert results[0].error == "unavailable"
        assert results[1].ok
        assert state["store"].read_failures == 1
        assert state["store"].reads_ok == 1


class TestAsyncioTransportSpecifics:
    """Contract points only the asyncio backend can violate."""

    def test_time_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            AsyncioTransport(two_dc_topology(), time_scale=0.0)

    def test_double_registration_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        t.register("h", lambda: None)
        with pytest.raises(ConfigError):
            t.register("h", lambda: None)

    def test_send_before_start_is_an_error(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(SimulationError):
            t.send(0, 1, 10, lambda: None)
        with pytest.raises(SimulationError):
            t.set_timer(0.1, lambda: None)

    def test_negative_timer_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(SimulationError):
            t.set_timer(-0.1, lambda: None)

    def test_self_partition_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(ConfigError):
            t.partition_dcs(1, 1)

    def test_closed_transport_swallows_inflight_callbacks(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.01)
        got = []

        async def main():
            t.start(asyncio.get_running_loop())
            t.register("sink", got.append)
            t.send(0, 3, 64, got.append, "late")
            t.set_timer(0.5, got.append, "timer")
            t.close()
            await asyncio.sleep(0.1)

        asyncio.run(main())
        assert got == []
