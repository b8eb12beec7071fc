"""Tests for the network substrate: latency models, topology, transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.net.latency import (
    EmpiricalLatency,
    FixedLatency,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.net.transport import Network, TrafficMatrix
from repro.simcore.simulator import Simulator


class TestLatencyModels:
    def test_fixed(self):
        m = FixedLatency(0.01)
        rng = np.random.default_rng(0)
        assert m.sample(rng) == 0.01
        assert m.mean() == 0.01
        assert np.all(m.sample_batch(rng, 5) == 0.01)
        with pytest.raises(ConfigError):
            FixedLatency(-1.0)

    def test_uniform(self):
        m = UniformLatency(0.01, 0.02)
        rng = np.random.default_rng(0)
        xs = m.sample_batch(rng, 1000)
        assert np.all((xs >= 0.01) & (xs <= 0.02))
        assert m.mean() == pytest.approx(0.015)
        with pytest.raises(ConfigError):
            UniformLatency(0.02, 0.01)

    def test_lognormal_from_mean_cv(self):
        m = LogNormalLatency.from_mean_cv(0.010, cv=0.5)
        rng = np.random.default_rng(1)
        xs = m.sample_batch(rng, 100_000)
        assert xs.mean() == pytest.approx(0.010, rel=0.03)
        assert m.mean() == pytest.approx(0.010, rel=1e-9)
        assert np.all(xs >= m.floor)

    def test_lognormal_floor_fraction(self):
        m = LogNormalLatency.from_mean_cv(0.010, cv=0.5, floor_fraction=0.8)
        assert m.floor == pytest.approx(0.008)
        rng = np.random.default_rng(2)
        assert np.all(m.sample_batch(rng, 1000) >= 0.008)

    def test_lognormal_validation(self):
        with pytest.raises(ConfigError):
            LogNormalLatency.from_mean_cv(-1.0)
        with pytest.raises(ConfigError):
            LogNormalLatency.from_mean_cv(1.0, cv=0.0)
        with pytest.raises(ConfigError):
            LogNormalLatency.from_mean_cv(1.0, floor_fraction=1.0)
        with pytest.raises(ConfigError):
            LogNormalLatency(0.0, sigma=-1.0)

    def test_empirical(self):
        m = EmpiricalLatency([0.01, 0.02, 0.03])
        rng = np.random.default_rng(0)
        xs = m.sample_batch(rng, 500)
        assert set(np.round(xs, 6)) <= {0.01, 0.02, 0.03}
        assert m.mean() == pytest.approx(0.02)
        with pytest.raises(ConfigError):
            EmpiricalLatency([])
        with pytest.raises(ConfigError):
            EmpiricalLatency([-0.1])

    @given(st.floats(1e-4, 1.0), st.floats(0.1, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_property_lognormal_mean_consistent(self, mean, cv):
        m = LogNormalLatency.from_mean_cv(mean, cv)
        assert m.mean() == pytest.approx(mean, rel=1e-6)


class TestTopology:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Topology([], [])
        with pytest.raises(ConfigError):
            Topology([Datacenter("a", "r")], [1, 2])
        with pytest.raises(ConfigError):
            Topology(
                [Datacenter("a", "r"), Datacenter("a", "r")], [1, 1]
            )  # duplicate names
        with pytest.raises(ConfigError):
            Topology([Datacenter("a", "r")], [0])

    def test_node_placement(self, small_topology):
        topo = small_topology
        assert topo.n_nodes == 5
        assert [topo.dc_of(i) for i in range(5)] == [0, 0, 0, 1, 1]
        assert topo.nodes_in_dc(0) == [0, 1, 2]
        assert topo.nodes_in_dc(1) == [3, 4]
        assert topo.dc_name_of(4) == "south"

    def test_link_classes(self, small_topology, az_topology):
        assert small_topology.link_class(0, 0) is LinkClass.LOCAL
        assert small_topology.link_class(0, 1) is LinkClass.INTRA_DC
        assert small_topology.link_class(0, 3) is LinkClass.INTER_REGION
        assert az_topology.link_class(0, 3) is LinkClass.INTER_AZ

    def test_latency_model_lookup(self, small_topology):
        assert small_topology.latency_model(0, 3).mean() == pytest.approx(0.010)
        assert small_topology.latency_model(0, 1).mean() == pytest.approx(0.0002)

    def test_mean_wan_delay(self, small_topology, az_topology):
        assert small_topology.mean_wan_delay() == pytest.approx(0.010)
        assert az_topology.mean_wan_delay() == pytest.approx(0.001)
        single = Topology([Datacenter("one", "r")], [3])
        assert single.mean_wan_delay() == single.latency_models[LinkClass.INTRA_DC].mean()


class TestTrafficMatrix:
    def test_record_and_totals(self):
        t = TrafficMatrix()
        t.record(LinkClass.INTRA_DC, 100)
        t.record(LinkClass.INTER_AZ, 50)
        t.record(LinkClass.INTER_REGION, 25)
        assert t.total_bytes() == 175
        assert t.billable_bytes() == 75
        assert t.messages[LinkClass.INTRA_DC] == 1

    def test_snapshot_delta(self):
        t = TrafficMatrix()
        t.record(LinkClass.INTER_AZ, 10)
        snap = t.snapshot()
        t.record(LinkClass.INTER_AZ, 30)
        d = t.delta(snap)
        assert d.bytes[LinkClass.INTER_AZ] == 30
        assert d.messages[LinkClass.INTER_AZ] == 1
        # snapshot unaffected
        assert snap.bytes[LinkClass.INTER_AZ] == 10


class TestNetwork:
    def _net(self, topo):
        sim = Simulator()
        return sim, Network(sim, topo, rng=0)

    def test_delivery_and_accounting(self, small_topology):
        sim, net = self._net(small_topology)
        got = []
        delay = net.send(0, 3, 500, got.append, "msg")
        assert delay == pytest.approx(0.010)
        assert got == []  # not yet delivered
        sim.run()
        assert got == ["msg"]
        assert net.traffic.bytes[LinkClass.INTER_REGION] == 500

    def test_local_messages_counted_but_free_class(self, small_topology):
        sim, net = self._net(small_topology)
        net.send(2, 2, 100, lambda: None)
        assert net.traffic.bytes[LinkClass.LOCAL] == 100
        assert net.traffic.billable_bytes() == 0

    def test_partition_drops(self, small_topology):
        sim, net = self._net(small_topology)
        net.partition_dcs(0, 1)
        got = []
        assert net.send(0, 3, 100, got.append, "x") is None
        sim.run()
        assert got == []
        assert net.dropped == 1
        # intra-DC unaffected
        assert net.send(0, 1, 100, got.append, "y") is not None

    def test_partition_is_bidirectional_and_healable(self, small_topology):
        sim, net = self._net(small_topology)
        net.partition_dcs(0, 1)
        assert net.is_partitioned(1, 0)
        net.heal_partition(1, 0)
        assert not net.is_partitioned(0, 1)

    def test_heal_all(self, small_topology):
        sim, net = self._net(small_topology)
        net.partition_dcs(0, 1)
        net.heal_all()
        assert not net.is_partitioned(0, 1)

    def test_self_partition_rejected(self, small_topology):
        _, net = self._net(small_topology)
        with pytest.raises(ConfigError):
            net.partition_dcs(0, 0)

    def test_extra_delay(self, small_topology):
        sim, net = self._net(small_topology)
        net.set_extra_delay(0.5)
        d = net.send(0, 3, 10, lambda: None)
        assert d == pytest.approx(0.510)
        # local messages unaffected
        d_local = net.send(0, 0, 10, lambda: None)
        assert d_local == pytest.approx(0.0)
        with pytest.raises(ConfigError):
            net.set_extra_delay(-1.0)

    def test_sample_delay_no_traffic(self, small_topology):
        _, net = self._net(small_topology)
        before = net.traffic.total_bytes()
        net.sample_delay(0, 3)
        assert net.traffic.total_bytes() == before
