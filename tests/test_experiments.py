"""Tests for platform presets and the experiment harness (scaled down)."""

import pytest

from repro.experiments.platforms import (
    ec2_cost_platform,
    ec2_harmony_platform,
    grid5000_bismar_platform,
    grid5000_harmony_platform,
)
from repro.experiments.runner import (
    bismar_factory,
    harmony_factory,
    rationing_factory,
    rwratio_factory,
    static_factory,
)
from repro.facade import RunSpec, run


class TestPlatforms:
    @pytest.mark.parametrize(
        "factory,nodes,rf",
        [
            (ec2_harmony_platform, 20, 3),
            (grid5000_harmony_platform, 84, 3),
            (ec2_cost_platform, 18, 5),
            (grid5000_bismar_platform, 50, 5),
        ],
    )
    def test_paper_deployment_shapes(self, factory, nodes, rf):
        plat = factory()
        sim, store = plat.build(seed=0)
        assert store.topology.n_nodes == nodes
        assert store.strategy.rf_total == rf
        assert plat.rf == rf
        assert len(store.topology.datacenters) == 2

    def test_builds_are_independent(self):
        plat = ec2_harmony_platform()
        _, a = plat.build(seed=0)
        _, b = plat.build(seed=0)
        assert a is not b
        assert a.sim is not b.sim

    def test_scale_knob(self):
        small = ec2_cost_platform(scale=0.5)
        assert small.default_ops == 20_000
        assert small.default_record_count == 60

    def test_g5k_has_wan_latency(self):
        plat = grid5000_harmony_platform()
        _, store = plat.build(seed=0)
        wan = store.topology.mean_wan_delay()
        assert wan == pytest.approx(0.009, rel=0.01)


class TestRun:
    def test_static_run_returns_report_and_bill(self):
        out = run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=static_factory(1, 1, name="one"),
                ops=2000,
                clients=8,
                seed=1,
            )
        )
        assert out.report.ops_completed > 0
        assert out.report.policy == "one"
        assert out.bill.total > 0
        assert out.bill.ops > 0

    def test_warmup_excluded_from_bill(self):
        def bill(warmup):
            return run(
                RunSpec(
                    platform=ec2_harmony_platform(),
                    policy=static_factory(1, 1),
                    ops=2000,
                    clients=8,
                    seed=1,
                    warmup_fraction=warmup,
                )
            ).bill

        assert bill(0.5).ops < bill(0.0).ops

    def test_harmony_factory_run(self):
        rep = run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=harmony_factory(0.2),
                ops=3000,
                clients=8,
                seed=1,
            )
        ).report
        assert rep.policy == "harmony(0.2)"
        assert rep.ops_completed > 0
        assert rep.stale_rate_strict <= 0.2 + 0.1

    def test_bismar_factory_run(self):
        plat = grid5000_bismar_platform()
        out = run(
            RunSpec(
                platform=plat,
                policy=bismar_factory(plat.prices, stale_cap=0.1),
                ops=3000,
                clients=8,
                seed=1,
            )
        )
        assert out.report.policy.startswith("bismar")
        assert out.bill.total > 0

    def test_baseline_factories_run(self):
        plat = ec2_harmony_platform()
        for factory in (rationing_factory(0.01), rwratio_factory(2.0)):
            spec = RunSpec(platform=plat, policy=factory, ops=1500, clients=4, seed=1)
            assert run(spec).report.ops_completed > 0

    def test_target_throughput_paces(self):
        rep = run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=static_factory(1, 1),
                ops=2000,
                clients=8,
                seed=1,
                target_throughput=1000.0,
                warmup_fraction=0.0,
            )
        ).report
        assert rep.throughput == pytest.approx(1000.0, rel=0.15)

    def test_seed_reproducibility(self):
        def once():
            return run(
                RunSpec(
                    platform=ec2_harmony_platform(),
                    policy=static_factory(1, 1),
                    ops=1500,
                    clients=4,
                    seed=5,
                )
            )

        out1, out2 = once(), once()
        assert out1.report.throughput == pytest.approx(out2.report.throughput)
        assert out1.report.stale_rate == out2.report.stale_rate
        assert out1.bill.total == pytest.approx(out2.bill.total)
