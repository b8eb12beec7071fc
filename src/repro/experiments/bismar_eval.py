"""E3/E4: the efficiency metric samples and the Bismar evaluation (§IV-B).

**E3 (metric samples).** The paper collects efficiency samples "when
running the same workload with different access patterns and different
consistency levels" and finds "the most efficient consistency levels are
the ones that provide a staleness rate smaller than 20%".
:func:`run_efficiency_samples` sweeps access patterns x levels, computes
the measured efficiency of each sample, and checks where the winners sit.

**E4 (Bismar).** The paper: "only the consistency level ONE costs less
[than Bismar]. This level (ONE) however, tolerates up to 61% of stale
reads. Our approach Bismar achieves up to 31% of cost reduction compared to
the static level Quorum ... while it only tolerates 3.5% of stale reads".
:func:`run_bismar_eval` reruns that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel
from repro.cost.billing import Bill
from repro.bismar.efficiency import consistency_cost_efficiency
from repro.experiments.platforms import Platform
from repro.experiments.runner import bismar_factory, static_factory
from repro.facade import RunSpec, run
from repro.workload.client import RunReport
from repro.workload.workloads import WorkloadSpec, heavy_read_update

__all__ = [
    "EfficiencySample",
    "run_efficiency_samples",
    "BismarEvalResult",
    "run_bismar_eval",
]


# --------------------------------------------------------------------------- E3


@dataclass(frozen=True)
class EfficiencySample:
    """One (access pattern, level) sample of measured efficiency."""

    pattern: str
    level: str
    stale_rate: float
    cost_per_kop: float
    relative_cost: float
    efficiency: float


def run_efficiency_samples(
    platform: Platform,
    patterns: Optional[Dict[str, WorkloadSpec]] = None,
    levels: Sequence[int] = (1, 2, 3, 4, 5),
    ops: Optional[int] = None,
    seed: int = 11,
    target_throughput: Optional[float] = 10_000.0,
) -> List[EfficiencySample]:
    """Sweep access patterns x read levels; measure cost and staleness.

    Efficiency is computed from *measured* quantities: fresh fraction over
    cost-per-kop normalized within the pattern (exactly how the paper's
    samples are comparable only within a workload).
    """
    if patterns is None:
        rc = platform.default_record_count
        patterns = {
            "zipfian": heavy_read_update(record_count=rc, distribution="zipfian"),
            "uniform": heavy_read_update(record_count=rc, distribution="uniform"),
            "hotspot": WorkloadSpec(
                name="hotspot-heavy",
                read_proportion=0.5,
                update_proportion=0.5,
                record_count=rc,
                distribution="hotspot",
                distribution_kwargs={"hot_set_fraction": 0.05, "hot_opn_fraction": 0.9},
            ),
        }
    samples: List[EfficiencySample] = []
    for pname, spec in patterns.items():
        rows: List[Tuple[str, RunReport, Bill]] = []
        for lv in levels:
            out = run(
                RunSpec(
                    platform=platform,
                    policy=static_factory(lv, lv, name=f"n={lv}"),
                    workload=spec,
                    ops=ops,
                    seed=seed,
                    target_throughput=target_throughput,
                )
            )
            rows.append((f"n={lv}", out.report, out.bill))
        floor = min(b.cost_per_kop for _, _, b in rows if b.cost_per_kop > 0)
        for name, rep, bill in rows:
            rel = bill.cost_per_kop / floor if floor > 0 else 1.0
            samples.append(
                EfficiencySample(
                    pattern=pname,
                    level=name,
                    stale_rate=rep.stale_rate_strict,
                    cost_per_kop=bill.cost_per_kop,
                    relative_cost=rel,
                    efficiency=consistency_cost_efficiency(rep.stale_rate_strict, rel),
                )
            )
    return samples


def efficiency_table(samples: Sequence[EfficiencySample]) -> Table:
    """Render E3 samples with the per-pattern winner marked."""
    t = Table(
        "E3: consistency-cost efficiency samples "
        "(winner per access pattern marked *)",
        ["pattern", "level", "stale %", "$/kop", "rel cost", "efficiency", "best"],
    )
    best_by_pattern: Dict[str, EfficiencySample] = {}
    for s in samples:
        cur = best_by_pattern.get(s.pattern)
        if cur is None or s.efficiency > cur.efficiency:
            best_by_pattern[s.pattern] = s
    for s in samples:
        t.add_row(
            [
                s.pattern,
                s.level,
                round(s.stale_rate * 100.0, 1),
                round(s.cost_per_kop, 6),
                round(s.relative_cost, 3),
                round(s.efficiency, 3),
                "*" if best_by_pattern[s.pattern] is s else "",
            ]
        )
    return t


# --------------------------------------------------------------------------- E4


@dataclass
class BismarEvalResult:
    """Bismar vs static levels, with the paper's headline ratios."""

    platform: str
    reports: Dict[str, RunReport]
    bills: Dict[str, Bill]
    cost_reduction_vs_quorum: float
    bismar_stale_rate: float
    one_stale_rate: float

    def table(self) -> Table:
        """The E4 comparison table."""
        t = Table(
            f"E4: Bismar vs static levels on {self.platform} (RF=5)",
            ["policy", "stale % (fig1)", "thr ops/s", "$/kop", "total $", "read-level mix"],
        )
        for name in self.reports:
            rep, bill = self.reports[name], self.bills[name]
            t.add_row(
                [
                    name,
                    round(rep.stale_rate_strict * 100.0, 2),
                    round(rep.throughput, 0),
                    round(bill.cost_per_kop, 6),
                    round(bill.total, 6),
                    rep.level_mix(),
                ]
            )
        return t

    def claims(self) -> List[str]:
        """Measured versions of the paper's Bismar claims."""
        return [
            f"Bismar cost reduction vs QUORUM: {self.cost_reduction_vs_quorum:.0%} "
            "(paper: up to 31%)",
            f"Bismar stale reads: {self.bismar_stale_rate:.1%} (paper: 3.5%)",
            f"static ONE stale reads: {self.one_stale_rate:.0%} (paper: up to 61%)",
        ]


def run_bismar_eval(
    platform: Platform,
    spec: Optional[WorkloadSpec] = None,
    ops: Optional[int] = None,
    seed: int = 11,
    stale_cap: Optional[float] = 0.05,
    target_throughput: Optional[float] = 10_000.0,
) -> BismarEvalResult:
    """Run ONE / QUORUM / ALL / Bismar on the platform and compare bills.

    ``target_throughput`` paces the clients (as YCSB's target parameter
    does) so every run lasts long enough for the adaptive engines' monitor
    windows to be meaningful -- without it, weak levels finish the scaled
    op count in well under one monitoring window.
    """
    factories = {
        "ONE": static_factory(1, 1, name="ONE"),
        "QUORUM": static_factory(
            ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, name="QUORUM"
        ),
        "ALL": static_factory(ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="ALL"),
        "bismar": bismar_factory(platform.prices, stale_cap=stale_cap),
    }
    reports: Dict[str, RunReport] = {}
    bills: Dict[str, Bill] = {}
    for name, factory in factories.items():
        out = run(
            RunSpec(
                platform=platform,
                policy=factory,
                workload=spec,
                ops=ops,
                seed=seed,
                target_throughput=target_throughput,
            )
        )
        reports[name] = out.report
        bills[name] = out.bill

    quorum_kop = bills["QUORUM"].cost_per_kop
    bismar_kop = bills["bismar"].cost_per_kop
    cut = 1.0 - bismar_kop / quorum_kop if quorum_kop > 0 else 0.0
    return BismarEvalResult(
        platform=platform.name,
        reports=reports,
        bills=bills,
        cost_reduction_vs_quorum=cut,
        bismar_stale_rate=reports["bismar"].stale_rate_strict,
        one_stale_rate=reports["ONE"].stale_rate_strict,
    )
