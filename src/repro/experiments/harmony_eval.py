"""E1: Harmony performance/staleness evaluation (§IV-A).

The paper compares Harmony at two tolerated stale-read rates against static
eventual (ONE) and strong (ALL) consistency, on Grid'5000 (tolerances 20%
and 40%) and EC2 (40% and 60%), under a heavy read-update YCSB workload.
Reported shape:

- "Harmony reduces the read stale data when compared to weak consistency by
  almost 80% while adding minimal latency";
- "it improves the throughput of the system by up to 45% while maintaining
  the desired consistency requirements ... when compared to the strong
  consistency model".

:func:`run_harmony_eval` regenerates those rows on a platform preset and
computes both headline ratios from the measured data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel
from repro.experiments.platforms import Platform
from repro.experiments.runner import harmony_factory, static_factory
from repro.facade import RunSpec, run
from repro.workload.client import RunReport
from repro.workload.workloads import WorkloadSpec

__all__ = ["HarmonyEvalResult", "run_harmony_eval"]


@dataclass
class HarmonyEvalResult:
    """All rows plus the two headline claim ratios."""

    platform: str
    reports: Dict[str, RunReport]
    stale_reduction_vs_eventual: float  # best Harmony stale cut, fraction
    throughput_gain_vs_strong: float  # best Harmony throughput gain, fraction

    def table(self) -> Table:
        """The §IV-A comparison table."""
        t = Table(
            f"E1: Harmony vs static consistency on {self.platform} "
            "(heavy read-update)",
            [
                "policy",
                "throughput ops/s",
                "read mean ms",
                "read p99 ms",
                "stale % (fig1)",
                "stale % (committed)",
                "read-level mix",
            ],
        )
        for name, rep in self.reports.items():
            t.add_row(
                [
                    name,
                    round(rep.throughput, 0),
                    round(rep.read_latency_mean * 1e3, 2),
                    round(rep.read_latency_p99 * 1e3, 2),
                    round(rep.stale_rate_strict * 100.0, 2),
                    round(rep.stale_rate * 100.0, 2),
                    rep.level_mix(),
                ]
            )
        return t

    def claims(self) -> List[str]:
        """Measured versions of the paper's two headline claims."""
        return [
            f"stale-read reduction vs eventual: {self.stale_reduction_vs_eventual:.0%} "
            "(paper: ~80%)",
            f"throughput gain vs strong: {self.throughput_gain_vs_strong:.0%} "
            "(paper: up to 45%)",
        ]


def run_harmony_eval(
    platform: Platform,
    tolerances: Sequence[float] = (0.2, 0.4),
    spec: Optional[WorkloadSpec] = None,
    ops: Optional[int] = None,
    seed: int = 11,
) -> HarmonyEvalResult:
    """Run eventual / Harmony(each tolerance) / strong and compare."""
    factories = {"eventual": static_factory(1, 1, name="eventual")}
    for tol in tolerances:
        factories[f"harmony({tol:g})"] = harmony_factory(tol)
    factories["strong"] = static_factory(
        ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="strong"
    )

    reports: Dict[str, RunReport] = {}
    for name, factory in factories.items():
        reports[name] = run(
            RunSpec(platform=platform, policy=factory, workload=spec, ops=ops, seed=seed)
        ).report

    eventual = reports["eventual"]
    strong = reports["strong"]
    harmony_reports = [
        rep for name, rep in reports.items() if name.startswith("harmony")
    ]
    if eventual.stale_rate_strict > 0:
        stale_cut = max(
            1.0 - rep.stale_rate_strict / eventual.stale_rate_strict
            for rep in harmony_reports
        )
    else:
        stale_cut = 0.0
    if strong.throughput > 0:
        thr_gain = max(
            rep.throughput / strong.throughput - 1.0 for rep in harmony_reports
        )
    else:
        thr_gain = 0.0

    return HarmonyEvalResult(
        platform=platform.name,
        reports=reports,
        stale_reduction_vs_eventual=stale_cut,
        throughput_gain_vs_strong=thr_gain,
    )
