"""The benchmark's three workloads and the correctness checks on their outputs.

Each workload runs in *units*: one unit is one fresh deployment at the
workload's stated size, driven through the program's public entry points
(``ScenarioSpec.run`` / ``repro.run`` on the simulator,
``deploy_localhost`` + ``TransactionalStore.begin`` on asyncio). A unit
returns a :class:`Unit` with its wall time, what it issued, what
committed, its latencies, the layer counters read from public fields of
the outcome, and any correctness check that failed.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import facade
from repro.experiments import scenarios
from repro.obs.recorder import ObsConfig
from repro.runtime.localhost import LocalhostSpec, deploy_localhost
from repro.runtime.wal import FileWriteAheadLog

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Seed of the untimed warm-up unit whose result row is pinned in golden.json.
GOLDEN_SEED = 11


@dataclass
class Unit:
    """What one unit of a workload did."""

    wall_s: float
    #: operations or transactions the unit issued (warm-up included).
    issued: int
    #: committed transactions (successful writes on geo-harmony) per the
    #: engine's own measured window.
    committed: int
    #: units of work the failure count is taken over, and the failed ones:
    #: operations that errored, or transactions left without a decision.
    attempted: int
    failed: int
    #: transactions decided as aborts (conflict, timeout, crash): a decided
    #: outcome, so not failed, but reported as ``txn.abort_share``.
    aborted: int = 0
    #: commit-latency percentiles in ms (see README for each engine's clock)
    #: and the number of latency samples they were taken over.
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    samples: int = 0
    #: True when the latencies are wall-clock (asyncio), False when they
    #: are protocol time (simulator).
    wall_latency: bool = False
    #: the host's pace around the unit, set by the runner (see run.py).
    pace_s: float = 0.0
    #: layer counters read from the outcome's public fields.
    counts: Dict[str, float] = field(default_factory=dict)
    #: failed correctness checks (empty = correct).
    errors: List[str] = field(default_factory=list)
    #: the ScenarioRun.metrics() row digest (simulator units).
    digest: str = ""


def percentile(xs: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    return xs[max(1, math.ceil(q / 100.0 * len(xs))) - 1]


def metrics_digest(row: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


class SimWorkload:
    """A registered simulator scenario at a fixed size, one call per unit."""

    def __init__(
        self,
        name: str,
        scenario: str,
        ops: int,
        overrides: Dict[str, Any],
        observe: bool,
        check: Callable[[Any, Any], List[str]],
    ):
        self.name = name
        self.scenario = scenario
        self.ops = ops
        self.overrides = overrides
        self.observe = observe
        self.check = check

    def setup(self, seed: int) -> None:
        self.spec = scenarios.get(self.scenario)

    def run_unit(self, seed: int) -> Unit:
        captured: List[Any] = []
        real_run = facade.run

        def spy(spec: Any) -> Any:
            out = real_run(spec)
            captured.append(out)
            return out

        facade.run = spy
        try:
            t0 = time.perf_counter()
            row = self.spec.run(
                seed=seed,
                ops=self.ops,
                overrides=self.overrides,
                obs=ObsConfig() if self.observe else None,
            )
            wall = time.perf_counter() - t0
        finally:
            facade.run = real_run
        return self._unit(wall, row, captured[0])

    def _unit(self, wall: float, row: Any, out: Any) -> Unit:
        store = out.store
        traffic = store.network.traffic
        counts = {
            "events": store.sim.events_processed,
            "msgs": sum(traffic.messages.values()),
            "bytes": traffic.total_bytes(),
        }
        txn = row.report.txn
        if txn is not None:
            tstore = out.tstore
            undecided = int(txn["in_doubt_client"])
            attempted = int(txn["txns"]) + undecided
            failed = undecided
            committed = int(txn["commits"])
            aborted = int(txn["txns"]) - committed
            lat = tstore.commit_latency
            counts.update(
                decided=int(txn["txns"]),
                txn_msgs=int(txn["msgs"]),
                wal_records=int(txn["wal_records"]),
                recoveries=int(txn["in_doubt_recovered"])
                + int(txn["tm_recovery_resolved"])
                + int(txn["termination_resolved"]),
            )
        else:
            failed = store.failure_count()
            attempted = store.ops_completed() + failed
            committed = store.writes_ok
            aborted = 0
            lat = store.write_latency
        if out.obs is not None and out.obs.oracles is not None:
            counts["anomalies"] = out.obs.oracles.total()
        return Unit(
            wall_s=wall,
            issued=self.ops,
            committed=committed,
            attempted=attempted,
            failed=failed,
            aborted=aborted,
            p50_ms=lat.percentile(50) * 1e3,
            p99_ms=lat.percentile(99) * 1e3,
            samples=lat.n,
            counts=counts,
            errors=self.check(row, out),
            digest=metrics_digest(row.metrics()),
        )


def _geo_check(row: Any, out: Any) -> List[str]:
    rep = row.report
    limit = float(row.params["tolerance"]) + 0.05
    errors = []
    if not rep.stale_rate_strict <= limit:
        errors.append(f"stale_rate_strict {rep.stale_rate_strict:.4f} > {limit}")
    if rep.ops_completed <= 0:
        errors.append("no operation completed")
    return errors


def _storm_check(row: Any, out: Any) -> List[str]:
    txn = row.report.txn
    errors = []
    if txn["lost_updates"] != 0:
        errors.append(f"lost_updates = {txn['lost_updates']}")
    if txn["commits"] <= 0:
        errors.append("no transaction committed")
    return errors


#: The txn-protocol-shootout crash storm, stretched so its crashes and
#: recoveries land after the 20% warm-up: at the scenario's defaults the
#: whole storm falls inside the warm-up of a 3,000-transaction run.
STORM = {
    "commit_protocol": "2pc-coop",
    "crash_start": 1.0,
    "crash_count": 6,
    "crash_interval": 0.3,
    "downtime": 0.5,
}


class LocalhostWorkload:
    """Closed-loop 2PC clients on the asyncio engine, one deployment per unit."""

    #: Wall seconds per protocol second: low enough that the one event loop
    #: is CPU-bound (busy 98% of the unit), high enough that the 5 s
    #: protocol prepare timeout (250 wall-ms) stays far above the commit
    #: p99 even on a host running at half speed, so aborts stay rare.
    TIME_SCALE = 0.05
    TXNS = 1200
    CLIENTS = 16
    N_KEYS = 10_000
    VALUE_SIZE = 200
    #: A unit whose aborted-plus-undecided share exceeds this fails its check.
    MAX_ABORT_SHARE = 0.05
    #: Hard wall-clock cap on one unit.
    WALL_TIMEOUT = 60.0

    name = "localhost-2pc"

    def setup(self, seed: int) -> None:
        self.inputs(seed)
        dep = deploy_localhost(self._spec(seed))
        dep.close()
        shutil.rmtree(dep.wal_dir, ignore_errors=True)

    def inputs(self, seed: int) -> List[Tuple[str, Tuple[str, ...]]]:
        """Per transaction: one read key and the sorted distinct write keys."""
        keys = np.random.default_rng(seed).integers(0, self.N_KEYS, size=(self.TXNS, 3))
        return [
            (f"key{r}", tuple(sorted({f"key{w1}", f"key{w2}"})))
            for r, w1, w2 in keys.tolist()
        ]

    def _spec(self, seed: int) -> LocalhostSpec:
        return LocalhostSpec(
            n_dcs=2,
            nodes_per_dc=3,
            replication_factor=3,
            txns=self.TXNS,
            clients=self.CLIENTS,
            writes_per_txn=2,
            reads_per_txn=1,
            n_keys=self.N_KEYS,
            hot_keys=0,
            hot_fraction=0.0,
            value_size=self.VALUE_SIZE,
            seed=seed,
            time_scale=self.TIME_SCALE,
            wall_timeout=self.WALL_TIMEOUT,
            wal_dir=os.path.join(OUT_DIR, "wal", f"{os.getpid()}-{seed}"),
        )

    def run_unit(self, seed: int, probe: Optional[Any] = None) -> Unit:
        txns = self.inputs(seed)
        spec = self._spec(seed)
        shutil.rmtree(spec.wal_dir, ignore_errors=True)
        dep = deploy_localhost(spec)
        latencies: List[float] = []
        statuses: Dict[str, int] = {}

        async def drive() -> float:
            loop = asyncio.get_running_loop()
            dep.transport.start(loop)
            if probe is not None:
                probe.start(loop)
            todo = iter(txns)
            clock = time.perf_counter

            async def one(read_key: str, write_keys: Tuple[str, ...]) -> None:
                t0 = clock()
                txn = dep.tstore.begin()
                txn.read(read_key)
                for key in write_keys:
                    txn.write(key, self.VALUE_SIZE)
                fut = loop.create_future()
                txn.commit(lambda o: fut.done() or fut.set_result(o))
                outcome = await fut
                statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
                if outcome.committed:
                    latencies.append(clock() - t0)

            async def client() -> None:
                for read_key, write_keys in todo:
                    await one(read_key, write_keys)

            t_start = clock()
            try:
                await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
            finally:
                if probe is not None:
                    probe.stop()
            return clock() - t_start

        async def guarded() -> Tuple[float, bool]:
            try:
                return await asyncio.wait_for(drive(), timeout=self.WALL_TIMEOUT), False
            except asyncio.TimeoutError:
                return self.WALL_TIMEOUT, True

        try:
            wall, timed_out = asyncio.run(guarded())
        finally:
            dep.close()
        summary = dep.tstore.txn_summary()
        traffic = dep.transport.traffic
        committed = statuses.get("committed", 0)
        aborted = statuses.get("aborted", 0)
        failed = len(txns) - committed - aborted
        errors = []
        if timed_out:
            errors.append(f"unit timed out after {self.WALL_TIMEOUT} s")
        if summary["txns"] != len(txns):
            errors.append(
                f"commits + aborts = {summary['txns']} != {len(txns)} issued"
            )
        if summary["lost_updates"] != 0:
            errors.append(f"lost_updates = {summary['lost_updates']}")
        if len(latencies) < 1000:
            errors.append(
                f"{len(latencies)} commits: p99 needs 1000 for 10 samples beyond it"
            )
        not_committed = len(txns) - committed
        if not_committed > self.MAX_ABORT_SHARE * len(txns):
            errors.append(
                f"aborted + undecided share {not_committed / len(txns):.4f} "
                f"> {self.MAX_ABORT_SHARE}"
            )
        errors.extend(_check_wal_replay(dep.tstore.wals))
        wal_bytes = sum(os.path.getsize(w.path) for w in dep.tstore.wals)
        shutil.rmtree(dep.wal_dir, ignore_errors=True)
        return Unit(
            wall_s=wall,
            issued=len(txns),
            committed=committed,
            attempted=len(txns),
            failed=failed,
            aborted=aborted,
            p50_ms=percentile(latencies, 50) * 1e3,
            p99_ms=percentile(latencies, 99) * 1e3,
            samples=len(latencies),
            wall_latency=True,
            counts={
                "events": 0,
                "msgs": sum(traffic.messages.values()),
                "bytes": traffic.total_bytes(),
                "decided": int(summary["txns"]),
                "txn_msgs": int(summary["msgs"]),
                "wal_records": int(summary["wal_records"]),
                "recoveries": int(summary["in_doubt_recovered"])
                + int(summary["tm_recovery_resolved"])
                + int(summary["termination_resolved"]),
                "wal_bytes": wal_bytes,
            },
            errors=errors,
        )


def _check_wal_replay(wals: List[Any]) -> List[str]:
    """Every node's WAL file must replay to its in-memory log."""
    errors = []
    for wal in wals:
        replayed = FileWriteAheadLog.replay(wal.node_id, wal.path)
        replayed.close()
        if len(replayed) != len(wal):
            errors.append(
                f"node {wal.node_id}: replay has {len(replayed)} records, "
                f"memory {len(wal)}"
            )
        if sorted(replayed.in_doubt()) != sorted(wal.in_doubt()):
            errors.append(f"node {wal.node_id}: replayed in_doubt() differs")
        if sorted(r.lsn for r in replayed.tm_unfinished()) != sorted(
            r.lsn for r in wal.tm_unfinished()
        ):
            errors.append(f"node {wal.node_id}: replayed tm_unfinished() differs")
    return errors


def make(name: str) -> Any:
    """The workload registered under ``name``."""
    if name == "geo-harmony":
        return SimWorkload(
            name, "geo-replication", ops=10_000, overrides={"tolerance": 0.2},
            observe=False, check=_geo_check,
        )
    if name == "txn-storm":
        return SimWorkload(
            name, "txn-protocol-shootout", ops=3_000, overrides=STORM,
            observe=True, check=_storm_check,
        )
    if name == "localhost-2pc":
        return LocalhostWorkload()
    raise KeyError(name)

