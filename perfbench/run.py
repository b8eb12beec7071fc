"""The repository's benchmark: one workload per invocation, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload geo-harmony --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
in host-paced seconds (see :func:`host_pace`);
``--trace 1`` runs the same units untraced and traced in pairs and reports
the per-layer metrics. Every unit's output is checked; the last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when a check failed, 2 when the program cannot be imported. See README.md
for the workloads and the metric definitions.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("geo-harmony", "txn-storm", "localhost-2pc")
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: The pace, in seconds, that wall times are rescaled to: a pass of
#: :func:`host_pace`'s loop takes about this long on a 2.1 GHz Xeon core
#: that no co-tenant slows (10-16 ms, 10% to 90%, on a shared one).
REFERENCE_PACE_S = 0.010
#: Fewest measured units per run, whatever ``--seconds`` says.
MIN_UNITS = 3


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``; exit 2 if it is absent."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from outside {SRC}", file=sys.stderr)
        sys.exit(2)


def host_pace() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now.

    The shared host this benchmark runs on changes speed by up to 2x over
    seconds to minutes, as co-tenants come and go. Every wall time the
    end-to-end metrics use is rescaled by ``REFERENCE_PACE_S / pace``, with
    the pace timed just before and just after the measured call, so that a
    metric reads what the call would have taken at the reference pace.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return time.perf_counter() - t0


def paced_unit(wl, seed: int):
    """Run one unit and record the host pace around it."""
    before = host_pace()
    unit = wl.run_unit(seed)
    unit.pace_s = (before + host_pace()) / 2
    return unit


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (import + inputs + deploy),
    each rescaled to the reference pace."""
    samples = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed + i), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(2)
        setup_s, pace_s = map(float, proc.stdout.split()[-2:])
        samples.append(setup_s * REFERENCE_PACE_S / pace_s)
    return median(samples)


def end_to_end(units, setup_s):
    """The end-to-end metrics: medians over the measured units, with wall
    times rescaled to the reference pace (see README)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def paced(u):
        return REFERENCE_PACE_S / u.pace_s

    def latency(u, value_ms):
        return value_ms * paced(u) if u.wall_latency else value_ms

    return {
        "ops_per_s": (median([u.issued / (u.wall_s * paced(u)) for u in units]),
                      "ops/s"),
        "commits_per_s": (
            median([u.committed / (u.wall_s * paced(u)) for u in units]), "txn/s"),
        "commit_p50_ms": (median([latency(u, u.p50_ms) for u in units]), "ms"),
        "commit_p99_ms": (median([latency(u, u.p99_ms) for u in units]), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def abort_share(units) -> float:
    """Aborted plus undecided transactions over those issued."""
    attempted = sum(u.attempted for u in units)
    return sum(u.aborted + u.failed for u in units) / attempted


def per_layer(traced, untraced, lags, calls, calls_issued):
    """Per-layer metrics from the traced units (see README for each)."""
    from workloads import percentile

    issued = sum(u.issued for u, _ in traced)
    decided = sum(u.counts.get("decided", 0) for u, _ in traced)
    n = len(traced)

    def total(key):
        return sum(u.counts.get(key, 0) for u, _ in traced)

    def spans(*methods):
        """Spans of the wrapped methods named ``Class.method``."""
        return sum(tr.calls()[m] for _, tr in traced for m in methods)

    def self_s(layer):
        return median([tr.self_seconds()[layer] for _, tr in traced])

    def per(x, base):
        return x / base if base else 0.0

    latency_models = [m for m in traced[0][1].names if m.endswith(".sample")]
    frames = spans("codec.encode")
    frame_bytes = sum(tr.frame_bytes for _, tr in traced)
    return {
        "simcore.events_per_op": (per(total("events"), issued), "count/op"),
        "simcore.schedules_per_op": (
            per(spans("Simulator.schedule", "Simulator.schedule_at"), issued),
            "count/op"),
        "simcore.self_s": (self_s("simcore"), "s"),
        "net.msgs_per_op": (per(total("msgs"), issued), "count/op"),
        "net.bytes_per_op": (per(total("bytes"), issued), "B/op"),
        "net.latency_samples_per_op": (per(spans(*latency_models), issued), "count/op"),
        "net.send.self_s": (self_s("net.send"), "s"),
        "net.latency.self_s": (self_s("net.latency"), "s"),
        "cluster.node_handles_per_op": (
            per(spans("StorageNode.handle_read", "StorageNode.handle_write"), issued),
            "count/op"),
        "cluster.coord.self_s": (self_s("cluster.coord"), "s"),
        "cluster.node.self_s": (self_s("cluster.node"), "s"),
        "harmony.decisions_per_op": (
            per(spans("HarmonyEngine.read_level"), issued), "count/op"),
        "harmony.self_s": (self_s("harmony"), "s"),
        "monitor.self_s": (self_s("monitor"), "s"),
        "workload.self_s": (self_s("workload"), "s"),
        "txn.msgs_per_txn": (per(total("txn_msgs"), decided), "count/txn"),
        "txn.wal_records_per_txn": (per(total("wal_records"), decided), "count/txn"),
        "txn.tm.self_s": (self_s("txn.tm"), "s"),
        "txn.participant.self_s": (self_s("txn.participant"), "s"),
        "txn.recoveries": (per(total("recoveries"), n), "count"),
        "txn.abort_share": (abort_share([u for u, _ in traced]), "ratio"),
        "obs.self_s": (self_s("obs"), "s"),
        "obs.anomalies": (per(total("anomalies"), n), "count"),
        "runtime.frames_per_txn": (per(frames, issued), "count/txn"),
        "runtime.frame_bytes_mean": (per(frame_bytes, frames), "B"),
        "runtime.codec.self_s": (self_s("runtime.codec"), "s"),
        "runtime.send.self_s": (self_s("runtime.send"), "s"),
        "runtime.wal_bytes_per_txn": (per(total("wal_bytes"), issued), "B/txn"),
        "runtime.wal.self_s": (self_s("runtime.wal"), "s"),
        "runtime.loop_lag_p99_ms": (percentile(lags, 99) * 1e3, "ms"),
        "py.calls_per_op": (per(calls, calls_issued), "count/op"),
        "trace.overhead": (
            median([u.wall_s for u, _ in traced])
            / median([u.wall_s for u in untraced]),
            "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    import workloads
    from tracing import LoopLagProbe, Tracer, count_python_calls

    wl = workloads.make(args.workload)
    wl.setup(args.seed)
    if args.setup_probe:
        print(time.perf_counter() - _T0, host_pace())
        return 0
    setup_s = setup_seconds(args.workload, args.seed) if args.trace == 0 else 0.0

    # Untimed warm-up: lazy imports and first-call costs land here. On the
    # simulator it is also the pinned-output check.
    errors = []
    warm = wl.run_unit(workloads.GOLDEN_SEED)
    errors += [f"warm-up: {e}" for e in warm.errors]
    if warm.digest:
        with open(GOLDEN, encoding="utf-8") as fh:
            pinned = json.load(fh).get(args.workload)
        if pinned != warm.digest:
            errors.append(
                f"seed-{workloads.GOLDEN_SEED} metrics row digest {warm.digest} "
                f"!= pinned {pinned}: simulated behaviour changed"
            )
    gc.collect()

    units, traced, lags = [], [], []
    t_start = time.perf_counter()
    i = 0
    while i < (MIN_UNITS if args.trace == 0 else 1) or (
        time.perf_counter() - t_start < args.seconds
    ):
        seed = args.seed * 1000 + i
        if args.trace == 0:
            units.append(paced_unit(wl, seed))
        else:
            if isinstance(wl, workloads.LocalhostWorkload):
                probe = LoopLagProbe()
                units.append(wl.run_unit(seed, probe=probe))
                lags += probe.lags
            else:
                units.append(wl.run_unit(seed))
            gc.collect()
            with Tracer() as tracer:
                unit = wl.run_unit(seed)
            traced.append((unit, tracer))
        gc.collect()
        i += 1

    for u in units + [u for u, _ in traced]:
        errors += u.errors
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    if args.trace == 0:
        metrics = end_to_end(units, setup_s)
        print(f"{args.workload}: {len(units)} units; commit latency percentiles per "
              f"unit over {min(u.samples for u in units)}+ samples; "
              f"failed {failed}/{attempted}; aborted + undecided share "
              f"{abort_share(units):.4f}")
        print(f"  unpaced: ops_per_s {median([u.issued / u.wall_s for u in units]):.6g}, "
              f"host pace {median([u.pace_s for u in units]) * 1e3:.4g} ms "
              f"(reference {REFERENCE_PACE_S * 1e3:g} ms)")
    else:
        traced[-1][1].write(
            os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"))
        gc.collect()
        prof_unit, calls = count_python_calls(lambda: wl.run_unit(args.seed * 1000))
        errors += prof_unit.errors
        metrics = per_layer(traced, units, lags, calls, prof_unit.issued)
        print(f"{args.workload}: {len(traced)} traced units")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
