"""Tests for the asyncio localhost runtime: codec, file WALs, runs, xval.

Covers the pieces the transport-conformance suite does not: the wire
codec's contract and type tagging,
:class:`~repro.runtime.wal.FileWriteAheadLog` disk replay (torn tails
included), end-to-end :func:`~repro.runtime.localhost.run_localhost` runs
(including the wall-timeout guard and crash scripts), the deterministic
sim twin, and the cross-validation trend checker's verdict logic.
"""

import enum
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, SimulationError
from repro.cluster.versions import Version
from repro.runtime import codec
from repro.runtime.localhost import LocalhostSpec, run_localhost
from repro.runtime.wal import FileWriteAheadLog
from repro.runtime.xval import (
    XvalCheck,
    XvalReport,
    _trend_failures,
    cross_validate,
    default_xval_spec,
    run_sim_twin,
)
from repro.txn.wal import (
    REC_ABORT,
    REC_COMMIT,
    REC_PREPARE,
    REC_TM_BEGIN,
    WriteAheadLog,
)


def _shared_candidates(value):
    """Every mutable container and Version reachable from ``value``."""
    out = []
    if isinstance(value, (list, tuple, dict, Version)):
        out.append(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            out.extend(_shared_candidates(v))
    return out


#: Nested values of the wire type system (NaN aside: it equals nothing).
_WIRE_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 1e300, -1e300]),
    st.text(max_size=8),
)
#: Dict keys; a lone ``__v__`` key is the Version tag, not user data.
_PLAIN_KEYS = st.text(max_size=6).filter(lambda k: k != "__v__")
_VERSIONS = st.builds(
    Version,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
_WIRE_VALUES = st.recursive(
    st.one_of(_WIRE_SCALARS, _VERSIONS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(st.integers(), max_size=4),
        st.sets(st.text(max_size=4), max_size=4),
        st.dictionaries(_PLAIN_KEYS, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),
    ),
    max_leaves=12,
)


def _normalise(value):
    """What a value reads as after the wire: lists, sorted sets, str keys."""
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _normalise(v) for k, v in value.items()}
    return value


def _assert_strict_equal(got, want):
    """Equality that also tells bool from int and -0.0 from 0.0."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_strict_equal(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            _assert_strict_equal(got[k], want[k])
    elif isinstance(want, Version):
        assert (got.timestamp, got.write_id, got.size) == (
            want.timestamp,
            want.write_id,
            want.size,
        )
    elif isinstance(want, float):
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    else:
        assert got == want


class TestWireCodec:
    def test_roundtrip_scalars_and_containers(self):
        name, args = codec.decode(
            codec.encode("p1.on_vote", (7, True, None, 1.5, "key", [1, 2]))
        )
        assert name == "p1.on_vote"
        assert args == [7, True, None, 1.5, "key", [1, 2]]

    def test_version_maps_survive_the_wire(self):
        writes = {"row1": Version(1.25, 3, 64), "row2": Version(2.0, 9, 128)}
        _, args = codec.decode(codec.encode("p0.on_prepare", (42, writes)))
        assert args[0] == 42
        revived = args[1]
        assert revived == writes
        assert isinstance(revived["row1"], Version)
        assert revived["row1"].size == 64
        # Fresh objects: decoding shares nothing with the sender's state.
        assert revived["row1"] is not writes["row1"]

    def test_tuples_and_sets_become_lists(self):
        assert codec.to_wire((1, 2)) == [1, 2]
        assert codec.to_wire({3, 1, 2}) == [1, 2, 3]  # sorted for determinism

    def test_dict_keys_are_stringified(self):
        assert codec.to_wire({1: "a"}) == {"1": "a"}

    def test_version_tag_requires_exact_shape(self):
        # A dict that merely *contains* the tag key plus other keys is user
        # data, not a tagged Version.
        wire = {"__v__": [1.0, 2, 3], "other": 1}
        back = codec.from_wire(wire)
        assert isinstance(back, dict)
        assert not isinstance(back, Version)
        assert back["other"] == 1

    def test_scalar_subclasses_collapse_to_their_base_type(self):
        class Code(enum.IntEnum):
            A = 3

        class Label(str):
            pass

        _, (back,) = codec.decode(
            codec.encode("h", ([Code.A, np.float64(0.5), Label("x")],))
        )
        assert back == [3, 0.5, "x"]
        assert [type(v) for v in back] == [int, float, str]

    def test_unencodable_object_is_rejected(self):
        with pytest.raises(SimulationError):
            codec.to_wire(object())

    def test_frame_is_bytes_and_the_receiver_shares_nothing(self):
        args = (7, {"k": [1, {"n": None}]}, [Version(1.0, 2, 3)], "s")
        frame = codec.encode("p0.on_prepare", args)
        assert isinstance(frame, bytes)
        name, back = codec.decode(frame)
        assert (name, back) == ("p0.on_prepare", list(args))
        # No container or Version reaches the receiver by reference.
        sent, got = _shared_candidates(args), _shared_candidates(back)
        assert got and not (set(map(id, sent)) & set(map(id, got)))

    @settings(max_examples=200, deadline=None)
    @given(args=st.lists(_WIRE_VALUES, max_size=4))
    def test_roundtrip_property(self, args):
        name, back = codec.decode(codec.encode("h", tuple(args)))
        assert name == "h"
        _assert_strict_equal(back, [_normalise(a) for a in args])


class TestFileWriteAheadLog:
    def test_appends_persist_and_replay_identically(self, tmp_path):
        path = str(tmp_path / "node0.wal")
        wal = FileWriteAheadLog(0, path)
        writes = {"k": Version(1.0, 1, 10)}
        wal.append(REC_PREPARE, 7, 0.5, writes=writes)
        wal.append(REC_TM_BEGIN, 8, 0.6, participants=[0, 1])
        wal.append(REC_COMMIT, 7, 0.9)
        assert wal.in_doubt() == []  # the commit resolved txn 7
        assert [r.txn_id for r in wal.tm_unfinished()] == [8]
        wal.close()

        replayed = FileWriteAheadLog.replay(0, path)
        assert len(replayed) == len(wal)
        assert [r.kind for r in replayed.records] == [
            REC_PREPARE,
            REC_TM_BEGIN,
            REC_COMMIT,
        ]
        # The incremental in-doubt / unfinished sets re-derive from records.
        assert replayed.in_doubt() == wal.in_doubt()
        assert [r.txn_id for r in replayed.tm_unfinished()] == [8]
        # Typed payloads survive the disk round trip.
        rec = replayed.prepare_record(7)
        assert rec is not None
        assert rec.data["writes"] == writes
        assert isinstance(rec.data["writes"]["k"], Version)
        replayed.close()

    def test_replay_preserves_in_doubt_transactions(self, tmp_path):
        path = str(tmp_path / "node1.wal")
        wal = FileWriteAheadLog(1, path)
        wal.append(REC_PREPARE, 3, 0.1, writes={})
        wal.close()
        replayed = FileWriteAheadLog.replay(1, path)
        assert replayed.in_doubt() == [3]
        replayed.close()

    def test_replay_does_not_rewrite_the_file(self, tmp_path):
        path = str(tmp_path / "node2.wal")
        wal = FileWriteAheadLog(2, path)
        wal.append(REC_PREPARE, 1, 0.1, writes={})
        wal.close()
        size_before = os.path.getsize(path)
        replayed = FileWriteAheadLog.replay(2, path)
        replayed.close()
        assert replayed.torn_bytes == 0
        assert os.path.getsize(path) == size_before

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.dictionaries(_PLAIN_KEYS, _WIRE_VALUES, max_size=4),
        time=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_records_roundtrip_property(self, data, time):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prop.wal")
            wal = FileWriteAheadLog(0, path)
            wal.append(REC_TM_BEGIN, 5, time, **data)
            wal.close()
            replayed = FileWriteAheadLog.replay(0, path)
            replayed.close()
        (rec,) = replayed.records
        assert (rec.lsn, rec.txn_id, rec.kind) == (0, 5, REC_TM_BEGIN)
        _assert_strict_equal(rec.time, float(time))
        _assert_strict_equal(rec.data, _normalise(data))

    def _two_records(self, path):
        wal = FileWriteAheadLog(4, path)
        wal.append(REC_PREPARE, 1, 0.1, writes={"k": Version(1.0, 1, 10)})
        wal.append(REC_COMMIT, 1, 0.2)
        wal.close()
        with open(path, "rb") as fh:
            return fh.read()

    def test_torn_final_record_is_cut_and_reported(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        blob = self._two_records(path)
        first = blob.index(b"\n") + 1
        with open(path, "wb") as fh:
            fh.write(blob[:-7])
        replayed = FileWriteAheadLog.replay(4, path)
        assert [r.kind for r in replayed.records] == [REC_PREPARE]
        assert replayed.in_doubt() == [1]
        assert replayed.torn_bytes == len(blob) - 7 - first
        assert os.path.getsize(path) == first
        # Later appends land after the last whole record, not after garbage.
        replayed.append(REC_ABORT, 1, 0.3)
        replayed.close()
        again = FileWriteAheadLog.replay(4, path)
        again.close()
        assert [r.kind for r in again.records] == [REC_PREPARE, REC_ABORT]
        assert again.torn_bytes == 0

    def test_unparsable_final_line_is_torn(self, tmp_path):
        path = str(tmp_path / "garbage.wal")
        blob = self._two_records(path)
        with open(path, "ab") as fh:
            fh.write(b'[2,1,"tm-e\n')
        replayed = FileWriteAheadLog.replay(4, path)
        replayed.close()
        assert len(replayed) == 2
        assert replayed.torn_bytes == 11
        assert os.path.getsize(path) == len(blob)

    def test_every_truncation_replays_to_a_prefix(self, tmp_path):
        path = str(tmp_path / "cut.wal")
        wal = FileWriteAheadLog(0, path)
        wal.append(REC_TM_BEGIN, 1, 0.1, participants=[0, 1])
        wal.append(REC_PREPARE, 1, 0.2, writes={"k": Version(0.2, 1, 10)})
        wal.append(REC_COMMIT, 1, 0.3)
        wal.close()
        kinds = [r.kind for r in wal.records]
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in range(len(blob) + 1):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            replayed = FileWriteAheadLog.replay(0, path)
            replayed.close()
            got = [r.kind for r in replayed.records]
            assert got == kinds[: blob[:cut].count(b"\n")]
            assert replayed.torn_bytes == cut - os.path.getsize(path)
            assert replayed.in_doubt() == replayed.in_doubt_scan()
            assert replayed.tm_unfinished() == replayed.tm_unfinished_scan()

    def test_bad_record_before_whole_records_is_corruption(self, tmp_path):
        path = str(tmp_path / "corrupt.wal")
        blob = self._two_records(path)
        first = blob.index(b"\n") + 1
        with open(path, "wb") as fh:
            fh.write(blob[: first - 5] + b"\n" + blob[first:])
        with pytest.raises(SimulationError, match="corrupt WAL record"):
            FileWriteAheadLog.replay(4, path)
        assert os.path.getsize(path) == len(blob) - 4  # left as found

    def test_matches_in_memory_wal_semantics(self, tmp_path):
        # The file-backed log is the in-memory WriteAheadLog plus disk; the
        # derived sets must agree record-for-record.
        mem = WriteAheadLog(0)
        disk = FileWriteAheadLog(0, str(tmp_path / "twin.wal"))
        for wal in (mem, disk):
            wal.append(REC_PREPARE, 1, 0.1, writes={})
            wal.append(REC_PREPARE, 2, 0.2, writes={})
            wal.append(REC_COMMIT, 1, 0.3)
        assert disk.in_doubt() == mem.in_doubt() == [2]
        assert disk.decision_for(1) == mem.decision_for(1) == REC_COMMIT
        disk.close()


class TestLocalhostSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LocalhostSpec(txns=0)
        with pytest.raises(ConfigError):
            LocalhostSpec(reads_per_txn=-1)
        with pytest.raises(ConfigError):
            LocalhostSpec(hot_fraction=1.5)
        with pytest.raises(ConfigError):
            LocalhostSpec(wall_timeout=0.0)

    def test_build_topology_shape(self):
        topo = LocalhostSpec(n_dcs=2, nodes_per_dc=3).build_topology()
        assert topo.n_nodes == 6
        assert len(topo.datacenters) == 2

    def test_sample_key_respects_hotspot(self):
        from repro.common.rng import spawn_rng

        spec = LocalhostSpec(n_keys=100, hot_keys=2, hot_fraction=1.0)
        rng = spawn_rng(5)
        keys = {spec.sample_key(rng) for _ in range(50)}
        assert keys <= {"key0", "key1"}

        uniform = LocalhostSpec(n_keys=100, hot_keys=2, hot_fraction=0.0)
        rng = spawn_rng(5)
        keys = {uniform.sample_key(rng) for _ in range(200)}
        assert len(keys) > 10  # draws cover the whole keyspace


def _smoke_spec(**overrides):
    base = dict(
        n_dcs=1,
        nodes_per_dc=3,
        replication_factor=2,
        txns=8,
        clients=2,
        writes_per_txn=2,
        reads_per_txn=1,
        n_keys=20,
        hot_keys=2,
        hot_fraction=0.5,
        seed=5,
        time_scale=0.02,
        wall_timeout=30.0,
    )
    base.update(overrides)
    return LocalhostSpec(**base)


class TestRunLocalhost:
    def test_smoke_run_completes_every_txn(self, tmp_path):
        result = run_localhost(_smoke_spec(wal_dir=str(tmp_path)))
        assert not result["timed_out"]
        assert result["outcomes"] == 8
        txn = result["txn"]
        assert txn["txns"] == 8
        assert txn["commits"] + sum(txn["aborts"].values()) == 8
        assert result["protocol_seconds"] > 0
        # Real per-node WAL files were written and carry protocol records.
        wal_files = sorted(os.listdir(tmp_path))
        assert wal_files == [f"node{i}.wal" for i in range(3)]
        assert any(os.path.getsize(tmp_path / f) > 0 for f in wal_files)

    def test_wall_timeout_reports_partial_run(self):
        # An absurdly small wall cap: the guard must fire, cancel the
        # clients and still hand back a well-formed partial result.
        result = run_localhost(
            _smoke_spec(txns=500, wall_timeout=0.05, time_scale=1.0)
        )
        assert result["timed_out"] is True
        assert result["txn"]["txns"] <= 500

    def test_crash_script_runs_to_completion(self, tmp_path):
        # Crash one replica mid-run, recover it later: the run must still
        # terminate (WAL recovery and the cooperative paths absorb it).
        result = run_localhost(
            _smoke_spec(
                wal_dir=str(tmp_path),
                txns=6,
                crashes=((0.2, 0, 1.0),),
            )
        )
        assert not result["timed_out"]
        assert result["outcomes"] == 6


class TestSimTwin:
    def test_twin_is_deterministic(self):
        spec = _smoke_spec()
        a = run_sim_twin(spec)
        b = run_sim_twin(spec)
        assert a["txn"] == b["txn"]
        assert a["stale_rate"] == b["stale_rate"]
        assert a["protocol_seconds"] == b["protocol_seconds"]

    def test_twin_completes_and_reports_same_shape(self):
        result = run_sim_twin(_smoke_spec())
        assert result["timed_out"] is False
        assert result["outcomes"] == 8
        assert result["txn"]["commits"] + sum(result["txn"]["aborts"].values()) == 8
        # Same keys as the asyncio result: xval can compare them blindly.
        aio_keys = set(run_localhost(_smoke_spec()).keys())
        assert set(result.keys()) == aio_keys


class TestXvalVerdicts:
    def test_trend_checker_flags_opposite_moves(self):
        fails = _trend_failures(
            "abort_rate",
            [0.0, 0.5, 0.95],
            [0.10, 0.40, 0.60],  # sim rises twice
            [0.12, 0.02, 0.70],  # asyncio falls on the first step
            deadband=0.05,
        )
        assert len(fails) == 1
        assert "0.00->0.50" in fails[0]

    def test_trend_checker_ignores_deadband_noise(self):
        assert (
            _trend_failures(
                "stale_rate",
                [0.0, 0.5],
                [0.10, 0.14],  # sim move within the deadband: step is flat
                [0.30, 0.10],
                deadband=0.05,
            )
            == []
        )
        assert (
            _trend_failures(
                "stale_rate",
                [0.0, 0.5],
                [0.10, 0.40],
                [0.30, 0.28],  # asyncio move within the deadband: noise
                deadband=0.05,
            )
            == []
        )

    def test_report_passes_only_when_everything_agrees(self):
        ok = XvalCheck(0.5, 0.1, 0.15, 0.0, 0.1, 5.0, 6.0, False)
        bad = XvalCheck(0.9, 0.1, 0.15, 0.0, 0.1, 5.0, 6.0, False, failures=["gap"])
        assert XvalReport([ok], 0.2, 0.25, 0.05).passed
        assert not XvalReport([ok, bad], 0.2, 0.25, 0.05).passed
        assert not XvalReport([ok], 0.2, 0.25, 0.05, trend_failures=["t"]).passed

    def test_report_to_dict_carries_per_level_metrics(self):
        check = XvalCheck(0.5, 0.1, 0.15, 0.0, 0.1, 5.0, 6.0, False)
        d = XvalReport([check], 0.2, 0.25, 0.05).to_dict()
        assert d["passed"] is True
        assert d["levels"][0]["hot_fraction"] == 0.5
        assert d["levels"][0]["aio_commit_ms"] == 6.0

    def test_cross_validate_needs_two_levels(self):
        with pytest.raises(ConfigError):
            cross_validate(hot_fractions=(0.5,))

    def test_default_spec_is_wan_and_overridable(self):
        spec = default_xval_spec()
        assert spec.n_dcs == 2
        assert spec.time_scale >= 0.2  # WAN delays must dwarf loop jitter
        assert default_xval_spec(txns=7).txns == 7

    def test_cross_validate_small_sweep(self):
        # A tiny two-level sweep end to end: both backends run, the report
        # carries one check per level. (Verdicts may legitimately vary with
        # wall-clock jitter at this size; the structure may not.)
        report = cross_validate(
            spec=_smoke_spec(n_dcs=2, nodes_per_dc=2, replication_factor=2, txns=6),
            hot_fractions=(0.0, 0.9),
        )
        assert len(report.checks) == 2
        assert [c.hot_fraction for c in report.checks] == [0.0, 0.9]
        for check in report.checks:
            assert not check.aio_timed_out
