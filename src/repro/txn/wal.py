"""Per-node write-ahead logs for the atomic-commit protocols.

Each node keeps one append-only log shared by its two transaction roles
(participant and transaction manager). The log is the *durable* half of a
node: when the failure injector crashes a node, every in-memory structure
(prepare locks, vote state, the TM's in-flight table) is wiped, and the
recovery pass rebuilds exactly what the log proves -- which is what makes
the crash-window tests meaningful rather than trivial.

Record kinds (presumed-abort 2PC, plus the 3PC pre-commit phase):

==================  =====================================================
``prepare``         participant voted YES; payload carries the buffered
                    writes *and the co-participant list* so a recovered
                    node can still apply them and run the cooperative
                    termination protocol
``precommit``       participant learned PRE-COMMIT (3PC only): every
                    participant voted YES, commit is now inevitable
                    unless the whole round dies
``commit``          participant learned COMMIT and applied its writes
``abort``           participant learned ABORT and discarded its writes
                    (also logged as a *refusal pledge* by an unprepared
                    peer answering a termination query -- it guarantees
                    the peer can never vote YES afterwards)
``tm-begin``        TM started a commit round; payload carries the
                    participant list (the recovery pass needs it)
``tm-precommit``    TM collected all YES votes under 3PC and entered the
                    pre-commit phase; recovery drives the round forward
``tm-commit``       TM's forced commit decision -- the transaction's
                    one-record commit point
``tm-abort``        TM's abort decision (not strictly required under
                    presumed abort, logged for observability)
``tm-end``          every participant acknowledged the decision; the
                    transaction needs no further recovery work
==================  =====================================================

A participant is **in doubt** when its log holds a ``prepare`` without a
matching ``commit``/``abort``; a TM round is **unfinished** when it holds a
``tm-begin`` without ``tm-end``. Both queries used to be full log scans,
which made :meth:`~repro.txn.api.TransactionalStore.in_doubt_now` (called
once per report and per sampler tick in observed runs) O(log size). The
log now maintains **incremental pending sets** updated in :meth:`append`;
the scan variants (:meth:`in_doubt_scan`, :meth:`tm_unfinished_scan`)
remain as the executable specification the tests assert against. Both
views iterate in first-record LSN order, so recovery actions replay in a
deterministic sequence either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "REC_PREPARE",
    "REC_PRECOMMIT",
    "REC_COMMIT",
    "REC_ABORT",
    "REC_TM_BEGIN",
    "REC_TM_PRECOMMIT",
    "REC_TM_COMMIT",
    "REC_TM_ABORT",
    "REC_TM_END",
]

REC_PREPARE = "prepare"
REC_PRECOMMIT = "precommit"
REC_COMMIT = "commit"
REC_ABORT = "abort"
REC_TM_BEGIN = "tm-begin"
REC_TM_PRECOMMIT = "tm-precommit"
REC_TM_COMMIT = "tm-commit"
REC_TM_ABORT = "tm-abort"
REC_TM_END = "tm-end"

#: Participant-side records that resolve an in-doubt ``prepare``.
_DECISIONS = (REC_COMMIT, REC_ABORT)
#: TM-side decision records.
_TM_DECISIONS = (REC_TM_COMMIT, REC_TM_ABORT)


class WalRecord:
    """One durable log entry."""

    __slots__ = ("lsn", "txn_id", "kind", "time", "data")

    def __init__(self, lsn: int, txn_id: int, kind: str, time: float, data: Dict[str, Any]):
        self.lsn = lsn
        self.txn_id = txn_id
        self.kind = kind
        self.time = time
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalRecord(lsn={self.lsn}, txn={self.txn_id}, {self.kind})"


class WriteAheadLog:
    """Append-only per-node log with per-transaction indexing.

    ``append`` is the only mutator; there is no truncation (simulated runs
    are bounded, and keeping every record makes the end-of-run audit --
    counting transactions still in doubt -- exact). The pending sets below
    are pure derived state: every update happens inside ``append`` and the
    scan methods recompute them from the records alone.
    """

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        self.records: List[WalRecord] = []
        self._by_txn: Dict[int, List[WalRecord]] = {}
        #: txn_id -> None; prepared-here-but-undecided, in prepare LSN order
        #: (dict preserves insertion order).
        self._in_doubt: Dict[int, None] = {}
        #: txn_id -> its ``tm-begin`` record, without ``tm-end``, in order.
        self._tm_pending: Dict[int, WalRecord] = {}

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> WalRecord:
        """Durably append one record and return it."""
        rec = WalRecord(len(self.records), int(txn_id), kind, float(time), data)
        self._install(rec)
        return rec

    def _install(self, rec: WalRecord) -> None:
        """Add one record to the log and its indexes (no persistence)."""
        self.records.append(rec)
        self._by_txn.setdefault(rec.txn_id, []).append(rec)
        kind = rec.kind
        if kind == REC_PREPARE:
            if not any(r.kind in _DECISIONS for r in self._by_txn[rec.txn_id]):
                self._in_doubt.setdefault(rec.txn_id, None)
        elif kind in _DECISIONS:
            self._in_doubt.pop(rec.txn_id, None)
        elif kind == REC_TM_BEGIN:
            if REC_TM_END not in self.kinds_for(rec.txn_id)[:-1]:
                self._tm_pending.setdefault(rec.txn_id, rec)
        elif kind == REC_TM_END:
            self._tm_pending.pop(rec.txn_id, None)

    def records_for(self, txn_id: int) -> List[WalRecord]:
        """All records of one transaction, in LSN order."""
        return list(self._by_txn.get(int(txn_id), ()))

    def kinds_for(self, txn_id: int) -> Tuple[str, ...]:
        """The record kinds logged for one transaction, in LSN order."""
        return tuple(r.kind for r in self._by_txn.get(int(txn_id), ()))

    def prepare_record(self, txn_id: int) -> Optional[WalRecord]:
        """The ``prepare`` record of a transaction, if one was logged."""
        for rec in self._by_txn.get(int(txn_id), ()):
            if rec.kind == REC_PREPARE:
                return rec
        return None

    def decision_for(self, txn_id: int) -> Optional[str]:
        """``"commit"``/``"abort"`` if this *participant* decided, else ``None``.

        This is the authoritative answer a peer may give to a cooperative
        termination query: a logged participant decision can only have come
        from the TM's (or a previously terminated peer's) verdict.
        """
        for rec in self._by_txn.get(int(txn_id), ()):
            if rec.kind == REC_COMMIT:
                return "commit"
            if rec.kind == REC_ABORT:
                return "abort"
        return None

    def precommitted(self, txn_id: int) -> bool:
        """True if this participant logged a 3PC ``precommit``."""
        return REC_PRECOMMIT in self.kinds_for(txn_id)

    def in_doubt(self) -> List[int]:
        """Transactions prepared here but never decided, in prepare order.

        O(pending) from the incremental set; equal to :meth:`in_doubt_scan`
        by construction (asserted in the tests).
        """
        return list(self._in_doubt)

    def in_doubt_scan(self) -> List[int]:
        """The full-scan specification of :meth:`in_doubt` (tests only)."""
        out: List[int] = []
        for rec in self.records:
            if rec.kind != REC_PREPARE:
                continue
            kinds = self.kinds_for(rec.txn_id)
            if not any(k in _DECISIONS for k in kinds) and rec.txn_id not in out:
                out.append(rec.txn_id)
        return out

    def tm_decision(self, txn_id: int) -> Optional[str]:
        """``"commit"``/``"abort"`` if this node's TM decided, else ``None``."""
        for rec in self._by_txn.get(int(txn_id), ()):
            if rec.kind == REC_TM_COMMIT:
                return "commit"
            if rec.kind == REC_TM_ABORT:
                return "abort"
        return None

    def tm_precommitted(self, txn_id: int) -> bool:
        """True if this node's TM logged a 3PC ``tm-precommit``."""
        return REC_TM_PRECOMMIT in self.kinds_for(txn_id)

    def tm_unfinished(self) -> List[WalRecord]:
        """``tm-begin`` records without a matching ``tm-end``, in LSN order.

        O(pending) from the incremental set; equal to
        :meth:`tm_unfinished_scan` by construction (asserted in the tests).
        """
        return list(self._tm_pending.values())

    def tm_unfinished_scan(self) -> List[WalRecord]:
        """The full-scan specification of :meth:`tm_unfinished` (tests only)."""
        out: List[WalRecord] = []
        for rec in self.records:
            if rec.kind != REC_TM_BEGIN:
                continue
            if REC_TM_END not in self.kinds_for(rec.txn_id):
                out.append(rec)
        return out

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadLog(node={self.node_id}, records={len(self.records)})"
