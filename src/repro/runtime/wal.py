"""File-backed write-ahead logs for the asyncio backend.

The simulator models durability by keeping
:class:`~repro.txn.wal.WriteAheadLog` records in memory across simulated
crashes. On the asyncio backend the log lives in a per-node file:
:class:`FileWriteAheadLog` appends every record as one compact JSON line,
``[lsn, txn, kind, t, data]``, and :meth:`FileWriteAheadLog.replay`
rebuilds a log from disk exactly the way a restarted daemon would,
re-deriving the in-doubt and unfinished-TM-round sets from the records
alone.

Each append is written and ``flush()``-ed to the operating system before
``append`` returns, but never ``fsync``-ed: a record survives the kill of
the process that wrote it, not an OS crash or a power loss. A process
killed in the middle of an append can leave a torn final record; replay
drops it and truncates the file to the last whole record.

Record payloads pass through the wire codec's type tagging
(:func:`repro.runtime.codec.to_wire`), so ``{key: Version}`` write maps
survive the disk round-trip as real :class:`~repro.cluster.versions.Version`
objects, under the same ``__v__`` tag the wire frames use.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.common.errors import SimulationError
from repro.runtime.codec import from_wire, to_wire
from repro.txn.wal import WalRecord, WriteAheadLog

__all__ = ["FileWriteAheadLog"]

#: ``json.dumps`` with custom separators builds a new encoder per call;
#: one module-level encoder writes every record line. ``to_wire`` output
#: is acyclic, so the circular-reference check is skipped.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


class FileWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` that also persists each record to disk."""

    def __init__(self, node_id: int, path: str):
        super().__init__(node_id)
        self.path = path
        #: bytes of a torn final record that :meth:`replay` cut off.
        self.torn_bytes = 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> WalRecord:
        rec = super().append(kind, txn_id, time, **data)
        self._fh.write(
            _ENCODER.encode(
                [rec.lsn, rec.txn_id, rec.kind, rec.time, to_wire(rec.data)]
            )
            + "\n"
        )
        self._fh.flush()
        return rec

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @classmethod
    def replay(cls, node_id: int, path: str) -> "FileWriteAheadLog":
        """Rebuild a log from its file (the daemon-restart recovery path).

        Records install through the same indexing routine ``append`` uses
        (without re-persisting them), so the incremental in-doubt /
        unfinished-round sets come out identical to the pre-crash log's --
        asserted by the runtime tests.

        A final record that lacks its newline or does not parse is a torn
        write: it is dropped, the file is truncated to the last whole
        record (so later appends do not land after garbage), and the cut
        is reported as :attr:`torn_bytes`. A bad record followed by whole
        records is corruption and raises :class:`SimulationError`. A clean
        file is never rewritten.
        """
        blob = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                blob = fh.read()
        records = []
        end = 0  # byte offset just past the last whole record
        while True:
            nl = blob.find(b"\n", end)
            if nl < 0:
                break
            try:
                _lsn, txn, kind, t, data = json.loads(blob[end:nl])
            except (ValueError, TypeError) as exc:
                if nl + 1 < len(blob):
                    raise SimulationError(
                        f"{path}: corrupt WAL record at byte {end} "
                        f"followed by more records: {exc}"
                    ) from exc
                break
            records.append((int(txn), kind, float(t), data))
            end = nl + 1
        torn = len(blob) - end
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(end)
        wal = cls(node_id, path)
        wal.torn_bytes = torn
        for txn, kind, t, data in records:
            wal._install(WalRecord(len(wal.records), txn, kind, t, from_wire(data)))
        return wal
