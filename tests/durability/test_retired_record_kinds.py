"""A checksummed frame of a record kind this build does not know is refused.

Recovery installs images only, so a shard log has five record kinds.  A log
written by an older build may hold a frame of a kind that no longer
exists — here a counter-delta record (``"kind": "escrow"``).  Such a frame
passed its checksum, so it is not a torn tail: skipping it would silently
drop a committed increment.  Reading it must raise :class:`WALError`
naming the kind, both from the frame decoder and from a whole recovery.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.errors import WALError
from repro.objects.oid import OID
from repro.schema.examples import banking_schema
from repro.wal import (
    DecisionLog,
    Durability,
    PreparedMarker,
    RecoveryRunner,
    RedoImage,
    UndoImage,
    WriteAheadLog,
)
from repro.wal.records import decode_stamped_frames

ACCOUNT = OID(class_name="Account", number=1)


def _raw_frame(document: dict) -> bytes:
    """One frame in the log's framing, built without a record class."""
    payload = json.dumps(document, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


@pytest.fixture
def old_log(tmp_path):
    """A one-shard directory: a committed transfer, then a counter-delta
    frame of a second committed transaction."""
    durability = Durability.lazy(tmp_path / "wal")
    durability.prepare_directory(1)
    wal = WriteAheadLog(durability.wal_path(0))
    wal.append(UndoImage(txn=1, oid=ACCOUNT, values={"balance": 100.0}))
    wal.append(RedoImage(txn=1, oid=ACCOUNT, values={"balance": 70.0}))
    wal.append(PreparedMarker(txn=1))
    wal.close()
    with open(durability.wal_path(0), "ab") as handle:
        handle.write(_raw_frame({"kind": "escrow", "txn": 2, "lsn": 4,
                                 "oid": ["Account", 1], "field": "balance",
                                 "delta": 5.0}))
    decisions = DecisionLog(durability.decisions_path)
    decisions.append(1, "commit", (0,))
    decisions.append(2, "commit", (0,))
    decisions.close()
    return durability


def test_recovery_refuses_an_unknown_record_kind(old_log):
    runner = RecoveryRunner(old_log, banking_schema())
    with pytest.raises(WALError, match="'escrow'"):
        runner.recover()


def test_frame_decoder_raises_instead_of_stopping_as_at_a_tear(old_log):
    data = old_log.wal_path(0).read_bytes()
    with pytest.raises(WALError, match="'escrow'"):
        list(decode_stamped_frames(data))
    # The same frame torn by one byte *is* a tear: the intact prefix
    # decodes and the scan stops cleanly.
    kinds = [record.kind for _, record in decode_stamped_frames(data[:-1])]
    assert kinds == ["undo", "redo", "prepared"]
