"""Log records: what the durability subsystem writes to disk.

The paper's recovery idea (§3) is that the ``Write`` entries of an
operation's transitive access vector are exactly the projection a log record
needs — no programmer-supplied inverse operation.  The record kinds below
are that idea made durable:

* :class:`UndoImage` — the TAV-projected *before*-image of one instance,
  appended (write-through) **before** the operation executes, so a fuzzy
  checkpoint can never snapshot a dirty field whose pre-state is not already
  on disk;
* :class:`RedoImage` — the projected *after*-image, appended by the shard
  participant at **prepare** time, when strict 2PL guarantees the values are
  the transaction's final ones for those fields;
* :class:`PreparedMarker` — the participant's durable yes-vote, written
  after its redo images and flushed before the vote returns;
* :class:`DecisionRecord` — one entry of the coordinator's durable decision
  log; the ``commit`` record is the transaction's serialisation *and*
  durability point (presumed abort: no commit record ⇒ the transaction never
  happened).

Framing is length-prefixed and checksummed: ``<u32 payload length><u32
CRC-32 of payload><payload>`` with the payload a UTF-8 JSON object.  A
reader stops at the first frame that is short or fails its checksum — a torn
tail is the *expected* shape of a crash, not corruption.  OIDs (both as
record subjects and as reference-field values) are encoded as tagged pairs
so the JSON round-trips them exactly.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import WALError
from repro.objects.oid import OID

_HEADER = struct.Struct("<II")

#: Refuse to believe a length prefix beyond this; a frame this large is a
#: corrupt header, not a record (the biggest real record is a store-wide
#: after-image, well under a megabyte for any schema in this repository).
_MAX_PAYLOAD = 64 * 1024 * 1024

_OID_TAG = "$oid"


def encode_value(value: Any) -> Any:
    """A JSON-representable form of one value, walking containers.

    OIDs become ``{"$oid": [class, number]}`` tagged pairs; tuples become
    lists; scalars pass through.  This is the one tagged-OID codec of the
    repository — the client API (:mod:`repro.api.messages`) shares it, so
    log files and wire frames can never drift apart on the encoding.
    """
    if isinstance(value, OID):
        return {_OID_TAG: [value.class_name, value.number]}
    if isinstance(value, Mapping):
        return {name: encode_value(item) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (lists stay lists; typed consumers that
    want tuples restore them at their boundary)."""
    if isinstance(value, Mapping):
        if set(value.keys()) == {_OID_TAG}:
            class_name, number = value[_OID_TAG]
            return OID(class_name=class_name, number=number)
        return {name: decode_value(item) for name, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def _encode_values(values: Mapping[str, Any]) -> dict[str, Any]:
    return {name: encode_value(value) for name, value in values.items()}


def _decode_values(values: Mapping[str, Any]) -> dict[str, Any]:
    return {name: decode_value(value) for name, value in values.items()}


def _encode_oid(oid: OID) -> list[Any]:
    return [oid.class_name, oid.number]


def _decode_oid(pair: list[Any]) -> OID:
    return OID(class_name=pair[0], number=pair[1])


# ---------------------------------------------------------------------------
# Record kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UndoImage:
    """Projected before-image of one instance, durable before the write."""

    txn: int
    oid: OID
    values: Mapping[str, Any]

    kind = "undo"

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "txn": self.txn,
                "oid": _encode_oid(self.oid),
                "values": _encode_values(self.values)}


@dataclass(frozen=True)
class RedoImage:
    """Projected after-image of one instance, durable at prepare."""

    txn: int
    oid: OID
    values: Mapping[str, Any]

    kind = "redo"

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "txn": self.txn,
                "oid": _encode_oid(self.oid),
                "values": _encode_values(self.values)}


@dataclass(frozen=True)
class PreparedMarker:
    """The shard's durable yes-vote for one transaction."""

    txn: int

    kind = "prepared"

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "txn": self.txn}


@dataclass(frozen=True)
class InstanceCreated:
    """Structural record: an instance was created mid-epoch.

    Creations used to be durable only through checkpoints; this record lets
    recovery rebuild an instance created *after* the last snapshot instead
    of silently dropping it (and every field image that referenced it).
    ``txn`` is 0 — structural changes are not transaction-scoped here, and
    the zero id is what lets checkpoint rewrites drop the record once the
    snapshot covers the instance (no pending transaction ever has id 0).
    """

    oid: OID
    class_name: str
    values: Mapping[str, Any]
    txn: int = 0

    kind = "created"

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "txn": self.txn,
                "oid": _encode_oid(self.oid), "class": self.class_name,
                "values": _encode_values(self.values)}


@dataclass(frozen=True)
class InstanceDeleted:
    """Structural record: an instance was deleted mid-epoch."""

    oid: OID
    txn: int = 0

    kind = "deleted"

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "txn": self.txn,
                "oid": _encode_oid(self.oid)}


@dataclass(frozen=True)
class DecisionRecord:
    """One coordinator decision (``commit`` or ``abort``) made durable."""

    txn: int
    verdict: str
    shards: tuple[int, ...]

    kind = "decision"

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "txn": self.txn, "verdict": self.verdict,
                "shards": list(self.shards)}


WALRecord = (UndoImage | RedoImage | PreparedMarker | InstanceCreated
             | InstanceDeleted | DecisionRecord)


def record_from_payload(payload: Mapping[str, Any]) -> WALRecord:
    """Rebuild the typed record from a decoded JSON payload."""
    kind = payload.get("kind")
    if kind == InstanceCreated.kind:
        return InstanceCreated(oid=_decode_oid(payload["oid"]),
                               class_name=payload["class"],
                               values=_decode_values(payload["values"]),
                               txn=payload.get("txn", 0))
    if kind == InstanceDeleted.kind:
        return InstanceDeleted(oid=_decode_oid(payload["oid"]),
                               txn=payload.get("txn", 0))
    if kind == UndoImage.kind:
        return UndoImage(txn=payload["txn"], oid=_decode_oid(payload["oid"]),
                         values=_decode_values(payload["values"]))
    if kind == RedoImage.kind:
        return RedoImage(txn=payload["txn"], oid=_decode_oid(payload["oid"]),
                         values=_decode_values(payload["values"]))
    if kind == PreparedMarker.kind:
        return PreparedMarker(txn=payload["txn"])
    if kind == DecisionRecord.kind:
        return DecisionRecord(txn=payload["txn"], verdict=payload["verdict"],
                              shards=tuple(payload["shards"]))
    raise WALError(f"unknown log record kind {kind!r}")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(record: WALRecord, *, lsn: int | None = None) -> bytes:
    """Length-prefixed, checksummed wire form of one record.

    When ``lsn`` is given the frame carries it as an extra ``"lsn"`` payload
    key — the log sequence number rides *inside* the checksummed JSON, so a
    replication stream cannot deliver a frame whose stamp was torn apart
    from its record.  Readers that do not care about stamps
    (:func:`decode_frames`) ignore the key.
    """
    document = record.payload()
    if lsn is not None:
        document["lsn"] = lsn
    payload = json.dumps(document, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_stamped_frames(data: bytes) -> Iterator[tuple[int, WALRecord]]:
    """Yield ``(lsn, record)`` pairs, stopping cleanly at a torn tail.

    A short header, a short payload or a checksum mismatch all end the
    iteration silently: that is the state a killed process legitimately
    leaves behind, and every byte before the tear has already passed its
    checksum.  An *implausible* length prefix (beyond :data:`_MAX_PAYLOAD`)
    also stops the scan — treating it as a tear keeps recovery running on
    the intact prefix.  Frames written before LSN stamping existed decode
    with ``lsn`` 0 (no real stamp is ever 0 — stamps start at 1).  A frame
    that passes its checksum but names an unknown record kind is not a
    tear: :func:`record_from_payload` raises :class:`WALError`, because
    skipping it could silently drop committed work.
    """
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, checksum = _HEADER.unpack_from(data, offset)
        if length > _MAX_PAYLOAD:
            return
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            return
        document = json.loads(payload.decode("utf-8"))
        yield int(document.get("lsn", 0)), record_from_payload(document)
        offset = end


def decode_frames(data: bytes) -> Iterator[WALRecord]:
    """Yield the records of ``data``, stopping cleanly at a torn tail."""
    for _, record in decode_stamped_frames(data):
        yield record
