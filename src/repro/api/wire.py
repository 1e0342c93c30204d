"""Length-prefixed JSON framing for the socket transport.

One frame is ``<u32 little-endian payload length><payload>`` with the
payload a UTF-8 JSON object — a message in its
:func:`~repro.api.messages.message_to_wire` form.  The length prefix makes
message boundaries explicit on a byte stream; unlike the write-ahead log's
frames there is no checksum (TCP already provides integrity; a WAL frame
must survive a *torn file*, a socket frame cannot be torn — the connection
just dies).

A clean end-of-stream *between* frames reads as ``None`` (the peer hung
up); an end-of-stream *inside* a frame raises — the conversation was cut
mid-sentence and the caller should treat the channel as broken.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Mapping

from repro.errors import ProtocolError

_HEADER = struct.Struct("<I")

#: Refuse frames beyond this: a length prefix this large is a desynchronised
#: or hostile stream, not a message (store-state snapshots of every schema in
#: this repository are far below it).
MAX_FRAME = 64 * 1024 * 1024


def send_frame(sock: socket.socket, document: Mapping[str, Any]) -> None:
    """Send one message document as a single frame."""
    payload = json.dumps(document, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds the "
                            f"{MAX_FRAME}-byte frame limit")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Receive one frame; ``None`` when the peer closed between frames.

    Raises:
        ProtocolError: the stream ended mid-frame, the length prefix is
            implausible, or the payload is not a JSON object.
    """
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME}-byte limit; stream desynchronised")
    payload = _recv_exact(sock, length, at_boundary=False)
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not JSON: {error}") from None
    if not isinstance(document, dict):
        raise ProtocolError("frame payload must be a JSON object, "
                            f"got {type(document).__name__}")
    return document


def _recv_exact(sock: socket.socket, size: int,
                *, at_boundary: bool) -> bytes | None:
    """Read exactly ``size`` bytes; ``None`` on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = size
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if at_boundary and remaining == size:
                return None
            raise ProtocolError(
                f"stream ended mid-frame ({size - remaining} of {size} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
