"""The socket client: a :class:`Connection` over TCP.

:class:`SocketConnection` speaks the framed JSON protocol of
:mod:`repro.api.wire` to an :class:`~repro.api.server.ApiServer`.  It is the
networked twin of :class:`~repro.api.connection.InProcessConnection`: the
same typed messages go in and come out — only here they really cross a
process boundary, so everything a client learns arrived as data.

One connection serves one driving thread at a time (requests and replies
are strictly paired on the stream; an internal mutex keeps an accidental
second thread from interleaving frames, but sharing a connection between
workers serialises them — give each worker its own, as the throughput
harness does).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.api.connection import Connection
from repro.api.messages import (
    Reply,
    Request,
    message_to_wire,
    reply_from_wire,
)
from repro.api.wire import recv_frame, send_frame
from repro.errors import ProtocolError


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """``(host, port)`` from a pair or a ``"host:port"`` string."""
    if isinstance(address, tuple):
        host, port = address
        return (host, int(port))
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return (host, int(port))


class SocketConnection(Connection):
    """A framed request/reply channel to a remote dispatcher."""

    def __init__(self, address: "str | tuple[str, int]", *,
                 timeout: float | None = None) -> None:
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._mutex = threading.Lock()
        self._closed = False

    def request(self, message: Request) -> Reply:
        """Send one request frame and block for its reply frame.

        Raises:
            ProtocolError: the server closed the stream or answered with
                something that does not decode as a reply.
        """
        with self._mutex:
            if self._closed:
                raise ProtocolError("the connection is closed")
            send_frame(self._sock, message_to_wire(message))
            document = recv_frame(self._sock)
        if document is None:
            raise ProtocolError("the server closed the connection "
                                f"while {message.type!r} was in flight")
        return reply_from_wire(document)

    def close(self) -> None:
        """Close the socket.  Idempotent; open transactions are aborted by
        the server's vanished-client cleanup."""
        with self._mutex:
            if not self._closed:
                self._closed = True
                self._sock.close()

    @property
    def address(self) -> Any:
        """The remote ``(host, port)`` this connection talks to."""
        return self._sock.getpeername() if not self._closed else None


def connect(address: "str | tuple[str, int]", *, timeout: float | None = None,
            attempts: int = 40, delay: float = 0.05) -> SocketConnection:
    """Connect with retries — for racing a server that is still starting."""
    last_error: OSError | None = None
    for _ in range(attempts):
        try:
            return SocketConnection(address, timeout=timeout)
        except OSError as error:
            last_error = error
            time.sleep(delay)
    raise ProtocolError(f"could not connect to {address} after "
                        f"{attempts} attempts: {last_error}")
