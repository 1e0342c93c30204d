"""The transport-agnostic client API: commands in, typed replies out.

This package converts the engine from a library into a servable system.
PRs 1–3 built a threaded, sharded, durable engine — but the only way in was
a live Python reference.  Here the client surface is redefined as
*serialisable data*:

* :mod:`repro.api.messages` — typed, JSON-serialisable requests
  (``Begin``/``Call``/``CallExtent``/``CallSome``/``CallDomain``/
  ``Commit``/``Abort`` for an interactive session, ``RunProgram`` for a
  whole transaction in one request, plus a control plane) and replies,
  with structured error replies carrying the stable codes of
  :func:`repro.errors.error_codes`;
* :mod:`repro.api.dispatcher` — the :class:`~repro.api.dispatcher.Dispatcher`
  owning the only client-path reference to the engine;
* :mod:`repro.api.admission` — the
  :class:`~repro.api.admission.AdmissionController` in front of ``Begin``:
  bounded multiprogramming with a FIFO wait queue; overload is a typed
  :class:`~repro.api.messages.Overloaded` answer, never a hang;
* :mod:`repro.api.connection` — the abstract
  :class:`~repro.api.connection.Connection`, the zero-copy
  :class:`~repro.api.connection.InProcessConnection`,
  :class:`~repro.api.connection.ClientSession` sugar and the retrying
  :class:`~repro.api.connection.TransactionRunner`, whose ``run_spec``
  ships every workload spec as one ``RunProgram``;
* :mod:`repro.api.server` / :mod:`repro.api.client` — the same messages as
  length-prefixed JSON frames over TCP (``python -m repro.api.server``);
  the codec runs only there, so an in-process program is never encoded.

:class:`~repro.engine.session.Session` routes through this layer too, so
in-process and networked clients exercise the very same command path.
"""

from repro.api.admission import AdmissionController
from repro.api.connection import (
    ClientSession,
    Connection,
    InProcessConnection,
    TransactionRunner,
)
from repro.api.dispatcher import Dispatcher
from repro.api.messages import (
    Abort,
    AbortReply,
    Begin,
    BeginReply,
    Call,
    CallDomain,
    CallExtent,
    CallSome,
    Commit,
    CommitLog,
    CommitReply,
    Describe,
    ErrorReply,
    InfoReply,
    MetricsSnapshot,
    Overloaded,
    Ping,
    Reply,
    Request,
    ResultReply,
    StoreState,
    exception_from_reply,
    message_to_wire,
    raise_if_error,
    reply_for_error,
    reply_from_wire,
    request_for_operation,
    request_from_wire,
)

#: Socket-transport names are loaded lazily (PEP 562) so importing the
#: command layer never pays for — or requires — the socket machinery, and
#: ``python -m repro.api.server`` does not import the server module twice.
_SOCKET_EXPORTS = {
    "ApiServer": "repro.api.server",
    "serve": "repro.api.server",
    "SocketConnection": "repro.api.client",
    "connect": "repro.api.client",
}


def __getattr__(name: str):
    module_name = _SOCKET_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Abort",
    "AbortReply",
    "AdmissionController",
    "ApiServer",
    "Begin",
    "BeginReply",
    "Call",
    "CallDomain",
    "CallExtent",
    "CallSome",
    "ClientSession",
    "Commit",
    "CommitLog",
    "CommitReply",
    "Connection",
    "Describe",
    "Dispatcher",
    "ErrorReply",
    "InProcessConnection",
    "InfoReply",
    "MetricsSnapshot",
    "Overloaded",
    "Ping",
    "Reply",
    "Request",
    "ResultReply",
    "SocketConnection",
    "StoreState",
    "TransactionRunner",
    "connect",
    "exception_from_reply",
    "message_to_wire",
    "raise_if_error",
    "reply_for_error",
    "reply_from_wire",
    "request_for_operation",
    "request_from_wire",
    "serve",
]
