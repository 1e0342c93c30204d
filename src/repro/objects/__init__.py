"""Object store and method interpreter.

This package is the run-time half of the OODB substrate: object identifiers,
instances with typed fields, class extents, and an interpreter that compiles
method bodies to closures once per receiver class and runs them with genuine
late binding (self-directed messages dispatch on the *proper* class of the
receiver, prefixed messages execute the named ancestor's code), so that the
example applications and the run-time baselines operate on real executions
rather than on static summaries.
"""

from repro.objects.oid import OID, OIDGenerator
from repro.objects.instance import Instance
from repro.objects.store import ObjectStore
from repro.objects.interpreter import (
    AccessEvent,
    ExecutionTrace,
    Interpreter,
    MessageEvent,
    default_builtins,
)

__all__ = [
    "AccessEvent",
    "ExecutionTrace",
    "Instance",
    "Interpreter",
    "MessageEvent",
    "OID",
    "OIDGenerator",
    "ObjectStore",
    "default_builtins",
]
