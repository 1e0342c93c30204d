"""Method bodies compiled to closures, with genuine late binding.

The interpreter is what turns the schema + store into a usable object base:
examples and workloads *send messages* to instances and the interpreter
executes the corresponding method bodies, dispatching self-directed messages
on the proper class of the receiver and prefixed messages on the named
ancestor, exactly as described in §2.2 of the paper.

Bodies are not walked on every send.  The first send of a method to a
receiver of proper class ``C`` (or of a prefixed ``send A.m to self``)
compiles the resolved body into Python closures, deciding once, against
``FIELDS(C)``, which names are fields and which are locals, which operator
each node applies and where control goes; a ``return`` is a value the
closures hand back, not an exception.  At run time a send is one dict
lookup and one call.  The closures live in the schema's code cache
(:attr:`~repro.schema.Schema.code_cache`), so every interpreter over one
schema — the engine's, each read-only snapshot's, each shadow run's —
shares them, and ``add_class`` / ``validate()`` drop them with the rest of
the frozen tables.

What the closures do not capture is everything that differs between
interpreters: every field read and write goes through the store front's
``read_field`` / ``write_field`` (so sanitizers, the read-only refusal,
the worker guard and shadow overlays see all field traffic), the receiver
of a cross-instance send is fetched through its ``get`` (a deleted
instance still raises :class:`~repro.errors.UnknownInstanceError`), and
builtins are looked up in the running interpreter.

An :class:`ExecutionTrace` records every actual field read/write and every
message dispatch of one top-level send — the run-time field-locking
baseline locks from this stream, and the property tests use it to check
that transitive access vectors are a conservative superset of any actual
execution.  Each compiled method also names the fields its own body can
reach (``named_fields``): the non-null entries of its direct access
vector, unless a subclass field shadows a local of the inherited body
(the field wins at run time; the analysis pads it with ``Null``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

from repro.core.access_vector import AccessVector
from repro.core.modes import AccessMode
from repro.errors import InterpreterError
from repro.lang import (
    Assignment,
    BinaryOp,
    Block,
    BoolLiteral,
    Call,
    Expression,
    ExpressionStatement,
    FloatLiteral,
    If,
    IntLiteral,
    Name,
    NilLiteral,
    Return,
    SelfRef,
    Send,
    SendStatement,
    Statement,
    StringLiteral,
    UnaryOp,
    While,
)
from repro.objects.oid import OID
from repro.objects.store import ObjectStore
from repro.schema import Schema

#: Safety bound on loop iterations inside one method body.
_MAX_LOOP_ITERATIONS = 100_000
#: Safety bound on the message-dispatch depth of one top-level send (kept
#: well below Python's own recursion limit so the guard fires first).
_MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# Events and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessEvent:
    """One actual field access performed during execution."""

    oid: OID
    field: str
    mode: AccessMode


@dataclass(frozen=True)
class MessageEvent:
    """One message dispatch performed during execution.

    ``sender`` is the receiver of the enclosing method (``None`` for the
    top-level send).  An *entry* message is one that crosses an instance
    boundary: the top-level send or a message whose sender is a different
    instance — exactly the points where the paper's protocol performs its
    single concurrency control per instance.
    """

    oid: OID
    class_name: str
    method: str
    resolved_class: str
    top_level: bool
    sender: OID | None = None

    @property
    def is_entry(self) -> bool:
        """``True`` for the top-level send and for cross-instance messages."""
        return self.top_level or (self.sender is not None and self.sender != self.oid)


@dataclass
class ExecutionTrace:
    """The ordered list of events produced by one top-level send."""

    events: list[AccessEvent | MessageEvent] = dataclass_field(default_factory=list)

    def record(self, event: AccessEvent | MessageEvent) -> None:
        """Append an event (used by the interpreter)."""
        self.events.append(event)

    @property
    def field_accesses(self) -> tuple[AccessEvent, ...]:
        """Every actual field read/write, in order."""
        return tuple(e for e in self.events if isinstance(e, AccessEvent))

    @property
    def messages(self) -> tuple[MessageEvent, ...]:
        """Every message dispatch, in order (the top-level send included)."""
        return tuple(e for e in self.events if isinstance(e, MessageEvent))

    @property
    def entry_messages(self) -> tuple[MessageEvent, ...]:
        """Messages that cross an instance boundary (one control point each
        under the paper's protocol)."""
        return tuple(e for e in self.messages if e.is_entry)

    @property
    def self_directed_messages(self) -> tuple[MessageEvent, ...]:
        """Messages other than the top-level one that target the same receiver.

        Their number is exactly the count of extra concurrency-control calls a
        per-message locking scheme would perform (§3, "locking overhead").
        """
        top_receivers = {e.oid for e in self.events
                         if isinstance(e, MessageEvent) and e.top_level}
        return tuple(e for e in self.messages
                     if not e.top_level and e.oid in top_receivers)

    def accessed_vector(self, oid: OID, fields: tuple[str, ...]) -> AccessVector:
        """The access vector actually exercised on ``oid`` by this execution."""
        modes: dict[str, AccessMode] = {}
        for event in self.field_accesses:
            if event.oid != oid:
                continue
            current = modes.get(event.field, AccessMode.NULL)
            if event.mode > current:
                modes[event.field] = event.mode
        return AccessVector(fields, modes)

    def touched_instances(self) -> tuple[OID, ...]:
        """OIDs that received a message or a field access, in first-touch order."""
        seen: dict[OID, None] = {}
        for event in self.events:
            seen.setdefault(event.oid, None)
        return tuple(seen)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def _builtin_expr(*args: Any) -> Any:
    numbers = [a for a in args if isinstance(a, (int, float)) and not isinstance(a, bool)]
    strings = [a for a in args if isinstance(a, str)]
    if strings:
        return "".join(strings)
    if numbers:
        return sum(numbers)
    return args[0] if args else 0


def _builtin_cond(*args: Any) -> bool:
    return bool(args[0]) if args else False


def _builtin_describe(*args: Any) -> str:
    return " ".join(str(a) for a in args)


def default_builtins() -> dict[str, Callable[..., Any]]:
    """The uninterpreted helper functions used by the example schemas.

    Applications can extend or replace any entry by passing ``builtins=`` to
    :class:`Interpreter`.
    """
    return {
        "expr": _builtin_expr,
        "cond": _builtin_cond,
        "format": _builtin_describe,
        "describe": _builtin_describe,
        "penalty": lambda amount=0: float(amount) * 0.05,
        "overdraft_fee": lambda amount=0: 5.0,
        "limit": lambda: 3,
    }


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

#: Compiled code of one activation: ``code(runtime, oid, arguments, depth,
#: sender)``, where ``sender`` is ``None`` exactly for the top-level send.
MethodCode = Callable[["_Runtime", OID, Sequence[Any], int, "OID | None"], Any]

#: A compiled expression or statement: ``step(runtime, oid, env, depth)``.
#: A statement returns ``None`` to fall through, or a one-tuple holding the
#: value of the ``return`` it executed.
_Step = Callable[["_Runtime", OID, dict, int], Any]

_BINARY: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(slots=True)
class _Runtime:
    """What compiled code reaches at run time, from the interpreter running it.

    ``fetch``, ``read`` and ``write`` are the store front's ``get``,
    ``read_field`` and ``write_field``: every field access goes through the
    front, so sanitizers, read-only refusals and shadow overlays see it.
    Builtins are looked up here on every call, never captured by the code,
    because each interpreter may bring its own.
    """

    fetch: Callable[[OID], Any]
    read: Callable[[OID, str], Any]
    write: Callable[[OID, str, Any], None]
    builtins: Mapping[str, Callable[..., Any]]
    trace: ExecutionTrace | None = None

    def traced(self, trace: ExecutionTrace) -> "_Runtime":
        """The same runtime, recording every field access into ``trace``."""
        read, write, record = self.read, self.write, trace.record

        def traced_read(oid: OID, field: str) -> Any:
            record(AccessEvent(oid=oid, field=field, mode=AccessMode.READ))
            return read(oid, field)

        def traced_write(oid: OID, field: str, value: Any) -> None:
            record(AccessEvent(oid=oid, field=field, mode=AccessMode.WRITE))
            write(oid, field, value)

        return _Runtime(self.fetch, traced_read, traced_write, self.builtins, trace)


def method_code(schema: Schema, class_name: str, method: str,
                prefix_class: str | None = None) -> MethodCode:
    """The compiled code of ``method`` sent to a receiver of proper class
    ``class_name`` (``send prefix_class.method to self`` when prefixed).

    Compiled on first request and kept in the schema's code cache while the
    schema stays validated; an unvalidated schema gets fresh code each time,
    exactly as its lookups are computed on demand.  The code's
    ``named_fields`` maps every field of ``class_name`` its body names to
    the strongest mode it names it with.

    Raises:
        UnknownMethodError: the method is not visible on the class.
        UnknownClassError: ``prefix_class`` is not an ancestor.
    """
    codes = schema.code_cache
    key = (class_name, method, prefix_class)
    code = codes.get(key)
    if code is None:
        code = _compile_method(schema, class_name, method, prefix_class)
        if schema.is_validated:
            codes[key] = code
    return code


def _compile_method(schema: Schema, class_name: str, method: str,
                    prefix_class: str | None) -> MethodCode:
    if prefix_class is None:
        resolved = schema.resolve(class_name, method)
    else:
        resolved = schema.resolve_prefixed(class_name, prefix_class, method)
    compiler = _BodyCompiler(schema, class_name)
    body = compiler.block(resolved.definition.body)
    parameters = resolved.definition.parameters
    arity = len(parameters)
    first_parameter = parameters[0] if parameters else None
    defining_class = resolved.defining_class
    arity_message = (f"method {defining_class}.{method} expects "
                     f"{arity} argument(s), got ")

    def activation(runtime: _Runtime, oid: OID, arguments: Sequence[Any], depth: int,
                   sender: OID | None) -> Any:
        if len(arguments) != arity:
            raise InterpreterError(f"{arity_message}{len(arguments)}")
        trace = runtime.trace
        if trace is not None:
            trace.record(MessageEvent(oid=oid, class_name=class_name,
                                      method=method, resolved_class=defining_class,
                                      top_level=sender is None, sender=sender))
        if arity == 1:
            env = {first_parameter: arguments[0]}
        else:
            env = dict(zip(parameters, arguments)) if arity else {}
        returned = body(runtime, oid, env, depth)
        return None if returned is None else returned[0]

    activation.named_fields = MappingProxyType(compiler.named)  # type: ignore
    return activation


def _constant(value: Any) -> _Step:
    def constant(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
        return value
    return constant


def _self_ref(runtime: _Runtime, oid: OID, env: dict, depth: int) -> OID:
    return oid


def _fall_through(runtime: _Runtime, oid: OID, env: dict, depth: int) -> None:
    return None


def _depth_error(method: str) -> InterpreterError:
    return InterpreterError(f"message dispatch deeper than {_MAX_DEPTH}; "
                            f"probable unbounded recursion on {method!r}")


class _BodyCompiler:
    """Turns one method body into closures for one receiver class.

    Every decision the tree walk took per node is taken here once: whether
    a name is a field of the receiver's proper class (late binding: a local
    of the defining class may be a field of a subclass receiver, and the
    field wins) or a local, which operator a node applies, and where
    control goes next.  A node the parser cannot produce (an unknown
    operator, statement or expression) is refused here, at the first send,
    with the message the walk raised when it reached it.
    """

    def __init__(self, schema: Schema, class_name: str) -> None:
        self._schema = schema
        self._class_name = class_name
        self._fields = frozenset(schema.field_names(class_name))
        #: Every field the body names, with the strongest mode.
        self.named: dict[str, AccessMode] = {}

    def _name_field(self, field: str, mode: AccessMode) -> None:
        if mode > self.named.get(field, AccessMode.NULL):
            self.named[field] = mode

    # -- statements ---------------------------------------------------------

    def block(self, block: Block) -> _Step:
        steps = tuple(self.statement(statement) for statement in block)
        if not steps:
            return _fall_through
        if len(steps) == 1:
            return steps[0]

        def sequence(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            for step in steps:
                returned = step(runtime, oid, env, depth)
                if returned is not None:
                    return returned
            return None
        return sequence

    def statement(self, statement: Statement) -> _Step:
        if isinstance(statement, Assignment):
            return self._assignment(statement)
        if isinstance(statement, SendStatement):
            return self._discard(statement.send)
        if isinstance(statement, ExpressionStatement):
            return self._discard(statement.expression)
        if isinstance(statement, If):
            return self._if(statement)
        if isinstance(statement, While):
            return self._while(statement)
        if isinstance(statement, Return):
            return self._return(statement)
        raise InterpreterError(f"unsupported statement {statement!r}")

    def _discard(self, expression: Expression) -> _Step:
        evaluate = self.expression(expression)

        def discard(runtime: _Runtime, oid: OID, env: dict, depth: int) -> None:
            evaluate(runtime, oid, env, depth)
        return discard

    def _assignment(self, statement: Assignment) -> _Step:
        value = self.expression(statement.value)
        target = statement.target
        if target in self._fields:
            self._name_field(target, AccessMode.WRITE)

            def assign_field(runtime: _Runtime, oid: OID, env: dict, depth: int) -> None:
                runtime.write(oid, target, value(runtime, oid, env, depth))
            return assign_field

        def assign_local(runtime: _Runtime, oid: OID, env: dict, depth: int) -> None:
            env[target] = value(runtime, oid, env, depth)
        return assign_local

    def _if(self, statement: If) -> _Step:
        condition = self.expression(statement.condition)
        then_block = self.block(statement.then_block)
        else_block = self.block(statement.else_block)

        def branch(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            if condition(runtime, oid, env, depth):
                return then_block(runtime, oid, env, depth)
            return else_block(runtime, oid, env, depth)
        return branch

    def _while(self, statement: While) -> _Step:
        condition = self.expression(statement.condition)
        body = self.block(statement.body)

        def loop(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            iterations = 0
            while condition(runtime, oid, env, depth):
                returned = body(runtime, oid, env, depth)
                if returned is not None:
                    return returned
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise InterpreterError("while loop exceeded the iteration bound")
            return None
        return loop

    def _return(self, statement: Return) -> _Step:
        if statement.value is None:
            return _constant((None,))
        value = self.expression(statement.value)

        def give_back(runtime: _Runtime, oid: OID, env: dict, depth: int) -> tuple:
            return (value(runtime, oid, env, depth),)
        return give_back

    # -- expressions --------------------------------------------------------

    def expression(self, expression: Expression) -> _Step:
        if isinstance(expression, (IntLiteral, FloatLiteral, StringLiteral,
                                   BoolLiteral)):
            return _constant(expression.value)
        if isinstance(expression, NilLiteral):
            return _constant(None)
        if isinstance(expression, SelfRef):
            return _self_ref
        if isinstance(expression, Name):
            return self._name(expression.identifier)
        if isinstance(expression, Call):
            return self._call(expression)
        if isinstance(expression, Send):
            return self._send(expression)
        if isinstance(expression, UnaryOp):
            return self._unary(expression)
        if isinstance(expression, BinaryOp):
            return self._binary(expression)
        raise InterpreterError(f"unsupported expression {expression!r}")

    def _name(self, identifier: str) -> _Step:
        if identifier in self._fields:
            self._name_field(identifier, AccessMode.READ)

            def read_field(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
                return runtime.read(oid, identifier)
            return read_field
        message = (f"unknown name {identifier!r} in method of class "
                   f"{self._class_name!r}")

        def read_local(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            try:
                return env[identifier]
            except KeyError:
                raise InterpreterError(message) from None
        return read_local

    def _call(self, call: Call) -> _Step:
        arguments = tuple(self.expression(argument) for argument in call.arguments)
        function_name = call.function
        message = (f"unknown function {function_name!r}; register it "
                   "through the interpreter's builtins")

        def apply(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            values = [argument(runtime, oid, env, depth) for argument in arguments]
            function = runtime.builtins.get(function_name)
            if function is None:
                raise InterpreterError(message)
            return function(*values)
        return apply

    def _send(self, send: Send) -> _Step:
        arguments = tuple(self.expression(argument) for argument in send.arguments)
        method = send.method
        if isinstance(send.target, SelfRef):
            return self._send_to_self(send, arguments)
        target = self.expression(send.target)
        schema = self._schema
        #: Late binding: the callee depends on the target's proper class,
        #: known only at run time; one lookup per send after the first.
        by_class: dict[str, MethodCode] = {}

        def send_to_other(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            values = [argument(runtime, oid, env, depth) for argument in arguments]
            receiver = target(runtime, oid, env, depth)
            if receiver is None:
                raise InterpreterError(f"message {method!r} sent to a nil reference")
            if not isinstance(receiver, OID):
                raise InterpreterError(
                    f"message {method!r} sent to a non-object value {receiver!r}")
            if depth >= _MAX_DEPTH:
                raise _depth_error(method)
            class_name = runtime.fetch(receiver).class_name
            code = by_class.get(class_name)
            if code is None:
                code = by_class[class_name] = method_code(schema, class_name, method)
            return code(runtime, receiver, values, depth + 1, oid)
        return send_to_other

    def _send_to_self(self, send: Send, arguments: tuple[_Step, ...]) -> _Step:
        schema, class_name = self._schema, self._class_name
        method, prefix_class = send.method, send.prefix_class
        #: Resolved at the first execution, not here: the callee may be the
        #: method being compiled, or may not resolve at all (an error only
        #: when the send runs, as in the tree walk).
        callee: MethodCode | None = None

        def send_to_self(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            nonlocal callee
            values = [argument(runtime, oid, env, depth) for argument in arguments]
            if depth >= _MAX_DEPTH:
                raise _depth_error(method)
            code = callee
            if code is None:
                code = callee = method_code(schema, class_name, method, prefix_class)
            return code(runtime, oid, values, depth + 1, oid)
        return send_to_self

    def _unary(self, expression: UnaryOp) -> _Step:
        operand = self.expression(expression.operand)
        symbol = expression.operator
        if symbol == "not":
            def negate(runtime: _Runtime, oid: OID, env: dict, depth: int) -> bool:
                return not operand(runtime, oid, env, depth)
            return negate
        if symbol == "-":
            def minus(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
                return -operand(runtime, oid, env, depth)
            return minus
        raise InterpreterError(f"unsupported unary operator {symbol!r}")

    def _binary(self, expression: BinaryOp) -> _Step:
        left = self.expression(expression.left)
        right = self.expression(expression.right)
        symbol = expression.operator
        if symbol == "and":
            def conjunction(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
                return (left(runtime, oid, env, depth)
                        and right(runtime, oid, env, depth))
            return conjunction
        if symbol == "or":
            def disjunction(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
                return (left(runtime, oid, env, depth)
                        or right(runtime, oid, env, depth))
            return disjunction
        function = _BINARY.get(symbol)
        if function is None:
            raise InterpreterError(f"unsupported binary operator {symbol!r}")

        def arithmetic(runtime: _Runtime, oid: OID, env: dict, depth: int) -> Any:
            first = left(runtime, oid, env, depth)
            second = right(runtime, oid, env, depth)
            try:
                return function(first, second)
            except (TypeError, ZeroDivisionError) as error:
                raise InterpreterError(f"cannot evaluate {first!r} {symbol} "
                                       f"{second!r}: {error}") from error
        return arithmetic


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


class Interpreter:
    """Runs compiled method bodies against one store front."""

    def __init__(self, store: ObjectStore,
                 builtins: Mapping[str, Callable[..., Any]] | None = None) -> None:
        self._schema = store.schema
        self._codes = self._schema.code_cache
        merged = default_builtins()
        if builtins:
            merged.update(builtins)
        self._runtime = _Runtime(store.get, store.read_field, store.write_field,
                                 merged)

    # -- public API -----------------------------------------------------------

    def send(self, oid: OID, method: str, *arguments: Any,
             trace: ExecutionTrace | None = None) -> Any:
        """Send ``method`` to the instance identified by ``oid``.

        Late binding: the method is resolved on the *proper* class of the
        receiver.  Returns the value of the method's ``return`` statement (or
        ``None``).  When ``trace`` is given, every event of the execution is
        appended to it.
        """
        runtime = self._runtime if trace is None else self._runtime.traced(trace)
        try:
            class_name = runtime.fetch(oid).class_name
            code = self._codes.get((class_name, method, None))
            if code is None:
                code = method_code(self._schema, class_name, method)
            return code(runtime, oid, arguments, 0, None)
        except RecursionError as error:
            raise InterpreterError(
                f"method {method!r} exceeded the interpreter recursion limit") from error

    def send_traced(self, oid: OID, method: str,
                    *arguments: Any) -> tuple[Any, ExecutionTrace]:
        """Like :meth:`send` but always returns ``(value, trace)``."""
        trace = ExecutionTrace()
        value = self.send(oid, method, *arguments, trace=trace)
        return value, trace
