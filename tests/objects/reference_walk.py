"""The tree-walking interpreter the compiled closures replaced, kept as an oracle.

This is the walk that executed every send before method bodies were
compiled: an ``isinstance`` chain per node, the receiver fetched and its
field names consulted per name, and a Python exception per ``return``.
``test_compiled_vs_walk.py`` runs both over the same sends and requires the
same return values, final stores, trace events and typed errors.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

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
from repro.objects.interpreter import (
    AccessEvent,
    ExecutionTrace,
    MessageEvent,
    default_builtins,
)
from repro.objects.oid import OID
from repro.objects.store import ObjectStore

#: Safety bound on loop iterations inside one method body.
_MAX_LOOP_ITERATIONS = 100_000
#: Safety bound on the message-dispatch depth of one top-level send (kept
#: well below Python's own recursion limit so the guard fires first).
_MAX_DEPTH = 64


class _ReturnSignal(Exception):
    """Internal control-flow signal for ``return`` statements."""

    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


class ReferenceWalker:
    """Executes method bodies against an :class:`ObjectStore` by walking the AST."""

    def __init__(self, store: ObjectStore,
                 builtins: Mapping[str, Callable[..., Any]] | None = None) -> None:
        self._store = store
        self._schema = store.schema
        self._builtins = dict(default_builtins())
        if builtins:
            self._builtins.update(builtins)

    # -- public API -----------------------------------------------------------

    def send(self, oid: OID, method: str, *arguments: Any,
             trace: ExecutionTrace | None = None) -> Any:
        """Send ``method`` to the instance identified by ``oid``.

        Late binding: the method is resolved on the *proper* class of the
        receiver.  Returns the value of the method's ``return`` statement (or
        ``None``).  When ``trace`` is given, every event of the execution is
        appended to it.
        """
        try:
            return self._dispatch(oid, method, list(arguments), trace,
                                  prefix_class=None, depth=0, top_level=True,
                                  sender=None)
        except RecursionError as error:
            raise InterpreterError(
                f"method {method!r} exceeded the interpreter recursion limit") from error

    def send_traced(self, oid: OID, method: str,
                    *arguments: Any) -> tuple[Any, ExecutionTrace]:
        """Like :meth:`send` but always returns ``(value, trace)``."""
        trace = ExecutionTrace()
        value = self.send(oid, method, *arguments, trace=trace)
        return value, trace

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, oid: OID, method: str, arguments: list[Any],
                  trace: ExecutionTrace | None, prefix_class: str | None,
                  depth: int, top_level: bool, sender: OID | None) -> Any:
        if depth > _MAX_DEPTH:
            raise InterpreterError(
                f"message dispatch deeper than {_MAX_DEPTH}; "
                f"probable unbounded recursion on {method!r}")
        instance = self._store.get(oid)
        if prefix_class is None:
            resolved = self._schema.resolve(instance.class_name, method)
        else:
            resolved = self._schema.resolve_prefixed(instance.class_name,
                                                     prefix_class, method)
        declared_parameters = resolved.definition.parameters
        if len(arguments) != len(declared_parameters):
            raise InterpreterError(
                f"method {resolved.defining_class}.{method} expects "
                f"{len(declared_parameters)} argument(s), got {len(arguments)}")

        if trace is not None:
            trace.record(MessageEvent(oid=oid, class_name=instance.class_name,
                                      method=method,
                                      resolved_class=resolved.defining_class,
                                      top_level=top_level, sender=sender))

        environment: dict[str, Any] = dict(zip(declared_parameters, arguments))
        try:
            self._execute_block(resolved.definition.body, oid, environment, trace, depth)
        except _ReturnSignal as signal:
            return signal.value
        return None

    # -- statements -----------------------------------------------------------

    def _execute_block(self, block: Block, oid: OID, environment: dict[str, Any],
                       trace: ExecutionTrace | None, depth: int) -> None:
        for statement in block:
            self._execute_statement(statement, oid, environment, trace, depth)

    def _execute_statement(self, statement: Statement, oid: OID,
                           environment: dict[str, Any],
                           trace: ExecutionTrace | None, depth: int) -> None:
        if isinstance(statement, Assignment):
            value = self._evaluate(statement.value, oid, environment, trace, depth)
            self._assign(statement.target, value, oid, environment, trace)
        elif isinstance(statement, SendStatement):
            self._evaluate(statement.send, oid, environment, trace, depth)
        elif isinstance(statement, ExpressionStatement):
            self._evaluate(statement.expression, oid, environment, trace, depth)
        elif isinstance(statement, If):
            condition = self._evaluate(statement.condition, oid, environment, trace, depth)
            branch = statement.then_block if condition else statement.else_block
            self._execute_block(branch, oid, environment, trace, depth)
        elif isinstance(statement, While):
            iterations = 0
            while self._evaluate(statement.condition, oid, environment, trace, depth):
                self._execute_block(statement.body, oid, environment, trace, depth)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise InterpreterError("while loop exceeded the iteration bound")
        elif isinstance(statement, Return):
            value = None
            if statement.value is not None:
                value = self._evaluate(statement.value, oid, environment, trace, depth)
            raise _ReturnSignal(value)
        else:  # pragma: no cover - the parser cannot produce other nodes
            raise InterpreterError(f"unsupported statement {statement!r}")

    def _assign(self, target: str, value: Any, oid: OID,
                environment: dict[str, Any], trace: ExecutionTrace | None) -> None:
        instance = self._store.get(oid)
        if target in self._schema.field_names(instance.class_name):
            if trace is not None:
                trace.record(AccessEvent(oid=oid, field=target, mode=AccessMode.WRITE))
            self._store.write_field(oid, target, value)
            return
        environment[target] = value

    # -- expressions -----------------------------------------------------------

    def _evaluate(self, expression: Expression, oid: OID, environment: dict[str, Any],
                  trace: ExecutionTrace | None, depth: int) -> Any:
        if isinstance(expression, IntLiteral):
            return expression.value
        if isinstance(expression, FloatLiteral):
            return expression.value
        if isinstance(expression, StringLiteral):
            return expression.value
        if isinstance(expression, BoolLiteral):
            return expression.value
        if isinstance(expression, NilLiteral):
            return None
        if isinstance(expression, SelfRef):
            return oid
        if isinstance(expression, Name):
            return self._evaluate_name(expression.identifier, oid, environment, trace)
        if isinstance(expression, Call):
            return self._evaluate_call(expression, oid, environment, trace, depth)
        if isinstance(expression, Send):
            return self._evaluate_send(expression, oid, environment, trace, depth)
        if isinstance(expression, UnaryOp):
            return self._evaluate_unary(expression, oid, environment, trace, depth)
        if isinstance(expression, BinaryOp):
            return self._evaluate_binary(expression, oid, environment, trace, depth)
        raise InterpreterError(f"unsupported expression {expression!r}")

    def _evaluate_name(self, identifier: str, oid: OID, environment: dict[str, Any],
                       trace: ExecutionTrace | None) -> Any:
        instance = self._store.get(oid)
        if identifier in self._schema.field_names(instance.class_name):
            if trace is not None:
                trace.record(AccessEvent(oid=oid, field=identifier, mode=AccessMode.READ))
            return self._store.read_field(oid, identifier)
        if identifier in environment:
            return environment[identifier]
        raise InterpreterError(
            f"unknown name {identifier!r} in method of class {instance.class_name!r}")

    def _evaluate_call(self, call: Call, oid: OID, environment: dict[str, Any],
                       trace: ExecutionTrace | None, depth: int) -> Any:
        arguments = [self._evaluate(a, oid, environment, trace, depth)
                     for a in call.arguments]
        function = self._builtins.get(call.function)
        if function is None:
            raise InterpreterError(f"unknown function {call.function!r}; register it "
                                   "through the interpreter's builtins")
        return function(*arguments)

    def _evaluate_send(self, send: Send, oid: OID, environment: dict[str, Any],
                       trace: ExecutionTrace | None, depth: int) -> Any:
        arguments = [self._evaluate(a, oid, environment, trace, depth)
                     for a in send.arguments]
        if isinstance(send.target, SelfRef):
            return self._dispatch(oid, send.method, arguments, trace,
                                  prefix_class=send.prefix_class,
                                  depth=depth + 1, top_level=False, sender=oid)
        target_value = self._evaluate(send.target, oid, environment, trace, depth)
        if target_value is None:
            raise InterpreterError(
                f"message {send.method!r} sent to a nil reference")
        if not isinstance(target_value, OID):
            raise InterpreterError(
                f"message {send.method!r} sent to a non-object value {target_value!r}")
        return self._dispatch(target_value, send.method, arguments, trace,
                              prefix_class=None, depth=depth + 1, top_level=False,
                              sender=oid)

    def _evaluate_unary(self, expression: UnaryOp, oid: OID,
                        environment: dict[str, Any], trace: ExecutionTrace | None,
                        depth: int) -> Any:
        operand = self._evaluate(expression.operand, oid, environment, trace, depth)
        if expression.operator == "not":
            return not operand
        if expression.operator == "-":
            return -operand
        raise InterpreterError(f"unsupported unary operator {expression.operator!r}")

    def _evaluate_binary(self, expression: BinaryOp, oid: OID,
                         environment: dict[str, Any], trace: ExecutionTrace | None,
                         depth: int) -> Any:
        operator = expression.operator
        left = self._evaluate(expression.left, oid, environment, trace, depth)
        if operator == "and":
            if not left:
                return left
            return self._evaluate(expression.right, oid, environment, trace, depth)
        if operator == "or":
            if left:
                return left
            return self._evaluate(expression.right, oid, environment, trace, depth)
        right = self._evaluate(expression.right, oid, environment, trace, depth)
        try:
            if operator == "+":
                return left + right
            if operator == "-":
                return left - right
            if operator == "*":
                return left * right
            if operator == "/":
                return left / right
            if operator == "=":
                return left == right
            if operator == "<>":
                return left != right
            if operator == "<":
                return left < right
            if operator == "<=":
                return left <= right
            if operator == ">":
                return left > right
            if operator == ">=":
                return left >= right
        except (TypeError, ZeroDivisionError) as error:
            raise InterpreterError(f"cannot evaluate {left!r} {operator} {right!r}: "
                                   f"{error}") from error
        raise InterpreterError(f"unsupported binary operator {operator!r}")
