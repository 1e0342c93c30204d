"""Ready-made example schemas.

:func:`figure1_schema` is the exact hierarchy of Figure 1 of the paper and is
used throughout the tests and benchmarks to check every worked value printed
in the text (DAVs, the resolution graph of Figure 2, the TAVs of §4.3 and the
commutativity relation of Table 2).

:func:`banking_schema` and :func:`library_schema` are larger, realistic
schemas used by the example applications and the workload benchmarks.
"""

from __future__ import annotations

from repro.schema.builder import SchemaBuilder
from repro.schema.schema import Schema


def figure1_schema() -> Schema:
    """Build the paper's Figure 1 hierarchy (classes ``c1``, ``c2``, ``c3``).

    * ``c1`` declares fields ``f1: integer``, ``f2: boolean``, ``f3: c3`` and
      methods ``m1``, ``m2``, ``m3``.
    * ``c2`` inherits ``c1``, adds ``f4: integer``, ``f5: integer``,
      ``f6: string``, overrides ``m2`` as an extension of ``c1.m2`` and adds
      ``m4``.
    * ``c3`` declares the method ``m`` whose body is left abstract in the
      paper ("...").
    """
    return (
        SchemaBuilder()
        .define("c3")
            .field("g1", "integer")
            .method("m", body="g1 := expr(g1)")
        .define("c1")
            .field("f1", "integer")
            .field("f2", "boolean")
            .field("f3", ref="c3")
            .method("m1", "p1", body="""
                send m2(p1) to self
                send m3 to self
            """)
            .method("m2", "p1", body="""
                f1 := expr(f1, f2, p1)
            """)
            .method("m3", body="""
                if f2 then
                    send m to f3
                end
            """)
        .define("c2", "c1")
            .method("m2", "p1", body="""
                send c1.m2(p1) to self
                f4 := expr(f5, p1)
            """)
            .method("m4", "p1", "p2", body="""
                if cond(f5, p1) then
                    f6 := expr(f6, p2)
                end
            """)
            .field("f4", "integer")
            .field("f5", "integer")
            .field("f6", "string")
        .build()
    )


def banking_schema() -> Schema:
    """A small banking hierarchy: ``Account`` with two subclasses.

    The hierarchy is designed so that the paper's four problems all show up:
    ``transfer_in`` reuses ``deposit`` (self-directed message), overriding
    ``withdraw`` in ``SavingsAccount`` extends the inherited version
    (prefixed call), and the subclass-specific methods (``accrue_interest``,
    ``charge_fee``) touch only subclass fields, so classifying them as plain
    writers would create pseudo-conflicts with ``deposit``/``withdraw``.
    """
    return (
        SchemaBuilder()
        .define("Account")
            .field("balance", "float")
            .field("owner", "string")
            .field("active", "boolean")
            .method("deposit", "amount", body="""
                balance := balance + amount
            """)
            .method("withdraw", "amount", body="""
                if balance >= amount then
                    balance := balance - amount
                end
            """)
            .method("transfer_in", "amount", body="""
                if active then
                    send deposit(amount) to self
                end
            """)
            .method("balance_report", body="""
                return describe(owner, balance)
            """)
            .method("close", body="""
                active := false
            """)
        .define("SavingsAccount", "Account")
            .field("rate", "float")
            .field("accrued", "float")
            .method("accrue_interest", body="""
                accrued := accrued + balance * rate
            """)
            .method("capitalise", body="""
                send deposit(accrued) to self
                accrued := 0
            """)
            .method("withdraw", "amount", body="""
                send Account.withdraw(amount) to self
                accrued := accrued - penalty(amount)
            """)
        .define("CheckingAccount", "Account")
            .field("overdraft_limit", "integer")
            .field("fee_total", "float")
            .method("set_overdraft", "limit", body="""
                overdraft_limit := limit
            """)
            .method("charge_fee", "fee", body="""
                fee_total := fee_total + fee
            """)
            .method("withdraw", "amount", body="""
                send Account.withdraw(amount) to self
                if balance < 0 then
                    send charge_fee(overdraft_fee(amount)) to self
                end
            """)
        .build()
    )


def order_entry_schema() -> Schema:
    """A TPC-C-style order-entry schema: hot counters plus read-only queries.

    ``Warehouse`` carries the contended year-to-date and order counters that
    every sale updates — both methods are counter updates
    (``f := f ± delta``) that read and write one field, so every sale of
    one warehouse conflicts with every other.  ``Stock`` pairs a
    decrement of ``quantity`` with an increment of ``sold``, so the sum
    ``quantity + sold`` is conserved by every sale: the conservation
    invariant the sequential-replay verifier checks.  ``activity_report``
    and ``stock_level`` are the read-only queries that make the snapshot
    read path measurable.
    """
    return (
        SchemaBuilder()
        .define("Warehouse")
            .field("name", "string")
            .field("ytd", "float")
            .field("orders", "integer")
            .method("record_sale", "amount", body="""
                ytd := ytd + amount
            """)
            .method("note_order", body="""
                orders := orders + 1
            """)
            .method("activity_report", body="""
                return describe(name, ytd, orders)
            """)
        .define("Stock")
            .field("item", "string")
            .field("quantity", "integer")
            .field("sold", "integer")
            .method("take_stock", "count", body="""
                quantity := quantity - count
            """)
            .method("record_sold", "count", body="""
                sold := sold + count
            """)
            .method("stock_level", body="""
                return describe(item, quantity, sold)
            """)
        .build()
    )


def library_schema() -> Schema:
    """A document/library hierarchy with a reference field between classes.

    ``Member.checkout`` sends a message to the instance referenced by its
    ``borrowing`` field, which exercises the part of the analysis that treats
    messages to fields as *reads* of the reference (like ``send m to f3`` in
    Figure 1).
    """
    return (
        SchemaBuilder()
        .define("Document")
            .field("title", "string")
            .field("year", "integer")
            .field("consultations", "integer")
            .method("consult", body="""
                consultations := consultations + 1
            """)
            .method("describe", body="""
                return format(title, year)
            """)
        .define("Book", "Document")
            .field("copies", "integer")
            .field("borrowed", "integer")
            .method("borrow_copy", body="""
                if borrowed < copies then
                    borrowed := borrowed + 1
                    send consult to self
                end
            """)
            .method("return_copy", body="""
                if borrowed > 0 then
                    borrowed := borrowed - 1
                end
            """)
            .method("available", body="""
                return copies - borrowed
            """)
        .define("Journal", "Document")
            .field("volume", "integer")
            .field("issue", "integer")
            .method("next_issue", body="""
                issue := issue + 1
            """)
            .method("consult", body="""
                send Document.consult to self
                issue := issue
            """)
        .define("Member")
            .field("name", "string")
            .field("loans", "integer")
            .field("borrowing", ref="Book")
            .method("checkout", body="""
                if loans < limit() then
                    loans := loans + 1
                    send borrow_copy to borrowing
                end
            """)
            .method("give_back", body="""
                if loans > 0 then
                    loans := loans - 1
                    send return_copy to borrowing
                end
            """)
            .method("rename", "new_name", body="""
                name := new_name
            """)
        .build()
    )
