"""Typed AST for the Cubrick SQL dialect.

Nodes are frozen dataclasses; every node carries a ``pos`` (character
offset into the source, excluded from equality so that
``parse(unparse(parse(s)))`` round-trips structurally). :func:`unparse`
renders any statement back to canonical SQL — the inverse the property
suite exercises for hundreds of generated statements per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

#: Aggregate function names the dialect accepts (mirrors AggFunc).
AGGREGATE_FUNCS = ("sum", "count", "min", "max", "avg", "count_distinct")

#: Comparison operators in WHERE (``<>`` normalises to ``!=`` at parse).
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Comparison operators in HAVING (the engine's CompareOp set).
HAVING_OPS = ("=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Number:
    """A numeric literal; ``is_int`` preserves how it was written."""

    value: float
    is_int: bool = True
    pos: int = field(compare=False, default=0)

    def render(self) -> str:
        if self.is_int:
            return str(int(self.value))
        return repr(float(self.value))


@dataclass(frozen=True)
class ColumnRef:
    """A plain (``day``) or dotted (``dim_users.country``) column."""

    name: str
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class AggregateCall:
    """``func(column)`` or ``count(*)``; ``label()`` matches the engine."""

    func: str
    argument: str  # column name or "*"
    pos: int = field(compare=False, default=0)

    def label(self) -> str:
        return f"{self.func}({self.argument})"


SelectItem = Union[AggregateCall, ColumnRef]


# ----------------------------------------------------------------------
# Predicates (WHERE)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """``operand op number``; operand may be a column or an aggregate
    (the latter is rejected by the planner with a positioned error)."""

    operand: SelectItem
    op: str  # one of COMPARISON_OPS
    value: Number
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class InList:
    operand: SelectItem
    values: tuple[Number, ...]
    negated: bool = False
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BetweenPred:
    operand: SelectItem
    low: Number
    high: Number
    negated: bool = False
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Not:
    operand: "Predicate"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class And:
    items: tuple["Predicate", ...]
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Or:
    items: tuple["Predicate", ...]
    pos: int = field(compare=False, default=0)


Predicate = Union[Comparison, InList, BetweenPred, Not, And, Or]


# ----------------------------------------------------------------------
# Clauses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON fact.fact_key = table.dim_key`` (order-insensitive)."""

    table: str
    fact_key: str
    dim_key: str
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class HavingItem:
    """``target op number`` where target is a group column or agg label."""

    target: str
    op: str  # one of HAVING_OPS
    value: Number
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class OrderClause:
    target: str
    descending: bool = True
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SelectStatement:
    select: tuple[SelectItem, ...]
    table: str
    joins: tuple[JoinClause, ...] = ()
    where: Optional[Predicate] = None
    group_by: tuple[ColumnRef, ...] = ()
    having: tuple[HavingItem, ...] = ()
    order: Optional[OrderClause] = None
    limit: Optional[int] = None
    pos: int = field(compare=False, default=0)
    table_pos: int = field(compare=False, default=0)

    def aggregates(self) -> tuple[AggregateCall, ...]:
        return tuple(
            item for item in self.select if isinstance(item, AggregateCall)
        )


# ----------------------------------------------------------------------
# Unparse (canonical rendering)
# ----------------------------------------------------------------------


def _render_operand(operand: SelectItem) -> str:
    if isinstance(operand, AggregateCall):
        return operand.label()
    return operand.name


def render_predicate(pred: Predicate) -> str:
    """Canonical SQL for one predicate subtree (minimal parentheses)."""
    if isinstance(pred, Comparison):
        return f"{_render_operand(pred.operand)} {pred.op} {pred.value.render()}"
    if isinstance(pred, InList):
        values = ", ".join(v.render() for v in pred.values)
        word = "NOT IN" if pred.negated else "IN"
        return f"{_render_operand(pred.operand)} {word} ({values})"
    if isinstance(pred, BetweenPred):
        word = "NOT BETWEEN" if pred.negated else "BETWEEN"
        return (
            f"{_render_operand(pred.operand)} {word} "
            f"{pred.low.render()} AND {pred.high.render()}"
        )
    if isinstance(pred, Not):
        inner = render_predicate(pred.operand)
        if isinstance(pred.operand, (And, Or)):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(pred, And):
        parts = []
        for item in pred.items:
            text = render_predicate(item)
            if isinstance(item, (And, Or)):
                text = f"({text})"
            parts.append(text)
        return " AND ".join(parts)
    if isinstance(pred, Or):
        parts = []
        for item in pred.items:
            text = render_predicate(item)
            if isinstance(item, Or):
                text = f"({text})"
            parts.append(text)
        return " OR ".join(parts)
    raise TypeError(f"not a predicate node: {pred!r}")


def unparse(stmt: SelectStatement) -> str:
    """Render a statement back to canonical SQL.

    ``parse(unparse(parse(s)))`` equals ``parse(s)`` for every statement
    the grammar accepts (positions excluded) — verified by the property
    suite.
    """
    parts = ["SELECT "]
    parts.append(", ".join(_render_operand(item) for item in stmt.select))
    parts.append(f" FROM {stmt.table}")
    for join in stmt.joins:
        parts.append(
            f" JOIN {join.table} ON {stmt.table}.{join.fact_key} = "
            f"{join.table}.{join.dim_key}"
        )
    if stmt.where is not None:
        parts.append(" WHERE " + render_predicate(stmt.where))
    if stmt.group_by:
        parts.append(" GROUP BY " + ", ".join(c.name for c in stmt.group_by))
    if stmt.having:
        clauses = [
            f"{h.target} {h.op} {h.value.render()}" for h in stmt.having
        ]
        parts.append(" HAVING " + " AND ".join(clauses))
    if stmt.order is not None:
        direction = "DESC" if stmt.order.descending else "ASC"
        parts.append(f" ORDER BY {stmt.order.target} {direction}")
    if stmt.limit is not None:
        parts.append(f" LIMIT {stmt.limit}")
    return "".join(parts)
