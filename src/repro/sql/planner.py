"""Logical planner: resolve a parsed statement against the catalog.

:func:`plan` is the one entry point, behind every SQL surface
(``deployment.sql``, ``deployment.compile_sql``, ``deployment.explain``).
Names are resolved against table schemas; WHERE trees (and/or/not, all
six comparisons) compile to the engine's conjunctive ``Filter`` set via
per-column interval algebra over the bounded integer domains, except
that an AND of simple in-domain positive predicates maps verbatim
(preserving value order, so ``render_query`` round-trips exactly); and
the ordered rewrite-rule pipeline of :mod:`repro.sql.rules` annotates
join strategy, pushdown, pruning and partial-aggregation placement.

Numeric literals in dimension predicates are truncated to integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    CompareOp,
    Filter,
    Having,
    Join,
    Query,
)
from repro.cubrick.schema import Catalog, TableInfo
from repro.errors import SqlError
from repro.sql import ast

#: Stand-in bound for the open end of ``<``/``>`` comparisons; interval
#: normalisation clamps it to the column's domain.
UNBOUNDED_HIGH = 2**62


@dataclass
class PlannerContext:
    """Everything the planner may consult besides the statement.

    ``stats`` maps a table name to its (approximate) total row count —
    the planner's only runtime statistic, used for broadcast vs.
    partitioned-hash join selection. ``enum_limit`` bounds how many
    enumerated values an IN/NOT IN filter emitted by the interval
    compiler may carry.
    """

    catalog: Optional[Catalog] = None
    stats: Optional[Callable[[str], Optional[int]]] = None
    broadcast_threshold: int = 10_000
    enum_limit: int = 256
    optimize: bool = True


@dataclass
class Binding:
    """Name-resolution results: catalog entries for every table used."""

    fact: TableInfo
    join_infos: dict[str, TableInfo] = field(default_factory=dict)

    def domain_of(self, column: str) -> int:
        """Cardinality of a (possibly dotted) dimension column."""
        if "." in column:
            table, name = column.split(".", 1)
            return self.join_infos[table].schema.dimension(name).cardinality
        return self.fact.schema.dimension(column).cardinality


@dataclass
class LogicalPlan:
    """The planner's output: a resolved, rule-annotated logical query."""

    statement: ast.SelectStatement
    source: Optional[str]
    context: PlannerContext
    binding: Binding
    fact_table: str
    aggregations: tuple[Aggregation, ...]
    group_by: tuple[str, ...]
    joins: tuple[Join, ...]
    having: tuple[Having, ...]
    order_by: Optional[str]
    descending: bool
    limit: Optional[int]
    #: Compiled conjunctive filters (set by the normalize rule).
    filters: tuple[Filter, ...] = ()
    #: True when the WHERE clause is provably unsatisfiable — the
    #: physical plan short-circuits to an empty result without fan-out.
    empty: bool = False
    empty_reason: str = ""
    #: join table -> 'replicated-local' | 'broadcast' | 'partitioned-hash'
    join_strategies: dict[str, str] = field(default_factory=dict)
    #: join table -> plain-named filters pushed into its collection scan
    #: (partitioned-hash only; broadcast evaluates them via lookups).
    dim_filters: dict[str, tuple[Filter, ...]] = field(default_factory=dict)
    pruning: list[str] = field(default_factory=list)
    placement: list[str] = field(default_factory=list)
    #: Ordered (rule name, notes) trace — the EXPLAIN rewrite section.
    trace: list[tuple[str, list[str]]] = field(default_factory=list)
    query: Optional[Query] = None

    def error(self, message: str, pos: int) -> SqlError:
        return SqlError(message, statement=self.source, position=pos)

    def sharded_join_tables(self) -> list[str]:
        return [
            j.table for j in self.joins
            if not self.binding.join_infos[j.table].replicated
        ]

    def dotted_references(self, table: str) -> list[str]:
        """Dotted columns of one join table used by group-by or filters."""
        prefix = f"{table}."
        names = [n for n in self.group_by if n.startswith(prefix)]
        names.extend(
            f.dimension for f in self.filters
            if f.dimension.startswith(prefix)
        )
        return names


# ----------------------------------------------------------------------
# Interval algebra over bounded integer domains
# ----------------------------------------------------------------------


def _normalize_intervals(
    intervals: list[tuple[int, int]], domain: int
) -> list[tuple[int, int]]:
    """Clamp to [0, domain-1], drop empties, sort, merge adjacent."""
    clamped = []
    for low, high in intervals:
        low = max(0, low)
        high = min(domain - 1, high)
        if low <= high:
            clamped.append((low, high))
    clamped.sort()
    merged: list[tuple[int, int]] = []
    for low, high in clamped:
        if merged and low <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], high))
        else:
            merged.append((low, high))
    return merged


def _intersect_intervals(
    a: list[tuple[int, int]], b: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if low <= high:
            out.append((low, high))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _complement_intervals(
    intervals: list[tuple[int, int]], domain: int
) -> list[tuple[int, int]]:
    out = []
    cursor = 0
    for low, high in intervals:
        if cursor <= low - 1:
            out.append((cursor, low - 1))
        cursor = high + 1
    if cursor <= domain - 1:
        out.append((cursor, domain - 1))
    return out


def _interval_count(intervals: list[tuple[int, int]]) -> int:
    return sum(high - low + 1 for low, high in intervals)


def _interval_points(intervals: list[tuple[int, int]]) -> list[int]:
    points: list[int] = []
    for low, high in intervals:
        points.extend(range(low, high + 1))
    return points


def _comparison_intervals(op: str, value: float) -> list[tuple[int, int]]:
    """Half-open comparisons as integer intervals (pre-clamp).

    Float boundaries resolve exactly: ``< 3.5`` means ``<= 3`` while
    ``< 3`` means ``<= 2``.
    """
    if op == "<":
        return [(-UNBOUNDED_HIGH, math.ceil(value) - 1)]
    if op == "<=":
        return [(-UNBOUNDED_HIGH, math.floor(value))]
    if op == ">":
        return [(math.floor(value) + 1, UNBOUNDED_HIGH)]
    if op == ">=":
        return [(math.ceil(value), UNBOUNDED_HIGH)]
    point = int(value)
    if op == "=":
        return [(point, point)]
    raise ValueError(op)


class PredicateCompiler:
    """Compile a resolved WHERE tree into per-column interval sets."""

    def __init__(self, plan: LogicalPlan):
        self.plan = plan
        self.order: list[str] = []  # columns in first-appearance order

    def column_sets(
        self, pred: ast.Predicate
    ) -> dict[str, list[tuple[int, int]]]:
        """AND-across-columns interval sets for the whole tree."""
        return self._walk(pred)

    def _domain(self, column: str, pos: int) -> int:
        try:
            return self.plan.binding.domain_of(column)
        except Exception:  # SchemaError / KeyError — resolution bug guard
            raise self.plan.error(
                f"unknown dimension {column!r}", pos
            ) from None

    def _note(self, column: str) -> None:
        if column not in self.order:
            self.order.append(column)

    def _walk(self, pred: ast.Predicate) -> dict[str, list[tuple[int, int]]]:
        if isinstance(pred, ast.And):
            acc: dict[str, list[tuple[int, int]]] = {}
            for item in pred.items:
                for column, intervals in self._walk(item).items():
                    if column in acc:
                        acc[column] = _intersect_intervals(
                            acc[column], intervals
                        )
                    else:
                        acc[column] = intervals
            return acc
        if isinstance(pred, ast.Or):
            column = None
            union: list[tuple[int, int]] = []
            for item in pred.items:
                sets = self._walk(item)
                if len(sets) != 1:
                    raise self.plan.error(
                        "OR across different columns is not supported",
                        pred.pos,
                    )
                (item_column, intervals), = sets.items()
                if column is None:
                    column = item_column
                elif column != item_column:
                    raise self.plan.error(
                        "OR across different columns is not supported",
                        pred.pos,
                    )
                union.extend(intervals)
            assert column is not None
            domain = self._domain(column, pred.pos)
            return {column: _normalize_intervals(union, domain)}
        if isinstance(pred, ast.Not):
            sets = self._walk(pred.operand)
            if len(sets) != 1:
                raise self.plan.error(
                    "NOT over a multi-column predicate is not supported",
                    pred.pos,
                )
            (column, intervals), = sets.items()
            domain = self._domain(column, pred.pos)
            return {column: _complement_intervals(intervals, domain)}
        return self._atom(pred)

    def _atom(self, pred: ast.Predicate) -> dict[str, list[tuple[int, int]]]:
        column = _predicate_column(self.plan, pred)
        self._note(column)
        domain = self._domain(column, pred.pos)
        if isinstance(pred, ast.Comparison):
            if pred.op == "!=":
                point = int(pred.value.value)
                intervals = _complement_intervals(
                    _normalize_intervals([(point, point)], domain), domain
                )
            else:
                intervals = _comparison_intervals(pred.op, pred.value.value)
        elif isinstance(pred, ast.InList):
            intervals = [
                (int(v.value), int(v.value)) for v in pred.values
            ]
            if pred.negated:
                intervals = _complement_intervals(
                    _normalize_intervals(intervals, domain), domain
                )
        elif isinstance(pred, ast.BetweenPred):
            intervals = [(int(pred.low.value), int(pred.high.value))]
            if pred.negated:
                intervals = _complement_intervals(
                    _normalize_intervals(intervals, domain), domain
                )
        else:  # pragma: no cover - the walk covers every node type
            raise self.plan.error("unsupported predicate", pred.pos)
        return {column: _normalize_intervals(intervals, domain)}


def _predicate_column(plan: LogicalPlan, pred) -> str:
    operand = pred.operand
    if isinstance(operand, ast.AggregateCall):
        raise plan.error(
            "aggregates are not allowed in WHERE (use HAVING)", operand.pos
        )
    return operand.name


def emit_filters(
    plan: LogicalPlan, sets: dict[str, list[tuple[int, int]]],
    order: list[str]
) -> tuple[list[Filter], list[str]]:
    """Lower per-column interval sets onto engine filters.

    Empty sets mark the whole plan empty (the engine cannot express an
    always-false filter); full-domain sets are dropped; everything else
    becomes EQ / BETWEEN / IN / NOT IN, bounded by ``enum_limit``.
    """
    filters: list[Filter] = []
    notes: list[str] = []
    limit = plan.context.enum_limit
    for column in order:
        intervals = sets[column]
        domain = plan.binding.domain_of(column)
        if not intervals:
            plan.empty = True
            plan.empty_reason = (
                f"predicate on {column!r} is always false"
            )
            notes.append(f"{column}: always false -> empty plan")
            continue
        if intervals == [(0, domain - 1)]:
            notes.append(f"{column}: always true -> dropped")
            continue
        if len(intervals) == 1:
            low, high = intervals[0]
            if low == high:
                filters.append(Filter.eq(column, low))
                notes.append(f"{column}: = {low}")
            else:
                filters.append(Filter.between(column, low, high))
                notes.append(f"{column}: BETWEEN {low} AND {high}")
            continue
        count = _interval_count(intervals)
        if count <= limit:
            points = _interval_points(intervals)
            filters.append(Filter.isin(column, points))
            notes.append(f"{column}: IN ({count} values)")
            continue
        complement = _complement_intervals(intervals, domain)
        comp_count = _interval_count(complement)
        if comp_count <= limit:
            points = _interval_points(complement)
            filters.append(Filter.not_in(column, points))
            notes.append(f"{column}: NOT IN ({comp_count} values)")
            continue
        raise plan.error(
            f"predicate on {column!r} is too complex to lower "
            f"({count} values and {comp_count} excluded values both "
            f"exceed the {limit}-value enumeration limit)",
            plan.statement.pos,
        )
    return filters, notes


def literal_conjuncts(
    plan: LogicalPlan, pred: ast.Predicate
) -> Optional[list]:
    """The AND-of-simple-positive conjunct list, or None.

    Simple positive predicates (``=``, ``IN``, ``BETWEEN`` without NOT)
    map verbatim onto engine filters — preserving value order and
    duplicates, which keeps ``render_query`` round-trips exact. EQ/IN
    values must be in-domain and BETWEEN non-empty, so downstream brick
    pruning never sees an out-of-domain value.
    """
    conjuncts = list(pred.items) if isinstance(pred, ast.And) else [pred]
    out = []
    for item in conjuncts:
        if isinstance(item, ast.Comparison) and item.op == "=":
            pass
        elif isinstance(item, ast.InList) and not item.negated:
            pass
        elif isinstance(item, ast.BetweenPred) and not item.negated:
            if int(item.low.value) > int(item.high.value):
                return None
        else:
            return None
        if not isinstance(item.operand, ast.ColumnRef):
            return None
        domain = plan.binding.domain_of(item.operand.name)
        values = []
        if isinstance(item, ast.Comparison):
            values = [item.value.value]
        elif isinstance(item, ast.InList):
            values = [v.value for v in item.values]
        if any(not 0 <= int(v) < domain for v in values):
            return None
        out.append(item)
    return out


def filters_from_literals(conjuncts: list) -> list[Filter]:
    """Verbatim filters for an AND of simple positive predicates."""
    filters = []
    for item in conjuncts:
        column = item.operand.name
        if isinstance(item, ast.Comparison):
            filters.append(Filter.eq(column, int(item.value.value)))
        elif isinstance(item, ast.InList):
            filters.append(
                Filter.isin(column, [int(v.value) for v in item.values])
            )
        else:
            filters.append(
                Filter.between(
                    column, int(item.low.value), int(item.high.value)
                )
            )
    return filters


# ----------------------------------------------------------------------
# Name resolution (catalog path)
# ----------------------------------------------------------------------


class _Resolver:
    def __init__(self, statement: ast.SelectStatement,
                 context: PlannerContext, source: Optional[str]):
        assert context.catalog is not None
        self.statement = statement
        self.context = context
        self.source = source
        self.catalog = context.catalog

    def error(self, message: str, pos: int) -> SqlError:
        return SqlError(message, statement=self.source, position=pos)

    def resolve(self) -> LogicalPlan:
        stmt = self.statement
        if stmt.table not in self.catalog:
            raise self.error(
                f"unknown table {stmt.table!r}", stmt.table_pos
            )
        fact = self.catalog.get(stmt.table)
        binding = Binding(fact=fact)
        joins = self._resolve_joins(binding)
        group_by = tuple(
            self._resolve_group_column(binding, ref) for ref in stmt.group_by
        )
        aggregations = self._resolve_aggregates(binding)
        self._check_plain_select_items(binding, group_by)
        labels = {agg.label() for agg in aggregations}
        having = tuple(
            Having(
                column=self._resolve_target(
                    binding, item.target, labels, group_by, item.pos,
                    "HAVING",
                ),
                op=CompareOp(item.op),
                value=float(item.value.value),
            )
            for item in stmt.having
        )
        order_by = None
        descending = True
        if stmt.order is not None:
            order_by = self._resolve_target(
                binding, stmt.order.target, labels, group_by,
                stmt.order.pos, "ORDER BY",
            )
            descending = stmt.order.descending
        plan = LogicalPlan(
            statement=stmt,
            source=self.source,
            context=self.context,
            binding=binding,
            fact_table=stmt.table,
            aggregations=aggregations,
            group_by=group_by,
            joins=joins,
            having=having,
            order_by=order_by,
            descending=descending,
            limit=stmt.limit,
        )
        # WHERE operands are resolved (and type-checked) ahead of the
        # rules so the normalize rule works on final column names.
        if stmt.where is not None:
            plan.statement = ast.SelectStatement(
                select=stmt.select,
                table=stmt.table,
                joins=stmt.joins,
                where=self._resolve_predicate(binding, stmt.where),
                group_by=stmt.group_by,
                having=stmt.having,
                order=stmt.order,
                limit=stmt.limit,
                pos=stmt.pos,
                table_pos=stmt.table_pos,
            )
        return plan

    # -- tables and joins ----------------------------------------------

    def _resolve_joins(self, binding: Binding) -> tuple[Join, ...]:
        stmt = self.statement
        joins = []
        for clause in stmt.joins:
            if clause.table == stmt.table:
                raise self.error(
                    f"cannot join table {clause.table!r} to itself",
                    clause.pos,
                )
            if clause.table in binding.join_infos:
                raise self.error(
                    f"duplicate join table {clause.table!r}", clause.pos
                )
            if clause.table not in self.catalog:
                raise self.error(
                    f"unknown table {clause.table!r}", clause.pos
                )
            info = self.catalog.get(clause.table)
            if not binding.fact.schema.has_dimension(clause.fact_key):
                raise self.error(
                    f"join key {clause.fact_key!r} is not a dimension of "
                    f"table {stmt.table!r}",
                    clause.pos,
                )
            if not info.schema.has_dimension(clause.dim_key):
                raise self.error(
                    f"join key {clause.dim_key!r} is not a dimension of "
                    f"table {clause.table!r}",
                    clause.pos,
                )
            binding.join_infos[clause.table] = info
            joins.append(Join(
                table=clause.table,
                fact_key=clause.fact_key,
                dim_key=clause.dim_key,
            ))
        return tuple(joins)

    # -- columns --------------------------------------------------------

    def _resolve_column(
        self, binding: Binding, ref: ast.ColumnRef, *, want: str
    ) -> str:
        """Resolve to a final engine name (plain or dotted).

        ``want`` is 'dimension' (WHERE / GROUP BY) or 'column'.
        """
        name = ref.name
        if "." in name:
            table, column = name.split(".", 1)
            if table == self.statement.table:
                name = column  # fact-table prefix strips to plain
            elif table in binding.join_infos:
                schema = binding.join_infos[table].schema
                if schema.has_dimension(column):
                    return name
                if schema.has_metric(column):
                    raise self.error(
                        f"column {name!r} is a metric; only dimension "
                        f"columns are allowed here",
                        ref.pos,
                    )
                raise self.error(
                    f"unknown column {column!r} in table {table!r}",
                    ref.pos,
                )
            else:
                raise self.error(
                    f"unknown table {table!r} (not the FROM table or a "
                    f"JOIN)",
                    ref.pos,
                )
        schema = binding.fact.schema
        if schema.has_dimension(name):
            return name
        if schema.has_metric(name):
            if want == "dimension":
                raise self.error(
                    f"column {name!r} is a metric; only dimension "
                    f"columns are allowed here",
                    ref.pos,
                )
            return name
        raise self.error(
            f"unknown column {name!r} in table {self.statement.table!r}",
            ref.pos,
        )

    def _resolve_group_column(
        self, binding: Binding, ref: ast.ColumnRef
    ) -> str:
        return self._resolve_column(binding, ref, want="dimension")

    def _resolve_aggregates(
        self, binding: Binding
    ) -> tuple[Aggregation, ...]:
        stmt = self.statement
        calls = stmt.aggregates()
        if not calls:
            raise self.error(
                "at least one aggregate is required in SELECT", stmt.pos
            )
        schema = binding.fact.schema
        out = []
        for call in calls:
            func = AggFunc(call.func)
            argument = call.argument
            if argument == "*":
                out.append(Aggregation(func, "*"))
                continue
            if "." in argument:
                raise self.error(
                    "aggregates over joined columns are not supported",
                    call.pos,
                )
            if func in (AggFunc.COUNT, AggFunc.COUNT_DISTINCT):
                if not (schema.has_dimension(argument)
                        or schema.has_metric(argument)):
                    raise self.error(
                        f"unknown column {argument!r} in table "
                        f"{stmt.table!r}",
                        call.pos,
                    )
            elif not schema.has_metric(argument):
                if schema.has_dimension(argument):
                    raise self.error(
                        f"{call.func}() needs a metric column; "
                        f"{argument!r} is a dimension",
                        call.pos,
                    )
                raise self.error(
                    f"unknown column {argument!r} in table {stmt.table!r}",
                    call.pos,
                )
            out.append(Aggregation(func, argument))
        return tuple(out)

    def _check_plain_select_items(
        self, binding: Binding, group_by: tuple[str, ...]
    ) -> None:
        for item in self.statement.select:
            if isinstance(item, ast.AggregateCall):
                continue
            resolved = self._resolve_column(binding, item, want="dimension")
            if resolved not in group_by:
                raise self.error(
                    f"non-aggregate SELECT column {item.name!r} must "
                    f"appear in GROUP BY",
                    item.pos,
                )

    def _resolve_target(
        self,
        binding: Binding,
        target: str,
        labels: set[str],
        group_by: tuple[str, ...],
        pos: int,
        clause: str,
    ) -> str:
        if "(" in target:
            if target in labels:
                return target
            raise self.error(
                f"{clause} target {target!r} is not a selected aggregate "
                f"({sorted(labels)})",
                pos,
            )
        resolved = self._resolve_column(
            binding, ast.ColumnRef(name=target, pos=pos), want="dimension"
        )
        if resolved in group_by:
            return resolved
        raise self.error(
            f"{clause} target {target!r} is not a group column or "
            f"selected aggregate",
            pos,
        )

    def _resolve_predicate(
        self, binding: Binding, pred: ast.Predicate
    ) -> ast.Predicate:
        if isinstance(pred, ast.And):
            return ast.And(
                items=tuple(
                    self._resolve_predicate(binding, p) for p in pred.items
                ),
                pos=pred.pos,
            )
        if isinstance(pred, ast.Or):
            return ast.Or(
                items=tuple(
                    self._resolve_predicate(binding, p) for p in pred.items
                ),
                pos=pred.pos,
            )
        if isinstance(pred, ast.Not):
            return ast.Not(
                operand=self._resolve_predicate(binding, pred.operand),
                pos=pred.pos,
            )
        operand = pred.operand
        if isinstance(operand, ast.AggregateCall):
            raise self.error(
                "aggregates are not allowed in WHERE (use HAVING)",
                operand.pos,
            )
        resolved = self._resolve_column(binding, operand, want="dimension")
        new_operand = ast.ColumnRef(name=resolved, pos=operand.pos)
        if isinstance(pred, ast.Comparison):
            return ast.Comparison(
                operand=new_operand, op=pred.op, value=pred.value,
                pos=pred.pos,
            )
        if isinstance(pred, ast.InList):
            return ast.InList(
                operand=new_operand, values=pred.values,
                negated=pred.negated, pos=pred.pos,
            )
        return ast.BetweenPred(
            operand=new_operand, low=pred.low, high=pred.high,
            negated=pred.negated, pos=pred.pos,
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def plan(
    statement: ast.SelectStatement,
    context: PlannerContext,
    *,
    source: Optional[str] = None,
) -> LogicalPlan:
    """Resolve, compile and rule-annotate one statement.

    Raises :class:`SqlError` (with source position) on any resolution or
    lowering problem.
    """
    if context.catalog is None:
        raise SqlError("planning requires a catalog", statement=source,
                       position=statement.pos)
    logical = _Resolver(statement, context, source).resolve()
    # Imported lazily: rules type-hints against this module.
    from repro.sql import rules

    rules.apply_pipeline(logical)
    logical.query = Query(
        table=logical.fact_table,
        aggregations=logical.aggregations,
        group_by=logical.group_by,
        filters=logical.filters,
        joins=logical.joins,
        having=logical.having,
        order_by=logical.order_by,
        descending=logical.descending,
        limit=logical.limit,
        empty_reason=logical.empty_reason,
    )
    return logical
