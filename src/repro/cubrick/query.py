"""Query model: filters, aggregations, partial and final results.

Cubrick serves low-latency OLAP aggregations: a query names a table,
a set of dimension filters, optional group-by dimensions and one or more
metric aggregations. Execution is distributed — every host holding a
partition computes a *partial result*, and the query coordinator merges
partials and materialises the final result (paper §I, §IV-C).

Partial aggregates are kept as arrays in merge-friendly state form
(``avg`` is a (sum, count) pair) so partials combine associatively
regardless of how rows were split across partitions; they stay arrays
through HAVING, ORDER BY and LIMIT until the surviving rows are built.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from repro.errors import QueryError


class FilterOp(enum.Enum):
    EQ = "eq"
    IN = "in"
    BETWEEN = "between"
    # Complement membership: keep rows whose value is NOT in the set.
    # Emitted by the SQL planner for != / NOT IN / large OR complements;
    # contributes no brick pruning (the excluded set says nothing about
    # which buckets the surviving rows live in).
    NOT_IN = "not_in"


@dataclass(frozen=True)
class Filter:
    """A predicate over one dimension column."""

    dimension: str
    op: FilterOp
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.op is FilterOp.EQ and len(self.values) != 1:
            raise QueryError(f"EQ filter needs exactly one value: {self.values}")
        if self.op is FilterOp.IN and not self.values:
            raise QueryError("IN filter needs at least one value")
        if self.op is FilterOp.NOT_IN and not self.values:
            raise QueryError("NOT IN filter needs at least one value")
        if self.op is FilterOp.BETWEEN:
            if len(self.values) != 2:
                raise QueryError(f"BETWEEN filter needs (low, high): {self.values}")
            low, high = self.values
            if low > high:
                raise QueryError(f"BETWEEN range is empty: {self.values}")

    @classmethod
    def eq(cls, dimension: str, value: int) -> "Filter":
        return cls(dimension=dimension, op=FilterOp.EQ, values=(int(value),))

    @classmethod
    def isin(cls, dimension: str, values: list[int] | tuple[int, ...]) -> "Filter":
        return cls(dimension=dimension, op=FilterOp.IN,
                   values=tuple(int(v) for v in values))

    @classmethod
    def between(cls, dimension: str, low: int, high: int) -> "Filter":
        return cls(dimension=dimension, op=FilterOp.BETWEEN,
                   values=(int(low), int(high)))

    @classmethod
    def not_in(cls, dimension: str,
               values: list[int] | tuple[int, ...]) -> "Filter":
        return cls(dimension=dimension, op=FilterOp.NOT_IN,
                   values=tuple(int(v) for v in values))


class AggFunc(enum.Enum):
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    # Exact distinct count; the partial state is the (group, value) pair
    # set, which merges associatively across partitions like every other
    # state.
    COUNT_DISTINCT = "count_distinct"


@dataclass(frozen=True)
class Aggregation:
    """One aggregate over a metric column."""

    func: AggFunc
    metric: str

    def label(self) -> str:
        return f"{self.func.value}({self.metric})"


class CompareOp(enum.Enum):
    GT = ">"
    GE = ">="
    LT = "<"
    LE = "<="
    EQ = "="


@dataclass(frozen=True)
class Having:
    """A post-aggregation predicate over a result column.

    ``column`` is an aggregation label (``"sum(clicks)"``) or a group
    column; evaluated after all partials are merged, alongside ORDER BY.
    """

    column: str
    op: CompareOp
    value: float

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Which entries of a result column pass; NaN (no value, as for
        an empty MIN or AVG) never does."""
        return _COMPARE[self.op](values, self.value)


_COMPARE = {
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.EQ: operator.eq,
}


#: Join strategies. Nodes resolve a replicated-local join from their
#: own replicas; the coordinator collects a sharded dimension table for
#: the other two.
REPLICATED_LOCAL = "replicated-local"
BROADCAST = "broadcast"
PARTITIONED_HASH = "partitioned-hash"


@dataclass(frozen=True)
class Join:
    """An equi-join from the fact table to a dimension table.

    Interactive analytic DBMSs replicate small, frequently-joined tables
    to every node so joins with large distributed tables never cross the
    network (paper §II-B); that is the default ``replicated-local``
    strategy. A join to a *sharded* dimension table carries the strategy
    the planner chose for it (``broadcast`` or ``partitioned-hash``).
    Joined columns are referenced in filters and group-bys with dotted
    names (``"dim_users.country"``); rows whose key has no match in the
    dimension table are dropped (inner join).
    """

    table: str  # the dimension table
    fact_key: str  # join column on the fact table
    dim_key: str  # key column on the dimension table
    strategy: str = REPLICATED_LOCAL

    def __post_init__(self) -> None:
        if not self.table or not self.fact_key or not self.dim_key:
            raise QueryError("join needs table, fact_key and dim_key")
        if self.strategy not in (REPLICATED_LOCAL, BROADCAST, PARTITIONED_HASH):
            raise QueryError(f"unknown join strategy: {self.strategy!r}")

    def column_of(self, dotted: str) -> Optional[str]:
        """The dimension-table column a dotted reference names (or None)."""
        prefix = f"{self.table}."
        if dotted.startswith(prefix):
            return dotted[len(prefix):]
        return None


@dataclass(frozen=True)
class Query:
    """An OLAP aggregation query against one table (plus optional joins
    to dimension tables): the one plan value every SQL statement
    compiles to and the proxy routes."""

    table: str
    aggregations: tuple[Aggregation, ...]
    group_by: tuple[str, ...] = ()
    filters: tuple[Filter, ...] = ()
    joins: tuple[Join, ...] = ()
    # Post-aggregation shaping, applied after the coordinator merges all
    # partials: HAVING predicates, then ORDER BY a group column or an
    # aggregation label ("sum(clicks)"), then LIMIT.
    having: tuple[Having, ...] = ()
    order_by: Optional[str] = None
    descending: bool = True
    limit: Optional[int] = None
    #: Set when the planner proved the WHERE clause unsatisfiable: the
    #: answer is zero rows and no node is touched.
    empty_reason: str = ""

    def __post_init__(self) -> None:
        if not self.aggregations:
            raise QueryError("query needs at least one aggregation")
        join_tables = [j.table for j in self.joins]
        if len(join_tables) != len(set(join_tables)):
            raise QueryError("duplicate join table")
        if self.limit is not None and self.limit <= 0:
            raise QueryError(f"limit must be positive: {self.limit}")
        labels = {agg.label() for agg in self.aggregations}
        if self.order_by is not None:
            if self.order_by not in labels and self.order_by not in self.group_by:
                raise QueryError(
                    f"order_by {self.order_by!r} is neither a group column "
                    f"nor an aggregation label ({sorted(labels)})"
                )
        for predicate in self.having:
            if predicate.column not in labels and \
                    predicate.column not in self.group_by:
                raise QueryError(
                    f"having column {predicate.column!r} is neither a group "
                    f"column nor an aggregation label ({sorted(labels)})"
                )

    @classmethod
    def build(
        cls,
        table: str,
        aggregations: list[Aggregation],
        *,
        group_by: Optional[list[str]] = None,
        filters: Optional[list[Filter]] = None,
        joins: Optional[list[Join]] = None,
        having: Optional[list[Having]] = None,
        order_by: Optional[str] = None,
        descending: bool = True,
        limit: Optional[int] = None,
    ) -> "Query":
        return cls(
            table=table,
            aggregations=tuple(aggregations),
            group_by=tuple(group_by or ()),
            filters=tuple(filters or ()),
            joins=tuple(joins or ()),
            having=tuple(having or ()),
            order_by=order_by,
            descending=descending,
            limit=limit,
        )

    def joined_columns(self) -> set[str]:
        """Dotted dimension-table references used by this query."""
        names = set(self.group_by)
        names.update(f.dimension for f in self.filters)
        return {n for n in names if "." in n}

    @cached_property
    def plan_key(self) -> str:
        """Canonical SQL rendering: the normalised plan text caches key on.

        Rendered once per object (a query is immutable); structurally
        identical queries built through different paths render alike.
        """
        from repro.cubrick.sql import render_query

        return render_query(self)


def kernel_family(query: Query) -> str:
    """The scan-kernel family a query dispatches to, as a stable label.

    ``grouped:sum+count`` / ``scalar:avg`` — shape (grouped vs scalar
    rollup) plus the sorted set of aggregate functions. This is the
    ``family`` label on ``cubrick.node.kernel`` spans, so profiler
    breakdowns attribute scan time per kernel family.
    """
    shape = "grouped" if query.group_by else "scalar"
    funcs = sorted({agg.func.value for agg in query.aggregations})
    return f"{shape}:{'+'.join(funcs)}" if funcs else shape


# ----------------------------------------------------------------------
# Partial results: one block representation from scan to final rows
# ----------------------------------------------------------------------


@dataclass
class _Block:
    """Array-form per-group states from one partition scan (or a compaction).

    ``keys`` is an ``(n_groups, n_key_cols)`` int64 array of distinct
    group keys in lexicographic order; an ungrouped query has no key
    columns and one group, the empty key. ``states`` holds one array-form
    state per aggregation (see
    :func:`repro.cubrick.kernels.grouped_state_arrays`):

    * SUM / COUNT → float64 array of length ``n_groups``
    * MIN / MAX → float64 array, NaN meaning "no value"
    * AVG → ``(sums, counts)`` array pair
    * COUNT_DISTINCT → ``(owners, values)`` pair arrays

    Blocks append in O(1) during scans and merges; they are only
    consolidated when the block list grows past the compaction
    threshold, and once more at finalize.
    """

    keys: np.ndarray
    states: list


#: Consolidate pending blocks whenever this many accumulate, bounding
#: the memory a long merge chain (node → coordinator) can hold.
_COMPACT_THRESHOLD = 64


@dataclass
class PartialResult:
    """Per-group aggregate states from one partition (or a merge).

    States live in :class:`_Block` arrays from the partition scan to the
    final rows. A partition scan appends its block without touching a
    Python object per group (:meth:`accumulate_block`); partials merge
    by concatenating block lists, consolidated lazily (dense re-encode +
    bincount/scatter kernels), so node→coordinator merges stay
    O(groups) array work. An ungrouped partial folds its blocks into one
    before it merges, so its sums add over a partition's rows, then
    partition by partition and host by host.
    """

    query: Query
    rows_scanned: int = 0
    bricks_scanned: int = 0
    #: Merge/consolidate telemetry: lazy consolidation passes run over
    #: grouped blocks and the blocks folded by them, accumulated across
    #: merges so the coordinator's merge span can report the whole
    #: chain's work.
    compactions: int = 0
    blocks_consolidated: int = 0
    _blocks: list[_Block] = field(default_factory=list, repr=False)

    def accumulate_block(self, keys: np.ndarray, states: list) -> None:
        """Append one partition scan's array-form states."""
        self._blocks.append(_Block(keys=keys, states=states))
        if len(self._blocks) >= _COMPACT_THRESHOLD:
            self.block()

    def merge(self, other: "PartialResult") -> "PartialResult":
        if other.query.aggregations != self.query.aggregations:
            raise QueryError("cannot merge partials from different queries")
        if other.query.group_by != self.query.group_by:
            # Same aggregations but different grouping would merge states
            # keyed by incompatible tuples into silently wrong results.
            raise QueryError(
                "cannot merge partials with different group-bys: "
                f"{self.query.group_by} vs {other.query.group_by}"
            )
        if self.query.group_by:
            self._blocks.extend(other._blocks)
        else:  # both sides fold first: sums add partial by partial
            self.block()
            if other._blocks:
                self._blocks.append(other.block())
        if len(self._blocks) >= _COMPACT_THRESHOLD:
            self.block()
        self.rows_scanned += other.rows_scanned
        self.bricks_scanned += other.bricks_scanned
        self.compactions += other.compactions
        self.blocks_consolidated += other.blocks_consolidated
        return self

    def block(self) -> _Block:
        """All states as one canonical block, consolidating pending ones
        (a grouped consolidation counts as a compaction)."""
        if len(self._blocks) > 1:
            if self.query.group_by:
                self.compactions += 1
                self.blocks_consolidated += len(self._blocks)
            self._blocks = [_consolidate_blocks(self.query, self._blocks)]
        return self._blocks[0] if self._blocks else _empty_block(self.query)

    def regroup(
        self, query: Query, rows: np.ndarray, keys: np.ndarray
    ) -> "PartialResult":
        """Groups ``rows`` of this partial, re-keyed, as a partial of ``query``.

        ``keys[i]`` is the new key of group ``rows[i]`` (an index into
        :meth:`block`); groups that land on one new key merge in their
        old key order. This is the partitioned-hash join's re-aggregation.
        """
        if query.aggregations != self.query.aggregations:
            raise QueryError("cannot regroup into different aggregations")
        block = self.block()
        states = [
            _take_state(agg.func, state, rows, len(block.keys))
            for agg, state in zip(query.aggregations, block.states)
        ]
        out = PartialResult(
            query=query,
            rows_scanned=self.rows_scanned,
            bricks_scanned=self.bricks_scanned,
        )
        out._blocks = [
            _consolidate_blocks(query, [_Block(keys=keys, states=states)])
        ]
        return out

    def finalize(self) -> "QueryResult":
        """Final rows: HAVING, ORDER BY and LIMIT run on the value arrays,
        and only the surviving rows become Python tuples.

        Only correct after *all* partials are merged — which is exactly
        where it runs: the coordinator finalizes once per query.
        """
        query = self.query
        block = self.block()
        columns = list(query.group_by) + [
            agg.label() for agg in query.aggregations
        ]
        arrays = [block.keys[:, j] for j in range(block.keys.shape[1])] + [
            _final_values(agg.func, state, len(block.keys))
            for agg, state in zip(query.aggregations, block.states)
        ]
        picked = _shaped_rows(query, columns, arrays)
        return QueryResult(
            columns=tuple(columns),
            rows=list(zip(*(_python_values(a[picked]) for a in arrays))),
            rows_scanned=self.rows_scanned,
            bricks_scanned=self.bricks_scanned,
        )


# ----------------------------------------------------------------------
# Block states: consolidation and final values
# ----------------------------------------------------------------------


def _empty_block(query: Query) -> _Block:
    states = []
    for agg in query.aggregations:
        if agg.func is AggFunc.AVG:
            states.append((np.empty(0), np.empty(0)))
        elif agg.func is AggFunc.COUNT_DISTINCT:
            states.append((np.empty(0, dtype=np.int64), np.empty(0)))
        else:
            states.append(np.empty(0))
    return _Block(
        keys=np.empty((0, len(query.group_by)), dtype=np.int64),
        states=states,
    )


def _consolidate_blocks(query: Query, blocks: list[_Block]) -> _Block:
    """Merge blocks into one canonical lex-sorted block.

    Keys may repeat within a block as well as across blocks. All keys
    concatenate and re-encode to a dense global group index (an
    ungrouped query's keys are all the one empty key), and every state
    scatters into its group in block order, then row order:
    SUM/COUNT/AVG by ``np.bincount``, which adds sequentially, so a
    group's sum is ``0.0 + v1 + v2 + …``; MIN/MAX by ``np.fmin.at`` /
    ``np.fmax.at`` against a NaN-initialised accumulator (NaN = "no
    value yet"); COUNT_DISTINCT by remapping owners and re-deduplicating
    the pair arrays. Deterministic for a fixed block order.
    """
    from repro.cubrick import kernels

    blocks = [b for b in blocks if len(b.keys)]
    if not blocks:
        return _empty_block(query)
    sizes = [len(b.keys) for b in blocks]
    if query.group_by:
        keys = np.concatenate([b.keys for b in blocks])
        group_idx, unique_keys = kernels.encode_group_keys(
            [keys[:, j] for j in range(keys.shape[1])]
        )
    else:
        group_idx = np.zeros(sum(sizes), dtype=np.int64)
        unique_keys = blocks[0].keys[:1]
    n_groups = len(unique_keys)
    states = []
    for i, agg in enumerate(query.aggregations):
        parts = [b.states[i] for b in blocks]
        if agg.func is AggFunc.COUNT_DISTINCT:
            offsets = itertools.accumulate(sizes, initial=0)
            owners = np.concatenate(
                [o + start for (o, __), start in zip(parts, offsets)]
            )
            values = np.concatenate([v for __, v in parts])
            states.append(
                kernels.group_distinct_pairs(group_idx[owners], values, n_groups)
            )
        elif agg.func is AggFunc.AVG:
            states.append(tuple(
                np.bincount(
                    group_idx,
                    weights=np.concatenate([p[j] for p in parts]),
                    minlength=n_groups,
                )
                for j in (0, 1)
            ))
        elif agg.func is AggFunc.MIN or agg.func is AggFunc.MAX:
            combine = np.fmin if agg.func is AggFunc.MIN else np.fmax
            out = np.full(n_groups, np.nan)
            combine.at(out, group_idx, np.concatenate(parts))
            states.append(out)
        else:  # SUM / COUNT
            states.append(np.bincount(
                group_idx, weights=np.concatenate(parts), minlength=n_groups
            ))
    return _Block(keys=unique_keys, states=states)


def _take_state(func: AggFunc, state, rows: np.ndarray, n_groups: int):
    """The block state of groups ``rows`` (in that order) of a block."""
    if func is AggFunc.AVG:
        return state[0][rows], state[1][rows]
    if func is AggFunc.COUNT_DISTINCT:
        owners, values = state
        position = np.full(n_groups, -1, dtype=np.int64)
        position[rows] = np.arange(len(rows))
        moved = position[owners]
        kept = moved >= 0
        return moved[kept], values[kept]
    return state[rows]


def _final_values(func: AggFunc, state, n_groups: int) -> np.ndarray:
    """Final per-group values (float64, NaN = no value) of a block state."""
    if func is AggFunc.AVG:
        sums, counts = state
        out = np.full(n_groups, np.nan)
        return np.divide(sums, counts, out=out, where=counts != 0)
    if func is AggFunc.COUNT_DISTINCT:
        owners, __ = state
        return np.bincount(owners, minlength=n_groups).astype(np.float64)
    return state


def _shaped_rows(
    query: Query, columns: list[str], arrays: list[np.ndarray]
) -> np.ndarray:
    """Indices of the result rows HAVING keeps, in ORDER BY order, cut
    to LIMIT.

    ORDER BY is one stable lexsort on ``(value or -value, is_missing)``:
    missing values (empty MIN/AVG) sort last in either direction, and
    ties keep group-key order. Under a LIMIT only the rows that tie or
    beat the LIMIT-th one (one ``np.partition``) can make the cut, so
    only those are sorted.
    """
    keep = np.ones(len(arrays[0]), dtype=bool)
    for predicate in query.having:
        keep &= predicate.mask(arrays[columns.index(predicate.column)])
    picked = np.flatnonzero(keep)
    if query.order_by is not None:
        values = arrays[columns.index(query.order_by)][picked]
        missing = np.isnan(values)
        ranked = np.where(missing, 0, -values if query.descending else values)
        if query.limit is not None and query.limit < len(picked):
            key = np.where(missing, np.inf, ranked)
            near = key <= np.partition(key, query.limit - 1)[query.limit - 1]
            picked, ranked, missing = picked[near], ranked[near], missing[near]
        picked = picked[np.lexsort((ranked, missing))]
    if query.limit is not None:
        picked = picked[: query.limit]
    return picked


def _python_values(array: np.ndarray) -> list:
    """A result column as Python ints / floats, NaN as ``None``."""
    values = array.tolist()
    if array.dtype.kind == "f":
        for i in np.flatnonzero(np.isnan(array)).tolist():
            values[i] = None
    return values


@dataclass
class QueryResult:
    """Final materialised result, plus execution metadata.

    ``metadata`` carries the piggy-backed info the Cubrick proxy uses to
    keep its partition-count cache fresh (paper §IV-C strategy 4).
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    rows_scanned: int = 0
    bricks_scanned: int = 0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Optional[float]:
        """Value of a single-row, single-aggregate result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} cols"
            )
        return self.rows[0][0]

    def to_dicts(self) -> list[dict[str, float]]:
        return [dict(zip(self.columns, row)) for row in self.rows]
