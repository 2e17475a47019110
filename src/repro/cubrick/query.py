"""Query model: filters, aggregations, partial and final results.

Cubrick serves low-latency OLAP aggregations: a query names a table,
a set of dimension filters, optional group-by dimensions and one or more
metric aggregations. Execution is distributed — every host holding a
partition computes a *partial result*, and the query coordinator merges
partials and materialises the final result (paper §I, §IV-C).

Partial aggregates are kept in merge-friendly state form (``avg`` is a
(sum, count) pair) so partials combine associatively regardless of how
rows were split across partitions.
"""

from __future__ import annotations

import enum
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
    # Exact distinct count; the partial state is the value set, which
    # merges associatively across partitions like every other state.
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

    def matches(self, actual) -> bool:
        if actual is None:
            return False
        if self.op is CompareOp.GT:
            return actual > self.value
        if self.op is CompareOp.GE:
            return actual >= self.value
        if self.op is CompareOp.LT:
            return actual < self.value
        if self.op is CompareOp.LE:
            return actual <= self.value
        return actual == self.value


@dataclass(frozen=True)
class Join:
    """An equi-join from the fact table to a *replicated* dimension table.

    Interactive analytic DBMSs replicate small, frequently-joined tables
    to every node so joins with large distributed tables never cross the
    network (paper §II-B). Joined columns are referenced in filters and
    group-bys with dotted names (``"dim_users.country"``); rows whose
    key has no match in the dimension table are dropped (inner join).
    """

    table: str  # the replicated dimension table
    fact_key: str  # join column on the fact table
    dim_key: str  # key column on the dimension table

    def __post_init__(self) -> None:
        if not self.table or not self.fact_key or not self.dim_key:
            raise QueryError("join needs table, fact_key and dim_key")

    def column_of(self, dotted: str) -> Optional[str]:
        """The dimension-table column a dotted reference names (or None)."""
        prefix = f"{self.table}."
        if dotted.startswith(prefix):
            return dotted[len(prefix):]
        return None


@dataclass(frozen=True)
class Query:
    """An OLAP aggregation query against one table (plus optional joins
    to replicated dimension tables)."""

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
# Aggregation state machinery
# ----------------------------------------------------------------------

#: Merge-friendly state per aggregate:
#:   SUM   -> float
#:   COUNT -> float (count)
#:   MIN   -> float or None
#:   MAX   -> float or None
#:   AVG   -> (sum, count)
#:   COUNT_DISTINCT -> DistinctState (compact sorted-unique value array)
AggState = object


class DistinctState:
    """Compact COUNT_DISTINCT partial state: a sorted-unique value array.

    This is what crosses node → coordinator instead of a Python
    frozenset: one int64/float64 numpy array per group, merged by
    ``np.union1d``-style concatenate+unique. ``coerce`` accepts legacy
    frozensets (and any iterable) so hand-written reference aggregators
    keep working against the same merge machinery.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    @classmethod
    def empty(cls) -> "DistinctState":
        return cls(np.empty(0, dtype=np.int64))

    @classmethod
    def coerce(cls, obj) -> "DistinctState":
        if isinstance(obj, DistinctState):
            return obj
        if isinstance(obj, np.ndarray):
            return cls(np.unique(obj))
        values = list(obj)
        if not values:
            return cls.empty()
        return cls(np.unique(np.asarray(values)))

    def union(self, other: "DistinctState") -> "DistinctState":
        if not len(other.values):
            return self
        if not len(self.values):
            return other
        return DistinctState(np.union1d(self.values, other.values))

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        mine = self.values
        theirs = (
            other.values
            if isinstance(other, DistinctState)
            else DistinctState.coerce(other).values
        )
        return len(mine) == len(theirs) and bool(np.all(mine == theirs))

    def __repr__(self) -> str:
        return f"DistinctState({self.values.tolist()!r})"


def initial_state(func: AggFunc) -> AggState:
    if func is AggFunc.SUM or func is AggFunc.COUNT:
        return 0.0
    if func is AggFunc.MIN or func is AggFunc.MAX:
        return None
    if func is AggFunc.COUNT_DISTINCT:
        return DistinctState.empty()
    return (0.0, 0.0)  # AVG


def merge_states(func: AggFunc, a: AggState, b: AggState) -> AggState:
    if func is AggFunc.SUM or func is AggFunc.COUNT:
        return float(a) + float(b)
    if func is AggFunc.MIN:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)
    if func is AggFunc.MAX:
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)
    if func is AggFunc.COUNT_DISTINCT:
        return DistinctState.coerce(a).union(DistinctState.coerce(b))
    return (a[0] + b[0], a[1] + b[1])  # AVG


def finalize_state(func: AggFunc, state: AggState) -> Optional[float]:
    if func is AggFunc.AVG:
        total, count = state
        return total / count if count else None
    if func is AggFunc.MIN or func is AggFunc.MAX:
        return state
    if func is AggFunc.COUNT_DISTINCT:
        return float(len(state))
    return float(state)


@dataclass
class _Block:
    """Array-form per-group states from one brick scan (or a compaction).

    ``keys`` is an ``(n_groups, n_key_cols)`` int64 array of distinct
    group keys in lexicographic order; ``states`` holds one array-form
    state per aggregation (see
    :func:`repro.cubrick.kernels.grouped_state_arrays`). Blocks append
    in O(1) during scans and merges; they are only consolidated when the
    block list grows past the compaction threshold, and once more at
    finalize.
    """

    keys: np.ndarray
    states: list


#: Consolidate pending blocks whenever this many accumulate, bounding
#: the memory a long merge chain (node → coordinator) can hold.
_COMPACT_THRESHOLD = 64


@dataclass
class PartialResult:
    """Per-group aggregate states from one partition (or a merge).

    Two accumulation paths coexist:

    * :meth:`accumulate_block` — the vectorised scan path: per-brick
      group keys and array-form states append as a :class:`_Block`
      without touching a Python dict. Blocks merge by concatenation and
      are consolidated lazily (dense re-encode + bincount/scatter
      kernels), so node→coordinator merges stay O(groups) array work.
    * :meth:`accumulate` — the row/scalar path: plain-Python states
      keyed by group tuple, used by ungrouped aggregates and by
      row-at-a-time reference aggregators in tests.
    """

    query: Query
    rows_scanned: int = 0
    bricks_scanned: int = 0
    #: Merge/consolidate telemetry: lazy consolidation passes run and
    #: array blocks folded by them, accumulated across merges so the
    #: coordinator's merge span can report the whole chain's work.
    compactions: int = 0
    blocks_consolidated: int = 0
    _blocks: list[_Block] = field(default_factory=list, repr=False)
    _groups: dict[tuple[int, ...], list[AggState]] = field(
        default_factory=dict, repr=False
    )

    @property
    def groups(self) -> dict[tuple[int, ...], list[AggState]]:
        """All per-group states as plain-Python state objects.

        Consolidates any pending array blocks first; the returned dict
        is a materialised *view* — mutate states through
        :meth:`accumulate`, not through this dict.
        """
        if not self._blocks:
            return self._groups
        out: dict[tuple[int, ...], list[AggState]] = {}
        block = self._consolidated()
        if block is not None:
            keys = [tuple(row) for row in block.keys.tolist()]
            for i, agg in enumerate(self.query.aggregations):
                states = _block_states_to_python(
                    agg.func, block.states[i], len(keys)
                )
                for key, state in zip(keys, states):
                    out.setdefault(key, []).append(state)
        for key, states in self._groups.items():
            existing = out.get(key)
            if existing is None:
                out[key] = list(states)
            else:
                for i, agg in enumerate(self.query.aggregations):
                    existing[i] = merge_states(
                        agg.func, existing[i], states[i]
                    )
        return out

    def accumulate(self, key: tuple[int, ...], states: list[AggState]) -> None:
        existing = self._groups.get(key)
        if existing is None:
            self._groups[key] = list(states)
        else:
            for i, agg in enumerate(self.query.aggregations):
                existing[i] = merge_states(agg.func, existing[i], states[i])

    def accumulate_block(self, keys: np.ndarray, states: list) -> None:
        """Append one brick scan's array-form states (the fast path)."""
        self._blocks.append(_Block(keys=keys, states=states))
        if len(self._blocks) >= _COMPACT_THRESHOLD:
            self._compact()

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
        self._blocks.extend(other._blocks)
        if len(self._blocks) >= _COMPACT_THRESHOLD:
            self._compact()
        for key, states in other._groups.items():
            self.accumulate(key, states)
        self.rows_scanned += other.rows_scanned
        self.bricks_scanned += other.bricks_scanned
        self.compactions += other.compactions
        self.blocks_consolidated += other.blocks_consolidated
        return self

    # ------------------------------------------------------------------
    # Block consolidation
    # ------------------------------------------------------------------

    def _compact(self) -> None:
        if len(self._blocks) > 1:
            self.compactions += 1
            self.blocks_consolidated += len(self._blocks)
            self._blocks = [_consolidate_blocks(self.query, self._blocks)]

    def _consolidated(self) -> Optional[_Block]:
        """All pending blocks merged into one canonical block."""
        if not self._blocks:
            return None
        self._compact()
        return self._blocks[0]

    def _dict_as_block(self) -> Optional[_Block]:
        """The row-path dict rendered as a block (grouped queries only)."""
        if not self._groups:
            return None
        n_cols = len(self.query.group_by)
        keys = np.asarray(
            [list(key) for key in self._groups], dtype=np.int64
        ).reshape(len(self._groups), n_cols)
        # Blocks are canonical (lex-sorted by key); dict insertion order
        # is whatever the row path happened to see first.
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        values = list(self._groups.values())
        all_states = [values[j] for j in order.tolist()]
        states = [
            _python_states_to_block(agg.func, [s[i] for s in all_states])
            for i, agg in enumerate(self.query.aggregations)
        ]
        return _Block(keys=keys, states=states)

    def finalize(self) -> "QueryResult":
        columns = list(self.query.group_by) + [
            agg.label() for agg in self.query.aggregations
        ]
        if not self.query.group_by or (
            not self._blocks and len(self._groups) <= 1
        ):
            # Scalar queries (and tiny dict-only partials) take the
            # plain-Python path.
            rows = []
            for key in sorted(self.groups):
                states = self.groups[key]
                values = [
                    finalize_state(agg.func, state)
                    for agg, state in zip(self.query.aggregations, states)
                ]
                rows.append(tuple(key) + tuple(values))
        else:
            rows = self._finalize_grouped()
        rows = self._shape_rows(rows, columns)
        return QueryResult(
            columns=tuple(columns),
            rows=rows,
            rows_scanned=self.rows_scanned,
            bricks_scanned=self.bricks_scanned,
        )

    def _finalize_grouped(self) -> list[tuple]:
        """Vectorised finalize: one consolidation, then array→row zip."""
        blocks = list(self._blocks)
        dict_block = self._dict_as_block()
        if dict_block is not None:
            blocks.append(dict_block)
        if not blocks:
            return []
        if len(blocks) > 1:
            self.compactions += 1
            self.blocks_consolidated += len(blocks)
        block = _consolidate_blocks(self.query, blocks)
        n_groups = len(block.keys)
        key_columns = [
            block.keys[:, j].tolist() for j in range(block.keys.shape[1])
        ]
        value_columns = [
            _finalize_block_state(agg.func, state, n_groups)
            for agg, state in zip(self.query.aggregations, block.states)
        ]
        return list(zip(*key_columns, *value_columns))

    def _shape_rows(self, rows: list[tuple], columns: list[str]) -> list[tuple]:
        """Apply the query's HAVING / ORDER BY / LIMIT shaping.

        Only correct after *all* partials are merged — which is exactly
        where it runs: the coordinator finalizes once per query.
        """
        query = self.query
        for predicate in query.having:
            index = columns.index(predicate.column)
            rows = [r for r in rows if predicate.matches(r[index])]
        if query.order_by is not None:
            index = columns.index(query.order_by)
            # None values (empty MIN/AVG) sort last regardless of order.
            rows = sorted(
                rows,
                key=lambda r: (r[index] is None,
                               -r[index] if query.descending and
                               r[index] is not None else r[index]),
            )
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows


# ----------------------------------------------------------------------
# Block-state conversion and consolidation
# ----------------------------------------------------------------------


def _python_states_to_block(func: AggFunc, states: list):
    """Array-form block state from a list of plain-Python states."""
    if func is AggFunc.MIN or func is AggFunc.MAX:
        return np.asarray(
            [np.nan if s is None else float(s) for s in states],
            dtype=np.float64,
        )
    if func is AggFunc.AVG:
        return (
            np.asarray([float(s[0]) for s in states], dtype=np.float64),
            np.asarray([float(s[1]) for s in states], dtype=np.float64),
        )
    if func is AggFunc.COUNT_DISTINCT:
        owner_parts, value_parts = [], []
        for i, state in enumerate(states):
            values = DistinctState.coerce(state).values
            if len(values):
                owner_parts.append(np.full(len(values), i, dtype=np.int64))
                value_parts.append(values)
        if not owner_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        return np.concatenate(owner_parts), np.concatenate(value_parts)
    return np.asarray([float(s) for s in states], dtype=np.float64)


def _block_states_to_python(func: AggFunc, state, n_groups: int) -> list:
    """Plain-Python states (one per group) from an array-form block state."""
    if func is AggFunc.MIN or func is AggFunc.MAX:
        return [None if np.isnan(v) else v for v in state.tolist()]
    if func is AggFunc.AVG:
        sums, counts = state
        return list(zip(sums.tolist(), counts.tolist()))
    if func is AggFunc.COUNT_DISTINCT:
        owners, values = state
        # owners is sorted ascending; slice each group's run of values
        # (already sorted-unique within the group).
        bounds = np.searchsorted(owners, np.arange(n_groups + 1))
        return [
            DistinctState(values[bounds[g]:bounds[g + 1]])
            for g in range(n_groups)
        ]
    return state.tolist()


def _finalize_block_state(func: AggFunc, state, n_groups: int) -> list:
    """Final per-group values (column form) from an array-form state."""
    if func is AggFunc.MIN or func is AggFunc.MAX:
        return [None if np.isnan(v) else v for v in state.tolist()]
    if func is AggFunc.AVG:
        sums, counts = state
        return [
            s / c if c else None
            for s, c in zip(sums.tolist(), counts.tolist())
        ]
    if func is AggFunc.COUNT_DISTINCT:
        owners, __ = state
        return np.bincount(owners, minlength=n_groups).astype(
            np.float64
        ).tolist()
    return state.tolist()


def _empty_block_state(func: AggFunc):
    if func is AggFunc.AVG:
        return (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))
    if func is AggFunc.COUNT_DISTINCT:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    return np.empty(0, dtype=np.float64)


def _consolidate_blocks(query: Query, blocks: list[_Block]) -> _Block:
    """Merge blocks into one canonical lex-sorted block.

    All block keys concatenate into one array, re-encode to a dense
    global group index, and every state array scatters into its global
    slots — SUM/COUNT/AVG by indexed add (keys are distinct within a
    block, so plain fancy-index ``+=`` is exact and runs in block
    order), MIN/MAX by ``np.fmin``/``np.fmax`` against a NaN-initialised
    accumulator (NaN = "no value yet", so dict-path ``None`` states pass
    through), COUNT_DISTINCT by remapping owners and re-deduplicating
    the pair arrays. Deterministic for a fixed block order.
    """
    from repro.cubrick import kernels

    blocks = [b for b in blocks if len(b.keys)]
    if not blocks:
        n_cols = max(len(query.group_by), 1)
        return _Block(
            keys=np.empty((0, n_cols), dtype=np.int64),
            states=[
                _empty_block_state(agg.func) for agg in query.aggregations
            ],
        )
    if len(blocks) == 1:
        return blocks[0]
    all_keys = np.concatenate([b.keys for b in blocks], axis=0)
    group_idx, unique_keys = kernels.encode_group_keys(
        [all_keys[:, j] for j in range(all_keys.shape[1])]
    )
    n_groups = len(unique_keys)
    offsets = np.cumsum([0] + [len(b.keys) for b in blocks])
    maps = [
        group_idx[offsets[i]:offsets[i + 1]] for i in range(len(blocks))
    ]
    states = []
    for i, agg in enumerate(query.aggregations):
        func = agg.func
        if func is AggFunc.MIN or func is AggFunc.MAX:
            combine = np.fmin if func is AggFunc.MIN else np.fmax
            out = np.full(n_groups, np.nan)
            for m, b in zip(maps, blocks):
                out[m] = combine(out[m], b.states[i])
            states.append(out)
        elif func is AggFunc.AVG:
            sums = np.zeros(n_groups)
            counts = np.zeros(n_groups)
            for m, b in zip(maps, blocks):
                s, c = b.states[i]
                sums[m] += s
                counts[m] += c
            states.append((sums, counts))
        elif func is AggFunc.COUNT_DISTINCT:
            owner_parts, value_parts = [], []
            for m, b in zip(maps, blocks):
                owners, values = b.states[i]
                if len(owners):
                    owner_parts.append(m[owners])
                    value_parts.append(values)
            if owner_parts:
                states.append(
                    kernels.group_distinct_pairs(
                        np.concatenate(owner_parts),
                        np.concatenate(value_parts),
                        n_groups,
                    )
                )
            else:
                states.append(_empty_block_state(func))
        else:  # SUM / COUNT
            out = np.zeros(n_groups)
            for m, b in zip(maps, blocks):
                out[m] += b.states[i]
            states.append(out)
    return _Block(keys=unique_keys, states=states)


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
