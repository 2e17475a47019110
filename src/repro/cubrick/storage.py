"""Partition storage: columnar execution over bricks.

One :class:`PartitionStorage` holds the rows of a single table partition
(``table#idx``) on one host, organised into bricks by the Granular
Partitioning index. Query execution is fully vectorised: filters become
boolean masks, composite group keys are encoded into a single int64 code
per row, and the per-group aggregates run through the bincount/reduceat
kernels of :mod:`repro.cubrick.kernels` — no per-group Python loop over
row data. Every touched brick's hotness counter is bumped (feeding
adaptive compression — paper §IV-F2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cubrick.bricks import DIMENSION_DTYPE, METRIC_DTYPE, Brick
from repro.cubrick.granular import GranularIndex
from repro.cubrick.kernels import (
    EncodedColumn,
    encode_group_keys,
    group_counts,
    grouped_state_arrays,
    scalar_state,
)
from repro.cubrick.query import (
    AggFunc,
    Filter,
    FilterOp,
    PartialResult,
    Query,
)
from repro.cubrick.schema import TableSchema
from repro.errors import QueryError

if TYPE_CHECKING:
    from repro.obs import Observability


class PartitionStorage:
    """In-memory columnar storage for one table partition.

    ``obs`` is optional: partitions created in unit tests carry no
    telemetry, while partitions created by a node share the deployment's
    :class:`~repro.obs.Observability`. Instruments are labelled by table
    (not partition) to keep cardinality bounded.
    """

    def __init__(
        self,
        schema: TableSchema,
        partition_index: int,
        obs: "Optional[Observability]" = None,
    ):
        self.schema = schema
        self.partition_index = partition_index
        self.index = GranularIndex(schema)
        self._bricks: dict[int, Brick] = {}
        self._encoded_dims = frozenset(schema.encoded_dimension_names)
        self._rows = 0
        if obs is not None:
            metrics = obs.metrics
            self._scanned_counter = metrics.counter(
                "cubrick.storage.bricks_scanned", table=schema.name
            )
            self._pruned_counter = metrics.counter(
                "cubrick.storage.bricks_pruned", table=schema.name
            )
            self._rows_scanned_counter = metrics.counter(
                "cubrick.storage.rows_scanned", table=schema.name
            )
            self._rows_inserted_counter = metrics.counter(
                "cubrick.storage.rows_inserted", table=schema.name
            )
        else:
            self._scanned_counter = None
            self._pruned_counter = None
            self._rows_scanned_counter = None
            self._rows_inserted_counter = None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def insert_columns(
        self, columns: dict[str, np.ndarray], *, validated: bool = False
    ) -> int:
        """Vectorised bulk load from column arrays — the one load path.

        Columns are validated (:meth:`TableSchema.validate_columns`) unless
        ``validated=True`` says they already were (the streaming loader
        validates at append time), then routed to bricks in one pass (the
        ingestion-rate story of the Cubrick paper [22]).
        """
        if not validated:
            columns = self.schema.validate_columns(columns)
        dim_arrays = {
            d.name: np.asarray(columns[d.name], dtype=DIMENSION_DTYPE)
            for d in self.schema.dimensions
        }
        metric_arrays = {
            m.name: np.asarray(columns[m.name], dtype=METRIC_DTYPE)
            for m in self.schema.metrics
        }
        n = len(dim_arrays[self.schema.dimensions[0].name])
        if n == 0:
            return 0
        brick_ids = self.index.bricks_of_columns(dim_arrays)
        order = np.argsort(brick_ids, kind="stable")
        sorted_ids = brick_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for start, end in zip(starts, ends):
            brick_id = int(sorted_ids[start])
            brick = self._bricks.get(brick_id)
            if brick is None:
                brick = Brick(
                    brick_id,
                    self.schema.dimension_names,
                    self.schema.metric_names,
                    encoded_dimensions=self.schema.encoded_dimension_names,
                )
                self._bricks[brick_id] = brick
            rows_slice = order[start:end]
            chunk = {
                name: arr[rows_slice] for name, arr in dim_arrays.items()
            }
            chunk.update(
                {name: arr[rows_slice] for name, arr in metric_arrays.items()}
            )
            brick.append_columns(chunk)
        self._rows += n
        if self._rows_inserted_counter is not None:
            self._rows_inserted_counter.inc(n)
        return n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def brick_count(self) -> int:
        return len(self._bricks)

    def bricks(self) -> list[Brick]:
        return [self._bricks[bid] for bid in sorted(self._bricks)]

    def brick(self, brick_id: int) -> Optional[Brick]:
        return self._bricks.get(brick_id)

    def footprint_bytes(self) -> int:
        """Actual memory footprint (respects compression)."""
        return sum(b.footprint_bytes() for b in self._bricks.values())

    def decompressed_bytes(self) -> int:
        """Footprint if everything were decompressed (LB generation 2)."""
        return sum(b.decompressed_bytes() for b in self._bricks.values())

    def all_columns(self) -> dict[str, np.ndarray]:
        """Materialise every row as column arrays, bricks in id order
        (re-partitions and migrations feed it to :meth:`insert_columns`)."""
        names = self.schema.column_names
        arrays = [brick.columns() for brick in self.bricks()]
        if not arrays:  # validating no rows yields empty, typed columns
            return self.schema.validate_columns(dict.fromkeys(names, ()))
        return {name: np.concatenate([a[name] for a in arrays]) for name in names}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def explain(self, query: Query) -> dict[str, int]:
        """Describe what executing the query here would scan.

        Returns ``{"bricks_total", "bricks_scanned", "rows_estimated"}``
        — the Granular Partitioning pruning decision, without executing
        or touching hotness counters.
        """
        candidates = self.candidate_brick_ids(query)
        rows = sum(self._bricks[bid].rows for bid in candidates)
        return {
            "bricks_total": len(self._bricks),
            "bricks_scanned": len(candidates),
            "rows_estimated": rows,
        }

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
    ) -> PartialResult:
        """Evaluate the query over this partition; returns a partial.

        ``lookups`` supplies join materialisation for dotted column
        references: ``"dim.attr" -> (fact_key, lookup_array)`` where
        ``lookup_array[key]`` is the attribute value (or -1 for keys
        absent from the dimension table — such fact rows are dropped,
        i.e. inner-join semantics). Built by the node from its local
        replica of the dimension table (paper §II-B).
        """
        effective_lookups = lookups if lookups is not None else {}
        self._validate_query(query, effective_lookups)
        partial = PartialResult(query=query)
        for brick_id in self.candidate_brick_ids(query):
            brick = self._bricks[brick_id]
            brick.touch()
            partial.bricks_scanned += 1
            self._scan_brick(brick, query, partial, effective_lookups)
        if self._scanned_counter is not None:
            self._scanned_counter.inc(partial.bricks_scanned)
            self._pruned_counter.inc(len(self._bricks) - partial.bricks_scanned)
            self._rows_scanned_counter.inc(partial.rows_scanned)
        return partial

    def candidate_brick_ids(self, query: Query) -> list[int]:
        """Brick ids surviving Granular Partitioning pruning, in id order;
        scanning them in id order keeps results deterministic."""
        buckets = self._filter_buckets(query.filters)
        return list(self.index.prune(buckets, sorted(self._bricks)))

    def project(
        self, columns: list[str], filters: tuple[Filter, ...] = ()
    ) -> dict[str, np.ndarray]:
        """Materialise the named columns of rows matching the filters.

        The projection path behind distributed joins against *sharded*
        dimension tables: the coordinator collects each partition's key
        and attribute columns (optionally pre-filtered — predicate
        pushdown) and builds join lookups from them. Plain column names
        only; bucket pruning and hotness accounting apply as in a scan.
        """
        for name in columns:
            if not (self.schema.has_dimension(name)
                    or self.schema.has_metric(name)):
                raise QueryError(
                    f"table {self.schema.name}: unknown column {name!r}"
                )
        for flt in filters:
            if "." in flt.dimension:
                raise QueryError(
                    f"table {self.schema.name}: projection filters must "
                    f"use plain column names, got {flt.dimension!r}"
                )
            if not self.schema.has_dimension(flt.dimension):
                raise QueryError(
                    f"table {self.schema.name}: unknown filter dimension "
                    f"{flt.dimension!r}"
                )
        buckets = self._filter_buckets(tuple(filters))
        candidates = self.index.prune(buckets, sorted(self._bricks))
        parts: dict[str, list[np.ndarray]] = {name: [] for name in columns}
        for brick_id in candidates:
            brick = self._bricks[brick_id]
            if brick.rows == 0:
                continue
            brick.touch()
            arrays = brick.columns()
            mask = self._build_mask(arrays, tuple(filters), brick.rows, {})
            unmasked = bool(mask.all())
            for name in columns:
                values = arrays[name]
                parts[name].append(values if unmasked else values[mask])
        out: dict[str, np.ndarray] = {}
        for name in columns:
            if parts[name]:
                out[name] = np.concatenate(parts[name])
            else:
                dtype = (
                    DIMENSION_DTYPE
                    if self.schema.has_dimension(name)
                    else METRIC_DTYPE
                )
                out[name] = np.empty(0, dtype=dtype)
        return out

    def _validate_query(
        self, query: Query, lookups: dict[str, tuple[str, np.ndarray]]
    ) -> None:
        for flt in query.filters:
            self._validate_column_ref(flt.dimension, lookups, "filter")
        for dim in query.group_by:
            self._validate_column_ref(dim, lookups, "group-by")
        for agg in query.aggregations:
            if agg.func is AggFunc.COUNT:
                continue
            if agg.func is AggFunc.COUNT_DISTINCT:
                # Distinct counts apply to any column (dimension or metric).
                if not (self.schema.has_metric(agg.metric)
                        or self.schema.has_dimension(agg.metric)):
                    raise QueryError(
                        f"table {self.schema.name}: unknown column "
                        f"{agg.metric!r}"
                    )
                continue
            if not self.schema.has_metric(agg.metric):
                raise QueryError(
                    f"table {self.schema.name}: unknown metric {agg.metric!r}"
                )

    def _validate_column_ref(
        self, name: str, lookups: dict[str, tuple[str, np.ndarray]], kind: str
    ) -> None:
        if "." in name:
            if name not in lookups:
                raise QueryError(
                    f"table {self.schema.name}: joined column {name!r} has "
                    f"no lookup (missing join or replicated table?)"
                )
            return
        if not self.schema.has_dimension(name):
            raise QueryError(
                f"table {self.schema.name}: unknown {kind} dimension {name!r}"
            )

    def _filter_buckets(self, filters: tuple[Filter, ...]) -> dict[str, set[int]]:
        buckets: dict[str, set[int]] = {}
        for flt in filters:
            if "." in flt.dimension:
                continue  # joined columns cannot prune fact bricks
            if flt.op is FilterOp.NOT_IN:
                # Complement filters say nothing about where surviving
                # rows live (and their excluded values may legitimately
                # be outside the dimension domain) — no pruning.
                continue
            if flt.op is FilterOp.BETWEEN:
                allowed = self.index.candidate_buckets(
                    flt.dimension, None, (flt.values[0], flt.values[1])
                )
            else:
                allowed = self.index.candidate_buckets(
                    flt.dimension, flt.values, None
                )
            if flt.dimension in buckets:
                buckets[flt.dimension] &= allowed
            else:
                buckets[flt.dimension] = allowed
        return buckets

    def _scan_brick(self, brick: Brick, query: Query, partial: PartialResult,
                    lookups: dict[str, tuple[str, np.ndarray]]) -> None:
        if brick.rows == 0:
            return
        arrays = brick.columns()
        mask = self._build_mask(arrays, query.filters, brick.rows, lookups)
        # Inner-join semantics: rows whose key misses the dimension table
        # are dropped whenever the query references a joined column.
        for name in query.joined_columns():
            values = self._resolve_column(name, arrays, lookups)
            mask &= values >= 0
        matched = int(mask.sum())
        partial.rows_scanned += brick.rows
        if matched == 0:
            return
        unmasked = matched == brick.rows

        def column(name: str):
            # Dictionary-encoded dimensions hand the scan their dense
            # per-brick codes — no per-scan np.unique sort downstream.
            if "." not in name and name in self._encoded_dims:
                enc = brick.encoded(name)
                codes = enc.codes if unmasked else enc.codes[mask]
                return EncodedColumn(codes, enc.dictionary)
            values = self._resolve_column(name, arrays, lookups)
            return values if unmasked else values[mask]

        # Metric columns are masked at most once even when aggregated
        # several ways.
        masked_columns: dict = {}

        def agg_values(agg):
            if agg.func is AggFunc.COUNT:
                return None
            values = masked_columns.get(agg.metric)
            if values is None:
                values = column(agg.metric)
                masked_columns[agg.metric] = values
            return values

        if not query.group_by:
            partial.accumulate((), [
                scalar_state(agg.func, agg_values(agg), matched)
                for agg in query.aggregations
            ])
            return

        group_idx, unique_keys = encode_group_keys(
            [column(dim) for dim in query.group_by]
        )
        n_groups = len(unique_keys)
        counts = (
            group_counts(group_idx, n_groups)
            if any(agg.func is AggFunc.COUNT or agg.func is AggFunc.AVG
                   for agg in query.aggregations)
            else None
        )
        partial.accumulate_block(unique_keys, [
            grouped_state_arrays(
                agg.func, group_idx, agg_values(agg), n_groups, counts
            )
            for agg in query.aggregations
        ])

    @staticmethod
    def _resolve_column(
        name: str,
        arrays: dict[str, np.ndarray],
        lookups: dict[str, tuple[str, np.ndarray]],
    ) -> np.ndarray:
        """Column values for a plain or joined (dotted) reference."""
        if "." in name:
            fact_key, lookup = lookups[name]
            return lookup[arrays[fact_key]]
        return arrays[name]

    @classmethod
    def _build_mask(cls, arrays: dict[str, np.ndarray],
                    filters: tuple[Filter, ...], rows: int,
                    lookups: dict[str, tuple[str, np.ndarray]]) -> np.ndarray:
        mask = np.ones(rows, dtype=bool)
        for flt in filters:
            column = cls._resolve_column(flt.dimension, arrays, lookups)
            if flt.op is FilterOp.EQ:
                mask &= column == flt.values[0]
            elif flt.op is FilterOp.IN:
                mask &= np.isin(column, np.asarray(flt.values))
            elif flt.op is FilterOp.NOT_IN:
                mask &= ~np.isin(column, np.asarray(flt.values))
            else:  # BETWEEN
                mask &= (column >= flt.values[0]) & (column <= flt.values[1])
        return mask

