"""Table schemas for Cubrick.

Cubrick is an OLAP store: tables declare *dimension* columns (integer
coded, used for filtering/grouping and for the Granular Partitioning
index) and *metric* columns (numeric, used in aggregations) — the model
described in the Cubrick paper [22] that this system builds on.

Table names may not contain ``#``: Cubrick reserves it as the internal
separator between a table name and its partition index
(``dim_users#0`` … ``dim_users#3`` — paper §IV-A). Every ingest path
validates through :meth:`TableSchema.validate_columns`, column-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import TYPE_CHECKING

import numpy as np

from repro.cubrick.bricks import DIMENSION_DTYPE, METRIC_DTYPE
from repro.errors import InvalidTableNameError, SchemaError, TableNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cubrick.query import Query

PARTITION_SEPARATOR = "#"

#: Dimensions at or above this cardinality default to partition-level
#: dictionary encoding (entity-style columns: users, devices, ads).
#: Below it the raw int64 column is already compact enough that the
#: dictionary would cost more than the per-scan ``np.unique`` it saves.
DICT_ENCODE_THRESHOLD = 1024


def validate_table_name(name: str) -> str:
    """Validate and return a table name (no ``#``, non-empty)."""
    if not name:
        raise InvalidTableNameError("table name must be non-empty")
    if PARTITION_SEPARATOR in name:
        raise InvalidTableNameError(
            f"table name {name!r} contains reserved character "
            f"{PARTITION_SEPARATOR!r}"
        )
    return name


def partition_name(table: str, index: int) -> str:
    """The internal name of one table partition, e.g. ``dim_users#2``."""
    if index < 0:
        raise SchemaError(f"partition index must be non-negative: {index}")
    return f"{table}{PARTITION_SEPARATOR}{index}"


def split_partition_name(name: str) -> tuple[str, int]:
    """Inverse of :func:`partition_name`."""
    table, sep, index = name.rpartition(PARTITION_SEPARATOR)
    if not sep or not table:
        raise SchemaError(f"not a partition name: {name!r}")
    try:
        return table, int(index)
    except ValueError:
        raise SchemaError(f"not a partition name: {name!r}") from None


@dataclass(frozen=True)
class Dimension:
    """An integer-coded dimension column.

    ``cardinality`` bounds the value domain ``[0, cardinality)``;
    ``range_size`` is the Granular Partitioning bucket width on this
    dimension (every dimension is range-partitioned — paper §IV).
    """

    name: str
    cardinality: int
    range_size: int = 0  # 0 = one bucket spanning the whole domain
    #: Partition dictionary encoding: True/False forces it on/off, None
    #: defers to the cardinality heuristic (``DICT_ENCODE_THRESHOLD``).
    dict_encode: bool | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("dimension name must be non-empty")
        if self.cardinality <= 0:
            raise SchemaError(
                f"dimension {self.name}: cardinality must be positive, "
                f"got {self.cardinality}"
            )
        if self.range_size < 0:
            raise SchemaError(
                f"dimension {self.name}: range_size must be non-negative"
            )

    @property
    def should_dict_encode(self) -> bool:
        """Whether scans group this column by a partition dictionary."""
        if self.dict_encode is not None:
            return self.dict_encode
        return self.cardinality >= DICT_ENCODE_THRESHOLD

    @property
    def effective_range_size(self) -> int:
        return self.range_size if self.range_size > 0 else self.cardinality

    @property
    def bucket_count(self) -> int:
        """Number of Granular Partitioning buckets on this dimension."""
        size = self.effective_range_size
        return (self.cardinality + size - 1) // size

    def bucket_of(self, value: int) -> int:
        """The bucket index containing ``value``."""
        if not 0 <= value < self.cardinality:
            raise SchemaError(
                f"dimension {self.name}: value {value} outside "
                f"[0, {self.cardinality})"
            )
        return value // self.effective_range_size


@dataclass(frozen=True)
class Metric:
    """A numeric metric column (aggregated at query time)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("metric name must be non-empty")


@dataclass(frozen=True)
class TableSchema:
    """A Cubrick table: dimensions + metrics."""

    name: str
    dimensions: tuple[Dimension, ...]
    metrics: tuple[Metric, ...]

    def __post_init__(self) -> None:
        validate_table_name(self.name)
        if not self.dimensions:
            raise SchemaError(f"table {self.name}: at least one dimension required")
        # Metrics may be empty: replicated dimension tables (paper §II-B)
        # carry only key/attribute columns.
        names = [d.name for d in self.dimensions] + [m.name for m in self.metrics]
        if len(names) != len(set(names)):
            raise SchemaError(f"table {self.name}: duplicate column names")

    @classmethod
    def build(
        cls,
        name: str,
        dimensions: list[Dimension] | tuple[Dimension, ...],
        metrics: list[Metric] | tuple[Metric, ...],
    ) -> "TableSchema":
        return cls(name=name, dimensions=tuple(dimensions), metrics=tuple(metrics))

    @property
    def dimension_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.metrics)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.dimension_names + self.metric_names

    @property
    def encoded_dimension_names(self) -> tuple[str, ...]:
        """Dimensions partitions dictionary-encode (high-cardinality ones)."""
        return tuple(d.name for d in self.dimensions if d.should_dict_encode)

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise SchemaError(f"table {self.name}: unknown dimension {name!r}")

    def has_dimension(self, name: str) -> bool:
        return any(d.name == name for d in self.dimensions)

    def has_metric(self, name: str) -> bool:
        return any(m.name == name for m in self.metrics)

    def to_dict(self) -> dict:
        """JSON-serialisable description of this schema."""
        return {
            "name": self.name,
            "dimensions": [
                {
                    "name": d.name,
                    "cardinality": d.cardinality,
                    "range_size": d.range_size,
                    "dict_encode": d.dict_encode,
                }
                for d in self.dimensions
            ],
            "metrics": [{"name": m.name} for m in self.metrics],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TableSchema":
        """Inverse of :meth:`to_dict`."""
        try:
            dimensions = [
                Dimension(
                    name=d["name"],
                    cardinality=int(d["cardinality"]),
                    range_size=int(d.get("range_size", 0)),
                    dict_encode=d.get("dict_encode"),
                )
                for d in payload["dimensions"]
            ]
            metrics = [Metric(name=m["name"]) for m in payload["metrics"]]
            return cls.build(payload["name"], dimensions, metrics)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema payload: {exc}") from exc

    def columns_of_rows(self, rows: list[dict[str, float]]) -> dict[str, np.ndarray]:
        """Pivot row dicts to validated columns, one pass per column: the
        row API's way onto the column path. Extra keys are ignored."""
        columns = {}
        for name in self.column_names:
            try:
                columns[name] = [row[name] for row in rows]
            except KeyError:
                first = next(i for i, row in enumerate(rows) if name not in row)
                raise SchemaError(f"row {first} missing column {name!r}") from None
        return self.validate_columns(columns)

    def validate_columns(self, columns) -> dict[str, np.ndarray]:
        """Check a batch of columns; returns them in the storage dtypes.

        Every schema column must be present (extra ones are dropped), all
        of one length; dimensions integral and in ``[0, cardinality)``,
        metrics numeric and finite. A :class:`SchemaError` names the first
        bad column and row.
        """
        missing = [name for name in self.column_names if name not in columns]
        if missing:
            raise SchemaError(f"missing column {missing[0]!r} in bulk load")
        lengths = {name: len(columns[name]) for name in self.column_names}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged column lengths: {lengths}")
        out = {d.name: _validated_dimension_column(d, columns[d.name])
               for d in self.dimensions}
        for m in self.metrics:
            out[m.name] = _validated_metric_column(m, columns[m.name])
        return out


def _validated_dimension_column(dim: Dimension, raw) -> np.ndarray:
    """One dimension column as int64, checked *before* the cast: a float
    like ``3.7`` or an out-of-range value would otherwise be truncated or
    wrapped and silently routed to an aliased brick."""
    values = np.asarray(raw)
    if values.size == 0:
        return values.astype(DIMENSION_DTYPE)
    if not np.issubdtype(values.dtype, np.integer):
        if not np.issubdtype(values.dtype, np.floating):
            raise _non_numeric("dimension", dim.name, raw)
        fractional = values != np.floor(values)
        if fractional.any():
            first = int(np.flatnonzero(fractional)[0])
            raise SchemaError(
                f"dimension {dim.name!r}: non-integer value "
                f"{float(values[first])!r} at row {first}"
            )
    out_of_domain = (values < 0) | (values >= dim.cardinality)
    if out_of_domain.any():
        first = int(np.flatnonzero(out_of_domain)[0])
        raise SchemaError(
            f"dimension {dim.name!r}: value {values[first]} at row "
            f"{first} outside [0, {dim.cardinality})"
        )
    return values.astype(DIMENSION_DTYPE, copy=False)


def _validated_metric_column(metric: Metric, raw) -> np.ndarray:
    """One metric column as float64, every value finite: NaN would read
    as "no value" to MIN/MAX and is not valid JSON on the wire."""
    try:
        values = np.asarray(raw, dtype=METRIC_DTYPE)
    except (TypeError, ValueError):
        raise _non_numeric("metric", metric.name, raw) from None
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.flatnonzero(~finite)[0])
        raise SchemaError(
            f"metric {metric.name!r}: non-finite value "
            f"{float(values[first])!r} at row {first}"
        )
    return values


def _non_numeric(kind: str, name: str, raw) -> SchemaError:
    """The error for a column holding something other than numbers."""
    first = next((i for i, v in enumerate(raw) if not isinstance(v, Real)), 0)
    return SchemaError(f"{kind} {name!r}: non-numeric value {raw[first]!r} at row {first}")


@dataclass
class TableInfo:
    """Catalog entry: schema plus current partitioning state.

    ``replicated`` marks small dimension tables that are fully copied to
    every cluster node instead of being sharded, so joins against them
    resolve locally (paper §II-B).
    """

    schema: TableSchema
    num_partitions: int = 8  # the paper's starting point for new tables
    generation: int = 0  # bumped by every re-partition
    # Bumped by every ingest (bulk load or streaming-loader flush).
    # Result-cache keys embed it, so a write makes all previously cached
    # answers for the table unreachable (repro.sched.cache).
    ingest_generation: int = 0
    replicated: bool = False
    # Online reshard state (repro.autoscale.reshard). The *serving*
    # layout may live under a generation-tagged physical alias of the
    # logical name ("" = the logical name itself); while a staged
    # reshard is in flight, ``pending_physical``/``pending_partitions``
    # describe the layout being built. Queries keep routing to the
    # serving layout until the cutover flips these fields atomically.
    serving_physical: str = ""
    pending_physical: str = ""
    pending_partitions: int = 0

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise SchemaError(
                f"table {self.schema.name}: num_partitions must be positive"
            )

    @property
    def physical_table(self) -> str:
        """Physical name the serving layout is registered under."""
        return self.serving_physical or self.schema.name

    @property
    def resharding(self) -> bool:
        """Whether a staged reshard is currently in flight."""
        return bool(self.pending_physical)

    def bump_ingest(self) -> int:
        """Record one ingest; returns the new ingestion generation."""
        self.ingest_generation += 1
        return self.ingest_generation


@dataclass
class Catalog:
    """The cluster-wide table catalog."""

    tables: dict[str, TableInfo] = field(default_factory=dict)
    #: Bumped by every create and drop: a compiled plan is only valid
    #: for the catalog version it was planned against.
    version: int = field(default=0, init=False)

    def create(self, schema: TableSchema, *, num_partitions: int = 8,
               replicated: bool = False) -> TableInfo:
        from repro.errors import TableAlreadyExistsError

        if schema.name in self.tables:
            raise TableAlreadyExistsError(f"table {schema.name} already exists")
        info = TableInfo(
            schema=schema, num_partitions=num_partitions, replicated=replicated
        )
        self.tables[schema.name] = info
        self.version += 1
        return info

    def get(self, name: str) -> TableInfo:
        try:
            return self.tables[name]
        except KeyError:
            pass
        # Generation aliases (``table@gN``) are physical layouts of a
        # logical table: they share its schema and catalog entry.
        from repro.cubrick.sharding import logical_table

        logical = logical_table(name)
        if logical != name and logical in self.tables:
            return self.tables[logical]
        raise TableNotFoundError(f"unknown table: {name}") from None

    def versions(self, query: "Query") -> tuple[int, ...]:
        """``(generation, ingest_generation)`` of every table ``query``
        reads, fact table first, then its joins in order.

        An answer is only valid at the versions it was computed under:
        the result cache and the gateway's coalescing key embed these.
        """
        info = self.get(query.table)
        versions = (info.generation, info.ingest_generation)
        for join in query.joins:
            joined = self.get(join.table)
            versions += (joined.generation, joined.ingest_generation)
        return versions

    def drop(self, name: str) -> None:
        if name not in self.tables:
            raise TableNotFoundError(f"unknown table: {name}")
        del self.tables[name]
        self.version += 1

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def table_names(self) -> list[str]:
        return sorted(self.tables)
