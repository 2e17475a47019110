"""Streaming ingestion: batched, partition-routed loading.

Cubrick's original claim to fame is ingesting millions of records per
second while staying queryable [22]. This loader reproduces the
ingestion client's shape, column-wise: a batch is pivoted to columns and
validated once, routed by the deterministic record→partition function
in one pass, buffered per partition as column chunks, and flushed in
batches to the partition's current owner in every region (three full
copies, §IV-D) — at the same row boundaries, in the same order, as if
rows arrived one at a time. A batch is atomic (an invalid row rejects
all of it), and a flush writes every region or none, so rows of a failed
flush stay buffered until a later flush delivers them exactly once.
Buffered rows are re-routed after a mid-stream re-partition, and every
flush re-resolves the authoritative owner (shard migrations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.cubrick.partitioning import partitions_of_columns, split_by_partition
from repro.errors import ConfigurationError, HostUnavailableError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import CubrickDeployment


@dataclass
class LoaderStats:
    """Counters for one loader's lifetime."""

    rows_accepted: int = 0
    rows_flushed: int = 0
    batches_flushed: int = 0
    reroutes: int = 0  # rows re-bucketed after a mid-stream re-partition
    failed_flushes: int = 0


@dataclass
class _PartitionBuffer:
    """One partition's accepted, unflushed rows, as column chunks."""

    chunks: list[dict[str, np.ndarray]] = field(default_factory=list)
    rows: int = 0

    def columns(self) -> dict[str, np.ndarray]:
        """Every buffered row as one column set (chunks merged once)."""
        if len(self.chunks) > 1:
            self.chunks = [{
                name: np.concatenate([chunk[name] for chunk in self.chunks])
                for name in self.chunks[0]
            }]
        return self.chunks[0]

    def drop_head(self, rows: int) -> None:
        """Forget the first ``rows`` rows (they were flushed)."""
        rest = {name: col[rows:] for name, col in self.columns().items()}
        self.rows -= rows
        self.chunks = [rest] if self.rows else []


@dataclass
class StreamingLoader:
    """Batching ingestion client bound to one table of a deployment."""

    deployment: "CubrickDeployment"
    table: str
    batch_rows: int = 1000
    stats: LoaderStats = field(default_factory=LoaderStats)

    def __post_init__(self) -> None:
        if self.batch_rows <= 0:
            raise ConfigurationError(
                f"batch_rows must be positive: {self.batch_rows}"
            )
        info = self.deployment.catalog.get(self.table)
        if info.replicated:
            raise ConfigurationError(
                f"table {self.table} is replicated; load it with "
                "deployment.load() instead"
            )
        self._generation = info.generation
        self._num_partitions = info.num_partitions
        #: Partition -> buffer, in order of first arrival (a re-partition
        #: re-routes buffered rows in this order).
        self._buffers: dict[int, _PartitionBuffer] = {}
        counter = partial(self.deployment.obs.metrics.counter, table=self.table)
        self._batches_counter = counter("cubrick.loader.batches_flushed")
        self._rows_flushed_counter = counter("cubrick.loader.rows_flushed")
        self._reroute_counter = counter("cubrick.loader.reroutes")
        self._failed_flush_counter = counter("cubrick.loader.failed_flushes")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def append(self, row: dict[str, float]) -> None:
        """Validate, route and buffer one row (a one-row batch)."""
        self.append_many([row])

    def append_many(self, rows: list[dict[str, float]]) -> None:
        """Validate, route and buffer a batch; flush partitions that fill.

        The batch is atomic: an invalid row anywhere raises
        :class:`~repro.errors.SchemaError` naming the column and row, and
        nothing is buffered or flushed. If a flush fails, every row of
        the batch stays accepted and buffered for a later flush.
        """
        info = self.deployment.catalog.get(self.table)
        columns = info.schema.columns_of_rows(rows)
        self._maybe_rebucket(info)
        due = self._buffer(info.schema, columns)
        self.stats.rows_accepted += len(rows)
        for __, index, count in due:
            self._flush_partition(index, count)

    def flush(self) -> int:
        """Flush every buffered partition; returns rows written."""
        info = self.deployment.catalog.get(self.table)
        self._maybe_rebucket(info)
        written = 0
        for index in sorted(self._buffers):
            written += self._flush_partition(index)
        return written

    @property
    def buffered_rows(self) -> int:
        return sum(buffer.rows for buffer in self._buffers.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _buffer(
        self, schema, columns: dict[str, np.ndarray]
    ) -> list[tuple[int, int, int]]:
        """Route and buffer rows; returns the flushes they make due, as
        ``(row, partition, rows)``: the row whose arrival fills the buffer
        and how many rows to write — what appending the rows one at a
        time would trigger, in that order."""
        partitions = partitions_of_columns(schema, columns, self._num_partitions)
        groups = split_by_partition(columns, partitions, self._num_partitions)
        for index in sorted(
            groups.keys() - self._buffers.keys(), key=lambda i: groups[i][0][0]
        ):
            self._buffers[index] = _PartitionBuffer()
        due = []
        for index, (rows, group) in groups.items():
            buffer = self._buffers[index]
            held = buffer.rows
            buffer.chunks.append(group)
            buffer.rows += len(rows)
            first = max(1, self.batch_rows - held)
            for arrival in range(first, len(rows) + 1, self.batch_rows):
                count = held + first if arrival == first else self.batch_rows
                due.append((int(rows[arrival - 1]), index, count))
        due.sort()
        return due

    def _maybe_rebucket(self, info) -> None:
        """Re-route buffered rows after a mid-stream re-partition."""
        if info.generation == self._generation:
            return
        pending = _PartitionBuffer(
            [chunk for buffer in self._buffers.values() for chunk in buffer.chunks],
            self.buffered_rows,
        )
        self._generation = info.generation
        self._num_partitions = info.num_partitions
        self._buffers = {}
        if pending.rows:
            self._buffer(info.schema, pending.columns())  # never flushes
        self.stats.reroutes += pending.rows
        self._reroute_counter.inc(pending.rows)

    def _flush_partition(self, index: int, count: int | None = None) -> int:
        """Write the first ``count`` buffered rows (default: all) of one
        partition to every region."""
        buffer = self._buffers.get(index)
        if buffer is None or not buffer.rows:
            return 0
        count = buffer.rows if count is None else count
        columns = buffer.columns()
        if count < buffer.rows:
            columns = {name: col[:count] for name, col in columns.items()}
        info = self.deployment.catalog.get(self.table)
        physical = info.physical_table
        shard = self.deployment.directory.shards_for_table(physical)[index]
        # Resolve every region's owner before writing to any: a flush
        # that failed half-way would leave rows in the regions it reached,
        # and the retry would write them there a second time.
        targets = []
        for sm in self.deployment.sm_servers.values():
            owner = sm.discovery.resolve_authoritative(shard)
            if owner is None or owner not in sm.registered_hosts():
                self.stats.failed_flushes += 1
                self._failed_flush_counter.inc()
                raise HostUnavailableError(
                    f"partition {self.table}#{index}: no live owner for "
                    f"shard {shard} in region {sm.region}"
                )
            targets.append(sm.app_server(owner).partition(physical, index))
        if info.resharding:
            # Dual-write the staged layout (bucketed by its own partition
            # count) so the reshard's cutover needs no catch-up. First: a
            # failure leaves the serving layout untouched, and rows staged
            # twice fail the reshard's row-count verification.
            self.deployment._load_into_layout(
                info.pending_physical, info.schema,
                info.pending_partitions, columns,
            )
        # Bricks copy out of the columns, so all regions share one set.
        for storage in targets:
            storage.insert_columns(columns, validated=True)
        buffer.drop_head(count)
        self.stats.rows_flushed += count
        self.stats.batches_flushed += 1
        self._batches_counter.inc()
        self._rows_flushed_counter.inc(count)
        # New rows are visible: advance the ingestion generation so the
        # proxy result cache stops serving pre-flush answers, and tell
        # the event log why.
        ingest_generation = info.bump_ingest()
        self.deployment.obs.events.emit(
            "cubrick.loader.flush",
            table=self.table,
            partition=index,
            rows=count,
            ingest_generation=ingest_generation,
        )
        return count
