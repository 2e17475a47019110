"""CubrickNode: one Cubrick server, implementing SM's ApplicationServer.

A node stores the partitions of every shard assigned to it, executes
local (partial) queries over them, exports load-balancing metrics, and
implements SM's ``addShard``/``dropShard``/``prepare*`` endpoints.

Shard collisions — a migration that would co-locate two shards holding
partitions of the same table — are refused with a *non-retryable*
exception, telling SM server to try a different target (paper §IV-A1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.chaos.policies import ResiliencePolicy, call_with_retries
from repro.cubrick.bricks import Brick
from repro.cubrick.compression import MemoryBudget, MemoryMonitor, MonitorReport, decay_all
from repro.cubrick.loadbalance import (
    DecompressedSizeExporter,
    MetricExporter,
)
from repro.cubrick.query import PartialResult, Query, kernel_family
from repro.cubrick.schema import Catalog, partition_name
from repro.cubrick.sharding import ShardDirectory
from repro.cubrick.storage import PartitionStorage
from repro.errors import (
    NonRetryableShardError,
    PartitionNotFoundError,
    ShardAlreadyAssignedError,
    ShardNotFoundError,
)
from repro.obs import Observability
from repro.shardmanager.app_server import ApplicationServer
from repro.cluster.host import GIB


class CubrickNode(ApplicationServer):
    """One Cubrick host: shard-scoped partition storage + local execution."""

    def __init__(
        self,
        host_id: str,
        catalog: Catalog,
        directory: ShardDirectory,
        *,
        memory_bytes: int = 64 * GIB,
        ssd_bytes: int = 512 * GIB,
        exporter: Optional[MetricExporter] = None,
        memory_budget: Optional[MemoryBudget] = None,
        decay_rng: Optional[np.random.Generator] = None,
        allow_ssd_eviction: bool = False,
        recovery_policy: Optional[ResiliencePolicy] = None,
        obs: Optional[Observability] = None,
    ):
        super().__init__(host_id)
        # Governs donor reads during shard recovery; the legacy default
        # is a single attempt (the pre-policy behaviour).
        self.recovery_policy = (
            recovery_policy if recovery_policy is not None
            else ResiliencePolicy.legacy()
        )
        self.catalog = catalog
        self.directory = directory
        self.obs = obs if obs is not None else Observability()
        self.memory_bytes = memory_bytes
        self.ssd_bytes = ssd_bytes
        self.exporter = exporter if exporter is not None else DecompressedSizeExporter()
        budget = memory_budget if memory_budget is not None else MemoryBudget(
            capacity_bytes=memory_bytes
        )
        self.memory_monitor = MemoryMonitor(
            budget, allow_eviction=allow_ssd_eviction
        )
        self._decay_rng = (
            decay_rng if decay_rng is not None else np.random.default_rng(0)
        )
        self._shards: dict[int, list[str]] = {}  # shard -> partition names
        self._partitions: dict[str, PartitionStorage] = {}
        self._partition_tables: dict[str, str] = {}  # partition name -> table
        self._forwarding: dict[int, "CubrickNode"] = {}
        # Replicated dimension tables: full copies on every node, used to
        # answer joins locally (paper §II-B).
        self._replicated: dict[str, PartitionStorage] = {}
        # Per-node execution lanes (repro.sched.NodeSlots), installed by
        # the deployment when executor slots are configured; None =
        # unbounded concurrency. The region coordinator routes every
        # scan's service time through these lanes when present.
        self.execution_slots = None

    # ------------------------------------------------------------------
    # SM ApplicationServer endpoints
    # ------------------------------------------------------------------

    def add_shard(self, shard_id: int, source: Optional[ApplicationServer]) -> None:
        """Take ownership of a shard: create/copy all its partitions.

        Raises :class:`NonRetryableShardError` if any table in the shard
        already has a partition on this host via a *different* shard —
        the shard-collision refusal of §IV-A1.
        """
        if shard_id in self._shards:
            raise ShardAlreadyAssignedError(
                f"{self.host_id} already hosts shard {shard_id}"
            )
        contents = self.directory.contents(shard_id)
        self._check_collision(shard_id, contents)
        names: list[str] = []
        for table, index in contents:
            name = partition_name(table, index)
            storage = self._recover_partition(table, index, source)
            self._partitions[name] = storage
            self._partition_tables[name] = table
            names.append(name)
        self._shards[shard_id] = names
        self._forwarding.pop(shard_id, None)

    def _check_collision(self, shard_id: int,
                         contents: list[tuple[str, int]]) -> None:
        incoming_tables = {table for table, __ in contents}
        local_tables = set(self._partition_tables.values())
        collided = incoming_tables & local_tables
        if collided:
            raise NonRetryableShardError(
                f"{self.host_id} refuses shard {shard_id}: would co-locate "
                f"partitions of table(s) {sorted(collided)}"
            )

    def _recover_partition(
        self, table: str, index: int, source: Optional[ApplicationServer]
    ) -> PartitionStorage:
        schema = self.catalog.get(table).schema
        storage = PartitionStorage(schema, index, obs=self.obs)
        if isinstance(source, CubrickNode):
            name = partition_name(table, index)
            donor = source._partitions.get(name)
            if donor is not None and donor.rows:
                # Columnar copy: materialise the donor once and bulk-load
                # through the vectorised path instead of row dicts. The
                # read side is policy-retried (transient donor hiccups);
                # the local insert happens exactly once, *after* a full
                # read succeeded, so retries can never double-insert.
                columns, __ = call_with_retries(
                    lambda __attempt: donor.all_columns(),
                    policy=self.recovery_policy,
                )
                storage.insert_columns(columns)
        return storage

    def drop_shard(self, shard_id: int) -> None:
        """Delete all data and metadata of a shard (paper's dropShard)."""
        names = self._shards.pop(shard_id, None)
        if names is None:
            raise ShardNotFoundError(
                f"{self.host_id} does not host shard {shard_id}"
            )
        for name in names:
            self._partitions.pop(name, None)
            self._partition_tables.pop(name, None)
        self._forwarding.pop(shard_id, None)

    def prepare_add_shard(self, shard_id: int,
                          source: Optional[ApplicationServer]) -> None:
        """Graceful step 1: copy data; serve only forwarded traffic."""
        self.add_shard(shard_id, source)

    def prepare_drop_shard(self, shard_id: int,
                           target: ApplicationServer) -> None:
        """Graceful step 2: forward requests for the shard to target."""
        if shard_id not in self._shards:
            raise ShardNotFoundError(
                f"{self.host_id} does not host shard {shard_id}"
            )
        if isinstance(target, CubrickNode):
            self._forwarding[shard_id] = target

    def commit_add_shard(self, shard_id: int) -> None:
        """Graceful step 3: now serving the shard from all sources."""
        if shard_id not in self._shards:
            raise ShardNotFoundError(
                f"{self.host_id} was not prepared for shard {shard_id}"
            )

    # ------------------------------------------------------------------
    # Table lifecycle on existing shards
    # ------------------------------------------------------------------

    def attach_partition(self, shard_id: int, table: str, index: int) -> None:
        """Create a new table's partition inside an already-hosted shard.

        This is the *table creation on an existing shard* path: when a
        new table's partition maps to a shard another table already
        occupies (a cross-table partition collision), the partition is
        simply created wherever that shard lives. Note this path can
        create creation-time shard collisions — the paper notes the
        non-retryable refusal "does not prevent collisions at table
        creation time, when shards are already allocated" (§IV-A1).
        """
        if shard_id not in self._shards:
            raise ShardNotFoundError(
                f"{self.host_id} does not host shard {shard_id}"
            )
        name = partition_name(table, index)
        if name in self._partitions:
            return
        schema = self.catalog.get(table).schema
        self._partitions[name] = PartitionStorage(schema, index, obs=self.obs)
        self._partition_tables[name] = table
        self._shards[shard_id].append(name)

    def detach_partition(self, shard_id: int, table: str, index: int) -> None:
        """Remove one table's partition from a shard (table drop path)."""
        if shard_id not in self._shards:
            raise ShardNotFoundError(
                f"{self.host_id} does not host shard {shard_id}"
            )
        name = partition_name(table, index)
        self._partitions.pop(name, None)
        self._partition_tables.pop(name, None)
        self._shards[shard_id] = [
            n for n in self._shards[shard_id] if n != name
        ]

    def has_shard_collision(self) -> list[str]:
        """Tables with partitions reaching this host via multiple shards."""
        table_shards: dict[str, set[int]] = {}
        for shard_id, names in self._shards.items():
            for name in names:
                table = self._partition_tables.get(name)
                if table is not None:
                    table_shards.setdefault(table, set()).add(shard_id)
        return sorted(t for t, s in table_shards.items() if len(s) > 1)

    # ------------------------------------------------------------------
    # Metrics (measurement side of load balancing)
    # ------------------------------------------------------------------

    def shard_metrics(self) -> dict[int, float]:
        return self.exporter.shard_metrics(self)

    def exported_capacity(self) -> float:
        return self.exporter.capacity(self)

    def hosted_shards(self) -> set[int]:
        return set(self._shards)

    # ------------------------------------------------------------------
    # Storage access
    # ------------------------------------------------------------------

    def partitions_of_shard(self, shard_id: int) -> list[PartitionStorage]:
        names = self._shards.get(shard_id, [])
        return [self._partitions[n] for n in names if n in self._partitions]

    def partition(self, table: str, index: int) -> PartitionStorage:
        name = partition_name(table, index)
        storage = self._partitions.get(name)
        if storage is None:
            raise PartitionNotFoundError(
                f"{self.host_id} does not store {name}"
            )
        return storage

    def has_partition(self, table: str, index: int) -> bool:
        return partition_name(table, index) in self._partitions

    def partition_names(self) -> list[str]:
        return sorted(self._partitions)

    def tables_stored(self) -> set[str]:
        return set(self._partition_tables.values())

    def is_forwarding(self, shard_id: int) -> bool:
        return shard_id in self._forwarding

    def all_bricks(self) -> list[Brick]:
        bricks: list[Brick] = []
        for name in sorted(self._partitions):
            bricks.extend(self._partitions[name].bricks())
        return bricks

    def total_rows(self) -> int:
        return sum(p.rows for p in self._partitions.values())

    def footprint_bytes(self) -> int:
        return sum(p.footprint_bytes() for p in self._partitions.values())

    def ssd_footprint_bytes(self) -> int:
        """Bytes currently evicted to this host's SSD (generation 3)."""
        return sum(b.ssd_bytes() for b in self.all_bricks())

    def total_io_reads(self) -> int:
        """Cumulative SSD reads paid by queries on this host."""
        return sum(b.io_reads for b in self.all_bricks())

    # ------------------------------------------------------------------
    # Replicated dimension tables (paper §II-B)
    # ------------------------------------------------------------------

    def store_replicated(self, table: str) -> PartitionStorage:
        """Create (or return) this node's full copy of a replicated table."""
        storage = self._replicated.get(table)
        if storage is None:
            schema = self.catalog.get(table).schema
            storage = PartitionStorage(schema, partition_index=0, obs=self.obs)
            self._replicated[table] = storage
        return storage

    def replicated_tables(self) -> set[str]:
        return set(self._replicated)

    def drop_replicated(self, table: str) -> None:
        self._replicated.pop(table, None)

    def _join_lookups(
        self, query: Query
    ) -> dict[str, tuple[str, np.ndarray]]:
        """Materialise key→attribute lookup arrays for the query's joins.

        Every node holds a full copy of each replicated dimension table,
        so the join is resolved entirely locally — the reason replication
        is the standard treatment for small frequently-joined tables.
        """
        if not query.joins:
            return {}
        referenced = query.joined_columns()
        lookups: dict[str, tuple[str, np.ndarray]] = {}
        for join in query.joins:
            storage = self._replicated.get(join.table)
            if storage is None:
                raise PartitionNotFoundError(
                    f"{self.host_id} has no replica of table {join.table!r}"
                )
            dim_schema = storage.schema
            key_dim = dim_schema.dimension(join.dim_key)
            wanted = [
                column
                for name in referenced
                if (column := join.column_of(name)) is not None
            ]
            if not wanted:
                continue
            keys_parts = []
            attr_parts: dict[str, list[np.ndarray]] = {c: [] for c in wanted}
            for brick in storage.bricks():
                arrays = brick.columns()
                keys_parts.append(arrays[join.dim_key])
                for column in wanted:
                    attr_parts[column].append(arrays[column])
            keys = (
                np.concatenate(keys_parts)
                if keys_parts
                else np.empty(0, dtype=np.int64)
            )
            for column in wanted:
                values = (
                    np.concatenate(attr_parts[column])
                    if attr_parts[column]
                    else np.empty(0, dtype=np.int64)
                )
                lookup = np.full(key_dim.cardinality, -1, dtype=np.int64)
                lookup[keys.astype(np.int64)] = values.astype(np.int64)
                lookups[f"{join.table}.{column}"] = (join.fact_key, lookup)
        return lookups

    # ------------------------------------------------------------------
    # Local (partial) query execution
    # ------------------------------------------------------------------

    def execute_local(
        self,
        query: Query,
        partition_indexes: list[int],
        extra_lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
    ) -> PartialResult:
        """Execute the query over the named partitions of its table.

        The caller (query coordinator) names exactly which partitions
        this host is responsible for; missing partitions raise, which
        surfaces routing staleness instead of silently returning partial
        data. Joins to replicated dimension tables are materialised from
        this node's local replicas; ``extra_lookups`` supplies
        coordinator-built lookups for broadcast joins against *sharded*
        dimension tables (dotted references the local replicas cannot
        answer).
        """
        lookups = self._join_lookups(query)
        if extra_lookups:
            lookups = {**lookups, **extra_lookups}
        partial = PartialResult(query=query)
        # Kernel spans only inside an active query trace: direct calls
        # (unit tests, maintenance scans) must not mint root traces.
        tracing = self.obs.tracer.current is not None
        family = kernel_family(query)
        for index in partition_indexes:
            storage = self.partition(query.table, index)
            before_rows = partial.rows_scanned
            before_bricks = partial.bricks_scanned
            if tracing:
                with self.obs.tracer.span(
                    "cubrick.node.kernel",
                    host=self.host_id,
                    table=query.table,
                    family=family,
                ) as kspan:
                    partial.merge(storage.execute(query, lookups))
                    kspan.annotate(
                        partition=index,
                        rows_scanned=partial.rows_scanned - before_rows,
                        bricks_scanned=partial.bricks_scanned - before_bricks,
                    )
            else:
                partial.merge(storage.execute(query, lookups))
        self.obs.metrics.counter(
            "cubrick.node.rows_scanned", host=self.host_id
        ).inc(partial.rows_scanned)
        return partial

    def project_columns(
        self,
        table: str,
        partition_indexes: list[int],
        columns: list[str],
        filters=(),
    ) -> dict[str, np.ndarray]:
        """Materialise columns of the named partitions (join collection).

        The node-side half of the coordinator's dimension-table
        collection for distributed joins: each partition projects the
        requested columns (pre-filtered by any pushed-down predicates)
        and the per-partition arrays concatenate in partition order, so
        the result is deterministic for a fixed routing.
        """
        parts: dict[str, list[np.ndarray]] = {name: [] for name in columns}
        for index in partition_indexes:
            storage = self.partition(table, index)
            projected = storage.project(list(columns), tuple(filters))
            for name in columns:
                parts[name].append(projected[name])
        return {
            name: (
                np.concatenate(chunks)
                if chunks else np.empty(0, dtype=np.int64)
            )
            for name, chunks in parts.items()
        }

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------

    def run_memory_monitor(self) -> MonitorReport:
        """One adaptive-compression pass over all local bricks."""
        with self.obs.tracer.span(
            "cubrick.node.memory_monitor", host=self.host_id
        ) as span:
            report = self.memory_monitor.run(self.all_bricks())
            span.annotate(
                compressed=report.compressed,
                decompressed=report.decompressed,
                evicted=report.evicted,
                loaded=report.loaded,
                footprint_before=report.footprint_before,
                footprint_after=report.footprint_after,
            )
        # Lazily registered so idle nodes don't flood snapshots with
        # zero-valued per-host instruments.
        metrics = self.obs.metrics
        metrics.counter(
            "cubrick.node.bricks_compressed", host=self.host_id
        ).inc(report.compressed)
        metrics.counter(
            "cubrick.node.bricks_decompressed", host=self.host_id
        ).inc(report.decompressed)
        metrics.counter(
            "cubrick.node.bricks_evicted", host=self.host_id
        ).inc(report.evicted)
        metrics.counter(
            "cubrick.node.bricks_loaded", host=self.host_id
        ).inc(report.loaded)
        metrics.gauge(
            "cubrick.node.footprint_bytes", host=self.host_id
        ).set(report.footprint_after)
        if report.evicted:
            self.obs.events.emit(
                "cubrick.node.bricks_evicted",
                host=self.host_id,
                evicted=report.evicted,
                footprint_after=report.footprint_after,
            )
        return report

    def decay_hotness(self, probability: float = 0.5,
                      factor: float = 0.5) -> int:
        """One stochastic hotness-decay round over all local bricks."""
        return decay_all(
            self.all_bricks(), self._decay_rng,
            probability=probability, factor=factor,
        )

    def __repr__(self) -> str:
        return (
            f"CubrickNode({self.host_id}, shards={len(self._shards)}, "
            f"partitions={len(self._partitions)}, rows={self.total_rows()})"
        )
