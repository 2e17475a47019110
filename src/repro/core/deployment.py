"""CubrickDeployment: the end-to-end wired system.

This facade assembles the full paper architecture on the simulated
substrate: a multi-region cluster, one primary-only SM service per
region (paper §IV-D), a CubrickNode per host, regional query
coordinators, and the Cubrick proxy in front. It exposes the operations
a Cubrick user sees — create table, load, query — plus the operational
levers the experiments exercise (failure injection, drains,
re-partitioning, background maintenance).

Every region stores a full copy of every table; queries execute in a
single region and are retried cross-region by the proxy on retryable
failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.cluster.automation import DatacenterAutomation
from repro.cluster.host import GIB, Host
from repro.cluster.topology import Cluster
from repro.core.fanout import FanoutPolicy, ShardingMode
from repro.cubrick.coordinator import RegionCoordinator
from repro.cubrick.loadbalance import (
    LoadBalanceGeneration,
    make_exporter,
)
from repro.cubrick.locator import CachedRandom
from repro.cubrick.node import CubrickNode
from repro.cubrick.partitioning import (
    PartitioningPolicy,
    partitions_of_columns,
    split_by_partition,
)
from repro.cubrick.proxy import CubrickProxy
from repro.cubrick.query import REPLICATED_LOCAL, Query, QueryResult
from repro.cubrick.schema import Catalog, TableInfo, TableSchema
from repro.cubrick.sharding import (
    MonotonicHashMapper,
    ShardDirectory,
    ShardMapper,
    generation_alias,
)
from repro.errors import ConfigurationError, TableNotFoundError
from repro.obs import Observability
from repro.shardmanager.server import SMServer
from repro.shardmanager.spec import ServiceSpec
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliFailureModel, FailureInjector, MtbfFailureModel
from repro.sim.latency import LatencyModel, LogNormalTailLatency
from repro.sim.rng import RngRegistry
from repro.smc.registry import ServiceDiscovery

#: Distinct SQL texts :meth:`CubrickDeployment.compile_sql` remembers.
STATEMENT_CACHE_SIZE = 1024

#: SSD capacity of every host: the capacity GEN3 load balancing exports.
SSD_BYTES_PER_HOST = 32 * GIB


@dataclass
class _Compiled:
    """A statement-cache entry: the plan and its stamp, the ingest
    generations of the sharded tables whose row counts its join
    strategies read."""

    query: Query
    stamp: tuple[int, ...]


@dataclass(frozen=True)
class DeploymentConfig:
    """Knobs for building a deployment."""

    regions: int = 3
    racks_per_region: int = 4
    hosts_per_rack: int = 4
    seed: int = 0
    max_shards: int = 100_000
    mode: ShardingMode = ShardingMode.PARTIAL
    partitioning: PartitioningPolicy = PartitioningPolicy()
    memory_bytes_per_host: int = 4 * GIB
    lb_generation: LoadBalanceGeneration = LoadBalanceGeneration.GEN2_DECOMPRESSED
    # Per-host-visit probability of a mid-query failure (Figure 1 model);
    # 0 disables sampled failures (host-down failures still apply).
    query_failure_probability: float = 0.0
    # Consensus-replicated metadata (repro.consensus): every region's SM
    # stores its shard map in a Raft-replicated datastore instead of a
    # process-local dict, so metadata survives a full region partition.
    # Off by default: legacy deployments are byte-identical.
    replicated_metadata: bool = False
    # The region client traffic originates from: the proxy prefers it
    # and fails over to replica regions when it is partitioned; the
    # metadata cluster bootstraps its first leader there.
    home_region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.regions <= 0:
            raise ConfigurationError(f"regions must be positive: {self.regions}")


class CubrickDeployment:
    """A full multi-region, partially-sharded Cubrick installation."""

    def __init__(
        self,
        config: Optional[DeploymentConfig] = None,
        *,
        latency_model: Optional[LatencyModel] = None,
        mapper: Optional[ShardMapper] = None,
    ):
        self.config = config if config is not None else DeploymentConfig()
        cfg = self.config
        self.simulator = Simulator()
        # One shared telemetry hub for the whole deployment, stamped with
        # virtual time so exports are deterministic across seeded runs.
        self.obs = Observability(clock=lambda: self.simulator.now)
        self.simulator.attach_observability(self.obs)
        self.rngs = RngRegistry(cfg.seed)
        self.cluster = Cluster.build(
            regions=cfg.regions,
            racks_per_region=cfg.racks_per_region,
            hosts_per_rack=cfg.hosts_per_rack,
            memory_bytes=cfg.memory_bytes_per_host,
            ssd_bytes=SSD_BYTES_PER_HOST,
        )
        self.catalog = Catalog()
        self.mapper = mapper if mapper is not None else MonotonicHashMapper(
            cfg.max_shards
        )
        self.directory = ShardDirectory(self.mapper)
        self.fanout_policy = FanoutPolicy(
            mode=cfg.mode, partitioning=cfg.partitioning
        )
        self.latency_model = (
            latency_model if latency_model is not None else LogNormalTailLatency()
        )
        failure_model = (
            BernoulliFailureModel(cfg.query_failure_probability)
            if cfg.query_failure_probability > 0
            else None
        )

        region_names = self.cluster.region_names()
        if cfg.home_region is not None and cfg.home_region not in region_names:
            raise ConfigurationError(
                f"home_region {cfg.home_region!r} not in {region_names}"
            )
        # Optional consensus-backed metadata plane: one replica per
        # region over the topology's directional region links, with the
        # home region (or the first region) as the bootstrap leader.
        self.metadata_cluster = None
        if cfg.replicated_metadata:
            from repro.consensus import MetadataCluster

            self.metadata_cluster = MetadataCluster(
                self.simulator,
                region_names,
                lambda r: self.rngs.stream(f"consensus:{r}"),
                obs=self.obs,
                link_up=self.cluster.region_link_up,
                bootstrap_leader=cfg.home_region or region_names[0],
            )

        self.sm_servers: dict[str, SMServer] = {}
        self.nodes: dict[str, CubrickNode] = {}
        coordinators: dict[str, RegionCoordinator] = {}
        for region in region_names:
            spec = ServiceSpec(name=f"cubrick-{region}", max_shards=cfg.max_shards)
            discovery = ServiceDiscovery(
                rng=self.rngs.stream(f"smc:{region}"), obs=self.obs
            )
            datastore = None
            if self.metadata_cluster is not None:
                from repro.consensus import ReplicatedDatastore

                datastore = ReplicatedDatastore(
                    self.simulator, self.metadata_cluster, region,
                    obs=self.obs,
                )
            sm = SMServer(
                spec, self.simulator, self.cluster,
                region=region, datastore=datastore,
                discovery=discovery, obs=self.obs,
            )
            self.sm_servers[region] = sm
            for host in self.cluster.hosts_in_region(region):
                node = self._new_node(host.host_id, host.memory_bytes,
                                      host.ssd_bytes)
                self.nodes[host.host_id] = node
                sm.register_host(node)
            coordinators[region] = RegionCoordinator(
                region,
                sm,
                self.catalog,
                self.directory,
                latency_model=self.latency_model,
                failure_model=failure_model,
                rng=self.rngs.stream(f"coordinator:{region}"),
                obs=self.obs,
            )
        self.coordinators = coordinators
        # Failover data recovery crosses regions (paper §IV-D): when a
        # shard's only in-region copy dies, the new owner copies data
        # from a healthy server in a different region.
        for region, sm in self.sm_servers.items():
            sm.recovery_provider = self._make_recovery_provider(region)
        self.proxy = CubrickProxy(
            coordinators,
            home_region=cfg.home_region,
            locator=CachedRandom(),
            rng=self.rngs.stream("proxy"),
            obs=self.obs,
        )
        # Statement cache: (SQL text, catalog version) -> compiled plan.
        # A create or drop moves the version, so no entry outlives the
        # schema it was planned against; a statement that raises is not
        # remembered.
        self._statement_cache = lru_cache(maxsize=STATEMENT_CACHE_SIZE)(
            self._compile
        )
        self.automation = DatacenterAutomation(
            self.simulator,
            self.cluster,
            on_drain=self._drain_host,
            on_return=self._on_host_return,
        )
        self._failure_injector: Optional[FailureInjector] = None

    def _new_node(self, host_id: str, memory_bytes: int,
                  ssd_bytes: int) -> CubrickNode:
        """Construct one CubrickNode with the deployment's standard wiring."""
        return CubrickNode(
            host_id,
            self.catalog,
            self.directory,
            memory_bytes=memory_bytes,
            ssd_bytes=ssd_bytes,
            exporter=make_exporter(self.config.lb_generation),
            decay_rng=self.rngs.stream(f"decay:{host_id}"),
            allow_ssd_eviction=(
                self.config.lb_generation is LoadBalanceGeneration.GEN3_SSD
            ),
            obs=self.obs,
        )

    def _make_recovery_provider(self, region: str):
        def provider(shard_id: int):
            for other_region, sm in self.sm_servers.items():
                if other_region == region or not sm.has_shard(shard_id):
                    continue
                owner = sm.discovery.resolve_authoritative(shard_id)
                if (
                    owner is not None
                    and owner in sm.registered_hosts()
                    and self.cluster.host(owner).is_available
                ):
                    return sm.app_server(owner)
            return None

        return provider

    # ------------------------------------------------------------------
    # Sizing helpers
    # ------------------------------------------------------------------

    @property
    def hosts_per_region(self) -> int:
        return self.config.racks_per_region * self.config.hosts_per_rack

    def region_names(self) -> list[str]:
        return self.cluster.region_names()

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------

    def create_table(
        self,
        schema: TableSchema,
        *,
        num_partitions: Optional[int] = None,
        expected_rows: Optional[int] = None,
        replicated: bool = False,
    ) -> TableInfo:
        """Create a table in every region.

        The partition count defaults to the fan-out policy's decision:
        8 for partially-sharded tables (growing with ``expected_rows``),
        the whole region for fully-sharded ones.

        ``replicated=True`` creates a small dimension table fully copied
        to every node instead of sharded — the standard treatment for
        tables frequently joined against distributed ones (paper §II-B).
        """
        if replicated:
            info = self.catalog.create(schema, num_partitions=1,
                                       replicated=True)
            for node in self.nodes.values():
                node.store_replicated(schema.name)
            self._record_table_created(info)
            return info
        if num_partitions is None:
            num_partitions = self.fanout_policy.partitions_for_new_table(
                self.hosts_per_region, expected_rows=expected_rows
            )
        info = self.catalog.create(schema, num_partitions=num_partitions)
        shards = self.directory.register_table(schema.name, num_partitions)
        try:
            self._materialize_table(schema.name, shards)
        except Exception:
            self.directory.unregister_table(schema.name)
            self.catalog.drop(schema.name)
            raise
        self._record_table_created(info)
        return info

    def _record_table_created(self, info: TableInfo) -> None:
        self.obs.metrics.counter("cubrick.deployment.tables_created").inc()
        self.obs.events.emit(
            "cubrick.deployment.table_created",
            table=info.schema.name,
            partitions=info.num_partitions,
            replicated=info.replicated,
        )

    def _materialize_table(self, table: str, shards: list[int]) -> None:
        """Create the table's shards/partitions in every region's SM."""
        for sm in self.sm_servers.values():
            for index, shard in enumerate(shards):
                if sm.has_shard(shard):
                    # Cross-table partition collision: the shard already
                    # exists; attach the new partition where it lives.
                    owner = sm.discovery.resolve_authoritative(shard)
                    node = sm.app_server(owner)
                    node.attach_partition(shard, table, index)
                else:
                    sm.create_shard(shard, size_hint=1.0)

    def physical_table(self, name: str) -> str:
        """Physical name of the table's serving layout (reshard-aware)."""
        return self.catalog.get(name).physical_table

    def drop_table(self, name: str) -> None:
        """Drop a table everywhere; empty shards are released from SM."""
        info = self.catalog.get(name)
        if info.replicated:
            for node in self.nodes.values():
                node.drop_replicated(name)
            self.catalog.drop(name)
            return
        for physical in {info.physical_table} | (
            {info.pending_physical} if info.resharding else set()
        ):
            shards = self.directory.shards_for_table(physical)
            self.directory.unregister_table(physical)
            self._detach_table(physical, shards)
        self.catalog.drop(name)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, table: str, rows: list[dict[str, float]]) -> int:
        """Load rows into every region (three full copies, §IV-D).

        Replicated tables are copied to *every node* in the cluster.
        """
        info = self.catalog.get(table)
        schema = info.schema
        # Pivot and validate once: an invalid row rejects the whole load.
        columns = schema.columns_of_rows(rows)
        self.obs.metrics.counter(
            "cubrick.deployment.rows_loaded", table=table
        ).inc(len(rows))
        if info.replicated:
            for node in self.nodes.values():
                node.store_replicated(table).insert_columns(
                    columns, validated=True
                )
            info.bump_ingest()
            return len(rows)
        self._load_into_layout(
            info.physical_table, schema, info.num_partitions, columns
        )
        if info.resharding:
            # Dual-write: a staged reshard keeps the pending layout in
            # sync with every ingest, so the cutover needs no catch-up.
            self._load_into_layout(
                info.pending_physical, schema, info.pending_partitions, columns
            )
        # New rows are visible: invalidate cached answers via the key.
        info.bump_ingest()
        return len(rows)

    def _load_into_layout(
        self,
        physical: str,
        schema: TableSchema,
        num_partitions: int,
        columns: dict[str, np.ndarray],
    ) -> None:
        """Insert validated columns into one physical layout in every
        region, each row routed to its partition."""
        groups = split_by_partition(
            columns,
            partitions_of_columns(schema, columns, num_partitions),
            num_partitions,
        )
        shards = self.directory.shards_for_table(physical)
        for sm in self.sm_servers.values():
            for index, (__, group) in groups.items():
                owner = sm.discovery.resolve_authoritative(shards[index])
                storage = sm.app_server(owner).partition(physical, index)
                storage.insert_columns(group, validated=True)

    def _layout_columns(
        self, physical: str, num_partitions: int
    ) -> dict[str, np.ndarray]:
        """Every row of one physical layout as columns, read from the
        first region's copy in partition order."""
        sm = next(iter(self.sm_servers.values()))
        shards = self.directory.shards_for_table(physical)
        parts = []
        for index in range(num_partitions):
            owner = sm.discovery.resolve_authoritative(shards[index])
            node = sm.app_server(owner)
            parts.append(node.partition(physical, index).all_columns())
        return {
            name: np.concatenate([part[name] for part in parts])
            for name in parts[0]
        }

    def planner_context(self, *, optimize: bool = True):
        """A :class:`~repro.sql.PlannerContext` over this catalog.

        The statistics callback reports live total row counts for
        sharded tables (the broadcast vs. partitioned-hash signal) and
        ``None`` where counts are unavailable (e.g. replicated tables).
        """
        from repro.sql import PlannerContext

        def stats(table: str) -> Optional[int]:
            try:
                return self.total_rows(table)
            except Exception:
                return None

        return PlannerContext(
            catalog=self.catalog, stats=stats, optimize=optimize
        )

    def sql(self, statement: str, **submit_kwargs) -> QueryResult:
        """Compile one SQL statement and submit it through the proxy.

        >>> deployment.sql("SELECT sum(clicks) FROM events LIMIT 5")

        Every plan kind (fan-out, broadcast join, partitioned-hash join,
        empty) takes the same route; ``submit_kwargs``
        (``allow_partial``/``straggler_timeout``/``deadline``/
        ``policy``) are :meth:`CubrickProxy.submit`'s.
        """
        return self.proxy.submit(self.compile_sql(statement), **submit_kwargs)

    def compile_sql(self, statement: str) -> Query:
        """Compile one SELECT into the :class:`Query` that runs it.

        Every SQL surface (:meth:`sql`, the
        :class:`~repro.sched.WorkloadManager` and the serving gateway in
        front of it) compiles here, so errors surface before the query
        takes a queue slot: :class:`~repro.errors.TableNotFoundError`
        for an unknown FROM table, a positioned
        :class:`~repro.errors.SqlError` for everything else.

        Dashboards replay the same few statements, so the plan is
        memoised per ``(statement, catalog.version)`` in a bounded LRU;
        a create or drop changes the version. A sharded join's strategy
        read its dimension table's row count, so such a plan is
        recompiled once a load has moved that table's ingest generation.
        """
        compiled = self._statement_cache(statement, self.catalog.version)
        if compiled.stamp and compiled.stamp != self._stats_stamp(
            compiled.query
        ):
            fresh = self._compile(statement, self.catalog.version)
            compiled.query, compiled.stamp = fresh.query, fresh.stamp
        return compiled.query

    def _stats_stamp(self, query: Query) -> tuple[int, ...]:
        """Ingest generations of the sharded tables a plan's join
        strategies read row counts of."""
        return tuple(
            self.catalog.get(j.table).ingest_generation
            for j in query.joins if j.strategy != REPLICATED_LOCAL
        )

    def _compile(self, statement: str, catalog_version: int) -> "_Compiled":
        """The one SQL compile step: parse, check the FROM table, plan
        against the catalog, lower to a physical plan
        (``catalog_version`` only keys the statement cache).

        The stages are looked up on :mod:`repro.sql` at call time, so
        anything wrapping them there (the perf ledger's spans) sees
        every call.
        """
        import repro.sql as frontend

        stmt = frontend.parse(statement)
        self.catalog.get(stmt.table)  # raises TableNotFoundError
        logical = frontend.plan(stmt, self.planner_context(), source=statement)
        query = frontend.build_physical(logical).query
        return _Compiled(query, self._stats_stamp(query))

    def explain(self, statement: str, *, optimize: bool = True) -> str:
        """Deterministic EXPLAIN text for one SQL statement.

        Pure planning — nothing executes. ``optimize=False`` skips the
        optional rewrite rules (pushdown, pruning, hash-join selection)
        so their effect can be diffed against the default plan.
        """
        from repro.sql import explain as sql_explain

        return sql_explain(statement, self.planner_context(optimize=optimize))

    def loader(self, table: str, *, batch_rows: int = 1000):
        """A :class:`~repro.cubrick.loader.StreamingLoader` for a table."""
        from repro.cubrick.loader import StreamingLoader

        return StreamingLoader(self, table, batch_rows=batch_rows)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(
        self,
        query: Query,
        *,
        allow_partial: bool = False,
        straggler_timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Submit a query through the Cubrick proxy.

        ``allow_partial``/``straggler_timeout`` select the Scuba-style
        accuracy-for-availability mode; ``deadline`` hedges slow regions
        (see :meth:`repro.cubrick.proxy.CubrickProxy.submit`).
        """
        return self.proxy.submit(
            query,
            allow_partial=allow_partial,
            straggler_timeout=straggler_timeout,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Re-partitioning (paper §IV-B)
    # ------------------------------------------------------------------

    def maybe_repartition(self, table: str) -> bool:
        """Grow/shrink the table's partition count if thresholds demand.

        Returns True when a re-partition (with full data shuffle across
        all regions) was executed.
        """
        info = self.catalog.get(table)
        counts = self._partition_row_counts(table)
        if not counts:
            return False
        new_count = self.config.partitioning.next_partition_count(
            info.num_partitions, max(counts), sum(counts)
        )
        if new_count > info.num_partitions:
            # Growth is bounded by the smallest region: every partition
            # needs its own collision-free host (shard collisions are
            # refused), so a table can never have more partitions than
            # hosts. Defer the re-partition until capacity exists.
            capacity = min(
                sum(
                    1
                    for host in self.cluster.placeable_hosts(region)
                    if host.host_id in sm.registered_hosts()
                )
                for region, sm in self.sm_servers.items()
            )
            # Leave headroom: hosts may fail between this check and the
            # shuffle, and a table occupying every host leaves failovers
            # with no collision-free target.
            new_count = min(new_count, max(1, int(capacity * 0.75)))
            if new_count <= info.num_partitions:
                return False  # not enough hosts yet; try again later
        if new_count <= 0 or new_count == info.num_partitions:
            return False
        self._repartition(table, new_count)
        return True

    def _partition_row_counts(self, table: str) -> list[int]:
        """Row counts per partition, read from the first region."""
        info = self.catalog.get(table)
        physical = info.physical_table
        sm = next(iter(self.sm_servers.values()))
        shards = self.directory.shards_for_table(physical)
        counts = []
        for index in range(info.num_partitions):
            owner = sm.discovery.resolve_authoritative(shards[index])
            node = sm.app_server(owner)
            counts.append(node.partition(physical, index).rows)
        return counts

    def _repartition(self, table: str, new_count: int) -> None:
        info = self.catalog.get(table)
        old_physical = info.physical_table
        old_count = info.num_partitions
        # Collect all rows once, from the first region's copy.
        columns = self._layout_columns(old_physical, old_count)
        shards = self.directory.shards_for_table(old_physical)

        # Tear down the old layout and build the new one in all regions.
        self.directory.unregister_table(old_physical)
        self._detach_table(old_physical, shards)

        new_physical = generation_alias(table, info.generation + 1)
        try:
            self._build_layout(table, new_physical, info, new_count, columns)
        except Exception:
            # Roll back to the old layout with the collected rows: a
            # failed re-partition must never lose the table.
            try:
                self.directory.unregister_table(new_physical)
            except ConfigurationError:
                pass
            attempted = self.mapper.shards_of(new_physical, new_count)
            self._detach_table(new_physical, attempted)
            self._build_layout(table, old_physical, info, old_count, columns)
            raise

    def _detach_table(self, table: str, shards: list[int]) -> None:
        """Remove a table's partitions from every region; drop empty shards."""
        for region_sm in self.sm_servers.values():
            for index, shard in enumerate(shards):
                if not region_sm.has_shard(shard):
                    continue
                owner = region_sm.discovery.resolve_authoritative(shard)
                if owner is not None and owner in region_sm.registered_hosts():
                    node = region_sm.app_server(owner)
                    if isinstance(node, CubrickNode):
                        node.detach_partition(shard, table, index)
            for shard in sorted(set(shards)):
                if region_sm.has_shard(shard) and not self.directory.contents(shard):
                    region_sm.drop_shard(shard)

    def _build_layout(
        self,
        table: str,
        physical: str,
        info: TableInfo,
        new_count: int,
        columns: dict[str, np.ndarray],
    ) -> None:
        """Register, materialise and load one partition layout.

        ``physical`` is the (possibly generation-tagged) name the layout
        is registered under; the catalog entry is flipped to serve it.
        """
        new_shards = self.directory.register_table(physical, new_count)
        info.num_partitions = new_count
        info.generation += 1
        info.serving_physical = "" if physical == table else physical
        self._materialize_table(physical, new_shards)
        self._load_into_layout(physical, info.schema, new_count, columns)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _drain_host(self, host_id: str) -> None:
        region = self.cluster.host(host_id).region
        self.sm_servers[region].drain_host(host_id)

    def start_failure_injection(
        self, model: MtbfFailureModel, *, until: Optional[float] = None
    ) -> FailureInjector:
        """Begin MTBF-driven host failures wired to automation + SM."""
        injector = FailureInjector(
            self.simulator,
            model,
            self.rngs.stream("failures"),
            on_fail=self.automation.handle_host_failure,
            on_recover=self._on_host_recover,
        )
        for host in self.cluster.hosts():
            injector.track(host.host_id, until=until)
        self._failure_injector = injector
        return injector

    def _on_host_recover(self, host_id: str) -> None:
        """Unplanned-failure recovery (wired to the failure injector)."""
        self.automation.handle_host_recovery(host_id)

    def _on_host_return(self, host_id: str) -> None:
        """A host came back (repair or maintenance done): rejoin SM.

        Its SM session expired while it was away (heartbeats stopped),
        so it returns as a fresh, empty server and re-registers — after
        which placement and load balancing can use it again.
        """
        region = self.cluster.host(host_id).region
        sm = self.sm_servers[region]
        if host_id not in sm.registered_hosts():
            self._reset_node(host_id)
            sm.reconnect_host(self.nodes[host_id])

    def _reset_node(self, host_id: str) -> None:
        """Replace a failed node with a fresh one (reimaged host).

        Replicated dimension tables are restored from any healthy peer,
        so local joins keep working once the host rejoins.
        """
        host = self.cluster.host(host_id)
        node = self._new_node(host_id, host.memory_bytes, host.ssd_bytes)
        self._replicate_dimension_tables(node)
        self.nodes[host_id] = node

    def _replicate_dimension_tables(self, node: CubrickNode) -> None:
        """Copy every replicated table (schema + data) onto one node."""
        for table, info in self.catalog.tables.items():
            if not info.replicated:
                continue
            node.store_replicated(table)
            donor = next(
                (
                    other
                    for other_id, other in self.nodes.items()
                    if other_id != node.host_id
                    and table in other.replicated_tables()
                    and self.cluster.host(other_id).is_available
                ),
                None,
            )
            if donor is not None:
                replica = donor.store_replicated(table)
                if replica.rows:
                    # Columnar copy through the vectorised bulk-load path.
                    node.store_replicated(table).insert_columns(
                        replica.all_columns()
                    )

    def start_background_maintenance(
        self,
        *,
        collect_interval: float = 60.0,
        balance_interval: float = 600.0,
        memory_monitor_interval: float = 300.0,
        decay_interval: float = 3600.0,
        until: Optional[float] = None,
    ) -> None:
        """Start SM loops plus per-node memory monitors and decay."""
        for sm in self.sm_servers.values():
            sm.start(
                collect_interval=collect_interval,
                balance_interval=balance_interval,
                until=until,
            )

        def maintain() -> None:
            for node in self.nodes.values():
                node.run_memory_monitor()

        def decay() -> None:
            for node in self.nodes.values():
                node.decay_hotness()

        self.simulator.schedule_periodic(
            memory_monitor_interval, maintain, until=until
        )
        self.simulator.schedule_periodic(decay_interval, decay, until=until)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Cluster resize (paper §II-C design question)
    # ------------------------------------------------------------------

    def add_hosts(self, region: str, count: int,
                  *, rack: str = "rack-exp", register: bool = True) -> list[str]:
        """Scale out: add hosts to a region and register them with SM.

        New hosts start empty; the next load-balancing run (or explicit
        ``sm.run_load_balance()``) spreads shards onto them. Because
        tables are partially sharded, adding hosts never increases any
        table's fan-out — the property that lets the system scale past
        the wall.

        ``register=False`` creates the host and its node but defers the
        SM registration — the warm-up phase of a staged provision
        (repro.autoscale.FleetController). Until
        :meth:`complete_host_registration` runs, the host reports no
        capacity, so SM placement and balancing ignore it.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive: {count}")
        added = []
        existing = sum(
            1 for h in self.cluster.hosts()
            if h.region == region and h.rack == rack
        )
        for i in range(count):
            host_id = f"{region}-{rack}-host{existing + i:03d}"
            host = Host(
                host_id=host_id,
                region=region,
                rack=rack,
                memory_bytes=self.config.memory_bytes_per_host,
                ssd_bytes=SSD_BYTES_PER_HOST,
            )
            self.cluster.add_host(host)
            node = self._new_node(host_id, host.memory_bytes, host.ssd_bytes)
            self._replicate_dimension_tables(node)
            self.nodes[host_id] = node
            if register:
                self.complete_host_registration(host_id)
            added.append(host_id)
        return added

    def complete_host_registration(self, host_id: str) -> None:
        """Register a provisioned (warmed-up) host with its region's SM."""
        region = self.cluster.host(host_id).region
        sm = self.sm_servers[region]
        if host_id not in sm.registered_hosts():
            sm.register_host(self.nodes[host_id])
        if self._failure_injector is not None:
            self._failure_injector.track(host_id)

    def decommission_host(self, host_id: str) -> bool:
        """Scale in: drain a host's shards and remove it permanently.

        Returns False (and leaves the host untouched) when the
        automation safety checks refuse the request.
        """
        from repro.cluster.automation import MaintenanceKind

        request = self.automation.request_maintenance(
            MaintenanceKind.DECOMMISSION, [host_id], duration=1.0
        )
        if not request.approved:
            return False
        if self._failure_injector is not None:
            self._failure_injector.untrack(host_id)
        return True

    def summary(self) -> dict:
        """Operational snapshot: the console view SM dashboards provide.

        The paper notes one benefit of the SM integration is full-fledged
        management consoles and monitoring dashboards (§IV); this is the
        equivalent programmatic surface.
        """
        host_states: dict[str, int] = {}
        for host in self.cluster.hosts():
            host_states[host.state.value] = host_states.get(
                host.state.value, 0
            ) + 1
        regions = {}
        for region, sm in self.sm_servers.items():
            regions[region] = {
                "registered_hosts": len(sm.registered_hosts()),
                "shards": len(sm.shard_ids()),
                "migrations": sm.migrations.count_by_reason(),
                "unplaced_failovers": len(sm.unplaced_failovers),
                "imbalance": sm.balancer.imbalance(region),
            }
        return {
            "hosts": {"total": len(self.cluster), "by_state": host_states},
            "tables": {
                name: {
                    "partitions": info.num_partitions,
                    "generation": info.generation,
                    "replicated": info.replicated,
                }
                for name, info in sorted(self.catalog.tables.items())
            },
            "regions": regions,
            "proxy": {
                "queries": len(self.proxy.query_log),
                "success_ratio": self.proxy.success_ratio(),
                "first_try_success_ratio": self.proxy.first_try_success_ratio(),
                "blacklisted_hosts": self.proxy.blacklisted_hosts(),
            },
            "repairs": len(self.automation.repair_log),
        }

    def verify_replicas(self, table: str) -> dict:
        """Audit the §IV-D invariant: every region holds a full copy.

        Compares per-region row counts (and per-partition counts) of a
        table; returns ``{"consistent": bool, "regions": {region:
        total}, "divergent_partitions": [...]}``. Regions that are
        unavailable or mid-failover are reported but do not make the
        audit fail — only two *reachable* regions disagreeing does.
        """
        info = self.catalog.get(table)
        physical = info.physical_table
        shards = self.directory.shards_for_table(physical)
        per_region: dict[str, Optional[list[int]]] = {}
        for region, sm in self.sm_servers.items():
            counts: Optional[list[int]] = []
            for index in range(info.num_partitions):
                owner = sm.discovery.resolve_authoritative(shards[index])
                if (
                    owner is None
                    or owner not in sm.registered_hosts()
                    or not self.cluster.host(owner).is_available
                ):
                    counts = None  # region incomplete right now
                    break
                node = sm.app_server(owner)
                if not node.has_partition(physical, index):
                    counts = None
                    break
                counts.append(node.partition(physical, index).rows)
            per_region[region] = counts

        reachable = {r: c for r, c in per_region.items() if c is not None}
        divergent = []
        consistent = True
        if len(reachable) >= 2:
            reference_region, reference = next(iter(reachable.items()))
            for region, counts in reachable.items():
                for index, (a, b) in enumerate(zip(reference, counts)):
                    if a != b:
                        divergent.append(
                            {
                                "partition": index,
                                reference_region: a,
                                region: b,
                            }
                        )
                        consistent = False
        return {
            "consistent": consistent,
            "regions": {
                region: (sum(counts) if counts is not None else None)
                for region, counts in per_region.items()
            },
            "divergent_partitions": divergent,
        }

    def table_fanout(self, table: str) -> int:
        """Distinct hosts a query on this table touches (first region)."""
        if table not in self.catalog:
            raise TableNotFoundError(f"unknown table: {table}")
        sm = next(iter(self.sm_servers.values()))
        shards = self.directory.shards_for_table(self.physical_table(table))
        hosts = set()
        for shard in shards:
            hosts.add(sm.discovery.resolve_authoritative(shard))
        return len(hosts)

    def total_rows(self, table: str) -> int:
        return sum(self._partition_row_counts(table))
