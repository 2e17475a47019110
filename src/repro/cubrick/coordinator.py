"""Query coordinator: distributed execution within one region (§IV-C/D).

A query is executed entirely inside one region: the coordinator host
(one of the hosts storing a partition of the target table) distributes
the query to every host holding partitions, collects partial results and
merges them. If *any* required partition is unavailable in the region,
the query fails and the Cubrick proxy retries it in a different region —
there is never cross-region traffic during execution.

Latency is simulated: each participating host's service time is sampled
from the tail-latency model, and the query's latency is the max over
hosts (fan-out amplification) plus coordinator merge overhead — the
mechanism behind Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.chaos.policies import ResiliencePolicy
from repro.cubrick.query import PartialResult, Query, QueryResult
from repro.cubrick.schema import Catalog
from repro.cubrick.sharding import ShardDirectory
from repro.errors import (
    ConfigurationError,
    PartitionNotFoundError,
    QueryFailedError,
    ShardMappingUnknownError,
)
from repro.obs import Observability
from repro.sched.queue import NodeSlots
from repro.shardmanager.server import SMServer
from repro.sim.latency import LatencyModel, LogNormalTailLatency
from repro.sim.failures import BernoulliFailureModel


@dataclass
class QueryExecution:
    """Diagnostics for one executed (or failed) query."""

    query: Query
    region: str
    fanout: int = 0
    latency: float = 0.0
    per_host_latency: dict[str, float] = field(default_factory=dict)
    failed_host: Optional[str] = None
    succeeded: bool = False


class RegionCoordinator:
    """Executes queries against the Cubrick nodes of one region."""

    #: Fixed merge/parse overhead charged on the coordinator, per query.
    COORDINATOR_OVERHEAD = 0.001
    #: Cost of one extra result-buffer network hop (locator strategy 2).
    HOP_COST = 0.002

    def __init__(
        self,
        region: str,
        sm_server: SMServer,
        catalog: Catalog,
        directory: ShardDirectory,
        *,
        latency_model: Optional[LatencyModel] = None,
        failure_model: Optional[BernoulliFailureModel] = None,
        rng: Optional[np.random.Generator] = None,
        policy: Optional[ResiliencePolicy] = None,
        obs: Optional[Observability] = None,
        node_slots: Optional[int] = None,
    ):
        self.region = region
        self.sm = sm_server
        self.catalog = catalog
        self.directory = directory
        self.latency_model = (
            latency_model if latency_model is not None else LogNormalTailLatency()
        )
        self.failure_model = failure_model
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Default resilience policy for executions (per-hop timeouts and
        #: hedging); the proxy may override per call. None = legacy
        #: behaviour (no per-hop bound, no hedging).
        self.policy = policy
        #: Chaos hook: maps (host_id, sampled service time) -> shaped
        #: service time. Installed by ChaosInjector for slow-disk,
        #: tail-amplification and hang faults.
        self.service_time_hook: Optional[Callable[[str, float], float]] = None
        #: Per-host execution lanes (repro.sched). None = legacy
        #: behaviour: unbounded concurrency, no lane wait.
        self.node_slots_per_host = node_slots
        self._node_slots: dict[str, NodeSlots] = {}
        self.executions: list[QueryExecution] = []
        self.obs = obs if obs is not None else Observability()
        self._latency_histogram = self.obs.metrics.histogram(
            "cubrick.coordinator.latency_seconds", region=region
        )
        self._fanout_histogram = self.obs.metrics.histogram(
            "cubrick.coordinator.fanout_hosts",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            region=region,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def partition_hosts(self, table: str) -> dict[str, list[int]]:
        """host id → partition indexes it must answer for, via SMC.

        ``table`` may be a logical catalog name (resolved to the serving
        physical layout, which may be a generation-tagged alias while an
        online reshard is in flight) or a physical alias directly.

        Raises :class:`QueryFailedError` if any partition's shard has no
        propagated mapping (e.g. a failover still publishing).
        """
        info = self.catalog.tables.get(table)
        physical = info.physical_table if info is not None else table
        shards = self.directory.shards_for_table(physical)
        now = self.sm.simulator.now
        hosts: dict[str, list[int]] = {}
        for index, shard in enumerate(shards):
            try:
                # The coordinator resolves through its own local SMC
                # proxy, with its own propagation delays (Figure 3).
                host = self.sm.discovery.resolve(
                    shard, now, client_id=f"coordinator:{self.region}"
                )
            except ShardMappingUnknownError as exc:
                raise QueryFailedError(
                    f"table {table}: shard {shard} unresolved in {self.region}",
                    region=self.region,
                ) from exc
            if host is None:
                raise QueryFailedError(
                    f"table {table}: shard {shard} unassigned in {self.region}",
                    region=self.region,
                )
            hosts.setdefault(host, []).append(index)
        return hosts

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        *,
        coordinator_partition: int = 0,
        extra_hops: int = 0,
        extra_roundtrips: int = 0,
        allow_partial: bool = False,
        straggler_timeout: Optional[float] = None,
        policy: Optional[ResiliencePolicy] = None,
        extra_lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
    ) -> QueryResult:
        """Distribute, execute and merge one query in this region.

        In the default (strict) mode, a down or failed participating host
        raises a retryable :class:`QueryFailedError` — the Cubrick proxy
        then retries in a different region, preserving result accuracy.

        ``allow_partial=True`` switches to the Scuba-style mode the paper
        describes as the *other* way past the wall (§II-C): answers from
        dead hosts are silently dropped, and — when ``straggler_timeout``
        is set — so are answers from hosts slower than the timeout. The
        result carries ``metadata["partial"]`` and ``metadata["coverage"]``
        (fraction of partitions that contributed), trading consistency
        and accuracy for availability and bounded latency.

        ``policy`` (falling back to the coordinator's default) adds the
        unified resilience semantics: a host whose shaped service time
        exceeds the per-hop timeout **counts as failed** — it raises the
        same retryable error as a crashed host (or is skipped in partial
        mode) — and hosts slower than the hedge trigger are hedged with
        duplicate requests, the fastest answer winning.

        ``extra_lookups`` passes coordinator-built join lookup arrays
        (keyed by dotted column name) down to every node scan — the SQL
        physical plan's broadcast-join step for sharded dimension
        tables.
        """
        if policy is None:
            policy = self.policy
        with self.obs.tracer.span(
            "cubrick.coordinator.execute", region=self.region, table=query.table
        ) as span:
            try:
                result = self._execute(
                    query,
                    span,
                    coordinator_partition=coordinator_partition,
                    extra_hops=extra_hops,
                    extra_roundtrips=extra_roundtrips,
                    allow_partial=allow_partial,
                    straggler_timeout=straggler_timeout,
                    policy=policy,
                    extra_lookups=extra_lookups,
                )
            except QueryFailedError as exc:
                span.annotate(outcome="failed", error=str(exc))
                self.obs.metrics.counter(
                    "cubrick.coordinator.queries",
                    region=self.region,
                    outcome="failed",
                ).inc()
                raise
        self.obs.metrics.counter(
            "cubrick.coordinator.queries", region=self.region, outcome="ok"
        ).inc()
        return result

    def _execute(
        self,
        query: Query,
        span,
        *,
        coordinator_partition: int,
        extra_hops: int,
        extra_roundtrips: int,
        allow_partial: bool,
        straggler_timeout: Optional[float],
        policy: Optional[ResiliencePolicy],
        extra_lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
    ) -> QueryResult:
        info = self.catalog.get(query.table)
        execution = QueryExecution(query=query, region=self.region)
        self.executions.append(execution)

        # Mid-reshard, the serving layout lives under a generation-tagged
        # physical alias; nodes key partition storage by that name, so
        # the query is rewritten before local execution. Results and
        # metadata keep presenting the logical name.
        physical = info.physical_table
        exec_query = (
            query if physical == query.table
            else replace(query, table=physical)
        )
        hosts = self.partition_hosts(physical)
        execution.fanout = len(hosts)
        total_partitions = sum(len(v) for v in hosts.values())

        (
            merged,
            slowest,
            answered_partitions,
            hedges,
            skipped_hosts,
        ) = self._fanout_partials(
            query,
            exec_query,
            hosts,
            execution,
            allow_partial=allow_partial,
            straggler_timeout=straggler_timeout,
            policy=policy,
            extra_lookups=extra_lookups,
        )

        latency = (
            slowest
            + self.COORDINATOR_OVERHEAD
            + extra_hops * self.HOP_COST
            + extra_roundtrips * self.HOP_COST
        )
        if allow_partial and straggler_timeout is not None:
            # The coordinator stopped waiting at the timeout.
            latency = min(
                latency,
                straggler_timeout + self.COORDINATOR_OVERHEAD
                + (extra_hops + extra_roundtrips) * self.HOP_COST,
            )
        execution.latency = latency
        execution.succeeded = True
        self._latency_histogram.observe(latency)
        self._fanout_histogram.observe(execution.fanout)

        # The merge/consolidate pass sits at the tail of the coordinator's
        # critical path: its cost is the fixed overhead plus topology hop
        # costs, so the merge span occupies exactly that tail window.
        merge_cost = (
            self.COORDINATOR_OVERHEAD
            + (extra_hops + extra_roundtrips) * self.HOP_COST
        )
        with self.obs.tracer.span(
            "cubrick.coordinator.merge", region=self.region
        ) as merge_span:
            result = merged.finalize()
            merge_span.start = span.start + (latency - merge_cost)
            merge_span.set_duration(merge_cost)
            merge_span.annotate(
                compactions=merged.compactions,
                blocks_consolidated=merged.blocks_consolidated,
                groups=len(result.rows),
            )
        coverage = (
            answered_partitions / total_partitions if total_partitions else 1.0
        )
        span.set_duration(latency)
        span.annotate(
            fanout=execution.fanout,
            coverage=coverage,
            extra_hops=extra_hops,
            extra_roundtrips=extra_roundtrips,
            hedges=hedges,
        )
        result.metadata.update(
            {
                "table": query.table,
                "num_partitions": info.num_partitions,
                "generation": info.generation,
                "region": self.region,
                "latency": latency,
                "fanout": execution.fanout,
                "coordinator_partition": coordinator_partition,
                "partial": bool(skipped_hosts),
                "coverage": coverage,
                "skipped_hosts": skipped_hosts,
                "hedges": hedges,
            }
        )
        return result

    def _fanout_partials(
        self,
        query: Query,
        exec_query: Query,
        hosts: dict[str, list[int]],
        execution: QueryExecution,
        *,
        allow_partial: bool,
        straggler_timeout: Optional[float],
        policy: Optional[ResiliencePolicy],
        extra_lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
    ) -> tuple[PartialResult, float, int, int, list[str]]:
        """Run the per-host scan loop and merge node partials.

        Shared by :meth:`_execute` (which finalizes the merge into rows)
        and :meth:`execute_partials` (which hands the pre-finalize
        partial to the SQL physical plan's hash-join step). Returns
        ``(merged, slowest, answered_partitions, hedges, skipped)``.
        """
        merged = PartialResult(query=query)
        slowest = 0.0
        answered_partitions = 0
        hedges = 0
        skipped_hosts: list[str] = []
        for host_id in sorted(hosts):
            indexes = hosts[host_id]
            host = self.sm.cluster.host(host_id)
            failed = not host.is_available
            if not failed and self.failure_model is not None:
                failed = self._rng.random() < self.failure_model.probability
            if failed:
                if allow_partial:
                    skipped_hosts.append(host_id)
                    continue
                execution.failed_host = host_id
                raise QueryFailedError(
                    f"host {host_id} unavailable/failed during query on "
                    f"{query.table}",
                    region=self.region,
                    host=host_id,
                )
            service_time = self._sample_service_time(host_id)
            if policy is not None and policy.hedge.enabled:
                service_time, used = self._hedged_service_time(
                    host_id, service_time, policy
                )
                hedges += used
            # Per-host lane contention: a busy host answers later queries
            # slower. The lane wait counts against per-hop timeouts, like
            # real queueing at the node would.
            raw_service = service_time
            service_time = self._shape_node_slots(host_id, service_time)
            lane_wait = service_time - raw_service
            if policy is not None and policy.timeout.is_timeout(service_time):
                # Unified per-hop timeout semantics: a hop slower than
                # the bound consumes an attempt exactly like a crash.
                if allow_partial:
                    skipped_hosts.append(host_id)
                    continue
                execution.failed_host = host_id
                raise QueryFailedError(
                    f"host {host_id} exceeded {policy.timeout.per_hop}s "
                    f"per-hop timeout during query on {query.table}",
                    region=self.region,
                    host=host_id,
                )
            if (
                allow_partial
                and straggler_timeout is not None
                and service_time > straggler_timeout
            ):
                # Scuba-style: too slow, drop its answer entirely.
                skipped_hosts.append(host_id)
                continue
            try:
                node = self.sm.app_server(host_id)
            except ConfigurationError:
                # The SMC mapping still points at a host whose SM session
                # expired: the host is cluster-healthy but deregistered
                # while failover publications propagate. Treat it exactly
                # like an unavailable host — skip in partial mode, else
                # fail this attempt so the proxy retries elsewhere.
                if allow_partial:
                    skipped_hosts.append(host_id)
                    continue
                execution.failed_host = host_id
                raise QueryFailedError(
                    f"host {host_id} is not registered with the shard "
                    f"manager (failover propagating) during query on "
                    f"{query.table}",
                    region=self.region,
                    host=host_id,
                )
            # The scan span's duration is the *sampled* service time: the
            # simulated clock does not advance during execution, so the
            # latency model's draw is the span's ground truth.
            with self.obs.tracer.span(
                "cubrick.node.scan", host=host_id, region=self.region
            ) as scan_span:
                try:
                    partial = node.execute_local(
                        exec_query, indexes, extra_lookups
                    )
                except PartitionNotFoundError as exc:
                    if allow_partial:
                        scan_span.annotate(skipped="partition_missing")
                        skipped_hosts.append(host_id)
                        continue
                    # Stale SMC mapping: the authoritative owner may differ.
                    partial = self._forwarded_execution(
                        exec_query, host_id, indexes, exc, extra_lookups
                    )
                scan_span.set_duration(service_time)
                scan_span.annotate(
                    partitions=len(indexes),
                    bricks_scanned=partial.bricks_scanned,
                    rows_scanned=partial.rows_scanned,
                    lane_wait=lane_wait,
                )
                self._retime_kernels(scan_span, lane_wait)
            execution.per_host_latency[host_id] = service_time
            slowest = max(slowest, service_time)
            answered_partitions += len(indexes)
            merged.merge(partial)
        return merged, slowest, answered_partitions, hedges, skipped_hosts

    def execute_partials(
        self,
        query: Query,
        *,
        extra_lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
        policy: Optional[ResiliencePolicy] = None,
    ) -> tuple[PartialResult, dict]:
        """Fan out a query and return the merged *pre-finalize* partial.

        The SQL physical plan's partitioned-hash join fans out the fact
        scan grouped by the join key, then joins and re-aggregates the
        raw partial states on the coordinator before finalizing — so it
        needs the merged partial, not shaped rows. Strict mode only: a
        failed host raises a retryable :class:`QueryFailedError`.
        """
        if policy is None:
            policy = self.policy
        info = self.catalog.get(query.table)
        execution = QueryExecution(query=query, region=self.region)
        self.executions.append(execution)
        physical = info.physical_table
        exec_query = (
            query if physical == query.table
            else replace(query, table=physical)
        )
        with self.obs.tracer.span(
            "cubrick.coordinator.gather", region=self.region, table=query.table
        ) as span:
            hosts = self.partition_hosts(physical)
            execution.fanout = len(hosts)
            merged, slowest, _, hedges, _ = self._fanout_partials(
                query,
                exec_query,
                hosts,
                execution,
                allow_partial=False,
                straggler_timeout=None,
                policy=policy,
                extra_lookups=extra_lookups,
            )
            latency = slowest + self.COORDINATOR_OVERHEAD
            execution.latency = latency
            execution.succeeded = True
            span.set_duration(latency)
            span.annotate(fanout=execution.fanout, hedges=hedges)
        self._latency_histogram.observe(latency)
        self._fanout_histogram.observe(execution.fanout)
        return merged, {
            "region": self.region,
            "latency": latency,
            "fanout": execution.fanout,
            "hedges": hedges,
        }

    def collect_columns(
        self,
        table: str,
        columns: list[str],
        filters: tuple = (),
        *,
        policy: Optional[ResiliencePolicy] = None,
    ) -> tuple[dict[str, np.ndarray], float, int]:
        """Gather raw columns of a sharded table onto the coordinator.

        The SQL physical plan's join strategies pull a sharded dimension
        table's (filtered) key and attribute columns here — broadcast
        builds per-fact-row lookup arrays from them, partitioned-hash
        builds the join hash side. Strict mode only: any unavailable
        host raises a retryable :class:`QueryFailedError`. Arrays
        concatenate in sorted host order, partition order within each
        host, so collection is deterministic for a fixed layout.
        """
        if policy is None:
            policy = self.policy
        info = self.catalog.tables.get(table)
        physical = info.physical_table if info is not None else table
        with self.obs.tracer.span(
            "cubrick.coordinator.collect", region=self.region, table=table
        ) as span:
            hosts = self.partition_hosts(physical)
            parts: dict[str, list[np.ndarray]] = {name: [] for name in columns}
            slowest = 0.0
            for host_id in sorted(hosts):
                indexes = hosts[host_id]
                host = self.sm.cluster.host(host_id)
                failed = not host.is_available
                if not failed and self.failure_model is not None:
                    failed = self._rng.random() < self.failure_model.probability
                if failed:
                    raise QueryFailedError(
                        f"host {host_id} unavailable/failed while collecting "
                        f"{table}",
                        region=self.region,
                        host=host_id,
                    )
                service_time = self._sample_service_time(host_id)
                if policy is not None and policy.timeout.is_timeout(
                    service_time
                ):
                    raise QueryFailedError(
                        f"host {host_id} exceeded {policy.timeout.per_hop}s "
                        f"per-hop timeout while collecting {table}",
                        region=self.region,
                        host=host_id,
                    )
                try:
                    node = self.sm.app_server(host_id)
                except ConfigurationError as exc:
                    raise QueryFailedError(
                        f"host {host_id} is not registered with the shard "
                        f"manager while collecting {table}",
                        region=self.region,
                        host=host_id,
                    ) from exc
                try:
                    projected = node.project_columns(
                        physical, indexes, list(columns), tuple(filters)
                    )
                except PartitionNotFoundError as exc:
                    raise QueryFailedError(
                        f"partition of {table} missing on {host_id} during "
                        f"collection",
                        region=self.region,
                        host=host_id,
                    ) from exc
                for name in columns:
                    parts[name].append(projected[name])
                slowest = max(slowest, service_time)
            arrays = {
                name: (
                    np.concatenate(chunks)
                    if chunks
                    else np.empty(0, dtype=np.int64)
                )
                for name, chunks in parts.items()
            }
            collected = next(iter(arrays.values())) if arrays else None
            latency = slowest + self.COORDINATOR_OVERHEAD
            span.set_duration(latency)
            span.annotate(
                fanout=len(hosts),
                rows=0 if collected is None else int(collected.shape[0]),
            )
        return arrays, latency, len(hosts)

    def _sample_service_time(self, host_id: str) -> float:
        """One sampled service time, shaped by the chaos hook if set."""
        service_time = self.latency_model.sample(self._rng).total
        if self.service_time_hook is not None:
            service_time = self.service_time_hook(host_id, service_time)
        return service_time

    def _shape_node_slots(self, host_id: str, service_time: float) -> float:
        """Add per-host lane wait when execution slots are configured.

        The node's own :class:`NodeSlots` is preferred (installed by the
        deployment, shared by every consumer of the host); a
        coordinator-local one is kept for hosts that don't carry slots.
        """
        if self.node_slots_per_host is None:
            return service_time
        slots = None
        try:
            node = self.sm.app_server(host_id)
            slots = getattr(node, "execution_slots", None)
        except ConfigurationError:
            pass
        if slots is None:
            slots = self._node_slots.get(host_id)
            if slots is None:
                slots = NodeSlots(self.node_slots_per_host)
                self._node_slots[host_id] = slots
        return slots.occupy(self.sm.simulator.now, service_time)

    @staticmethod
    def _retime_kernels(scan_span, lane_wait: float) -> None:
        """Lay kernel child spans along the scan's simulated interval.

        The node's kernel spans open and close at a single clock instant
        (the DES clock does not advance during execution). The sampled
        service time minus the lane wait is the scan's compute window;
        apportion it across the kernel spans proportional to rows
        scanned (equally when nothing was scanned), so profiler
        breakdowns charge the compute window to kernel families and the
        residual head of the scan span to lane queueing.
        """
        kernels = [
            child for child in scan_span.children
            if child.name == "cubrick.node.kernel"
        ]
        if not kernels:
            return
        window = max(0.0, scan_span.duration - lane_wait)
        rows = [
            int(kernel.annotations.get("rows_scanned", 0))
            for kernel in kernels
        ]
        total = sum(rows)
        if total > 0:
            shares = [window * count / total for count in rows]
        else:
            shares = [window / len(kernels)] * len(kernels)
        cursor = scan_span.start + lane_wait
        for kernel, share in zip(kernels, shares):
            kernel.shift(cursor - kernel.start)
            kernel.set_duration(share)
            cursor += share

    def _hedged_service_time(
        self, host_id: str, first: float, policy: ResiliencePolicy
    ) -> tuple[float, int]:
        """Hedge a slow hop: duplicate requests, fastest answer wins.

        Returns the winning service time and the number of hedges sent.
        Hedges draw from the same deterministic RNG stream, so hedged
        runs stay byte-reproducible (and un-hedged policies draw
        nothing extra).
        """
        best = first
        used = 0
        while best > policy.hedge.trigger and used < policy.hedge.max_hedges:
            used += 1
            best = min(best, self._sample_service_time(host_id))
        return best, used

    def _forwarded_execution(
        self,
        query: Query,
        stale_host: str,
        indexes: list[int],
        original: PartitionNotFoundError,
        extra_lookups: Optional[dict[str, tuple[str, np.ndarray]]] = None,
    ) -> PartialResult:
        """Handle stale routing: ask the authoritative owner instead.

        Mirrors the graceful-migration forwarding window: the old server
        no longer has the data but the migration published a new owner.
        An owner that is down, unregistered or without the partition
        fails the attempt like any other failed host.
        """
        shards = self.directory.shards_for_table(query.table)
        partial = PartialResult(query=query)
        for index in indexes:
            shard = shards[index]
            owner = self.sm.discovery.resolve_authoritative(shard)
            if owner is None or owner == stale_host:
                raise QueryFailedError(
                    f"partition {query.table}#{index} missing on {stale_host}",
                    region=self.region,
                    host=stale_host,
                ) from original
            if not self.sm.cluster.host(owner).is_available:
                raise QueryFailedError(
                    f"authoritative owner {owner} of {query.table}#{index} "
                    f"is unavailable",
                    region=self.region,
                    host=owner,
                ) from original
            try:
                node = self.sm.app_server(owner)
                partial.merge(node.execute_local(query, [index], extra_lookups))
            except (ConfigurationError, PartitionNotFoundError) as exc:
                raise QueryFailedError(
                    f"authoritative owner {owner} cannot serve "
                    f"{query.table}#{index}: {exc}",
                    region=self.region,
                    host=owner,
                ) from exc
        return partial

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def success_ratio(self) -> float:
        if not self.executions:
            return 1.0
        succeeded = sum(1 for e in self.executions if e.succeeded)
        return succeeded / len(self.executions)

    def latencies(self) -> list[float]:
        return [e.latency for e in self.executions if e.succeeded]
