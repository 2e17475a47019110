"""Online resharding: change a table's sharding degree without downtime.

``CubrickDeployment._repartition`` is a *stop-the-world* shuffle: it
tears the old layout down before building the new one, so a query
arriving mid-shuffle would find the table gone. That is fine for an
experiment harness, but an elastic control plane reshards *live* tables
under query traffic. This planner runs the same data shuffle as a
staged, generation-tagged state machine instead::

    STAGING   register ``table@gN`` alias, materialise shards in every
              region, copy a snapshot of the serving layout into it
              (one atomic simulator event); from the same instant every
              ingest path dual-writes both layouts.
    VERIFY    per-region row totals of the staged layout must match the
              serving layout; a mismatch aborts (staged layout is torn
              down, serving layout untouched).
    CUTOVER   one atomic catalog flip: ``serving_physical``,
              ``num_partitions`` and ``generation`` change together.
              Queries routed before the flip keep using the old layout
              (still fully intact); queries after it use the new one —
              both answer correctly, which is the mid-reshard
              correctness guarantee.
    CLEANUP   after a grace period (straggling in-flight queries), the
              old physical layout is unregistered and detached.

The planner also *decides*: ``evaluate()`` widens a table when its
hottest partition crosses the row threshold (and host capacity allows),
narrows it when utilization sags — the same thresholds as
``PartitioningPolicy``, now applied online.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cubrick.partitioning import PartitioningPolicy
from repro.cubrick.sharding import generation_alias
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import CubrickDeployment


class ReshardState(enum.Enum):
    STAGING = "staging"
    VERIFYING = "verifying"
    CUT_OVER = "cut_over"
    DONE = "done"
    ABORTED = "aborted"


@dataclass(frozen=True)
class ReshardSpec:
    """Timing knobs for the staged reshard pipeline."""

    verify_delay: float = 10.0  # staging -> verification
    verify_max_attempts: int = 3  # retries when a region is unreadable
    cutover_delay: float = 5.0  # verified -> catalog flip
    cleanup_grace: float = 30.0  # flip -> old layout teardown
    capacity_headroom: float = 0.75  # fraction of hosts a table may span

    def __post_init__(self) -> None:
        if self.verify_delay < 0 or self.cutover_delay < 0:
            raise ConfigurationError("reshard delays must be non-negative")
        if self.cleanup_grace < 0:
            raise ConfigurationError(
                f"cleanup_grace must be non-negative: {self.cleanup_grace}"
            )
        if not 0 < self.capacity_headroom <= 1:
            raise ConfigurationError(
                f"capacity_headroom must be in (0, 1]: {self.capacity_headroom}"
            )


@dataclass
class ReshardOperation:
    """Progress record for one online reshard."""

    table: str
    from_count: int
    to_count: int
    old_physical: str
    new_physical: str
    started: float
    state: ReshardState = ReshardState.STAGING
    finished: Optional[float] = None
    rows_copied: int = 0
    verify_attempts: int = 0
    note: str = ""

    @property
    def widened(self) -> bool:
        return self.to_count > self.from_count


@dataclass
class ReshardPlanner:
    """Adjusts tables' partial-sharding degree online."""

    deployment: "CubrickDeployment"
    spec: ReshardSpec = field(default_factory=ReshardSpec)
    policy: Optional[PartitioningPolicy] = None

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = self.deployment.config.partitioning
        self.operations: list[ReshardOperation] = []
        obs = self.deployment.obs
        self._started_counter = obs.metrics.counter("autoscale.reshard.started")
        self._done_counter = obs.metrics.counter("autoscale.reshard.completed")
        self._aborted_counter = obs.metrics.counter("autoscale.reshard.aborted")

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

    def evaluate(self, table: str,
                 *, max_count: Optional[int] = None) -> Optional[ReshardOperation]:
        """Start a reshard if the policy thresholds demand one.

        Widening is bounded by host capacity (every partition needs a
        collision-free host in every region) exactly like the offline
        path; undersized fleets simply defer the widen. ``max_count``
        adds an external ceiling — the wall-breach controller passes
        its fan-out cap here so load-driven widening can never push a
        table past the scalability wall.
        """
        info = self.deployment.catalog.get(table)
        if info.replicated or info.resharding:
            return None
        counts = self.deployment._partition_row_counts(table)
        if not counts:
            return None
        new_count = self.policy.next_partition_count(
            info.num_partitions, max(counts), sum(counts)
        )
        if new_count > info.num_partitions:
            new_count = min(new_count, self._capacity_bound())
            if max_count is not None:
                new_count = min(new_count, max_count)
            if new_count <= info.num_partitions:
                return None
        if new_count == info.num_partitions or new_count <= 0:
            return None
        return self.begin(table, new_count)

    def _capacity_bound(self) -> int:
        capacity = min(
            sum(
                1
                for host in self.deployment.cluster.placeable_hosts(region)
                if host.host_id in sm.registered_hosts()
            )
            for region, sm in self.deployment.sm_servers.items()
        )
        return max(1, int(capacity * self.spec.capacity_headroom))

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def begin(self, table: str, new_count: int) -> ReshardOperation:
        """STAGING: build the next-generation layout alongside serving."""
        deployment = self.deployment
        info = deployment.catalog.get(table)
        if info.replicated:
            raise ConfigurationError(f"table {table} is replicated")
        if info.resharding:
            raise ConfigurationError(
                f"table {table} is already resharding to {info.pending_physical}"
            )
        if new_count <= 0:
            raise ConfigurationError(f"new_count must be positive: {new_count}")
        if new_count == info.num_partitions:
            raise ConfigurationError(
                f"table {table} already has {new_count} partitions"
            )
        sim = deployment.simulator
        old_physical = info.physical_table
        new_physical = generation_alias(table, info.generation + 1)
        op = ReshardOperation(
            table=table,
            from_count=info.num_partitions,
            to_count=new_count,
            old_physical=old_physical,
            new_physical=new_physical,
            started=sim.now,
        )
        self.operations.append(op)
        self._started_counter.inc()

        # Everything below happens inside one simulator event, so the
        # snapshot copy and the switch-on of dual-writes are atomic with
        # respect to loads and queries: no row can slip between them.
        new_shards = deployment.directory.register_table(new_physical, new_count)
        deployment._materialize_table(new_physical, new_shards)
        columns = deployment._layout_columns(old_physical, info.num_partitions)
        deployment._load_into_layout(new_physical, info.schema, new_count, columns)
        op.rows_copied = len(columns[info.schema.dimensions[0].name])
        info.pending_physical = new_physical
        info.pending_partitions = new_count

        # The staged shards landed wherever placement chose; spread them
        # through the live migration engine before traffic cuts over.
        for sm in deployment.sm_servers.values():
            sm.collect_metrics()
            sm.run_load_balance()

        deployment.obs.events.emit(
            "autoscale.reshard.staged",
            table=table, physical=new_physical,
            from_partitions=op.from_count, to_partitions=op.to_count,
            rows=op.rows_copied,
        )
        op.state = ReshardState.VERIFYING
        sim.call_later(self.spec.verify_delay, lambda: self._verify(op))
        return op

    def _verify(self, op: ReshardOperation) -> None:
        """VERIFY: staged layout must agree with serving, per region."""
        deployment = self.deployment
        if op.table not in deployment.catalog:
            self._abort(op, "table dropped mid-reshard", teardown=False)
            return
        info = deployment.catalog.get(op.table)
        op.verify_attempts += 1
        for region, sm in deployment.sm_servers.items():
            serving = self._region_rows(sm, op.old_physical, op.from_count)
            staged = self._region_rows(sm, op.new_physical, op.to_count)
            if serving is None or staged is None:
                # A replica owner is unreachable (failover in flight):
                # inconclusive, not wrong. Retry a bounded number of
                # times before giving up.
                if op.verify_attempts < self.spec.verify_max_attempts:
                    deployment.simulator.call_later(
                        self.spec.verify_delay, lambda: self._verify(op)
                    )
                else:
                    self._abort(op, f"region {region} unreadable during verify")
                return
            if serving != staged:
                self._abort(
                    op,
                    f"row mismatch in {region}: serving={serving} "
                    f"staged={staged}",
                )
                return
        deployment.obs.events.emit(
            "autoscale.reshard.verified",
            table=op.table, physical=op.new_physical,
            attempts=op.verify_attempts,
        )
        deployment.simulator.call_later(
            self.spec.cutover_delay, lambda: self._cutover(op)
        )
        del info  # catalog entry re-read at cutover time

    def _region_rows(self, sm, physical: str, count: int) -> Optional[int]:
        shards = self.deployment.directory.shards_for_table(physical)
        total = 0
        for index in range(count):
            owner = sm.discovery.resolve_authoritative(shards[index])
            if owner is None or owner not in sm.registered_hosts():
                return None
            node = sm.app_server(owner)
            if not node.has_partition(physical, index):
                return None
            total += node.partition(physical, index).rows
        return total

    def _cutover(self, op: ReshardOperation) -> None:
        """CUTOVER: one atomic catalog flip to the staged layout."""
        deployment = self.deployment
        if op.table not in deployment.catalog:
            self._abort(op, "table dropped mid-reshard", teardown=False)
            return
        info = deployment.catalog.get(op.table)
        if info.pending_physical != op.new_physical:
            self._abort(op, "pending layout changed under the operation")
            return
        info.serving_physical = op.new_physical
        info.num_partitions = op.to_count
        info.generation += 1
        info.pending_physical = ""
        info.pending_partitions = 0
        # Refresh the proxy's cached partition count immediately; the
        # generation tag makes straggling old-layout results harmless.
        deployment.proxy.locator.observe_result(
            op.table, op.to_count, info.generation
        )
        op.state = ReshardState.CUT_OVER
        deployment.obs.events.emit(
            "autoscale.reshard.cut_over",
            table=op.table, physical=op.new_physical,
            partitions=op.to_count, generation=info.generation,
        )
        deployment.simulator.call_later(
            self.spec.cleanup_grace, lambda: self._cleanup(op)
        )

    def _cleanup(self, op: ReshardOperation) -> None:
        """CLEANUP: tear down the old physical layout."""
        deployment = self.deployment
        self._teardown_layout(op.old_physical)
        op.state = ReshardState.DONE
        op.finished = deployment.simulator.now
        self._done_counter.inc()
        deployment.obs.events.emit(
            "autoscale.reshard.completed",
            table=op.table, physical=op.new_physical,
            partitions=op.to_count,
        )

    def _abort(self, op: ReshardOperation, note: str,
               *, teardown: bool = True) -> None:
        deployment = self.deployment
        if teardown and op.table in deployment.catalog:
            info = deployment.catalog.get(op.table)
            if info.pending_physical == op.new_physical:
                info.pending_physical = ""
                info.pending_partitions = 0
            self._teardown_layout(op.new_physical)
        op.state = ReshardState.ABORTED
        op.finished = deployment.simulator.now
        op.note = note
        self._aborted_counter.inc()
        deployment.obs.events.emit(
            "autoscale.reshard.aborted", table=op.table, reason=note
        )

    def _teardown_layout(self, physical: str) -> None:
        deployment = self.deployment
        try:
            shards = deployment.directory.shards_for_table(physical)
        except Exception:
            return
        deployment.directory.unregister_table(physical)
        deployment._detach_table(physical, shards)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def active(self) -> list[ReshardOperation]:
        return [
            op for op in self.operations
            if op.state in (
                ReshardState.STAGING,
                ReshardState.VERIFYING,
                ReshardState.CUT_OVER,
            )
        ]
