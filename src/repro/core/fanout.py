"""Fan-out policy: full sharding vs. partial sharding (paper §II).

A *fully-sharded* table spreads across every node in the cluster, so its
query fan-out equals the cluster size and grows as the system scales
out — straight into the scalability wall. A *partially-sharded* table
is confined to a fixed (size-derived) number of partitions, so its
fan-out is independent of cluster size.

:class:`FanoutPolicy` decides the partition count for a new table under
either mode, and :class:`SlaPlanner` checks fan-outs against the wall.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.wall import query_success_ratio, scalability_wall
from repro.cubrick.partitioning import PartitioningPolicy
from repro.errors import ConfigurationError


class ShardingMode(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"


@dataclass(frozen=True)
class FanoutPolicy:
    """Chooses the number of partitions (= fan-out) for a new table."""

    mode: ShardingMode = ShardingMode.PARTIAL
    partitioning: PartitioningPolicy = PartitioningPolicy()

    def partitions_for_new_table(
        self, cluster_hosts: int, *, expected_rows: int | None = None
    ) -> int:
        """Partition count for a table at creation time.

        Full sharding always spans the whole cluster. Partial sharding
        starts at the policy's initial count (8), or — when the expected
        size is known up front — enough partitions to respect the
        per-partition row ceiling.
        """
        if cluster_hosts <= 0:
            raise ConfigurationError(
                f"cluster_hosts must be positive: {cluster_hosts}"
            )
        if self.mode is ShardingMode.FULL:
            return cluster_hosts
        count = self.partitioning.initial_partitions
        if expected_rows is not None and expected_rows > 0:
            while (
                expected_rows / count > self.partitioning.max_rows_per_partition
                and count < self.partitioning.max_partitions
            ):
                count *= 2
            count = min(count, self.partitioning.max_partitions)
        return min(count, cluster_hosts) if self.mode is ShardingMode.PARTIAL else count


@dataclass(frozen=True)
class SlaPlanner:
    """Evaluates fan-outs against the scalability wall."""

    failure_probability: float
    sla: float

    @property
    def max_safe_fanout(self) -> int:
        """The wall: the largest SLA-compliant fan-out."""
        return scalability_wall(self.failure_probability, self.sla)

    def meets_sla(self, fanout: int) -> bool:
        return query_success_ratio(fanout, self.failure_probability) >= self.sla

    def headroom(self, fanout: int) -> int:
        """How much further the fan-out can grow before hitting the wall."""
        return self.max_safe_fanout - fanout
