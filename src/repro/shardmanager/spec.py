"""Service registration specs for Shard Manager.

Applications using SM must (paper §III-A):

  (a) implement a partitioning scheme mapping application keys to shards
      (done in :mod:`repro.cubrick.sharding` for Cubrick),
  (b) provide system metrics used for load balancing
      (:mod:`repro.shardmanager.metrics`), and
  (c) specify shard replication and placement configuration — this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class ReplicationModel(enum.Enum):
    """The three SM fault-tolerance models (paper §III-A1)."""

    PRIMARY_ONLY = "primary_only"
    PRIMARY_SECONDARY = "primary_secondary"
    SECONDARY_ONLY = "secondary_only"


class SpreadDomain(enum.Enum):
    """How replicas of one shard must be spread across failure domains."""

    HOST = "host"
    RACK = "rack"
    REGION = "region"


@dataclass(frozen=True)
class ServiceSpec:
    """Configuration for one SM-managed service.

    ``max_shards`` defines SM's flat key space ``[0..max_shards)``; the
    paper notes usual deployments sit between 100k and 1M total shards.
    ``replication_factor`` counts *secondary* replicas (0 means a single
    copy, matching the paper's phrasing "replication factor is zero" for
    primary-only).
    """

    name: str
    max_shards: int = 100_000
    replication_model: ReplicationModel = ReplicationModel.PRIMARY_ONLY
    replication_factor: int = 0
    spread: SpreadDomain = SpreadDomain.HOST
    # Load balancing (paper §III-A3): throttle migrations per LB run.
    max_migrations_per_run: int = 16
    # A host is "overloaded" when its load exceeds the fleet mean by this
    # relative tolerance; the balancer then moves shards toward the mean.
    load_imbalance_tolerance: float = 0.15
    # Fraction of exported capacity that placements may fill.
    capacity_headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.max_shards <= 0:
            raise ConfigurationError(f"max_shards must be positive: {self.max_shards}")
        if self.replication_factor < 0:
            raise ConfigurationError(
                f"replication_factor must be non-negative: {self.replication_factor}"
            )
        if (
            self.replication_model is ReplicationModel.PRIMARY_ONLY
            and self.replication_factor != 0
        ):
            raise ConfigurationError(
                "primary-only replication requires replication_factor == 0"
            )
        if (
            self.replication_model is not ReplicationModel.PRIMARY_ONLY
            and self.replication_factor < 1
        ):
            raise ConfigurationError(
                f"{self.replication_model.value} requires replication_factor >= 1"
            )
        if self.max_migrations_per_run < 0:
            raise ConfigurationError(
                f"max_migrations_per_run must be non-negative: "
                f"{self.max_migrations_per_run}"
            )
        if self.load_imbalance_tolerance < 0:
            raise ConfigurationError(
                f"load_imbalance_tolerance must be non-negative: "
                f"{self.load_imbalance_tolerance}"
            )
        if not 0.0 < self.capacity_headroom <= 1.0:
            raise ConfigurationError(
                f"capacity_headroom must be in (0, 1]: {self.capacity_headroom}"
            )

    @property
    def replicas_per_shard(self) -> int:
        """Total copies of each shard (one primary plus secondaries)."""
        if self.replication_model is ReplicationModel.SECONDARY_ONLY:
            # All replicas play the same role; replication_factor counts
            # the copies beyond the first.
            return 1 + self.replication_factor
        return 1 + self.replication_factor
