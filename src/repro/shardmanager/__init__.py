"""Shard Manager (SM): sharding-as-a-service (paper §III).

SM abstracts shard placement, migration and failover, load balancing,
replica management, resource-constraint checks and machine-automation
integration away from applications. An application (like Cubrick) only:

  (a) maps its keys to SM's flat shard space,
  (b) exports per-shard load metrics and host capacities, and
  (c) implements the ``addShard``/``dropShard`` endpoints (plus the
      ``prepare*`` pair for graceful migration).

Components mirror the paper's Figure 3: :class:`SMServer` (central
scheduler), :class:`ApplicationServer` (user services hosting shards),
:class:`Datastore` (Zookeeper-like heartbeats + persistent state), and
:class:`~repro.smc.ServiceDiscovery` from :mod:`repro.smc`. The SM
Client's role (resolve a shard through discovery, forward on a stale
mapping) is played by the region coordinator's routing
(:class:`~repro.cubrick.coordinator.RegionCoordinator`).
"""

from repro.shardmanager.app_server import (
    ApplicationServer,
    InMemoryApplicationServer,
)
from repro.shardmanager.balancer import LoadBalancer, MigrationProposal
from repro.shardmanager.datastore import Datastore, Session
from repro.shardmanager.metrics import MetricsStore, MovingAverage
from repro.shardmanager.migration import MigrationEngine, MigrationRecord
from repro.shardmanager.placement import PlacementDecision, PlacementPolicy
from repro.shardmanager.server import Replica, ReplicaRole, ShardEntry, SMServer
from repro.shardmanager.spec import ReplicationModel, ServiceSpec, SpreadDomain

__all__ = [
    "ApplicationServer",
    "InMemoryApplicationServer",
    "LoadBalancer",
    "MigrationProposal",
    "Datastore",
    "Session",
    "MetricsStore",
    "MovingAverage",
    "MigrationEngine",
    "MigrationRecord",
    "PlacementDecision",
    "PlacementPolicy",
    "SMServer",
    "ShardEntry",
    "Replica",
    "ReplicaRole",
    "ReplicationModel",
    "ServiceSpec",
    "SpreadDomain",
]
