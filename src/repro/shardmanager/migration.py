"""Shard migration workflows (paper §III-A2, §IV-E).

Two kinds of migration exist:

* **Live migration** — the old server is healthy. SM uses the *graceful*
  protocol so primaries move with zero downtime::

      prepareAddShard(s1) on newServer   # copy data from oldServer
      prepareDropShard(s1) on oldServer  # start forwarding to newServer
      addShard(s1) on newServer          # newServer serves all sources
      publish(s1 -> newServer) in SMC    # propagates over a few seconds
      dropShard(s1) on oldServer         # after SMC propagation settles

* **Failover** — the old server is unavailable; the protocol collapses to
  a single ``addShard`` on the target (which recovers data from a healthy
  replica, e.g. another region for Cubrick) plus the SMC publish.

Each executed migration is recorded (Figure 4d counts these per day).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MigrationError
from repro.obs import Observability
from repro.shardmanager.app_server import ApplicationServer
from repro.sim.engine import Simulator
from repro.smc.registry import ServiceDiscovery


@dataclass(frozen=True)
class MigrationRecord:
    """One completed (or started, for graceful drops in flight) migration."""

    time: float
    shard_id: int
    from_host: Optional[str]
    to_host: str
    reason: str  # load_balance | drain | failover | manual
    graceful: bool


class MigrationEngine:
    """Executes migration workflows against application servers + SMC."""

    def __init__(
        self,
        simulator: Simulator,
        discovery: ServiceDiscovery,
        *,
        drop_grace_period: Optional[float] = None,
        obs: Optional[Observability] = None,
    ):
        self._simulator = simulator
        self._discovery = discovery
        self.obs = obs if obs is not None else Observability()
        # Cubrick waits out SMC's usual propagation delay before deleting
        # data on the old server (paper §IV-E).
        if drop_grace_period is None:
            drop_grace_period = discovery.tree.max_expected_delay()
        if drop_grace_period < 0:
            raise MigrationError(
                f"drop_grace_period must be non-negative: {drop_grace_period}"
            )
        self.drop_grace_period = drop_grace_period
        self.log: list[MigrationRecord] = []

    # ------------------------------------------------------------------
    # Workflows
    # ------------------------------------------------------------------

    def live_migrate(
        self,
        shard_id: int,
        source: ApplicationServer,
        target: ApplicationServer,
        *,
        reason: str = "load_balance",
    ) -> MigrationRecord:
        """Graceful zero-downtime migration of one shard.

        Raises whatever the target's ``prepare_add_shard`` raises —
        including the non-retryable collision error Cubrick throws — in
        which case nothing was changed and the caller should try another
        target.
        """
        if source.host_id == target.host_id:
            raise MigrationError(
                f"shard {shard_id}: source and target are both {source.host_id}"
            )
        with self.obs.tracer.span(
            "shardmanager.migration.live_migrate",
            shard=shard_id, reason=reason,
        ) as span:
            span.annotate(from_host=source.host_id, to_host=target.host_id)
            target.prepare_add_shard(shard_id, source)
            source.prepare_drop_shard(shard_id, target)
            target.commit_add_shard(shard_id)
            self._discovery.publish(shard_id, target.host_id, self._simulator.now)

        def finish_drop() -> None:
            source.drop_shard(shard_id)

        self._simulator.call_later(self.drop_grace_period, finish_drop)
        record = MigrationRecord(
            time=self._simulator.now,
            shard_id=shard_id,
            from_host=source.host_id,
            to_host=target.host_id,
            reason=reason,
            graceful=True,
        )
        self.log.append(record)
        self._record_obs(record)
        return record

    def failover(
        self,
        shard_id: int,
        target: ApplicationServer,
        *,
        failed_host: Optional[str] = None,
        recovery_source: Optional[ApplicationServer] = None,
        publish: bool = True,
    ) -> MigrationRecord:
        """Failover: old server is gone; target recovers and takes over.

        ``recovery_source`` is where the data can be copied from (for
        Cubrick, a healthy server in a different region); ``None`` means
        the application recovers from its own durability mechanism.
        ``publish=False`` skips the SMC publication — used when the
        replacement replica is a secondary and discovery must keep
        pointing at the (possibly just-promoted) primary.
        """
        with self.obs.tracer.span(
            "shardmanager.migration.failover", shard=shard_id
        ) as span:
            span.annotate(
                failed_host=str(failed_host),
                to_host=target.host_id,
                recovered_from=(
                    recovery_source.host_id if recovery_source is not None else None
                ),
            )
            target.add_shard(shard_id, recovery_source)
            if publish:
                self._discovery.publish(
                    shard_id, target.host_id, self._simulator.now
                )
        record = MigrationRecord(
            time=self._simulator.now,
            shard_id=shard_id,
            from_host=failed_host,
            to_host=target.host_id,
            reason="failover",
            graceful=False,
        )
        self.log.append(record)
        self._record_obs(record)
        return record

    def _record_obs(self, record: MigrationRecord) -> None:
        self.obs.metrics.counter(
            "shardmanager.migration.completed", reason=record.reason
        ).inc()
        self.obs.events.emit(
            "shardmanager.migration.completed",
            shard=record.shard_id,
            from_host=str(record.from_host),
            to_host=record.to_host,
            reason=record.reason,
            graceful=record.graceful,
        )

    # ------------------------------------------------------------------
    # Reporting (Figure 4d)
    # ------------------------------------------------------------------

    def migrations_per_day(self, horizon_days: int) -> list[int]:
        """Migrations executed in each simulated day."""
        if horizon_days <= 0:
            raise ValueError(f"horizon_days must be positive: {horizon_days}")
        buckets = [0] * horizon_days
        for record in self.log:
            day = int(record.time // 86400.0)
            if 0 <= day < horizon_days:
                buckets[day] += 1
        return buckets

    def count_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.log:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts
