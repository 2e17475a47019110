"""SM Server: the central shard-management scheduler (paper §III-A).

The server collects shard metrics for all application servers, makes
placement decisions, orchestrates migrations (load balancing, drains,
failovers) and publishes shard→host mappings to service discovery. It is
deliberately excluded from the data path: all data movement happens
between application servers through their ``addShard``/``dropShard``
endpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster.topology import Cluster
from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    MigrationError,
    NonRetryableShardError,
    ShardAlreadyAssignedError,
    ShardNotFoundError,
)
from repro.obs import Observability
from repro.shardmanager.app_server import ApplicationServer
from repro.shardmanager.balancer import LoadBalancer, MigrationProposal
from repro.shardmanager.datastore import Datastore, Session
from repro.shardmanager.metrics import MetricsStore
from repro.shardmanager.migration import MigrationEngine
from repro.shardmanager.placement import PlacementPolicy
from repro.shardmanager.spec import ReplicationModel, ServiceSpec
from repro.sim.engine import Simulator
from repro.smc.registry import ServiceDiscovery


#: Targets tried for one failover or live migration before SM gives up
#: (a refusing target is excluded and the next best host is chosen).
PLACEMENT_ATTEMPTS = 5


class ReplicaRole(enum.Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass
class Replica:
    """One copy of a shard living on one host."""

    host_id: str
    role: ReplicaRole


@dataclass
class ShardEntry:
    """SM's bookkeeping for one shard."""

    shard_id: int
    replicas: list[Replica] = field(default_factory=list)
    # Hosts that refused this shard with a non-retryable error; placement
    # skips them (paper §IV-A: Cubrick throws on shard collisions).
    refused_hosts: set[str] = field(default_factory=set)

    def primary(self) -> Optional[Replica]:
        for replica in self.replicas:
            if replica.role is ReplicaRole.PRIMARY:
                return replica
        return None

    def hosts(self) -> set[str]:
        return {r.host_id for r in self.replicas}


class SMServer:
    """One SM service instance: scheduler + assignment table.

    Cubrick deploys three of these — one primary-only service per region
    (paper §IV-D) — each bound to a region of the shared cluster.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        simulator: Simulator,
        cluster: Cluster,
        *,
        region: Optional[str] = None,
        datastore: Optional[Datastore] = None,
        discovery: Optional[ServiceDiscovery] = None,
        heartbeat_interval: float = 10.0,
        recovery_provider: Optional[
            Callable[[int], Optional[ApplicationServer]]
        ] = None,
        obs: Optional[Observability] = None,
    ):
        self.spec = spec
        self.simulator = simulator
        self.cluster = cluster
        self.region = region
        self.obs = obs if obs is not None else Observability(
            clock=lambda: simulator.now
        )
        self.datastore = (
            datastore if datastore is not None
            else Datastore(simulator, obs=self.obs)
        )
        self.discovery = (
            discovery if discovery is not None else ServiceDiscovery(obs=self.obs)
        )
        self.metrics = MetricsStore()
        self.placement = PlacementPolicy(spec, cluster, self.metrics, obs=self.obs)
        self.balancer = LoadBalancer(spec, cluster, self.metrics, obs=self.obs)
        self.migrations = MigrationEngine(simulator, self.discovery, obs=self.obs)
        region_label = region if region is not None else "all"
        self._heartbeat_counter = self.obs.metrics.counter(
            "shardmanager.server.heartbeats", region=region_label
        )
        self._shards_created_counter = self.obs.metrics.counter(
            "shardmanager.server.shards_created", region=region_label
        )
        self._collect_counter = self.obs.metrics.counter(
            "shardmanager.server.metric_collections", region=region_label
        )
        self._failover_counter = self.obs.metrics.counter(
            "shardmanager.server.failovers", region=region_label
        )
        self._registered_gauge = self.obs.metrics.gauge(
            "shardmanager.server.registered_hosts", region=region_label
        )
        self._unplaced_gauge = self.obs.metrics.gauge(
            "shardmanager.server.unplaced_failovers", region=region_label
        )
        self._heartbeat_interval = heartbeat_interval
        self._app_servers: dict[str, ApplicationServer] = {}
        self._sessions: dict[str, Session] = {}
        self._heartbeat_cancels: dict[str, Callable[[], None]] = {}
        self._shards: dict[int, ShardEntry] = {}
        self._host_shards: dict[str, set[int]] = {}
        self.unplaced_failovers: list[int] = []  # shards we could not recover
        # Where failover data can be copied from when no same-service
        # replica survives (Cubrick: a healthy server in another region,
        # paper §IV-D). Set after construction when regions are wired.
        self.recovery_provider = recovery_provider
        self.datastore.watch_sessions(self._on_session_expired)

    # ------------------------------------------------------------------
    # Shard-map persistence (journal into the datastore)
    # ------------------------------------------------------------------
    #
    # Every authoritative shard-map mutation is journaled under
    # ``shardmap/<region>/<shard>`` so a replacement SM instance — or a
    # region rejoining after a partition, when the datastore is the
    # consensus-replicated store — can rebuild its assignment table
    # instead of starting blind. Writes are fire-and-forget (the
    # in-memory ``_shards`` stays authoritative for the live instance);
    # reads happen only in :meth:`rebuild_shard_map`.

    @property
    def _shardmap_prefix(self) -> str:
        return f"shardmap/{self.region if self.region is not None else 'all'}/"

    def _persist_shard(self, entry: ShardEntry) -> None:
        self.datastore.set(
            f"{self._shardmap_prefix}{entry.shard_id:06d}",
            tuple((r.host_id, r.role.value) for r in entry.replicas),
        )

    def _unpersist_shard(self, shard_id: int) -> None:
        self.datastore.delete(f"{self._shardmap_prefix}{shard_id:06d}")

    def rebuild_shard_map(self) -> int:
        """Rebuild the assignment table from the journaled shard map.

        The recovery path of an SM failover (and of a region rejoining
        the metadata quorum): every journaled shard that is missing or
        divergent in memory is restored and its primary republished to
        service discovery. Returns the number of shards restored.
        """
        restored = 0
        now = self.simulator.now
        for key in self.datastore.keys_with_prefix(self._shardmap_prefix):
            value = self.datastore.get(key)
            if not value:
                continue
            shard_id = int(key.rsplit("/", 1)[1])
            replicas = [
                Replica(host_id=host_id, role=ReplicaRole(role))
                for host_id, role in value
            ]
            entry = self._shards.get(shard_id)
            if entry is None:
                entry = ShardEntry(shard_id=shard_id, replicas=replicas)
                self._shards[shard_id] = entry
            elif [(r.host_id, r.role) for r in entry.replicas] == [
                (r.host_id, r.role) for r in replicas
            ]:
                continue  # memory already matches the journal
            else:
                entry.replicas = replicas
            for replica in replicas:
                self._host_shards.setdefault(replica.host_id, set()).add(
                    shard_id
                )
            primary = entry.primary() or (
                entry.replicas[0] if entry.replicas else None
            )
            if primary is not None:
                self.discovery.publish(shard_id, primary.host_id, now)
            restored += 1
        if restored:
            self.obs.events.emit(
                "shardmanager.server.shard_map_rebuilt",
                region=str(self.region),
                restored=restored,
            )
        return restored

    # ------------------------------------------------------------------
    # Host registration and heartbeats
    # ------------------------------------------------------------------

    def register_host(self, app_server: ApplicationServer) -> None:
        """Attach an application server; begins heartbeating for it.

        The heartbeat loop consults the cluster substrate: a failed host
        stops heartbeating, its datastore session expires, and the
        expiry watcher triggers failovers — exactly the Zookeeper-based
        failure-detection loop of the paper.
        """
        host_id = app_server.host_id
        if host_id not in self.cluster:
            raise ConfigurationError(f"host {host_id} is not in the cluster")
        if self.region is not None and self.cluster.host(host_id).region != self.region:
            raise ConfigurationError(
                f"host {host_id} is outside service region {self.region}"
            )
        if host_id in self._app_servers:
            raise ConfigurationError(f"host {host_id} already registered")
        self._app_servers[host_id] = app_server
        self._host_shards.setdefault(host_id, set())
        session = self.datastore.create_session(host_id)
        self._sessions[host_id] = session
        self.metrics.report_capacity(host_id, app_server.exported_capacity())

        def beat() -> None:
            current = self._sessions.get(host_id)
            if current is None or current is not session or session.expired:
                return
            if self.cluster.host(host_id).is_available:
                self.datastore.heartbeat(session)
                self._heartbeat_counter.inc()

        self._heartbeat_cancels[host_id] = self.simulator.schedule_periodic(
            self._heartbeat_interval, beat, start_delay=0.0
        )
        self._registered_gauge.set(len(self._app_servers))

    def reconnect_host(self, app_server: ApplicationServer) -> None:
        """Re-register a host whose session expired (it came back empty)."""
        host_id = app_server.host_id
        self._app_servers.pop(host_id, None)
        cancel = self._heartbeat_cancels.pop(host_id, None)
        if cancel is not None:
            cancel()
        self._sessions.pop(host_id, None)
        self.register_host(app_server)
        # Capacity returned: shards stranded by earlier failed failovers
        # can be re-placed now.
        self.retry_unplaced_failovers()

    def deregister_host(self, host_id: str) -> None:
        """Gracefully detach an *empty* host from the service.

        The inverse of :meth:`register_host`, used by planned scale-in:
        the host must already be drained (no shards assigned — call
        :meth:`drain_host` first). The datastore session is closed
        through the graceful path, so the expiry watcher never fires and
        no failover storm follows; the fleet simply shrinks by one.
        """
        if host_id not in self._app_servers:
            raise ConfigurationError(f"host {host_id} not registered")
        remaining = self._host_shards.get(host_id, set())
        if remaining:
            raise MigrationError(
                f"host {host_id} still holds {len(remaining)} shard(s) "
                f"{sorted(remaining)}; drain before deregistering"
            )
        cancel = self._heartbeat_cancels.pop(host_id, None)
        if cancel is not None:
            cancel()
        session = self._sessions.pop(host_id, None)
        if session is not None and not session.expired:
            self.datastore.close_session(session)
        self._host_shards.pop(host_id, None)
        self.metrics.remove_host(host_id)
        self._app_servers.pop(host_id, None)
        self._registered_gauge.set(len(self._app_servers))
        self.obs.events.emit(
            "shardmanager.server.host_deregistered",
            host=host_id,
            region=str(self.region),
        )

    def registered_hosts(self) -> list[str]:
        return sorted(self._app_servers)

    def app_server(self, host_id: str) -> ApplicationServer:
        try:
            return self._app_servers[host_id]
        except KeyError:
            raise ConfigurationError(f"host {host_id} not registered") from None

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------

    def create_shard(self, shard_id: int, *, size_hint: float = 0.0) -> ShardEntry:
        """Place and activate all replicas of a new shard."""
        if not 0 <= shard_id < self.spec.max_shards:
            raise ShardNotFoundError(
                f"shard {shard_id} outside key space [0, {self.spec.max_shards})"
            )
        if shard_id in self._shards:
            raise MigrationError(f"shard {shard_id} already exists")
        entry = ShardEntry(shard_id=shard_id)
        with self.obs.tracer.span(
            "shardmanager.server.create_shard",
            shard=shard_id,
            region=str(self.region),
        ) as span:
            decisions = self.placement.choose_replica_set(
                shard_id, size_hint=size_hint, region=self.region
            )
            for index, decision in enumerate(decisions):
                host_id = self._add_replica_with_retry(
                    entry, decision.host_id, size_hint, source=None
                )
                if self.spec.replication_model is ReplicationModel.SECONDARY_ONLY:
                    role = ReplicaRole.SECONDARY
                else:
                    role = (
                        ReplicaRole.PRIMARY if index == 0
                        else ReplicaRole.SECONDARY
                    )
                entry.replicas.append(Replica(host_id=host_id, role=role))
            self._shards[shard_id] = entry
            primary = entry.primary() or entry.replicas[0]
            self.discovery.publish(shard_id, primary.host_id, self.simulator.now)
            self._persist_shard(entry)
            self._shards_created_counter.inc()
            span.annotate(
                replicas=[r.host_id for r in entry.replicas],
                refused_hosts=sorted(entry.refused_hosts),
            )
        return entry

    def _add_replica_with_retry(
        self,
        entry: ShardEntry,
        first_choice: str,
        size_hint: float,
        source: Optional[ApplicationServer],
    ) -> str:
        """Call addShard, retrying on other hosts on non-retryable errors."""
        host_id = first_choice
        while True:
            app = self.app_server(host_id)
            try:
                app.add_shard(entry.shard_id, source)
            except NonRetryableShardError:
                entry.refused_hosts.add(host_id)
                self.obs.metrics.counter(
                    "shardmanager.server.shard_refusals",
                    region=str(self.region),
                ).inc()
                self.obs.events.emit(
                    "shardmanager.server.shard_refused",
                    shard=entry.shard_id,
                    host=host_id,
                    region=str(self.region),
                )
                decision = self.placement.choose_host(
                    entry.shard_id,
                    size_hint=size_hint,
                    region=self.region,
                    exclude_hosts=entry.refused_hosts | entry.hosts(),
                    exclude_domains=self._replica_domains(entry),
                )
                host_id = decision.host_id
                continue
            self._host_shards.setdefault(host_id, set()).add(entry.shard_id)
            # Record a provisional load immediately so back-to-back
            # placements don't all pile onto the same host while waiting
            # for the next metrics-collection cycle.
            if size_hint > 0:
                self.metrics.report_shard(
                    entry.shard_id, host_id, size_hint, self.simulator.now
                )
            return host_id

    def _replica_domains(self, entry: ShardEntry) -> set[str]:
        spread = self.spec.spread.value
        return {
            self.cluster.host(r.host_id).failure_domain(spread)
            for r in entry.replicas
        }

    def drop_shard(self, shard_id: int) -> None:
        """Remove a shard from every replica and from discovery."""
        entry = self._entry(shard_id)
        for replica in entry.replicas:
            app = self._app_servers.get(replica.host_id)
            if app is not None and shard_id in app.hosted_shards():
                app.drop_shard(shard_id)
            self._host_shards.get(replica.host_id, set()).discard(shard_id)
            self.metrics.drop_shard(shard_id, replica.host_id)
        del self._shards[shard_id]
        self._unpersist_shard(shard_id)
        self.discovery.publish(shard_id, None, self.simulator.now)

    def _entry(self, shard_id: int) -> ShardEntry:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ShardNotFoundError(f"shard {shard_id} not registered") from None

    def shard_entry(self, shard_id: int) -> ShardEntry:
        return self._entry(shard_id)

    def has_shard(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def shard_ids(self) -> list[int]:
        return sorted(self._shards)

    def shards_on_host(self, host_id: str) -> set[int]:
        return set(self._host_shards.get(host_id, set()))

    # ------------------------------------------------------------------
    # Metrics collection
    # ------------------------------------------------------------------

    def collect_metrics(self) -> None:
        """Pull per-shard loads and capacities from live app servers.

        Also reconciles: metrics for shards the app no longer reports
        (dropped after a graceful migration's grace window) are removed,
        so the balancer never sees phantom load.
        """
        now = self.simulator.now
        self._collect_counter.inc()
        for host_id, app in self._app_servers.items():
            if not self.cluster.host(host_id).is_available:
                continue
            self.metrics.report_capacity(host_id, app.exported_capacity())
            reported = app.shard_metrics()
            for shard_id, value in reported.items():
                self.metrics.report_shard(shard_id, host_id, value, now)
            for shard_id, __ in self.metrics.shards_on_host(host_id):
                if shard_id not in reported:
                    self.metrics.drop_shard(shard_id, host_id)

    # ------------------------------------------------------------------
    # Load balancing
    # ------------------------------------------------------------------

    def run_load_balance(self) -> list[MigrationProposal]:
        """One balancing pass: propose moves and execute them."""
        with self.obs.tracer.span(
            "shardmanager.server.load_balance", region=str(self.region)
        ) as span:
            executed = self._run_load_balance()
            span.annotate(executed=len(executed))
        return executed

    def _run_load_balance(self) -> list[MigrationProposal]:
        hosted = {
            host_id: set(shards)
            for host_id, shards in self._host_shards.items()
            if shards
        }
        forbidden: dict[int, set[str]] = {}
        for shard_id, entry in self._shards.items():
            blocked = entry.refused_hosts | entry.hosts()
            if blocked:
                forbidden[shard_id] = blocked
        proposals = self.balancer.propose(
            hosted, region=self.region, forbidden_targets=forbidden
        )
        executed: list[MigrationProposal] = []
        for proposal in proposals:
            if self._execute_move(proposal):
                executed.append(proposal)
        return executed

    def _execute_move(self, proposal: MigrationProposal) -> bool:
        """Live-migrate one shard, retrying alternate targets on refusal."""
        entry = self._shards.get(proposal.shard_id)
        if entry is None:
            return False
        source = self._app_servers.get(proposal.from_host)
        if source is None or not self.cluster.host(proposal.from_host).is_available:
            return False
        target_id = proposal.to_host
        attempts = 0
        # Hosts skipped only for this move (e.g. still holding the shard
        # inside a graceful-drop grace window) — not sticky refusals.
        transient_excluded: set[str] = set()
        while attempts < PLACEMENT_ATTEMPTS:
            attempts += 1
            target = self._app_servers.get(target_id)
            if target is None:
                return False
            try:
                self.migrations.live_migrate(
                    proposal.shard_id, source, target, reason=proposal.reason
                )
            except (NonRetryableShardError, ShardAlreadyAssignedError) as exc:
                if isinstance(exc, NonRetryableShardError):
                    entry.refused_hosts.add(target_id)
                else:
                    transient_excluded.add(target_id)
                try:
                    decision = self.placement.choose_host(
                        proposal.shard_id,
                        size_hint=proposal.shard_load,
                        region=self.region,
                        exclude_hosts=entry.refused_hosts
                        | transient_excluded
                        | entry.hosts()
                        | {proposal.from_host},
                        exclude_domains=set(),
                    )
                except CapacityExceededError:
                    return False
                target_id = decision.host_id
                continue
            self._record_replica_move(entry, proposal.from_host, target_id)
            return True
        return False

    def _record_replica_move(
        self, entry: ShardEntry, from_host: str, to_host: str
    ) -> None:
        for replica in entry.replicas:
            if replica.host_id == from_host:
                replica.host_id = to_host
                break
        self._host_shards.get(from_host, set()).discard(entry.shard_id)
        self._host_shards.setdefault(to_host, set()).add(entry.shard_id)
        self.metrics.drop_shard(entry.shard_id, from_host)
        self._persist_shard(entry)

    # ------------------------------------------------------------------
    # Drains (datacenter automation integration, paper §IV-G)
    # ------------------------------------------------------------------

    def drain_host(self, host_id: str) -> int:
        """Gracefully move every shard off a host; returns shards moved."""
        moved = 0
        for shard_id in sorted(self.shards_on_host(host_id)):
            entry = self._shards.get(shard_id)
            if entry is None:
                continue
            load = self.metrics.shard_load(shard_id, host_id)
            proposal = MigrationProposal(
                shard_id=shard_id,
                from_host=host_id,
                to_host=self._pick_drain_target(entry, host_id, load),
                shard_load=load,
                reason="drain",
            )
            if proposal.to_host and self._execute_move(proposal):
                moved += 1
        return moved

    def _pick_drain_target(
        self, entry: ShardEntry, from_host: str, load: float
    ) -> str:
        try:
            decision = self.placement.choose_host(
                entry.shard_id,
                size_hint=load,
                region=self.region,
                exclude_hosts=entry.refused_hosts | entry.hosts() | {from_host},
                exclude_domains=set(),
            )
        except CapacityExceededError:
            return ""
        return decision.host_id

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _on_session_expired(self, host_id: str) -> None:
        """Datastore told us heartbeats stopped: fail over its shards."""
        self._sessions.pop(host_id, None)
        cancel = self._heartbeat_cancels.pop(host_id, None)
        if cancel is not None:
            cancel()
        lost = sorted(self._host_shards.get(host_id, set()))
        self._host_shards[host_id] = set()
        self.metrics.remove_host(host_id)
        self._app_servers.pop(host_id, None)
        self._registered_gauge.set(len(self._app_servers))
        for shard_id in lost:
            self._failover_replica(shard_id, host_id)

    def _failover_replica(self, shard_id: int, failed_host: str) -> None:
        entry = self._shards.get(shard_id)
        if entry is None:
            return
        failed_replica = None
        for replica in entry.replicas:
            if replica.host_id == failed_host:
                failed_replica = replica
                break
        if failed_replica is None:
            return

        survivors = [r for r in entry.replicas if r.host_id != failed_host]
        # Primary-secondary: promote a secondary first (paper §III-A2),
        # then allocate a replacement secondary.
        if (
            failed_replica.role is ReplicaRole.PRIMARY
            and self.spec.replication_model is ReplicationModel.PRIMARY_SECONDARY
            and survivors
        ):
            promoted = survivors[0]
            promoted.role = ReplicaRole.PRIMARY
            self.discovery.publish(shard_id, promoted.host_id, self.simulator.now)
            failed_replica.role = ReplicaRole.SECONDARY
            self._persist_shard(entry)

        recovery_source = None
        for replica in survivors:
            app = self._app_servers.get(replica.host_id)
            if app is not None and self.cluster.host(replica.host_id).is_available:
                recovery_source = app
                break
        if recovery_source is None and self.recovery_provider is not None:
            # No same-service replica survives: recover the data from
            # wherever the application keeps a healthy copy (Cubrick:
            # a different region, paper §IV-D).
            recovery_source = self.recovery_provider(shard_id)
            if recovery_source is None:
                # Every healthy copy — in-region survivors *and* the
                # cross-region donors — is down right now. Proceeding
                # would hand the replacement an empty shard and silently
                # lose rows; defer until a donor returns and let
                # retry_unplaced_failovers (host reconnect / balance
                # loop) finish the job.
                self.unplaced_failovers.append(shard_id)
                self._unplaced_gauge.set(len(self.unplaced_failovers))
                self.obs.events.emit(
                    "shardmanager.server.failover_deferred",
                    shard=shard_id,
                    failed_host=failed_host,
                    region=str(self.region),
                    reason="no_healthy_donor",
                )
                return

        load = self.metrics.shard_load(shard_id, failed_host)
        replacement_is_published = (
            failed_replica.role is ReplicaRole.PRIMARY or len(entry.replicas) == 1
        )
        transient_excluded: set[str] = set()
        for __ in range(PLACEMENT_ATTEMPTS):
            try:
                decision = self.placement.choose_host(
                    shard_id,
                    size_hint=load,
                    region=self.region,
                    exclude_hosts=entry.refused_hosts
                    | transient_excluded
                    | entry.hosts(),
                    exclude_domains=self._replica_domains(
                        ShardEntry(shard_id=shard_id, replicas=survivors)
                    ),
                )
            except CapacityExceededError:
                break
            target = self._app_servers.get(decision.host_id)
            if target is None:
                transient_excluded.add(decision.host_id)
                continue
            try:
                self.migrations.failover(
                    shard_id,
                    target,
                    failed_host=failed_host,
                    recovery_source=recovery_source,
                    publish=replacement_is_published,
                )
            except NonRetryableShardError:
                entry.refused_hosts.add(decision.host_id)
                continue
            except ShardAlreadyAssignedError:
                transient_excluded.add(decision.host_id)
                continue
            failed_replica.host_id = decision.host_id
            self._host_shards.setdefault(decision.host_id, set()).add(shard_id)
            self._persist_shard(entry)
            self._failover_counter.inc()
            return
        self.unplaced_failovers.append(shard_id)
        self._unplaced_gauge.set(len(self.unplaced_failovers))
        self.obs.events.emit(
            "shardmanager.server.failover_unplaced",
            shard=shard_id,
            failed_host=failed_host,
            region=str(self.region),
        )

    def retry_unplaced_failovers(self) -> int:
        """Retry shards whose failover found no eligible host earlier.

        Called when capacity returns (a host reconnects) and from the
        periodic loops; returns the number of shards recovered.
        """
        pending = list(dict.fromkeys(self.unplaced_failovers))
        if not pending:
            return 0
        self.unplaced_failovers = []
        self._unplaced_gauge.set(0)
        recovered = 0
        for shard_id in pending:
            entry = self._shards.get(shard_id)
            if entry is None:
                continue
            orphans = [
                r for r in entry.replicas
                if shard_id not in self._host_shards.get(r.host_id, set())
            ]
            if not orphans:
                continue
            for replica in orphans:
                before = len(self.unplaced_failovers)
                # A retry is just a failover whose "failed host" is the
                # stale replica location.
                self._failover_replica(shard_id, replica.host_id)
                if len(self.unplaced_failovers) == before:
                    recovered += 1
        return recovered

    # ------------------------------------------------------------------
    # Background loops
    # ------------------------------------------------------------------

    def start(
        self,
        *,
        collect_interval: float = 60.0,
        balance_interval: float = 300.0,
        until: Optional[float] = None,
    ) -> None:
        """Schedule the periodic metric-collection and balancing loops."""
        self.simulator.schedule_periodic(
            collect_interval, self.collect_metrics, until=until
        )
        self.simulator.schedule_periodic(
            balance_interval, self.run_load_balance, until=until
        )
        self.simulator.schedule_periodic(
            balance_interval, self.retry_unplaced_failovers, until=until
        )
