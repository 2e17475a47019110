"""`ReplicatedDatastore`: the Datastore interface over the consensus log.

Drop-in replacement for :class:`~repro.shardmanager.datastore.Datastore`
— same constructor shape, same session/ephemeral/watch semantics — but
persistent keys are backed by the region's consensus replica instead of
a process-local dict:

* ``set``/``delete`` **propose** through the replicated log. If the
  local replica leads, the proposal is appended directly; otherwise it
  is forwarded to the acting leader when the round-trip link is up.
  When no leader is reachable (partition, election in progress) the
  write parks in an ordered pending buffer drained by a periodic retry
  — the SM server's own in-memory state keeps it operational while
  persistence catches up, which is exactly a journal's contract.
  Writes therefore become visible to reads only once *committed* (a few
  hundred virtual milliseconds later), never lost once acked by a
  majority.
* ``get``/``keys_with_prefix`` serve from the local applied state under
  a **leader lease**, else fall back to a **quorum read** (freshest
  reachable majority replica). When no majority is reachable the read
  degrades to the local applied state — stale but available — and the
  ``consensus.quorum_read_fallbacks`` counter records it.
* Sessions, heartbeats, watches and ephemeral keys stay region-local
  (they are liveness signals about *this* region's hosts; replicating
  them would let a partitioned peer expire sessions it cannot observe).
"""

from __future__ import annotations

from typing import Any

from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.shardmanager.datastore import Datastore

from repro.consensus.group import MetadataCluster
from repro.consensus.node import LEADER
from repro.errors import QuorumUnavailableError

_MISSING = object()

#: How often parked writes retry finding a reachable leader.
PENDING_RETRY_INTERVAL = 1.0


class ReplicatedDatastore(Datastore):
    """Region-local front end to the replicated metadata log."""

    def __init__(
        self,
        simulator: Simulator,
        cluster: MetadataCluster,
        region: str,
        *,
        session_timeout: float = 30.0,
        check_interval: float = 5.0,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            simulator,
            session_timeout=session_timeout,
            check_interval=check_interval,
            obs=obs,
        )
        self.cluster = cluster
        self.region = region
        self._pending: list[tuple] = []  # ordered, not yet proposed
        labels = {"region": region}
        self._proposal_counter = self.obs.metrics.counter(
            "consensus.store.proposals", **labels
        )
        self._parked_counter = self.obs.metrics.counter(
            "consensus.store.parked_writes", **labels
        )
        self._fallback_counter = self.obs.metrics.counter(
            "consensus.quorum_read_fallbacks", **labels
        )
        self._leased_counter = self.obs.metrics.counter(
            "consensus.store.leased_reads", **labels
        )
        self._cancel_drain = simulator.schedule_periodic(
            PENDING_RETRY_INTERVAL, self._drain_pending
        )

    # ------------------------------------------------------------------
    # Write path: propose through the log
    # ------------------------------------------------------------------

    @property
    def _node(self):
        return self.cluster.nodes[self.region]

    @property
    def _machine(self):
        return self.cluster.machines[self.region]

    def _try_propose(self, command: tuple) -> bool:
        node = self._node
        if node.crashed:
            return False
        if node.role == LEADER:
            proposed = node.propose(command) is not None
        else:
            target = self.cluster.leader()
            if target is None or not self.cluster.can_route(
                self.region, target
            ):
                return False
            proposed = self.cluster.propose(command, region=target) is not None
        if proposed:
            self._proposal_counter.inc()
        return proposed

    def _submit(self, command: tuple) -> None:
        # Order preservation: while anything is parked, new writes must
        # queue behind it rather than jump ahead.
        if self._pending or not self._try_propose(command):
            self._pending.append(command)
            self._parked_counter.inc()

    def _drain_pending(self) -> None:
        while self._pending:
            if not self._try_propose(self._pending[0]):
                return
            self._pending.pop(0)

    def set(self, key: str, value: Any) -> None:
        self._submit(("set", key, value))

    def delete(self, key: str) -> None:
        self._submit(("delete", key))
        self._data.pop(key, None)  # the key may be a local ephemeral

    # ------------------------------------------------------------------
    # Read path: leased local, quorum, or degraded-local
    # ------------------------------------------------------------------

    def _replicated_get(self, key: str) -> Any:
        node = self._node
        if not node.crashed and node.has_lease(self._simulator.now):
            self._leased_counter.inc()
            return self._machine.get(key, _MISSING)
        try:
            return self.cluster.quorum_read(self.region, key, _MISSING)
        except QuorumUnavailableError:
            self._fallback_counter.inc()
            return self._machine.get(key, _MISSING)

    def get(self, key: str, default: Any = None) -> Any:
        value = self._replicated_get(key)
        if value is not _MISSING:
            return value
        return self._data.get(key, default)

    def keys_with_prefix(self, prefix: str) -> list[str]:
        node = self._node
        if not node.crashed and node.has_lease(self._simulator.now):
            self._leased_counter.inc()
            replicated = self._machine.keys_with_prefix(prefix)
        else:
            try:
                replicated = self.cluster.quorum_keys_with_prefix(
                    self.region, prefix
                )
            except QuorumUnavailableError:
                self._fallback_counter.inc()
                replicated = self._machine.keys_with_prefix(prefix)
        local = [k for k in self._data if k.startswith(prefix)]
        return sorted(set(replicated) | set(local))

    def shutdown(self) -> None:
        self._cancel_drain()
        super().shutdown()
