"""A replication group: one consensus replica per region, plus safety books.

:class:`MetadataCluster` owns the transport, the per-region
:class:`~repro.consensus.node.RaftNode` replicas, and a per-region
applied state machine (a deterministic KV map). It also keeps the
*committed ledger* — every (index, term, command) any replica has ever
applied — which is what the chaos invariant checker audits: a committed
index whose (term, command) differs between replicas is a
committed-entry loss, the one thing consensus must never allow.

Link control is directional: ``cut_link("region0", "region1")`` stops
region0's messages from reaching region1 while the reverse direction
still delivers — the asymmetric-partition fault. A full region
partition cuts both directions of every link touching the region.
An optional external ``link_up`` predicate composes in (the deployment
wires the cluster topology's region-link state here so chaos faults act
on one source of truth).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, QuorumUnavailableError
from repro.obs import Observability
from repro.sim.engine import Simulator

from repro.consensus.log import LogEntry
from repro.consensus.node import (
    ELECTION_TIMEOUT,
    HEARTBEAT_INTERVAL,
    LEADER,
    RaftNode,
)
from repro.consensus.transport import Transport


class KvStateMachine:
    """The applied state of one replica: a deterministic KV map.

    Commands are tuples: ``("set", key, value)``, ``("delete", key)``
    and ``("noop",)``. Values must be treated as immutable — snapshots
    share them by reference across replicas.
    """

    def __init__(self) -> None:
        self.data: dict[str, Any] = {}

    def apply(self, command: tuple) -> None:
        op = command[0]
        if op == "set":
            self.data[command[1]] = command[2]
        elif op == "delete":
            self.data.pop(command[1], None)
        elif op != "noop":
            raise ConfigurationError(f"unknown consensus command: {command!r}")

    def snapshot(self) -> tuple:
        return tuple(sorted(self.data.items()))

    def install(self, state: Any) -> None:
        self.data = dict(state or ())

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def keys_with_prefix(self, prefix: str) -> list[str]:
        return sorted(k for k in self.data if k.startswith(prefix))


class MetadataCluster:
    """One consensus replica per region over a partitionable transport."""

    def __init__(
        self,
        simulator: Simulator,
        regions: list[str],
        rng_for: Callable[[str], Any],
        *,
        obs: Optional[Observability] = None,
        link_up: Optional[Callable[[str, str], bool]] = None,
        bootstrap_leader: Optional[str] = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        election_timeout: tuple[float, float] = ELECTION_TIMEOUT,
        compaction_threshold: int = 64,
    ) -> None:
        if not regions:
            raise ConfigurationError("consensus group needs at least one region")
        if bootstrap_leader is not None and bootstrap_leader not in regions:
            raise ConfigurationError(
                f"bootstrap leader {bootstrap_leader!r} not in {regions}"
            )
        self._simulator = simulator
        self.regions = list(regions)
        self.obs = obs if obs is not None else Observability()
        self._external_link_up = link_up
        self._links_down: set[tuple[str, str]] = set()
        self.transport = Transport(
            simulator, link_up=self._link_ok, obs=self.obs
        )
        self.machines: dict[str, KvStateMachine] = {
            r: KvStateMachine() for r in self.regions
        }
        # Safety books audited by the invariant checker.
        self.ledger: dict[int, tuple[int, tuple]] = {}
        self.commit_conflicts: list[str] = []
        self._quorum_reads = self.obs.metrics.counter("consensus.quorum_reads")

        self.nodes: dict[str, RaftNode] = {}
        for region in self.regions:
            first_timeout = None
            if region == bootstrap_leader:
                # Shortest possible first timeout: the designated region
                # deterministically wins the bootstrap election.
                first_timeout = election_timeout[0] * 0.5
            machine = self.machines[region]
            self.nodes[region] = RaftNode(
                region,
                self.regions,
                simulator,
                self.transport,
                rng_for(region),
                apply_fn=lambda entry, r=region: self._apply(r, entry),
                snapshot_fn=machine.snapshot,
                install_fn=machine.install,
                obs=self.obs,
                heartbeat_interval=heartbeat_interval,
                election_timeout=election_timeout,
                compaction_threshold=compaction_threshold,
                first_timeout=first_timeout,
            )

    # ------------------------------------------------------------------
    # Apply pipeline + committed ledger
    # ------------------------------------------------------------------

    def _apply(self, region: str, entry: LogEntry) -> None:
        self.machines[region].apply(entry.command)
        recorded = self.ledger.get(entry.index)
        if recorded is None:
            self.ledger[entry.index] = (entry.term, entry.command)
        elif recorded != (entry.term, entry.command):
            self.commit_conflicts.append(
                f"index {entry.index}: {region} applied "
                f"(t{entry.term}, {entry.command!r}) but ledger holds "
                f"(t{recorded[0]}, {recorded[1]!r})"
            )

    @property
    def max_committed_index(self) -> int:
        return max(self.ledger, default=0)

    # ------------------------------------------------------------------
    # Topology control (chaos hooks)
    # ------------------------------------------------------------------

    def _link_ok(self, src: str, dst: str) -> bool:
        if (src, dst) in self._links_down:
            return False
        if self._external_link_up is not None:
            return bool(self._external_link_up(src, dst))
        return True

    def cut_link(self, src: str, dst: str) -> None:
        """Cut the directional link ``src → dst`` only."""
        self._links_down.add((src, dst))

    def restore_link(self, src: str, dst: str) -> None:
        self._links_down.discard((src, dst))

    def partition_region(self, region: str) -> None:
        """Isolate ``region`` completely (both directions, all peers)."""
        for other in self.regions:
            if other != region:
                self.cut_link(region, other)
                self.cut_link(other, region)

    def heal_region(self, region: str) -> None:
        for other in self.regions:
            if other != region:
                self.restore_link(region, other)
                self.restore_link(other, region)

    def crash_replica(self, region: str) -> None:
        self.nodes[region].crash()

    def recover_replica(self, region: str) -> None:
        self.nodes[region].restart()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def replica(self, region: str) -> RaftNode:
        return self.nodes[region]

    def live_regions(self) -> list[str]:
        return [r for r in self.regions if not self.nodes[r].crashed]

    def leaders(self) -> list[str]:
        """Every replica currently acting as leader (transiently > 1
        during partitions; at most one per *term*, which is the actual
        safety property)."""
        return [
            r for r in self.regions
            if not self.nodes[r].crashed and self.nodes[r].role == LEADER
        ]

    def leader(self) -> Optional[str]:
        """The acting leader with the highest term, if any."""
        leaders = self.leaders()
        if not leaders:
            return None
        return max(leaders, key=lambda r: (self.nodes[r].current_term, r))

    def leader_history(self) -> dict[int, list[str]]:
        """term → replicas that won an election in that term."""
        history: dict[int, list[str]] = {}
        for region in self.regions:
            for term in self.nodes[region].terms_won:
                history.setdefault(term, []).append(region)
        return history

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def propose(self, command: tuple, *, region: Optional[str] = None):
        """Propose through ``region``'s replica (or the acting leader).

        Returns the assigned log index, or None when the contacted
        replica is not (or no replica is) a leader right now.
        """
        if region is None:
            region = self.leader()
            if region is None:
                return None
        return self.nodes[region].propose(command)

    def _reachable_regions(self, src: str) -> list[str]:
        """Regions whose replica ``src`` could complete an RPC with now
        (link up in both directions, replica process alive)."""
        out = []
        for region in self.regions:
            if self.nodes[region].crashed:
                continue
            if region == src:
                out.append(region)
                continue
            if self._link_ok(src, region) and self._link_ok(region, src):
                out.append(region)
        return out

    def can_route(self, src: str, dst: str) -> bool:
        """Can ``src`` complete an RPC with ``dst`` right now (links up
        both ways, destination replica alive)?"""
        if self.nodes[dst].crashed:
            return False
        if src == dst:
            return not self.nodes[src].crashed
        return self._link_ok(src, dst) and self._link_ok(dst, src)

    def quorum_read(self, src: str, key: str, default: Any = None) -> Any:
        """Read ``key`` from the freshest replica of a reachable majority.

        Modeled as a same-tick snapshot gather (the transport delay is
        charged to replication, not reads — read latency lives in the
        query path's own latency model). Raises
        :class:`QuorumUnavailableError` when ``src`` cannot assemble a
        majority.
        """
        freshest = self._quorum_freshest(src)
        return self.machines[freshest].get(key, default)

    def quorum_keys_with_prefix(self, src: str, prefix: str) -> list[str]:
        freshest = self._quorum_freshest(src)
        return self.machines[freshest].keys_with_prefix(prefix)

    def _quorum_freshest(self, src: str) -> str:
        reachable = self._reachable_regions(src)
        majority = len(self.regions) // 2 + 1
        if src not in reachable or len(reachable) < majority:
            raise QuorumUnavailableError(
                f"{src} reaches only {len(reachable)}/{len(self.regions)} "
                f"replicas (majority={majority})"
            )
        self._quorum_reads.inc()
        # Freshest commit wins; region name breaks ties deterministically.
        return min(
            reachable,
            key=lambda r: (-self.nodes[r].commit_index, r),
        )
