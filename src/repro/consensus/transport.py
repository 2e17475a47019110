"""Message passing between consensus replicas on the DES clock.

Replicas never call each other directly: every RPC is a frozen message
dataclass handed to the :class:`Transport`, which delivers it after a
fixed cross-region delay **iff the directional link is up at send
time**. Reachability is a caller-supplied ``link_up(src, dst)``
predicate so the same transport serves standalone consensus tests (a
dict of cut links) and full deployments (the cluster topology's
region-link state, which the chaos injector manipulates). Directional
links make asymmetric partitions (A→B cut while B→A delivers) a
first-class fault.

Delivery order is deterministic: the simulator orders same-time events
by schedule sequence, and sends happen in replica-id order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs import Observability
from repro.sim.engine import Simulator

from repro.consensus.log import LogEntry

#: One-way message latency between regions (seconds of virtual time).
MESSAGE_DELAY = 0.05


@dataclass(frozen=True)
class Message:
    """Base class: every consensus RPC names its endpoints and term."""

    src: str
    dst: str
    term: int


@dataclass(frozen=True)
class RequestVote(Message):
    last_log_index: int = 0
    last_log_term: int = 0


@dataclass(frozen=True)
class RequestVoteReply(Message):
    granted: bool = False


@dataclass(frozen=True)
class AppendEntries(Message):
    """Heartbeat and log replication in one RPC, as in Raft."""

    prev_log_index: int = 0
    prev_log_term: int = 0
    entries: tuple[LogEntry, ...] = field(default_factory=tuple)
    leader_commit: int = 0


@dataclass(frozen=True)
class AppendEntriesReply(Message):
    success: bool = False
    match_index: int = 0


@dataclass(frozen=True)
class InstallSnapshot(Message):
    snapshot_index: int = 0
    snapshot_term: int = 0
    snapshot_state: object = None


@dataclass(frozen=True)
class InstallSnapshotReply(Message):
    match_index: int = 0


__all_messages__ = (
    RequestVote,
    RequestVoteReply,
    AppendEntries,
    AppendEntriesReply,
    InstallSnapshot,
    InstallSnapshotReply,
)


class Transport:
    """Delivers messages between registered replicas with a fixed delay.

    A message is dropped (never delivered, counted in
    ``consensus.transport.dropped``) when the directional ``src → dst``
    link is down at send time — the DES analogue of a packet entering a
    partitioned network. Messages already in flight when a partition
    starts still arrive: cutting a link is not retroactive.
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        delay: float = MESSAGE_DELAY,
        link_up: Optional[Callable[[str, str], bool]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._simulator = simulator
        self._delay = delay
        self._link_up = link_up if link_up is not None else (lambda s, d: True)
        self.obs = obs if obs is not None else Observability()
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._sent = self.obs.metrics.counter("consensus.transport.sent")
        self._dropped = self.obs.metrics.counter("consensus.transport.dropped")

    def register(self, replica_id: str,
                 handler: Callable[[Message], None]) -> None:
        self._handlers[replica_id] = handler

    def reachable(self, src: str, dst: str) -> bool:
        """Is the directional link ``src → dst`` currently up?"""
        return bool(self._link_up(src, dst))

    def send(self, message: Message) -> None:
        """Deliver ``message`` after the transport delay, or drop it."""
        if message.dst not in self._handlers:
            self._dropped.inc()
            return
        if not self.reachable(message.src, message.dst):
            self._dropped.inc()
            return
        self._sent.inc()
        handler = self._handlers[message.dst]
        self._simulator.call_later(
            self._delay, lambda m=message: handler(m)
        )
