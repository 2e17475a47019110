"""SM Client library (paper §III-A).

Application-server clients hand the SM Client a ``(service, shard)``
pair; the client resolves it to a hostname through the service-discovery
system (SMC) — which is cached locally and therefore may be briefly
stale after a migration — and dispatches the request to the resolved
server. During a graceful migration the old server forwards requests, so
stale reads still succeed (paper §IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.errors import (
    HostUnavailableError,
    ShardMappingUnknownError,
)
from repro.cluster.topology import Cluster
from repro.shardmanager.server import SMServer

T = TypeVar("T")


@dataclass(frozen=True)
class RoutedRequest:
    """Bookkeeping about how a request was routed (for tests/metrics)."""

    shard_id: int
    resolved_host: str
    served_by: str
    was_stale: bool
    forwarded: bool


class SMClient:
    """Resolves shards and dispatches requests to application servers."""

    def __init__(self, server: SMServer, cluster: Optional[Cluster] = None):
        self._server = server
        self._cluster = cluster if cluster is not None else server.cluster

    def resolve(self, shard_id: int) -> str:
        """Shard → host as seen through the (possibly stale) SMC cache."""
        host_id = self._server.discovery.resolve(
            shard_id, self._server.simulator.now
        )
        if host_id is None:
            raise ShardMappingUnknownError(f"shard {shard_id} is unassigned")
        return host_id

    def shard_map(self) -> dict[int, list[tuple[str, str]]]:
        """The journaled shard map read through the metadata plane.

        Served from the SM's datastore — when that is the
        consensus-replicated store, this read survives the loss of the
        SM server's own memory (leased/quorum semantics apply). Maps
        shard id → ``[(host_id, role), ...]``.
        """
        datastore = self._server.datastore
        prefix = self._server._shardmap_prefix
        shard_map: dict[int, list[tuple[str, str]]] = {}
        for key in datastore.keys_with_prefix(prefix):
            value = datastore.get(key)
            if value:
                shard_id = int(key.rsplit("/", 1)[1])
                shard_map[shard_id] = [tuple(pair) for pair in value]
        return shard_map

    def request(
        self,
        shard_id: int,
        handler: Callable[[str], T],
    ) -> tuple[T, RoutedRequest]:
        """Dispatch ``handler(host_id)`` to the host serving ``shard_id``.

        If the cached mapping is stale and points at a host that no
        longer owns the shard but is still up (graceful migration in
        flight), the request is transparently forwarded to the current
        owner — mirroring the prepareDropShard forwarding behaviour.
        Raises :class:`HostUnavailableError` if the resolved host is down
        and no forwarding is possible (failover still propagating).
        """
        resolved = self.resolve(shard_id)
        authoritative = self._server.discovery.resolve_authoritative(shard_id)
        was_stale = resolved != authoritative

        target = resolved
        forwarded = False
        host = self._cluster.host(target)
        owns = shard_id in self._server.shards_on_host(target)
        if not owns or not host.is_available:
            if not host.is_available and not owns:
                raise HostUnavailableError(
                    f"shard {shard_id}: cached host {target} is down and "
                    f"holds no data to forward from"
                )
            if authoritative is None:
                raise ShardMappingUnknownError(f"shard {shard_id} is unassigned")
            if not host.is_available:
                raise HostUnavailableError(
                    f"shard {shard_id}: cached host {target} is unavailable"
                )
            # Old server is healthy but mid-migration: forward.
            target = authoritative
            forwarded = True
            if not self._cluster.host(target).is_available:
                raise HostUnavailableError(
                    f"shard {shard_id}: owner {target} is unavailable"
                )
        result = handler(target)
        return result, RoutedRequest(
            shard_id=shard_id,
            resolved_host=resolved,
            served_by=target,
            was_stale=was_stale,
            forwarded=forwarded,
        )
