"""Query result cache keyed by normalised plan + ingestion generation.

Dashboard workloads repeat: the same handful of queries per tenant run
over and over, and serving a repeat from the proxy without touching the
cluster is the cheapest capacity there is. Correctness is by *versioned
keys*, not explicit invalidation: a cache key includes the table's
partitioning generation (bumped by re-partitions) and its ingestion
generation (bumped by every load and by every streaming-loader flush),
so any write makes all previously cached answers for the table
unreachable — they age out of the LRU ring. An explicit
:meth:`QueryResultCache.invalidate_table` is provided for operators who
want the memory back immediately.

The normalised plan is the canonical SQL rendering from
:mod:`repro.cubrick.sql` — two structurally identical queries built
through different code paths share one cache line.

An entry may also carry an *encoded* form of its answer
(:attr:`CacheEntry.wire`): the serving tier encodes a hit's response
body once and keeps the bytes here, on the entry, so the versioned key
that protects the result protects the bytes too and both leave the
cache together.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cubrick.query import Query, QueryResult

#: Modelled latency of answering from the proxy-local cache (seconds).
CACHE_HIT_LATENCY = 0.0002


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def plan_key(query: "Query") -> str:
    """Normalised plan text for one query (canonical SQL rendering)."""
    return query.plan_key


class CacheEntry:
    """One cached snapshot and, beside it, its encoded response body."""

    __slots__ = ("result", "wire")

    def __init__(self, result: "QueryResult"):
        #: The cache's own snapshot: read-only for everyone else.
        self.result = result
        #: Encoded response body, set by the serving tier on first use.
        self.wire: Optional[bytes] = None


class QueryResultCache:
    """Bounded LRU of finalised query results with versioned keys."""

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ConfigurationError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        # key -> snapshot entry; key embeds both generations.
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(table: str, plan: str, generation: int, ingest_generation: int) -> tuple:
        return (table, generation, ingest_generation, plan)

    def lookup(
        self,
        query: "Query",
        *,
        generation: int,
        ingest_generation: int,
    ) -> Optional[CacheEntry]:
        """The entry for this plan at these versions, or None.

        The entry is the cache's own: callers read ``entry.result`` and
        may fill ``entry.wire``, nothing else.
        """
        key = self._key(query.table, plan_key(query), generation, ingest_generation)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def get(
        self,
        query: "Query",
        *,
        generation: int,
        ingest_generation: int,
    ) -> Optional["QueryResult"]:
        """Cached result for this plan at these versions, or None.

        Returns an independent copy: callers mutate result metadata
        (latency accounting, attempt counts) and must never corrupt the
        cached snapshot.
        """
        entry = self.lookup(
            query, generation=generation, ingest_generation=ingest_generation
        )
        return None if entry is None else self._copy(entry.result)

    def put(
        self,
        query: "Query",
        result: "QueryResult",
        *,
        generation: int,
        ingest_generation: int,
    ) -> None:
        """Cache one result snapshot (full, non-degraded answers only).

        Partial or degraded answers are refused: a cache must never
        replay an answer that was only acceptable under the failure
        conditions of the moment it was computed.
        """
        if result.metadata.get("partial") or result.metadata.get("degraded"):
            return
        key = self._key(query.table, plan_key(query), generation, ingest_generation)
        self._entries[key] = CacheEntry(self._copy(result))
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_table(self, table: str) -> int:
        """Drop every cached entry for ``table``; returns entries dropped."""
        stale = [key for key in self._entries if key[0] == table]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    @staticmethod
    def _copy(result: "QueryResult") -> "QueryResult":
        from repro.cubrick.query import QueryResult

        return QueryResult(
            columns=result.columns,
            rows=list(result.rows),
            rows_scanned=result.rows_scanned,
            bricks_scanned=result.bricks_scanned,
            metadata=dict(result.metadata),
        )
