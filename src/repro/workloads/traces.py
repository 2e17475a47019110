"""Query-trace record and replay.

Production debugging and benchmarking both need reproducible workloads:
record the query stream a deployment served (from the proxy's query
log plus the rendered SQL) and replay it — against the same deployment,
a differently-configured one, or after a code change — comparing
success ratios and latency distributions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cubrick.query import Query
from repro.cubrick.sql import render_query
from repro.errors import QueryFailedError, ReproError


@dataclass(frozen=True)
class TraceEntry:
    """One recorded query: virtual submit time plus the statement."""

    offset: float  # seconds since trace start
    sql: str

    def to_json(self) -> str:
        return json.dumps({"offset": self.offset, "sql": self.sql})

    @classmethod
    def from_json(cls, line: str) -> "TraceEntry":
        payload = json.loads(line)
        return cls(offset=float(payload["offset"]), sql=payload["sql"])


@dataclass
class QueryTrace:
    """An ordered, replayable query stream."""

    entries: list[TraceEntry] = field(default_factory=list)

    def record(self, offset: float, query: Query) -> None:
        self.entries.append(TraceEntry(offset=offset, sql=render_query(query)))

    def dumps(self) -> str:
        """Serialise to newline-delimited JSON."""
        return "\n".join(entry.to_json() for entry in self.entries)

    @classmethod
    def loads(cls, text: str) -> "QueryTrace":
        entries = [
            TraceEntry.from_json(line)
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(entries=entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class ReplayReport:
    """Outcome of one trace replay."""

    total: int
    succeeded: int
    failed: int
    latencies: list[float]

    @property
    def success_ratio(self) -> float:
        return self.succeeded / self.total if self.total else 1.0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            raise ReproError("no successful queries to summarise")
        return float(np.percentile(self.latencies, q))


class TraceRecorder:
    """Wraps a deployment: every query is executed *and* recorded."""

    def __init__(self, deployment):
        self._deployment = deployment
        self._start = deployment.simulator.now
        self.trace = QueryTrace()

    def query(self, query: Query, **kwargs):
        self.trace.record(self._deployment.simulator.now - self._start, query)
        return self._deployment.query(query, **kwargs)

    def sql(self, statement: str, **kwargs):
        return self.query(self._deployment.compile_sql(statement), **kwargs)


def replay(deployment, trace: QueryTrace, *,
           time_scale: float = 1.0,
           deadline: Optional[float] = None) -> ReplayReport:
    """Replay a trace against a deployment at its recorded pacing.

    ``time_scale`` stretches (>1) or compresses (<1) the inter-query
    gaps; the virtual clock is advanced to each entry's offset before
    submitting, so background processes (balancing, failures, decay)
    interleave exactly as they would have live.
    """
    if time_scale <= 0:
        raise ReproError(f"time_scale must be positive: {time_scale}")
    simulator = deployment.simulator
    start = simulator.now
    succeeded = 0
    failed = 0
    latencies: list[float] = []
    for entry in trace.entries:
        target = start + entry.offset * time_scale
        if target > simulator.now:
            simulator.run_until(target)
        try:
            result = deployment.query(
                deployment.compile_sql(entry.sql), deadline=deadline
            )
        except QueryFailedError:
            failed += 1
            continue
        succeeded += 1
        latencies.append(result.metadata["latency"])
    return ReplayReport(
        total=len(trace.entries),
        succeeded=succeeded,
        failed=failed,
        latencies=latencies,
    )
