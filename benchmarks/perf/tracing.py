"""Span recorder: measures the program's layers from outside.

The recorder replaces *public* callables of ``repro`` with wrappers
that time each call. Nothing under ``src/`` changes, and the wrappers
exist only between :func:`install` and :meth:`Recorder.unpatch_all` of
a traced run, so the end-to-end numbers carry no tracing cost.

A span is ``(id, name, start_ns, end_ns, parent, request)``, six
integers in one flat array (40-odd bytes a span, no object each), written
when the call returns, so spans appear in order of their end. Every wrapped
callable is synchronous, and a synchronous call runs to completion
inside one step of one asyncio task, so a single stack gives correct
parents in the gateway too. Self time is a span's duration minus the
time its child spans cover; it is accumulated per name while running,
so totals stay exact even after the span list reaches its cap.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Callable, Optional

#: Beyond this many spans only the per-name totals keep growing.
MAX_SPANS = 400_000


class Recorder:
    """In-memory spans plus running per-name totals."""

    def __init__(self, request_of: Callable[[], int] = lambda: 0):
        #: Integer shared by the spans of one request (number of the
        #: asyncio task in the gateway, query counter in-process).
        self.request_of = request_of
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        #: Flat: id, name index, start_ns, end_ns, parent id, request.
        self.spans = array("q")
        self.count = 0
        #: name -> [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        self._stack: list[list] = []  # [span id, child_ns, request]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[[object], str]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``name_of(result)`` picks the span name after the call, for
        callables whose cost class is only known from what they return
        (a cache hit and a miss of ``WorkloadManager.submit``).
        """
        rec = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = rec._stack
            if stack:
                parent, request = stack[-1][0], stack[-1][2]
            else:
                parent, request = -1, rec.request_of()
            index = rec.count
            rec.count = index + 1
            frame = [index, 0, request]
            stack.append(frame)
            final = name
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if name_of is not None:
                    final = name_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = rec.totals.get(final)
                if total is None:
                    total = rec.totals[final] = [0, 0, 0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if index < MAX_SPANS:
                    rec.spans.extend(
                        (index, rec._index_of(final), start, end, parent, request)
                    )

        traced.__wrapped__ = fn
        return traced

    def _index_of(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        name_of: Optional[Callable[[object], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` (module global or method) by a wrapper."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, name_of))
        self._undo.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def self_us(self, name: str) -> float:
        """Total self time of ``name``, microseconds."""
        return self.totals.get(name, (0, 0, 0))[2] / 1e3

    def summary(self) -> dict:
        return {
            name: {"calls": t[0], "total_ns": t[1], "self_ns": t[2]}
            for name, t in sorted(self.totals.items())
        }

    def write(self, path: str) -> None:
        """Write the spans and totals as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": [
                        "id", "name", "start_ns", "end_ns", "parent", "request"
                    ],
                    "names": self.names,
                    "spans": [
                        self.spans[i:i + 6].tolist()
                        for i in range(0, len(self.spans), 6)
                    ],
                    "dropped_spans": self.count - len(self.spans) // 6,
                    "totals": self.summary(),
                },
                handle,
                separators=(",", ":"),
            )
            handle.write("\n")


def _submit_name(record: object) -> str:
    hit = getattr(record, "outcome", None) == "cache_hit"
    return "sched.manager.submit_hit" if hit else "sched.manager.submit_miss"


#: (module, owner attribute path or "", attribute, span name). Each
#: entry names one place where a public callable is bound. ``jsonable``
#: is patched only where the gateway binds it: it recurses through its
#: own module's global, which stays unwrapped, so one response is one
#: span whatever its row count.
TARGETS: list[tuple[str, str, str, str]] = [
    ("repro.serve.gateway", "", "jsonable", "serve.protocol.jsonable"),
    ("repro.serve.protocol", "", "encode_frame", "serve.protocol.encode"),
    ("repro.core.deployment", "CubrickDeployment", "compile_sql", "sql.compile"),
    ("repro.core.deployment", "CubrickDeployment", "load", "core.deployment.load"),
    ("repro.sql", "", "parse", "sql.plan"),
    ("repro.sql", "", "plan", "sql.plan"),
    ("repro.sql", "", "build_physical", "sql.plan"),
    ("repro.serve.gateway", "", "plan_key", "sched.cache.plan_key"),
    ("repro.sched.cache", "", "plan_key", "sched.cache.plan_key"),
    ("repro.sched.manager", "WorkloadManager", "submit", "sched.manager.submit"),
    ("repro.sim.engine", "Simulator", "run_until", "sim.engine.run_until"),
    ("repro.cubrick.proxy", "CubrickProxy", "submit", "cubrick.proxy.submit"),
    ("repro.cubrick.coordinator", "RegionCoordinator", "execute",
     "cubrick.coordinator.execute"),
    ("repro.cubrick.node", "CubrickNode", "execute_local",
     "cubrick.node.execute_local"),
    ("repro.cubrick.storage", "PartitionStorage", "execute",
     "cubrick.storage.execute"),
    ("repro.cubrick.storage", "PartitionStorage", "insert_columns",
     "cubrick.storage.insert_columns"),
    ("repro.cubrick.storage", "", "encode_group_keys", "cubrick.kernels"),
    ("repro.cubrick.storage", "", "group_counts", "cubrick.kernels"),
    ("repro.cubrick.storage", "", "grouped_state_arrays", "cubrick.kernels"),
    ("repro.cubrick.kernels", "", "encode_group_keys", "cubrick.kernels"),
    ("repro.cubrick.query", "PartialResult", "finalize", "cubrick.query.finalize"),
    ("repro.cubrick.loader", "StreamingLoader", "append_many",
     "cubrick.loader.append_many"),
    ("repro.cubrick.loader", "StreamingLoader", "flush", "cubrick.loader.flush"),
]


def install(recorder: Recorder) -> None:
    """Patch every target in :data:`TARGETS`; recording starts now."""
    for module_name, owner_name, attr, name in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        name_of = _submit_name if name == "sched.manager.submit" else None
        recorder.patch(owner, attr, name, name_of)


#: Layer metric -> span name: self time per call, microseconds.
_PER_CALL = {
    "serve.protocol.jsonable_us": "serve.protocol.jsonable",
    "serve.protocol.encode_us": "serve.protocol.encode",
    "sql.compile_us": "sql.compile",
    "sched.cache.plan_key_us": "sched.cache.plan_key",
    "sched.manager.submit_hit_us": "sched.manager.submit_hit",
    "sched.manager.submit_miss_self_us": "sched.manager.submit_miss",
    "cubrick.proxy.submit_self_us": "cubrick.proxy.submit",
    "cubrick.coordinator.execute_self_us": "cubrick.coordinator.execute",
    "cubrick.node.execute_local_self_us": "cubrick.node.execute_local",
    "cubrick.storage.execute_self_us": "cubrick.storage.execute",
    "cubrick.query.finalize_us": "cubrick.query.finalize",
}


def per_call_self_us(totals: dict) -> dict:
    """The layer metrics that are "self time per call" of one span name.

    ``totals`` is :meth:`Recorder.summary`. ``sql.plan_us`` is per
    statement: parse, plan and build_physical share the name.
    """
    out = {}
    for metric, name in _PER_CALL.items():
        total = totals.get(name)
        out[metric] = total["self_ns"] / total["calls"] / 1e3 if total else 0.0
    plan = totals.get("sql.plan")
    out["sql.plan_us"] = plan["self_ns"] / (plan["calls"] / 3) / 1e3 if plan else 0.0
    return out
