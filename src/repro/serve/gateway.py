"""ServeGateway: the asyncio TCP front door over the simulated fleet.

The gateway turns the repository from a simulator into a runnable
service. Real clients connect over TCP and speak the length-prefixed
JSON protocol (:mod:`repro.serve.protocol`); their queries run through
the exact same stack every DES experiment exercises — SQL compilation,
admission v2, the result cache, EDF executor queues, coordinator
fan-out, the span tracer — none of which knows the wall clock exists.

Two clock domains, one axis
---------------------------

Everything below the gateway reads ``simulator.now``. The gateway owns
a :class:`~repro.serve.clock.RealTimeClock` anchored at the warmed-up
deployment's virtual time and brings the simulator up to it
(``simulator.run_until(clock())``) at two moments only: when a request
arrives, before anything reads virtual time, and when the **pump**
fires — one event-loop timer armed at the earliest queued DES event
(:attr:`~repro.sim.engine.Simulator.next_event_time`), re-armed by
whatever can queue an earlier one (a submission left pending, a load).
Completions fire at the real moment they were simulated for, and an
idle gateway costs nothing.

Two paths, one submission
-------------------------

Every query is one ``WorkloadManager.submit``. One that resolves on the
spot — a cache hit, a rejection — is answered by the connection's read
loop in place: a hit is a statement-cache lookup, a result-cache lookup
and a splice of the request id into response bytes encoded once and
kept on the cache entry. Only a submission left pending gets a future,
a task and a place in the coalescing map.

Backpressure and loss
---------------------

* **Per-connection in-flight window** — each connection may have at
  most ``max_inflight`` requests waiting on the fleet; at the limit the
  gateway simply stops reading frames from that socket, which
  propagates as TCP backpressure to the client.
* **Slow-client write timeout** — a client whose unread responses fill
  the transport's write buffer gets ``write_timeout`` real seconds to
  catch up, then is disconnected (its request was still processed and
  its response counted as dropped).
* **Coalescing** — identical in-flight queries (same canonical plan,
  same table generations, same tenant and priority) attach to the
  leader's execution instead of re-running it.
* **Graceful drain** — on SIGTERM (or :meth:`ServeGateway.drain`) the
  listener closes, new frames get ``shutting_down`` errors, every
  accepted in-flight request runs to completion with the pump alive,
  and metrics are flushed. An accepted request is never abandoned.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.cubrick.query import AggFunc, Aggregation, Filter, FilterOp, Query
from repro.errors import (
    ConfigurationError,
    QueryError,
    ReproError,
    SqlError,
    TableNotFoundError,
)
from repro.sched.cache import plan_key
from repro.sched.manager import JobRecord
from repro.sched.queue import PriorityClass
from repro.serve.clock import RealTimeClock
from repro.serve.deploy import ServingDeployment
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    ProtocolError,
    encode_body,
    error_frame,
    jsonable,
    ok_frame,
    read_frame,
    result_frame,
    write_frame,
)

#: JobRecord outcomes that mean "admission said no", reported to the
#: client as one typed ``rejected`` error with the outcome as reason.
REJECT_OUTCOMES = ("shed", "quota", "tenant_quota", "queue_full", "deadline")

#: JobRecords a running gateway keeps (the most recent ones).
RECENT_RECORDS = 1024


def parse_priority(name: object) -> PriorityClass:
    """Wire priority string → :class:`PriorityClass` (default interactive)."""
    if name is None:
        return PriorityClass.INTERACTIVE
    try:
        return PriorityClass[str(name).upper()]
    except KeyError:
        raise QueryError(
            f"unknown priority {name!r} "
            f"(known: {[p.name.lower() for p in PriorityClass]})"
        ) from None


def query_from_spec(spec: dict) -> Query:
    """Build a :class:`Query` from the wire protocol's programmatic form.

    Raises :class:`~repro.errors.QueryError` on any malformed field —
    the gateway reports it as a typed ``bad_request`` error.
    """
    table = spec.get("table")
    if not isinstance(table, str) or not table:
        raise QueryError("query spec needs a table name")
    raw_aggs = spec.get("aggregations")
    if not isinstance(raw_aggs, list) or not raw_aggs:
        raise QueryError("query spec needs a non-empty aggregations list")
    aggregations = []
    for agg in raw_aggs:
        if not isinstance(agg, dict):
            raise QueryError(f"aggregation must be an object: {agg!r}")
        try:
            func = AggFunc(str(agg.get("func")))
        except ValueError:
            raise QueryError(
                f"unknown aggregation func {agg.get('func')!r} "
                f"(known: {[f.value for f in AggFunc]})"
            ) from None
        metric = agg.get("metric")
        if not isinstance(metric, str) or not metric:
            raise QueryError(f"aggregation needs a metric name: {agg!r}")
        aggregations.append(Aggregation(func=func, metric=metric))
    filters = []
    for flt in spec.get("filters", []) or []:
        if not isinstance(flt, dict):
            raise QueryError(f"filter must be an object: {flt!r}")
        try:
            op = FilterOp(str(flt.get("op")))
        except ValueError:
            raise QueryError(
                f"unknown filter op {flt.get('op')!r} "
                f"(known: {[o.value for o in FilterOp]})"
            ) from None
        dimension = flt.get("dimension")
        if not isinstance(dimension, str) or not dimension:
            raise QueryError(f"filter needs a dimension name: {flt!r}")
        values = flt.get("values")
        if not isinstance(values, list):
            raise QueryError(f"filter needs a values list: {flt!r}")
        try:
            coerced = tuple(int(v) for v in values)
        except (TypeError, ValueError):
            raise QueryError(
                f"filter values must be integers: {values!r}"
            ) from None
        filters.append(Filter(dimension=dimension, op=op, values=coerced))
    group_by = spec.get("group_by", []) or []
    if not isinstance(group_by, list) or any(
        not isinstance(g, str) for g in group_by
    ):
        raise QueryError(f"group_by must be a list of column names: {group_by!r}")
    limit = spec.get("limit")
    if limit is not None and (
        isinstance(limit, bool) or not isinstance(limit, int)
    ):
        raise QueryError(f"limit must be an integer: {limit!r}")
    order_by = spec.get("order_by")
    if order_by is not None and not isinstance(order_by, str):
        raise QueryError(f"order_by must be a column name: {order_by!r}")
    return Query.build(
        table,
        aggregations,
        group_by=list(group_by),
        filters=filters,
        order_by=order_by,
        descending=bool(spec.get("descending", True)),
        limit=limit,
    )


@dataclass
class GatewayStats:
    """Running totals the ``stats`` op and the bench harness read."""

    connections_total: int = 0
    connections_open: int = 0
    #: Frames that were owed an answer, malformed ones included. Once
    #: drained, ``requests_total == responses_total + dropped_responses``.
    requests_total: int = 0
    responses_total: int = 0
    #: Typed error frames sent for wire-level violations.
    protocol_errors: int = 0
    #: Requests rejected by admission control, by reason.
    rejected: dict = field(default_factory=dict)
    #: Requests answered by attaching to an identical in-flight query.
    coalesced: int = 0
    #: Responses lost to a disconnected or too-slow client.
    dropped_responses: int = 0
    internal_errors: int = 0

    def count_reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def snapshot(self) -> dict:
        return {**asdict(self), "rejected": dict(sorted(self.rejected.items()))}


class ServeGateway:
    """The serving tier: one asyncio TCP server over one deployment."""

    def __init__(
        self,
        serving: ServingDeployment,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[Callable[[], float]] = None,
        max_inflight: int = 32,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        write_timeout: float = 5.0,
        metrics_path: Optional[str] = None,
    ):
        if max_inflight <= 0:
            raise ConfigurationError(f"max_inflight must be positive: {max_inflight}")
        self.serving = serving
        self.manager = serving.manager
        self.deployment = serving.deployment
        self.simulator = serving.simulator
        self.obs = serving.obs
        self._host = host
        self._port = port
        self.clock: Optional[Callable[[], float]] = clock
        self.max_inflight = max_inflight
        self.max_frame_bytes = max_frame_bytes
        self.write_timeout = write_timeout
        self.metrics_path = metrics_path
        self.stats = GatewayStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pump_timer: Optional[asyncio.TimerHandle] = None
        self._draining = False
        self._stopped = asyncio.Event()
        self._pending = 0
        #: Coalescing map: (plan, generation, ingest_generation, tenant,
        #: priority) → the leader's pending JobRecord future.
        self._inflight_queries: dict[tuple, asyncio.Future] = {}
        #: JobRecord.index → (coalescing key, future) of every pending
        #: submission; ``_resolve`` settles both maps in one step.
        self._waiters: dict[int, tuple[tuple, asyncio.Future]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound (port 0 resolves at start)."""
        if self._server is None:
            raise ConfigurationError("gateway is not started")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    @property
    def pending(self) -> int:
        """Accepted requests still waiting on the fleet (the drain invariant)."""
        return self._pending

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> tuple[str, int]:
        """Bind the listener, anchor the clock, arm the pump."""
        if self._server is not None:
            raise ConfigurationError("gateway already started")
        if self.clock is None:
            # Anchor real time at the warmed-up deployment's virtual
            # time: from here on, the two clocks share one axis.
            self.clock = RealTimeClock(start=self.simulator.now)
        # From here on the manager serves an open-ended request stream:
        # its per-request memory must not grow with it.
        self.manager.retain_recent(RECENT_RECORDS)
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._arm_pump()
        host, port = self.address
        self.obs.events.emit("repro.serve.started", host=host, port=port)
        return host, port

    async def serve_forever(self) -> None:
        """Block until the gateway has fully drained or been closed."""
        await self._stopped.wait()

    async def drain(self, *, timeout: float = 60.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, flush.

        Returns True when every accepted request was answered before
        ``timeout`` real seconds; the pump keeps running throughout so
        queued queries complete rather than being abandoned.
        """
        if self._stopped.is_set():
            return True
        first = not self._draining
        self._draining = True
        if first:
            self.obs.events.emit("repro.serve.draining", pending=self._pending)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        await self._close_listener()
        while self._pending > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        drained = self._pending == 0
        self._stop_pump()
        self.obs.events.emit(
            "repro.serve.drained", clean=drained, pending=self._pending
        )
        self._flush_metrics()
        self._stopped.set()
        return drained

    async def close(self) -> None:
        """Hard stop (tests/cleanup): no drain guarantee."""
        await self._close_listener()
        self._stop_pump()
        self._stopped.set()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def _flush_metrics(self) -> None:
        if self.metrics_path is None:
            return
        from repro.obs.export import prometheus_text, write_text

        write_text(self.metrics_path, prometheus_text(self.obs.metrics))

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (POSIX event loops)."""
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.drain())
            )

    # ------------------------------------------------------------------
    # The event-driven pump
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        """Bring virtual time up to the real clock, running what is due."""
        target = self.clock()
        if target > self.simulator.now:
            self.simulator.run_until(target)

    def _arm_pump(self) -> None:
        """(Re-)arm the one pump timer at the earliest queued DES event.

        Called by whatever may have queued an earlier event than the one
        the timer waits for: the pump itself, a submission left pending,
        a load. Events only ever queue later events, so nothing else can.
        """
        self._stop_pump()
        due = self.simulator.next_event_time
        if due is not None:
            self._pump_timer = self._loop.call_later(
                max(due - self.clock(), 0.0), self._pump
            )

    def _pump(self) -> None:
        try:
            self._advance()
        finally:
            # A faulty event is the loop's to report, not the pump's to die of.
            self._arm_pump()

    def _stop_pump(self) -> None:
        if self._pump_timer is not None:
            self._pump_timer.cancel()
            self._pump_timer = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stats = self.stats
        stats.connections_total += 1
        stats.connections_open += 1
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    msg = await read_frame(
                        reader, max_bytes=self.max_frame_bytes
                    )
                except ConnectionClosed:
                    break
                except ProtocolError as exc:
                    stats.requests_total += 1
                    stats.protocol_errors += 1
                    frame = error_frame(None, exc.code, str(exc))
                    if await self._send(writer, frame) and exc.recoverable:
                        continue
                    break
                stats.requests_total += 1
                answer = self._dispatch(msg)
                if type(answer) is bytes:
                    # Fast path: resolved without waiting on the fleet,
                    # answered in place — no task, no future.
                    if await self._send(writer, answer):
                        continue
                    break
                self._pending += 1
                task = asyncio.ensure_future(
                    self._answer_later(writer, msg.get("id"), *answer)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # Backpressure: at the window limit the read loop parks
                # here, so the kernel's receive buffer (and then the
                # client's send path) absorbs the excess.
                while len(tasks) >= self.max_inflight:
                    await asyncio.wait(
                        tasks, return_when=asyncio.FIRST_COMPLETED
                    )
        finally:
            # A mid-request disconnect leaves tasks running; they finish
            # (keeping the drain invariant exact) and count their
            # response as dropped when the write fails.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            stats.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, frame: bytes) -> bool:
        """Write one response frame: the one place responses are counted.

        False means the client is gone or too slow to be served: the
        response counts as dropped and the connection is aborted, which
        ends its read loop.
        """
        try:
            await write_frame(writer, frame, timeout=self.write_timeout)
        except ConnectionClosed:
            self.stats.dropped_responses += 1
            writer.transport.abort()
            return False
        self.stats.responses_total += 1
        return True

    async def _answer_later(
        self,
        writer: asyncio.StreamWriter,
        rid: object,
        future: "asyncio.Future[JobRecord]",
        coalesced: bool,
    ) -> None:
        """Miss path: wait for the fleet to resolve the record, answer."""
        try:
            try:
                frame = self._record_frame(rid, await future, coalesced)
            except Exception as exc:  # never kill the connection for a bug
                frame = self._internal_error(rid, exc)
            await self._send(writer, frame)
        finally:
            self._pending -= 1

    def _internal_error(self, rid: object, exc: Exception) -> bytes:
        self.stats.internal_errors += 1
        return error_frame(rid, "internal", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, msg: dict
    ) -> "bytes | tuple[asyncio.Future[JobRecord], bool]":
        """Answer one request: its response frame or, when it has to
        wait for the fleet, ``(future of its record, coalesced)``."""
        rid = msg.get("id")
        if self._draining:
            return error_frame(rid, "shutting_down", "gateway is draining")
        try:
            # Virtual time must not be stale when admission, deadlines
            # or ``record.submitted`` read it.
            self._advance()
            op = msg.get("op")
            if op == "sql" or op == "query":
                return self._handle_query(rid, op, msg)
            if op == "ping":
                return ok_frame(rid, {"pong": True, "time": self.simulator.now})
            if op == "stats":
                return ok_frame(rid, self.snapshot())
            if op == "load":
                return self._handle_load(rid, msg)
            if op == "invalidate":
                return self._handle_invalidate(rid, msg)
            return error_frame(
                rid,
                "unknown_op",
                f"unknown op {op!r} (known: ping, stats, load, invalidate, sql, query)",
            )
        except Exception as exc:  # never kill the connection for a bug
            return self._internal_error(rid, exc)

    def _handle_load(self, rid: object, msg: dict) -> bytes:
        table = msg.get("table")
        rows = msg.get("rows")
        if not isinstance(table, str) or not isinstance(rows, list):
            return error_frame(
                rid, "bad_request", "load needs a table name and a rows list"
            )
        try:
            coerced = [
                {str(k): float(v) for k, v in row.items()} for row in rows
            ]
        except (AttributeError, TypeError, ValueError):
            return error_frame(
                rid, "bad_request", "load rows must be objects of numeric columns"
            )
        try:
            loaded = self.deployment.load(table, coerced)
        except TableNotFoundError as exc:
            return error_frame(rid, "table_not_found", str(exc))
        except ReproError as exc:
            return error_frame(rid, "bad_request", str(exc))
        self._arm_pump()
        info = self.deployment.catalog.get(table)
        return ok_frame(
            rid,
            {"rows_loaded": loaded, "ingest_generation": info.ingest_generation},
        )

    def _handle_invalidate(self, rid: object, msg: dict) -> bytes:
        table = msg.get("table")
        if not isinstance(table, str):
            return error_frame(rid, "bad_request", "invalidate needs a table name")
        try:
            self.deployment.catalog.get(table)
        except TableNotFoundError as exc:
            return error_frame(rid, "table_not_found", str(exc))
        dropped = 0
        cache = self.deployment.proxy.result_cache
        if cache is not None:
            dropped = cache.invalidate_table(table)
        return ok_frame(rid, {"invalidated": dropped})

    def _handle_query(
        self, rid: object, op: str, msg: dict
    ) -> "bytes | tuple[asyncio.Future[JobRecord], bool]":
        tenant = msg.get("tenant")
        if tenant is not None:
            tenant = str(tenant)
        try:
            priority = parse_priority(msg.get("priority"))
            if op == "sql":
                statement = msg.get("sql")
                if not isinstance(statement, str):
                    return error_frame(
                        rid, "bad_request", "sql op needs an sql string"
                    )
                query = self.deployment.compile_sql(statement)
            else:
                query = query_from_spec(msg)
            info = self.deployment.catalog.get(query.table)
        except SqlError as exc:
            return error_frame(rid, "sql", str(exc), context=exc.context())
        except TableNotFoundError as exc:
            return error_frame(rid, "table_not_found", str(exc))
        except QueryError as exc:
            return error_frame(rid, "bad_request", str(exc))

        # Coalescing: attach to an identical query already in flight.
        # With nothing in flight there is no key worth building yet.
        key = None
        if self._inflight_queries:
            key = _coalescing_key(query, info, tenant, priority)
            leader = self._inflight_queries.get(key)
            if leader is not None:
                self.stats.coalesced += 1
                return leader, True
        record = self.manager.submit(
            query, tenant=tenant, priority=priority, on_done=self._resolve
        )
        if record.outcome != "pending":
            return self._record_frame(rid, record, False)
        # Left pending: the DES completes it inside ``run_until`` — the
        # same event loop, so ``_resolve`` may settle the future directly.
        future = self._loop.create_future()
        if key is None:
            key = _coalescing_key(query, info, tenant, priority)
        self._inflight_queries[key] = future
        self._waiters[record.index] = (key, future)
        self._arm_pump()
        return future, False

    def _resolve(self, record: JobRecord) -> None:
        """``on_done`` of every submission.

        Inside ``submit`` (cache hit, rejection) nobody waits yet: the
        read loop answers from the record it gets back.
        """
        waiter = self._waiters.pop(record.index, None)
        if waiter is not None:
            key, future = waiter
            del self._inflight_queries[key]
            if not future.done():
                future.set_result(record)

    def _record_frame(
        self, rid: object, record: JobRecord, coalesced: bool
    ) -> bytes:
        """The response frame for one resolved record.

        A hit's body depends on its cache entry alone (hits are never
        coalesced), so it is encoded once and kept on the entry: later
        hits only splice their request id into it.
        """
        entry = record.cache_entry
        if entry is not None and entry.wire is not None:
            return result_frame(rid, entry.wire)
        if record.outcome in REJECT_OUTCOMES:
            self.stats.count_reject(record.outcome)
            return error_frame(
                rid,
                "rejected",
                f"admission control rejected the query: {record.outcome}",
                reason=record.outcome,
            )
        if record.outcome == "failed" or record.result is None:
            return error_frame(
                rid,
                "query_failed",
                record.error or "query execution failed",
            )
        result = record.result
        payload: dict = {
            "columns": list(result.columns),
            "rows": jsonable(result.rows),
            "outcome": record.outcome,
            "latency": record.latency,
            "rows_scanned": result.rows_scanned,
        }
        metadata = result.metadata
        if record.outcome == "cache_hit" or metadata.get("cached"):
            payload["cached"] = True
        if coalesced:
            payload["coalesced"] = True
        if metadata.get("degraded"):
            # Degraded-completeness answers are explicit on the wire.
            payload["degraded"] = True
            payload["completeness"] = float(
                metadata.get("completeness", 0.0)
            )
        body = encode_body(payload)
        if entry is not None:
            entry.wire = body
        return result_frame(rid, body)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Gateway + fleet counters for the ``stats`` op and the bench."""
        out = self.stats.snapshot()
        out["pending"] = self._pending
        out["draining"] = self._draining
        out["virtual_time"] = self.simulator.now
        cache = self.deployment.proxy.result_cache
        if cache is not None:
            out["cache"] = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
            }
        return out


def _coalescing_key(query: Query, info, tenant, priority) -> tuple:
    """Generations in the key guarantee a request arriving after a load
    can never attach to a pre-load execution."""
    return (
        plan_key(query), info.generation, info.ingest_generation, tenant, priority
    )
