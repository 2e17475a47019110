"""Wire-protocol and gateway behaviour of the serving tier.

Covers the hostile-client matrix the protocol docstring promises:
malformed frames get a typed error and the connection survives;
oversized frames get a typed error and the connection dies (the stream
cannot be trusted); a mid-request disconnect never takes the server
down; SQL and spec errors come back as typed responses; admission
rejections carry their reason; and a graceful drain answers every
accepted in-flight request before stopping (the zero-loss invariant).

All tests run a real gateway on an ephemeral loopback port inside
``asyncio.run`` — no event-loop plugin needed.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.serve import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLargeError,
    MalformedFrameError,
    RealTimeClock,
    ServeClient,
    ServeError,
    ServeGateway,
    build_serving_deployment,
    encode_frame,
    query_from_spec,
    read_frame,
    serve_policy,
)
from repro.serve.gateway import parse_priority
from repro.serve.protocol import (
    HEADER,
    error_response,
    jsonable,
    ok_response,
)
from tests.conftest import tenant_pools


def run(coro):
    return asyncio.run(coro)


async def started_gateway(**kwargs) -> ServeGateway:
    serving = build_serving_deployment(
        kwargs.pop("seed", 0), policy=kwargs.pop("policy", None)
    )
    gateway = ServeGateway(serving, **kwargs)
    await gateway.start()
    return gateway


def _feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def test_frame_roundtrip():
    async def check():
        message = {"op": "ping", "id": 7, "nested": {"a": [1, 2.5, None]}}
        reader = _feed(encode_frame(message) + encode_frame({"op": "stats"}))
        assert await read_frame(reader) == message
        assert await read_frame(reader) == {"op": "stats"}

    run(check())


def test_read_frame_eof_between_frames():
    async def check():
        with pytest.raises(ConnectionClosed):
            await read_frame(_feed(b""))

    run(check())


def test_read_frame_eof_mid_frame():
    async def check():
        truncated = encode_frame({"op": "ping"})[:-3]
        with pytest.raises(ConnectionClosed):
            await read_frame(_feed(truncated))

    run(check())


def test_read_frame_oversized_declared_length():
    async def check():
        with pytest.raises(FrameTooLargeError):
            await read_frame(_feed(HEADER.pack(2**31)), max_bytes=1024)

    run(check())


def test_read_frame_undecodable_payload():
    async def check():
        payload = b"\xffnot json"
        with pytest.raises(MalformedFrameError):
            await read_frame(_feed(HEADER.pack(len(payload)) + payload))

    run(check())


def test_read_frame_rejects_non_object():
    async def check():
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(MalformedFrameError):
            await read_frame(_feed(HEADER.pack(len(payload)) + payload))

    run(check())


def test_response_shapes():
    ok = ok_response(3, {"x": 1})
    assert ok == {"id": 3, "ok": True, "result": {"x": 1}}
    err = error_response(None, "rejected", "no", reason="shed")
    assert err["ok"] is False
    assert err["error"] == {"code": "rejected", "message": "no", "reason": "shed"}


def test_jsonable_coercions():
    import numpy as np

    coerced = jsonable(
        {
            "rows": [(np.float64(1.5), np.int64(2))],
            "flag": True,
            "none": None,
            "other": object(),
        }
    )
    assert coerced["rows"] == [[1.5, 2]]
    assert coerced["flag"] is True
    assert coerced["none"] is None
    assert isinstance(coerced["other"], str)
    # Round-trips through the stdlib encoder.
    json.dumps(coerced)


def test_real_time_clock_is_anchored_and_monotone():
    clock = RealTimeClock(start=1000.0)
    first = clock.now()
    assert first >= 1000.0
    assert clock() >= first


# ----------------------------------------------------------------------
# Request parsing helpers
# ----------------------------------------------------------------------


def test_parse_priority():
    from repro.sched.queue import PriorityClass

    assert parse_priority(None) is PriorityClass.INTERACTIVE
    assert parse_priority("batch") is PriorityClass.BATCH
    assert parse_priority("BACKGROUND") is PriorityClass.BACKGROUND
    with pytest.raises(QueryError):
        parse_priority("urgent")


def test_query_from_spec_full():
    query = query_from_spec(
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "filters": [
                {"op": "between", "dimension": "day", "values": [0, 6]}
            ],
            "group_by": ["day"],
            "order_by": "day",
            "descending": False,
            "limit": 5,
        }
    )
    assert query.table == "events"
    assert query.limit == 5
    assert query.filters[0].values == (0, 6)


@pytest.mark.parametrize(
    "spec",
    [
        {},
        {"table": "events"},
        {"table": "events", "aggregations": ["sum"]},
        {"table": "events", "aggregations": [{"func": "median", "metric": "x"}]},
        {"table": "events", "aggregations": [{"func": "sum"}]},
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "filters": ["day"],
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "filters": [{"op": "near", "dimension": "day", "values": [1]}],
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "filters": [{"op": "eq", "values": [1]}],
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "filters": [{"op": "eq", "dimension": "day", "values": "one"}],
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "filters": [{"op": "eq", "dimension": "day", "values": ["x"]}],
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "group_by": [1],
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "limit": "ten",
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "limit": True,
        },
        {
            "table": "events",
            "aggregations": [{"func": "sum", "metric": "clicks"}],
            "order_by": 3,
        },
    ],
)
def test_query_from_spec_rejects_malformed(spec):
    with pytest.raises(QueryError):
        query_from_spec(spec)


def test_gateway_config_validation():
    serving = build_serving_deployment(0)
    with pytest.raises(ConfigurationError):
        ServeGateway(serving, max_inflight=0)
    with pytest.raises(ConfigurationError):
        ServeGateway(serving).address  # not started


def test_serve_policy_overrides():
    policy = serve_policy(cache_capacity=7)
    assert policy.cache_capacity == 7
    assert policy.adaptive_shedding is True


# ----------------------------------------------------------------------
# Gateway: happy paths
# ----------------------------------------------------------------------


def test_ping_stats_and_virtual_time():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                pong = await client.ping()
                assert pong["pong"] is True
                stats = await client.stats()
                assert stats["connections_open"] == 1
                assert stats["virtual_time"] >= pong["time"]
                assert stats["draining"] is False
        finally:
            await gateway.close()

    run(check())


def test_sql_executes_then_caches():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                first = await client.sql(
                    "SELECT sum(clicks) FROM events", tenant="t0"
                )
                assert first["columns"] == ["sum(clicks)"]
                assert first["rows_scanned"] > 0
                assert not first.get("cached")
                second = await client.sql(
                    "SELECT sum(clicks) FROM events", tenant="t0"
                )
                assert second["cached"] is True
                assert second["rows"] == first["rows"]
        finally:
            await gateway.close()

    run(check())


def test_programmatic_query_op():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                result = await client.query(
                    {
                        "table": "events",
                        "aggregations": [{"func": "sum", "metric": "clicks"}],
                        "group_by": ["day"],
                        "limit": 3,
                    }
                )
                assert result["columns"] == ["day", "sum(clicks)"]
                assert len(result["rows"]) == 3
        finally:
            await gateway.close()

    run(check())


def test_load_bumps_generation_and_invalidate_counts():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                before = await client.sql("SELECT sum(clicks) FROM events")
                loaded = await client.load(
                    "events", [{"day": 1, "clicks": 50.0}]
                )
                assert loaded["rows_loaded"] == 1
                assert loaded["ingest_generation"] >= 2
                after = await client.sql("SELECT sum(clicks) FROM events")
                assert not after.get("cached")
                assert after["rows"][0][0] == before["rows"][0][0] + 50.0
                dropped = await client.invalidate("events")
                assert dropped["invalidated"] >= 0
        finally:
            await gateway.close()

    run(check())


def test_identical_inflight_queries_coalesce():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                statement = "SELECT sum(clicks) FROM events GROUP BY day"
                results = await asyncio.gather(
                    *(client.sql(statement, tenant="t1") for __ in range(4))
                )
            assert gateway.stats.coalesced >= 1
            assert sum(1 for r in results if r.get("coalesced")) >= 1
            rows = {json.dumps(r["rows"]) for r in results}
            assert len(rows) == 1
        finally:
            await gateway.close()

    run(check())


def test_backpressure_window_still_answers_everything():
    async def check():
        gateway = await started_gateway(max_inflight=1)
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                statements = [
                    f"SELECT sum(clicks) FROM events GROUP BY day LIMIT {i}"
                    for i in range(1, 6)
                ]
                results = await asyncio.gather(
                    *(client.sql(s) for s in statements)
                )
            assert len(results) == 5
            assert gateway.stats.responses_total == 5
        finally:
            await gateway.close()

    run(check())


# ----------------------------------------------------------------------
# Gateway: typed errors, hostile clients
# ----------------------------------------------------------------------


def test_sql_error_is_typed_and_connection_survives():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.sql("SELEKT sum(clicks) FROM events")
                assert excinfo.value.code == "sql"
                assert "context" in excinfo.value.error
                pong = await client.ping()
                assert pong["pong"] is True
        finally:
            await gateway.close()

    run(check())


@pytest.mark.parametrize(
    "message, code",
    [
        ({"op": "sql", "sql": "SELECT sum(clicks) FROM ghosts"}, "table_not_found"),
        ({"op": "load", "table": "ghosts", "rows": []}, "table_not_found"),
        ({"op": "invalidate", "table": "ghosts"}, "table_not_found"),
        ({"op": "sql"}, "bad_request"),
        ({"op": "sql", "sql": "SELECT sum(clicks) FROM events",
          "priority": "urgent"}, "bad_request"),
        ({"op": "query", "table": "events"}, "bad_request"),
        ({"op": "load", "table": "events"}, "bad_request"),
        ({"op": "load", "table": "events", "rows": [{"day": "x"}]},
         "bad_request"),
        ({"op": "invalidate"}, "bad_request"),
        ({"op": "compact"}, "unknown_op"),
        ({"op": "query", "table": "ghosts",
          "aggregations": [{"func": "sum", "metric": "clicks"}]},
         "table_not_found"),
    ],
)
def test_typed_request_errors(message, code):
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.call(message)
                assert excinfo.value.code == code
                assert (await client.ping())["pong"] is True
        finally:
            await gateway.close()

    run(check())


def test_malformed_frame_gets_error_and_connection_survives():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            reader, writer = await asyncio.open_connection(host, port)
            garbage = b"\xff\xfe not json"
            writer.write(HEADER.pack(len(garbage)) + garbage)
            await writer.drain()
            response = await read_frame(reader)
            assert response["error"]["code"] == "malformed"
            # Framing was intact, so the connection still works.
            writer.write(encode_frame({"op": "ping", "id": 1}))
            await writer.drain()
            response = await read_frame(reader)
            assert response["ok"] is True
            writer.close()
            await writer.wait_closed()
            assert gateway.stats.protocol_errors == 1
            # The malformed frame was owed (and got) an answer too.
            assert gateway.stats.requests_total == 2
            assert gateway.stats.responses_total == 2
        finally:
            await gateway.close()

    run(check())


def test_oversized_frame_gets_error_then_disconnect():
    async def check():
        gateway = await started_gateway(max_frame_bytes=1024)
        try:
            host, port = gateway.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(HEADER.pack(MAX_FRAME_BYTES + 1))
            await writer.drain()
            response = await read_frame(reader)
            assert response["error"]["code"] == "oversized"
            # The stream is untrusted: the server hangs up on us.
            with pytest.raises(ConnectionClosed):
                await read_frame(reader)
            writer.close()
            await writer.wait_closed()
        finally:
            await gateway.close()

    run(check())


def test_mid_request_disconnect_leaves_server_healthy():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address
            __, writer = await asyncio.open_connection(host, port)
            # Promise 64 bytes, deliver 8, vanish.
            writer.write(HEADER.pack(64) + b"\x00" * 8)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for __ in range(100):
                if gateway.stats.connections_open == 0:
                    break
                await asyncio.sleep(0.01)
            assert gateway.stats.connections_open == 0
            async with ServeClient(host, port) as client:
                assert (await client.ping())["pong"] is True
            assert gateway.pending == 0
        finally:
            await gateway.close()

    run(check())


def test_internal_error_is_contained():
    async def check():
        gateway = await started_gateway()
        try:
            host, port = gateway.address

            def explode(*args, **kwargs):
                raise RuntimeError("wiring fault")

            gateway.manager.submit = explode
            async with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.sql("SELECT sum(clicks) FROM events")
                assert excinfo.value.code == "internal"
                assert "wiring fault" in str(excinfo.value)
                assert (await client.ping())["pong"] is True
            assert gateway.stats.internal_errors == 1
        finally:
            await gateway.close()

    run(check())


def test_client_request_requires_connection():
    async def check():
        client = ServeClient("127.0.0.1", 1)
        with pytest.raises(ConnectionClosed):
            await client.request({"op": "ping"})

    run(check())


def test_admission_rejects_are_typed_with_reason():
    async def check():
        # One slot, depth-1 queues, hair-trigger deadline: a burst of
        # distinct (uncacheable, uncoalesceable) queries must overflow.
        gateway = await started_gateway(
            policy=serve_policy(
                slots_per_node=1, max_queue_depth=1, deadline=0.3
            )
        )
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                statements = [
                    f"SELECT sum(clicks) FROM events GROUP BY day LIMIT {i}"
                    for i in range(1, 25)
                ]
                results = await asyncio.gather(
                    *(client.sql(s) for s in statements),
                    return_exceptions=True,
                )
            rejected = [
                r
                for r in results
                if isinstance(r, ServeError) and r.code == "rejected"
            ]
            assert rejected, "burst never tripped admission control"
            for error in rejected:
                assert error.error["reason"] in (
                    "shed", "quota", "tenant_quota", "queue_full", "deadline",
                )
            assert sum(gateway.stats.rejected.values()) == len(rejected)
        finally:
            await gateway.close()

    run(check())


def test_record_response_error_and_degraded_payloads():
    from repro.sched.manager import JobRecord
    from repro.sched.queue import PriorityClass

    async def check():
        gateway = await started_gateway()
        try:
            def record(outcome, **kwargs):
                return JobRecord(
                    index=0,
                    tenant=None,
                    priority=PriorityClass.INTERACTIVE,
                    table="events",
                    submitted=0.0,
                    outcome=outcome,
                    **kwargs,
                )

            def response(*args):
                frame = gateway._record_frame(*args)
                return json.loads(frame[HEADER.size:])

            shed = response(1, record("shed"), False)
            assert shed["error"]["code"] == "rejected"
            assert shed["error"]["reason"] == "shed"

            failed = response(2, record("failed", error="all regions down"), False)
            assert failed["error"]["code"] == "query_failed"
            assert "all regions down" in failed["error"]["message"]

            from repro.cubrick.query import QueryResult

            degraded = QueryResult(
                columns=["sum(clicks)"],
                rows=[(1.0,)],
                rows_scanned=10,
                metadata={"degraded": True, "completeness": 0.5},
            )
            ok = response(3, record("ok", result=degraded), True)
            payload = ok["result"]
            assert payload["degraded"] is True
            assert payload["completeness"] == 0.5
            assert payload["coalesced"] is True
        finally:
            await gateway.close()

    run(check())


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


def test_drain_answers_every_accepted_request():
    async def check():
        gateway = await started_gateway()
        host, port = gateway.address
        statements = [
            f"SELECT sum(clicks) FROM events GROUP BY day LIMIT {i}"
            for i in range(1, 9)
        ]
        async with ServeClient(host, port) as client:
            tasks = [
                asyncio.ensure_future(client.sql(s)) for s in statements
            ]
            while gateway.pending == 0:
                await asyncio.sleep(0.001)
            accepted = gateway.pending
            assert accepted > 0
            drained = await gateway.drain(timeout=30.0)
            results = await asyncio.gather(*tasks, return_exceptions=True)
        assert drained is True
        assert gateway.pending == 0
        # Zero loss: every accepted in-flight request got a response —
        # a real answer, never a hang or a dropped write.
        assert gateway.stats.dropped_responses == 0
        assert gateway.stats.responses_total == len(statements)
        assert gateway.stats.requests_total == len(statements)
        for outcome in results:
            assert isinstance(outcome, dict), outcome
            assert outcome["columns"]
        # The listener is gone: new connections are refused.
        with pytest.raises((ConnectionError, OSError)):
            await asyncio.open_connection(host, port)

    run(check())


def test_new_requests_during_drain_get_shutting_down():
    async def check():
        gateway = await started_gateway()
        host, port = gateway.address
        async with ServeClient(host, port) as busy, ServeClient(
            host, port
        ) as bystander:
            inflight = asyncio.ensure_future(
                busy.sql("SELECT sum(clicks) FROM events GROUP BY day")
            )
            while gateway.pending == 0:
                await asyncio.sleep(0.001)
            drain_task = asyncio.ensure_future(gateway.drain(timeout=30.0))
            while not gateway.draining:
                await asyncio.sleep(0.001)
            with pytest.raises(ServeError) as excinfo:
                await bystander.ping()
            assert excinfo.value.code == "shutting_down"
            result = await inflight
            assert result["columns"]
            assert await drain_task is True
        # Every frame owed an answer got one, counted in one place —
        # the shutting_down refusal included.
        stats = gateway.stats
        assert stats.requests_total == 2
        assert stats.requests_total == stats.responses_total + stats.dropped_responses

    run(check())


def test_drain_flushes_metrics_and_unblocks_serve_forever(tmp_path):
    async def check():
        metrics_path = tmp_path / "serve_metrics.prom"
        gateway = await started_gateway(metrics_path=str(metrics_path))
        host, port = gateway.address
        forever = asyncio.ensure_future(gateway.serve_forever())
        async with ServeClient(host, port) as client:
            await client.sql("SELECT sum(clicks) FROM events")
        assert await gateway.drain() is True
        await asyncio.wait_for(forever, timeout=5.0)
        text = metrics_path.read_text()
        assert "# TYPE" in text
        events = gateway.obs.events
        assert events.of_kind("repro.serve.draining")
        assert events.of_kind("repro.serve.drained")
        # Drain is idempotent once stopped.
        assert await gateway.drain() is True

    run(check())


def test_sigterm_triggers_graceful_drain():
    async def check():
        gateway = await started_gateway()
        gateway.install_signal_handlers()
        loop = asyncio.get_running_loop()
        try:
            host, port = gateway.address
            async with ServeClient(host, port) as client:
                assert (await client.ping())["pong"] is True
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(gateway.serve_forever(), timeout=10.0)
            assert gateway.pending == 0
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            loop.remove_signal_handler(signal.SIGINT)

    run(check())


# ----------------------------------------------------------------------
# Many concurrent connections
# ----------------------------------------------------------------------


def test_concurrent_clients_get_every_request_answered():
    """16 closed-loop connections for 1 s: every request gets a result or
    a typed rejection, and the gateway counts no protocol or internal
    errors."""

    async def check():
        gateway = await started_gateway()
        pools = tenant_pools(0, 4, 4, gateway.deployment)
        sent = answered = ok = 0
        stop = asyncio.Event()

        async def client_loop(index: int) -> None:
            nonlocal sent, answered, ok
            tenant = index % len(pools)
            pool = pools[tenant]
            async with ServeClient(*gateway.address) as client:
                while not stop.is_set():
                    statement = pool[sent % len(pool)]
                    sent += 1
                    try:
                        await client.sql(statement, tenant=f"t{tenant}")
                        ok += 1
                    except ServeError as exc:
                        assert exc.code == "rejected", exc.code
                    answered += 1

        try:
            tasks = [asyncio.ensure_future(client_loop(i)) for i in range(16)]
            await asyncio.sleep(1.0)
            stop.set()
            await asyncio.gather(*tasks)
            assert ok > 0
            assert answered == sent
            assert gateway.stats.responses_total >= sent
            assert gateway.stats.protocol_errors == 0
            assert gateway.stats.internal_errors == 0
        finally:
            await gateway.close()

    run(check())
