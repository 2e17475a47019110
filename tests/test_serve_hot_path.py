"""The serving hot path: what a cache hit costs, and what it must not break.

A hit is a statement-cache lookup, a result-cache lookup and a splice of
the request id into bytes encoded once. These tests pin down the
contracts that shortcut leans on: the spliced frame is byte-identical to
the fully encoded one, the statement cache is bounded, replans after a
schema change and never hides a dropped table, a running gateway keeps
O(1) memory per request, the event-driven pump neither spins when idle
nor lets virtual time go stale, and a client that stops reading is
still cut off.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
import tracemalloc

import pytest

from repro.core.deployment import STATEMENT_CACHE_SIZE
from repro.cubrick.query import Filter
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.errors import SqlError, TableNotFoundError
from repro.serve import (
    ServeClient,
    ServeError,
    ServeGateway,
    build_serving_deployment,
    encode_frame,
)
from repro.serve.gateway import RECENT_RECORDS
from repro.serve.protocol import HEADER, ok_response
from tests.conftest import tenant_pools


async def started_gateway(**kwargs) -> ServeGateway:
    gateway = ServeGateway(build_serving_deployment(0), **kwargs)
    await gateway.start()
    return gateway


async def read_raw_frame(reader: asyncio.StreamReader) -> bytes:
    header = await reader.readexactly(HEADER.size)
    return header + await reader.readexactly(HEADER.unpack(header)[0])


def sql_frame(rid: object, statement: str) -> bytes:
    return encode_frame({"id": rid, "op": "sql", "sql": statement})


# ----------------------------------------------------------------------
# (a) Pre-encoded hits are byte-identical to fully encoded ones
# ----------------------------------------------------------------------


def test_spliced_hit_frames_are_byte_identical_to_encoded_ones():
    async def check():
        gateway = await started_gateway()
        # Every statement shape the dashboard generator produces.
        statements = sorted(
            {s for pool in tenant_pools(0, 6, 8, gateway.deployment) for s in pool}
        )
        try:
            reader, writer = await asyncio.open_connection(*gateway.address)

            async def ask(rid, statement) -> bytes:
                writer.write(sql_frame(rid, statement))
                return await read_raw_frame(reader)

            # Misses first, pipelined: each waits out its simulated latency.
            for index, statement in enumerate(statements):
                writer.write(sql_frame(index, statement))
            misses = {}
            for __ in statements:
                response = json.loads((await read_raw_frame(reader))[HEADER.size:])
                assert response["ok"] and not response["result"].get("cached")
                misses[statements[response["id"]]] = response["result"]

            for statement in statements:
                # First hit: the slow path builds the payload, encodes it
                # and leaves the bytes on the cache entry.
                first = await ask(1, statement)
                payload = json.loads(first[HEADER.size:])["result"]
                assert payload["cached"] is True
                assert payload["rows"] == misses[statement]["rows"]
                assert first == encode_frame(ok_response(1, payload))
                # Later hits splice their id into those bytes.
                for rid in (7, 'a"b', None, 2**70, 1.5, True, {"k": [1]}):
                    spliced = await ask(rid, statement)
                    assert spliced == encode_frame(ok_response(rid, payload))
            assert gateway.stats.internal_errors == 0
            writer.close()
            await writer.wait_closed()
        finally:
            await gateway.close()

    asyncio.run(check())


# ----------------------------------------------------------------------
# (b) Statement cache
# ----------------------------------------------------------------------


def test_statement_cache_is_bounded_and_skips_failures():
    deployment = build_serving_deployment(0).deployment
    statement = "SELECT sum(clicks) FROM events"
    query = deployment.compile_sql(statement)
    assert deployment.compile_sql(statement) is query
    assert query.plan_key == statement

    # A statement that does not compile raises every time, uncached.
    before = deployment._statement_cache.cache_info().currsize
    for __ in range(2):
        with pytest.raises(SqlError):
            deployment.compile_sql("SELEKT sum(clicks) FROM events")
    assert deployment._statement_cache.cache_info().currsize == before

    # An empty plan is a plan: cached, and keyed apart from the
    # unfiltered statement.
    empty = deployment.compile_sql(f"{statement} WHERE day = 99")
    assert deployment.compile_sql(f"{statement} WHERE day = 99") is empty
    assert "always false" in empty.empty_reason
    assert empty.plan_key == f"{statement} WHERE FALSE"

    # Bounded: a stream of distinct statements evicts the oldest.
    for limit in range(1, STATEMENT_CACHE_SIZE + 2):
        deployment.compile_sql(f"{statement} GROUP BY day LIMIT {limit}")
    info = deployment._statement_cache.cache_info()
    assert info.currsize == info.maxsize == STATEMENT_CACHE_SIZE
    assert deployment.compile_sql(statement) is not query
    assert deployment.compile_sql(statement) == query


def test_statement_cache_replans_after_the_schema_changes():
    deployment = build_serving_deployment(0).deployment
    metric = "SELECT sum(clicks) FROM events"
    ranged = "SELECT count(*) FROM events WHERE day < 40"
    cached = deployment.compile_sql(metric)
    assert deployment.compile_sql(ranged).filters == ()  # all 30 days

    deployment.drop_table("events")
    deployment.create_table(TableSchema.build(
        "events", [Dimension("day", 60, range_size=7)], [Metric("taps")]
    ))
    with pytest.raises(SqlError, match="unknown column 'clicks'"):
        deployment.compile_sql(metric)
    assert deployment.compile_sql(ranged).filters == (
        Filter.between("day", 0, 39),
    )
    renamed = deployment.compile_sql("SELECT sum(taps) FROM events")
    assert renamed is not cached and renamed.aggregations[0].metric == "taps"


def test_statement_cache_replans_a_join_once_its_dimension_grows():
    deployment = build_serving_deployment(0).deployment
    deployment.create_table(TableSchema.build(
        "dim_days", [Dimension("day", 30), Dimension("season", 4)], []
    ), num_partitions=2)

    def load_days(count):
        deployment.load("dim_days", [
            {"day": d % 30, "season": d % 4} for d in range(count)
        ])

    load_days(30)
    statement = (
        "SELECT count(*) FROM events JOIN dim_days "
        "ON events.day = dim_days.day"
    )
    small = deployment.compile_sql(statement)
    assert small.joins[0].strategy == "broadcast"
    assert deployment.compile_sql(statement) is small
    # Past the broadcast threshold the strategy's row count is stale:
    # the cached plan is recompiled to what EXPLAIN now plans.
    load_days(10_001)
    large = deployment.compile_sql(statement)
    assert large.joins[0].strategy == "partitioned-hash"
    assert "[hash-join]" in deployment.explain(statement)
    assert deployment.compile_sql(statement) is large
    # The strategy is not part of the plan key: the answer is the same.
    assert large.plan_key == small.plan_key


def test_statement_cache_never_hides_a_dropped_table():
    async def check():
        gateway = await started_gateway()
        try:
            deployment = gateway.deployment
            async with ServeClient(*gateway.address) as client:
                statement = "SELECT sum(clicks) FROM events"
                await client.sql(statement)
                assert (await client.sql(statement))["cached"] is True
                deployment.drop_table("events")
                for __ in range(2):
                    with pytest.raises(ServeError) as excinfo:
                        await client.sql(statement)
                    assert excinfo.value.code == "table_not_found"
            with pytest.raises(TableNotFoundError):
                deployment.compile_sql(statement)
        finally:
            await gateway.close()

    asyncio.run(check())


# ----------------------------------------------------------------------
# (d) O(1) memory per request
# ----------------------------------------------------------------------


def test_pipelined_hits_leave_bounded_memory():
    requests = 20_000

    async def check():
        gateway = await started_gateway()
        statement = "SELECT sum(clicks) FROM events GROUP BY day"
        try:
            reader, writer = await asyncio.open_connection(*gateway.address)

            async def burst(count: int) -> None:
                async def send() -> None:
                    for rid in range(count):
                        writer.write(sql_frame(rid, statement))
                        if rid % 256 == 0:
                            await writer.drain()

                sender = asyncio.ensure_future(send())
                for __ in range(count):
                    await read_raw_frame(reader)
                await sender

            await burst(1)  # the miss
            await burst(RECENT_RECORDS)  # hits: a full window of records
            hits_before = gateway.manager.cache.stats.hits
            tracemalloc.start()
            try:
                baseline, __ = tracemalloc.get_traced_memory()
                await burst(requests)
                grown = tracemalloc.get_traced_memory()[0] - baseline
            finally:
                tracemalloc.stop()
            writer.close()
            await writer.wait_closed()
        finally:
            await gateway.close()
        cache = gateway.manager.cache
        assert cache.stats.hits - hits_before == requests
        assert len(gateway.manager.records) == RECENT_RECORDS
        assert gateway.manager.records[-1].index == RECENT_RECORDS + requests
        # One retained JobRecord is ~1 kB: unbounded retention would be
        # ~20 MB here.
        assert grown < 512 * 1024, f"{grown} bytes retained by {requests} hits"
        assert gateway.stats.requests_total == (
            gateway.stats.responses_total + gateway.stats.dropped_responses
        )

    asyncio.run(check())


# ----------------------------------------------------------------------
# (e) The event-driven pump
# ----------------------------------------------------------------------


def test_idle_gateway_does_not_spin_and_time_does_not_go_stale():
    async def check():
        gateway = await started_gateway()
        simulator = gateway.simulator
        calls = 0
        real_run_until = simulator.run_until

        def counting_run_until(end_time):
            nonlocal calls
            calls += 1
            real_run_until(end_time)

        simulator.run_until = counting_run_until
        try:
            async with ServeClient(*gateway.address) as client:
                await asyncio.sleep(1.0)
                # A 5 ms heartbeat would have made ~200 calls by now.
                assert calls <= 20, f"idle pump advanced the DES {calls} times"
                # Nobody advanced virtual time meanwhile, but no request
                # ever sees it stale.
                pong = await client.ping()
                assert abs(gateway.clock() - pong["time"]) < 0.05

                await asyncio.sleep(0.3)
                begin = time.perf_counter()
                result = await client.sql(
                    "SELECT sum(clicks) FROM events GROUP BY day LIMIT 7"
                )
                wall = time.perf_counter() - begin
                assert not result.get("cached")
                # The miss was submitted at the real "now" and completed
                # when the simulation said it would.
                assert abs(wall - result["latency"]) < 0.05
        finally:
            simulator.run_until = real_run_until
            await gateway.close()

    asyncio.run(check())


# ----------------------------------------------------------------------
# (f) Slow readers
# ----------------------------------------------------------------------


def test_slow_reader_trips_the_write_timeout_and_is_dropped():
    async def check():
        gateway = await started_gateway(write_timeout=0.2)
        statement = "SELECT sum(clicks) FROM events GROUP BY day"
        try:
            async with ServeClient(*gateway.address) as client:
                await client.sql(statement)  # warm the cache
            # A client with a tiny receive buffer that never reads.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, gateway.address)
            __, writer = await asyncio.open_connection(sock=sock)
            for rid in range(30_000):
                writer.write(sql_frame(rid, statement))
            for __ in range(200):
                if gateway.stats.dropped_responses:
                    break
                await asyncio.sleep(0.05)
            assert gateway.stats.dropped_responses >= 1
            for __ in range(100):
                if gateway.stats.connections_open == 0:
                    break
                await asyncio.sleep(0.01)
            assert gateway.stats.connections_open == 0
            writer.close()
            # The gateway is still healthy for everyone else.
            async with ServeClient(*gateway.address) as client:
                assert (await client.sql(statement))["cached"] is True
        finally:
            await gateway.close()

    asyncio.run(check())
