"""Result-cache freshness under concurrent serving traffic.

The DES never had concurrency: one query ran start-to-finish before
anything else moved. The serving tier breaks that assumption — loads
and queries interleave on the event loop — so the result cache's
generation keying carries the whole freshness contract. These tests pin
it down from both ends:

* a deterministic regression for the mid-flight store race: a load
  landing between a query's execution and its cache store must make the
  stored entry unreachable, never a stale hit (the store is keyed by
  the *pre-execution* version snapshot);
* an asyncio stress test against a live gateway: concurrent closed-loop
  readers racing a writer, asserting that no response ever reflects
  less data than had been acknowledged as loaded before the query was
  submitted;
* the same contract for the hit fast path: a hit is answered from bytes
  encoded once and kept on the cache entry, so those bytes must become
  unreachable with the entry — a hit issued after an acknowledged load
  can never carry pre-load bytes.
"""

from __future__ import annotations

import asyncio

from repro.serve import (
    ServeClient,
    ServeError,
    ServeGateway,
    build_serving_deployment,
)


def _total(result_rows) -> float:
    return float(result_rows[0][0])


def test_cache_store_keyed_by_preexecution_versions():
    """A load landing mid-query must not poison the cache (stale read)."""
    serving = build_serving_deployment(0)
    deployment = serving.deployment
    proxy = deployment.proxy
    query = deployment.compile_sql("SELECT sum(clicks) FROM events")

    real_submit = proxy._submit

    def load_lands_mid_flight(q, **kwargs):
        result = real_submit(q, **kwargs)
        # Executed against the old data; the bump happens before the
        # proxy gets a chance to store the answer.
        deployment.load("events", [{"day": 1, "clicks": 50.0}])
        return result

    proxy._submit = load_lands_mid_flight
    stale = proxy.submit(query)
    proxy._submit = real_submit

    fresh = proxy.submit(query)
    assert not fresh.metadata.get("cached"), (
        "post-load lookup hit a cache entry stored for pre-load data"
    )
    assert _total(fresh.rows) == _total(stale.rows) + 50.0
    # And the fresh answer is itself cacheable under the new versions.
    again = proxy.submit(query)
    assert again.metadata.get("cached") is True
    assert _total(again.rows) == _total(fresh.rows)


def test_no_stale_reads_under_concurrent_load_and_query():
    """Readers racing a writer never observe acknowledged data missing."""

    async def stress() -> None:
        serving = build_serving_deployment(0)
        gateway = ServeGateway(serving)
        host, port = await gateway.start()
        statement = "SELECT sum(clicks) FROM events"
        violations: list[tuple[float, float]] = []
        unexpected: list[str] = []
        stop = asyncio.Event()
        # Sum of clicks acknowledged by a load response so far. Updated
        # only *after* the gateway confirms the load, so any query
        # submitted later must see at least this much extra data.
        committed = 0.0
        reads = 0
        cached_reads = 0

        async with ServeClient(host, port) as probe:
            baseline = _total((await probe.sql(statement))["rows"])

        async def writer() -> None:
            nonlocal committed
            async with ServeClient(host, port) as client:
                while not stop.is_set():
                    await client.load(
                        "events", [{"day": 3, "clicks": 1000.0}]
                    )
                    committed += 1000.0
                    await asyncio.sleep(0.02)

        async def reader(index: int) -> None:
            nonlocal reads, cached_reads
            async with ServeClient(host, port) as client:
                while not stop.is_set():
                    floor = baseline + committed
                    try:
                        result = await client.sql(
                            statement, tenant=f"reader{index}"
                        )
                    except ServeError as exc:
                        if exc.code != "rejected":
                            unexpected.append(exc.code)
                        continue
                    reads += 1
                    cached_reads += bool(result.get("cached"))
                    total = _total(result["rows"])
                    if total < floor - 1e-6:
                        violations.append((total, floor))

        tasks = [asyncio.ensure_future(writer())]
        tasks += [asyncio.ensure_future(reader(i)) for i in range(6)]
        await asyncio.sleep(2.0)
        stop.set()
        await asyncio.gather(*tasks)
        await gateway.drain(timeout=30.0)

        assert not unexpected, f"unexpected error codes: {unexpected}"
        assert reads >= 10, f"stress produced too few reads: {reads}"
        assert committed >= 1000.0, "writer never landed a load"
        # Between loads the readers were served from pre-encoded bytes,
        # so the floor above held for the fast path too.
        assert cached_reads >= 1, "stress never exercised the hit path"
        assert not violations, (
            f"stale reads observed (total, required floor): {violations[:5]}"
        )
        assert gateway.stats.dropped_responses == 0

    asyncio.run(stress())


def test_hit_bytes_die_with_their_generation():
    """Pre-encoded hit bytes are never served across an acknowledged load."""

    async def check() -> None:
        serving = build_serving_deployment(0)
        gateway = ServeGateway(serving)
        host, port = await gateway.start()
        cache = serving.deployment.proxy.result_cache
        statement = "SELECT sum(clicks) FROM events"
        async with ServeClient(host, port) as client:
            before = _total((await client.sql(statement))["rows"])
            for __ in range(3):  # slow-path hit, then hits from its bytes
                hit = await client.sql(statement)
                assert hit["cached"] is True
                assert _total(hit["rows"]) == before
            stale = [e for e in cache._entries.values() if e.wire is not None]
            assert len(stale) == 1

            await client.load("events", [{"day": 3, "clicks": 1000.0}])
            fresh = await client.sql(statement)
            assert not fresh.get("cached")
            assert _total(fresh["rows"]) == before + 1000.0
            for __ in range(3):
                hit = await client.sql(statement)
                assert hit["cached"] is True
                assert _total(hit["rows"]) == before + 1000.0
            # The new generation got its own entry and its own bytes.
            encoded = [e for e in cache._entries.values() if e.wire is not None]
            assert len(encoded) == 2 and stale[0] in encoded

            # An explicit invalidation takes entry and bytes together.
            await client.invalidate("events")
            assert len(cache) == 0
            assert not (await client.sql(statement)).get("cached")
        await gateway.drain(timeout=30.0)

    asyncio.run(check())


def test_coalesced_followers_share_fresh_generation_only():
    """A request arriving after a load never attaches to a pre-load run."""

    async def check() -> None:
        serving = build_serving_deployment(0)
        gateway = ServeGateway(serving)
        host, port = await gateway.start()
        statement = "SELECT sum(clicks) FROM events GROUP BY day"
        async with ServeClient(host, port) as client:
            leader = asyncio.ensure_future(client.sql(statement))
            # Give the leader's submission a tick to register in the
            # coalescing map, then invalidate its generation via a load.
            while not gateway._inflight_queries:
                await asyncio.sleep(0.001)
            await client.load("events", [{"day": 3, "clicks": 77.0}])
            follower = await client.sql(statement)
            leader_result = await leader
        await gateway.drain(timeout=30.0)
        # The follower ran against the post-load generation: it must not
        # have coalesced onto the pre-load leader, and its day-3 bucket
        # carries the extra clicks.
        assert not follower.get("coalesced")
        by_day_leader = dict(
            (row[0], row[1]) for row in leader_result["rows"]
        )
        by_day_follower = dict(
            (row[0], row[1]) for row in follower["rows"]
        )
        assert by_day_follower[3] == by_day_leader[3] + 77.0

    asyncio.run(check())
