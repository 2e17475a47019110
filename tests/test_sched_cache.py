"""Query result cache: versioned keys, LRU, proxy/loader integration."""

from __future__ import annotations

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.loader import StreamingLoader
from repro.cubrick.query import AggFunc, Aggregation, Query, QueryResult
from repro.errors import ConfigurationError
from repro.sched.cache import CACHE_HIT_LATENCY, QueryResultCache, plan_key

from tests.conftest import make_rows


def make_query(table="events", metric="clicks"):
    return Query.build(table, [Aggregation(AggFunc.SUM, metric)])


def make_result(value=42.0, **metadata):
    return QueryResult(
        columns=("sum(clicks)",),
        rows=[(value,)],
        rows_scanned=100,
        bricks_scanned=3,
        metadata=metadata,
    )


def test_round_trip_and_stats():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    assert cache.get(query, generation=0, ingest_generation=0) is None
    cache.put(query, make_result(), generation=0, ingest_generation=0)
    hit = cache.get(query, generation=0, ingest_generation=0)
    assert hit is not None
    assert hit.rows == [(42.0,)]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio() == pytest.approx(0.5)


def test_version_bump_makes_old_entries_unreachable():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(), generation=0, ingest_generation=0)
    # Any write bumps a generation; the old key never matches again.
    assert cache.get(query, generation=0, ingest_generation=1) is None
    assert cache.get(query, generation=1, ingest_generation=0) is None
    assert cache.get(query, generation=0, ingest_generation=0) is not None


def test_returned_copy_is_independent_of_the_snapshot():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(latency=0.5), generation=0, ingest_generation=0)
    first = cache.get(query, generation=0, ingest_generation=0)
    first.rows.append(("corruption",))
    first.metadata["latency"] = 99.0
    second = cache.get(query, generation=0, ingest_generation=0)
    assert second.rows == [(42.0,)]
    assert second.metadata["latency"] == 0.5


def test_partial_and_degraded_results_are_refused():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(partial=True), generation=0, ingest_generation=0)
    cache.put(query, make_result(degraded=True), generation=0, ingest_generation=0)
    assert cache.get(query, generation=0, ingest_generation=0) is None
    assert len(cache) == 0


def test_lru_eviction_prefers_recently_used():
    cache = QueryResultCache(capacity=2)
    a = make_query(metric="clicks")
    b = Query.build("events", [Aggregation(AggFunc.MAX, "clicks")])
    c = Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
    cache.put(a, make_result(), generation=0, ingest_generation=0)
    cache.put(b, make_result(), generation=0, ingest_generation=0)
    cache.get(a, generation=0, ingest_generation=0)  # a is now most recent
    cache.put(c, make_result(), generation=0, ingest_generation=0)  # evicts b
    assert cache.stats.evictions == 1
    assert cache.get(a, generation=0, ingest_generation=0) is not None
    assert cache.get(b, generation=0, ingest_generation=0) is None


def test_invalidate_table_drops_only_that_table():
    cache = QueryResultCache(capacity=8)
    events = make_query("events")
    cache.put(events, make_result(), generation=0, ingest_generation=0)
    assert cache.invalidate_table("events") == 1
    assert cache.invalidate_table("events") == 0
    assert cache.stats.invalidations == 1
    assert cache.get(events, generation=0, ingest_generation=0) is None


def test_plan_key_is_structural():
    # Two structurally identical queries built separately share a key.
    assert plan_key(make_query()) == plan_key(make_query())
    with pytest.raises(ConfigurationError):
        QueryResultCache(capacity=0)


# ----------------------------------------------------------------------
# Integration: proxy serving from cache, writes invalidating it
# ----------------------------------------------------------------------


@pytest.fixture
def cached_deployment(events_schema):
    deployment = CubrickDeployment(
        DeploymentConfig(seed=11, regions=2, racks_per_region=2, hosts_per_rack=3)
    )
    # Installed the way WorkloadManager installs it.
    deployment.proxy.result_cache = QueryResultCache(32)
    deployment.create_table(events_schema, num_partitions=4)
    deployment.load("events", make_rows(events_schema, 400, seed=3))
    deployment.simulator.run_until(30.0)
    return deployment


def test_proxy_serves_repeats_from_cache(cached_deployment):
    query = make_query()
    first = cached_deployment.proxy.submit(query)
    second = cached_deployment.proxy.submit(query)
    assert second.rows == first.rows
    assert "cached" not in first.metadata
    assert second.metadata["cached"] is True
    assert second.metadata["latency_total"] == CACHE_HIT_LATENCY
    assert cached_deployment.proxy.result_cache.stats.hits == 1
    # The query log records the hit without any node attempts.
    assert cached_deployment.proxy.query_log[-1].cached
    assert cached_deployment.proxy.query_log[-1].attempts == 0


def test_bulk_load_invalidates_cached_answers(cached_deployment, events_schema):
    query = make_query()
    stale = cached_deployment.proxy.submit(query)
    cached_deployment.load("events", make_rows(events_schema, 50, seed=4))
    fresh = cached_deployment.proxy.submit(query)
    # The load bumped the ingestion generation: the answer was recomputed
    # and reflects the new rows.
    assert "cached" not in fresh.metadata
    assert fresh.rows[0][0] > stale.rows[0][0]


def test_streaming_flush_invalidates_cached_answers(
    cached_deployment, events_schema
):
    query = make_query()
    stale = cached_deployment.proxy.submit(query)
    info = cached_deployment.catalog.get("events")
    generation_before = info.ingest_generation
    loader = StreamingLoader(cached_deployment, "events", batch_rows=10_000)
    loader.append_many(make_rows(events_schema, 30, seed=5))
    loader.flush()
    assert info.ingest_generation > generation_before
    fresh = cached_deployment.proxy.submit(query)
    assert "cached" not in fresh.metadata
    assert fresh.rows[0][0] > stale.rows[0][0]
    # The flush announced itself as a structured event.
    kinds = [e["kind"] for e in cached_deployment.obs.events.tail()]
    assert "cubrick.loader.flush" in kinds
