"""Query result cache: versioned keys, LRU, manager/loader integration."""

from __future__ import annotations

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.loader import StreamingLoader
from repro.cubrick.query import AggFunc, Aggregation, Join, Query, QueryResult
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.errors import ConfigurationError
from repro.sched import SchedPolicy, WorkloadManager
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
    assert cache.lookup(query, (0, 0)) is None
    cache.put(query, make_result(), (0, 0))
    hit = cache.lookup(query, (0, 0))
    assert hit is not None
    assert hit.result.rows == [(42.0,)]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio() == pytest.approx(0.5)


def test_version_bump_makes_old_entries_unreachable():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(), (0, 0))
    # Any write bumps a generation; the old key never matches again.
    assert cache.lookup(query, (0, 1)) is None
    assert cache.lookup(query, (1, 0)) is None
    assert cache.lookup(query, (0, 0)) is not None


def test_stored_snapshot_is_independent_of_the_callers_result():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    result = make_result(latency=0.5)
    cache.put(query, result, (0, 0))
    # The caller goes on using (and annotating) its own answer.
    result.rows.append(("corruption",))
    result.metadata["latency"] = 99.0
    entry = cache.lookup(query, (0, 0))
    assert entry.result.rows == [(42.0,)]
    assert entry.result.metadata["latency"] == 0.5


def test_partial_and_degraded_results_are_refused():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(partial=True), (0, 0))
    cache.put(query, make_result(degraded=True), (0, 0))
    assert cache.lookup(query, (0, 0)) is None
    assert len(cache) == 0


def test_lru_eviction_prefers_recently_used():
    cache = QueryResultCache(capacity=2)
    a = make_query(metric="clicks")
    b = Query.build("events", [Aggregation(AggFunc.MAX, "clicks")])
    c = Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
    cache.put(a, make_result(), (0, 0))
    cache.put(b, make_result(), (0, 0))
    cache.lookup(a, (0, 0))  # a is now most recent
    cache.put(c, make_result(), (0, 0))  # evicts b
    assert cache.stats.evictions == 1
    assert cache.lookup(a, (0, 0)) is not None
    assert cache.lookup(b, (0, 0)) is None


def test_invalidate_table_drops_only_that_table():
    cache = QueryResultCache(capacity=8)
    events = make_query("events")
    cache.put(events, make_result(), (0, 0))
    assert cache.invalidate_table("events") == 1
    assert cache.invalidate_table("events") == 0
    assert cache.stats.invalidations == 1
    assert cache.lookup(events, (0, 0)) is None


def test_invalidate_table_drops_entries_that_joined_it():
    cache = QueryResultCache(capacity=8)
    joined = Query.build(
        "events", [Aggregation(AggFunc.SUM, "clicks")],
        joins=[Join("dim_geo", "country", "country")],
    )
    cache.put(joined, make_result(), (0, 0, 0, 0))
    cache.put(make_query(), make_result(), (0, 0))
    assert cache.invalidate_table("dim_geo") == 1
    assert cache.lookup(joined, (0, 0, 0, 0)) is None
    assert cache.lookup(make_query(), (0, 0)) is not None


def test_plan_key_is_structural():
    # Two structurally identical queries built separately share a key.
    assert plan_key(make_query()) == plan_key(make_query())
    with pytest.raises(ConfigurationError):
        QueryResultCache(capacity=0)


# ----------------------------------------------------------------------
# Integration: the manager serving from cache, writes invalidating it
# ----------------------------------------------------------------------


@pytest.fixture
def cached_manager(events_schema):
    deployment = CubrickDeployment(
        DeploymentConfig(seed=11, regions=2, racks_per_region=2, hosts_per_rack=3)
    )
    deployment.create_table(events_schema, num_partitions=4)
    deployment.load("events", make_rows(events_schema, 400, seed=3))
    deployment.simulator.run_until(30.0)
    return WorkloadManager(
        deployment, policy=SchedPolicy.legacy(cache_capacity=32)
    )


def run_query(manager, query):
    record = manager.submit(query)
    assert manager.drain()
    return record


def test_manager_serves_repeats_from_cache(cached_manager):
    query = make_query()
    first = run_query(cached_manager, query)
    second = run_query(cached_manager, query)
    assert first.outcome == "ok"
    assert second.outcome == "cache_hit"
    assert second.result.rows == first.result.rows
    assert second.latency == CACHE_HIT_LATENCY
    assert cached_manager.cache.stats.hits == 1
    # The hit never reached the proxy: one logged execution, the miss.
    [logged] = cached_manager.deployment.proxy.query_log
    assert logged.succeeded and logged.attempts == 1


def test_bulk_load_invalidates_cached_answers(cached_manager, events_schema):
    query = make_query()
    stale = run_query(cached_manager, query)
    cached_manager.deployment.load("events", make_rows(events_schema, 50, seed=4))
    fresh = run_query(cached_manager, query)
    # The load bumped the ingestion generation: the answer was recomputed
    # and reflects the new rows.
    assert fresh.outcome == "ok"
    assert fresh.result.rows[0][0] > stale.result.rows[0][0]


def test_streaming_flush_invalidates_cached_answers(
    cached_manager, events_schema
):
    deployment = cached_manager.deployment
    query = make_query()
    stale = run_query(cached_manager, query)
    info = deployment.catalog.get("events")
    generation_before = info.ingest_generation
    loader = StreamingLoader(deployment, "events", batch_rows=10_000)
    loader.append_many(make_rows(events_schema, 30, seed=5))
    loader.flush()
    assert info.ingest_generation > generation_before
    fresh = run_query(cached_manager, query)
    assert fresh.outcome == "ok"
    assert fresh.result.rows[0][0] > stale.result.rows[0][0]
    # The flush announced itself as a structured event.
    kinds = [e["kind"] for e in deployment.obs.events.tail()]
    assert "cubrick.loader.flush" in kinds


def test_load_into_joined_table_invalidates_cached_join(cached_manager):
    deployment = cached_manager.deployment
    deployment.create_table(TableSchema.build(
        "dim_geo",
        dimensions=[Dimension("country", 100, range_size=25),
                    Dimension("region", 4, range_size=1)],
        metrics=[Metric("population")],
    ), replicated=True)

    def load_countries(countries):
        deployment.load("dim_geo", [
            {"country": c, "region": c % 4, "population": 1.0}
            for c in countries
        ])

    load_countries(range(50))
    query = deployment.compile_sql(
        "SELECT count(*) FROM events "
        "JOIN dim_geo ON events.country = dim_geo.country"
    )
    first = run_query(cached_manager, query)
    assert run_query(cached_manager, query).outcome == "cache_hit"
    load_countries(range(50, 100))
    fresh = run_query(cached_manager, query)
    # The load moved dim_geo's ingest generation, which the key embeds.
    assert fresh.outcome == "ok"
    assert first.result.rows[0][0] < 400
    assert fresh.result.rows[0][0] == 400
