"""WorkloadManager: admission, caching, queues and SLA accounting."""

from __future__ import annotations

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.errors import ConfigurationError
from repro.sched import PriorityClass, SchedPolicy, WorkloadManager

from tests.conftest import make_rows


@pytest.fixture
def deployment(events_schema):
    d = CubrickDeployment(
        DeploymentConfig(seed=21, regions=2, racks_per_region=2, hosts_per_rack=3)
    )
    d.create_table(events_schema, num_partitions=4)
    d.load("events", make_rows(events_schema, 300, seed=2))
    d.simulator.run_until(30.0)
    return d


def make_query(metric="clicks"):
    return Query.build("events", [Aggregation(AggFunc.SUM, metric)])


def test_managed_submit_resolves_with_sla_accounting(deployment):
    manager = WorkloadManager(deployment, policy=SchedPolicy())
    record = manager.submit(make_query(), tenant="acme")
    assert record.outcome == "pending"
    assert manager.outstanding() == 1
    assert manager.drain()
    assert record.outcome == "ok"
    assert record.admitted
    assert record.sla_ok
    assert record.latency > 0.0
    assert record.node in manager.queues
    assert manager.admitted_success_ratio() == 1.0
    assert manager.obs.metrics.counter("repro.sched.sla", outcome="ok").value == 1


def test_repeat_queries_hit_the_cache_and_skip_the_queue(deployment):
    manager = WorkloadManager(deployment, policy=SchedPolicy())
    first = manager.submit(make_query(), tenant="acme")
    manager.drain()
    done = []
    second = manager.submit(make_query(), tenant="acme", on_done=done.append)
    # Cache hits resolve synchronously — no queueing, no drain needed.
    assert done == [second]
    assert second.outcome == "cache_hit"
    assert second.admitted
    assert second.sla_ok
    assert second.latency < first.latency
    hits = manager.obs.metrics.counter("repro.sched.cache", outcome="hit")
    assert hits.value == 1


def test_round_robin_spreads_jobs_across_region_queues(deployment):
    manager = WorkloadManager(
        deployment, policy=SchedPolicy(cache_capacity=0)
    )
    records = [manager.submit(make_query(), tenant="acme") for __ in range(4)]
    assert manager.drain()
    nodes = [r.node for r in records]
    assert nodes == ["region0", "region1", "region0", "region1"]


def test_quota_rejections_count_and_emit_events(deployment):
    manager = WorkloadManager(
        deployment,
        policy=SchedPolicy(
            global_rate=1.0, adaptive_shedding=False, cache_capacity=0
        ),
    )
    outcomes = [
        manager.submit(make_query(), tenant="acme").outcome for __ in range(3)
    ]
    # The global bucket starts with one token: the rest bounce synchronously.
    assert outcomes.count("quota") == 2
    counter = manager.obs.metrics.counter("repro.sched.admission", reason="quota")
    assert counter.value == 2
    rejected = [
        e for e in manager.obs.events.tail()
        if e["kind"] == "repro.sched.rejected"
    ]
    assert len(rejected) == 2
    assert rejected[0]["reason"] == "quota"
    assert rejected[0]["tenant"] == "acme"
    assert rejected[0]["table"] == "events"
    assert manager.drain()
    # Rejected queries are not admitted and never count against the SLA.
    assert manager.admitted_success_ratio() == 1.0


def test_tenant_quota_isolates_tenants(deployment):
    manager = WorkloadManager(
        deployment,
        policy=SchedPolicy(
            tenant_rate=1.0, adaptive_shedding=False, cache_capacity=0
        ),
    )
    assert manager.submit(make_query(), tenant="hog").outcome == "pending"
    assert manager.submit(make_query(), tenant="hog").outcome == "tenant_quota"
    assert manager.submit(make_query(), tenant="quiet").outcome == "pending"
    assert manager.drain()


def test_queue_full_overflow_is_counted(deployment):
    manager = WorkloadManager(
        deployment,
        policy=SchedPolicy(
            slots_per_node=1,
            max_queue_depth=1,
            adaptive_shedding=False,
            cache_capacity=0,
        ),
    )
    # Per region: 1 running + 1 waiting; the rest bounce as queue_full.
    records = [manager.submit(make_query(), tenant="acme") for __ in range(8)]
    full = [r for r in records if r.outcome == "queue_full"]
    assert len(full) == 4
    assert all(not r.sla_ok for r in full)
    counter = manager.obs.metrics.counter(
        "repro.sched.admission", reason="queue_full"
    )
    assert counter.value == 4
    assert manager.drain()


def test_legacy_policy_admits_everything_and_queues_forever(deployment):
    manager = WorkloadManager(deployment, policy=SchedPolicy.legacy())
    assert manager.admission is None
    assert manager.cache is None
    assert manager.shedder is None
    records = [manager.submit(make_query(), tenant="acme") for __ in range(20)]
    assert all(r.outcome == "pending" for r in records)
    assert manager.drain()
    assert all(r.outcome == "ok" for r in records)
    # Deadlines are accounted (sla_ok may be False) but never enforced:
    # nothing was dropped.
    assert all(r.admitted for r in records)


def test_background_priority_waits_behind_interactive(deployment):
    manager = WorkloadManager(
        deployment,
        policy=SchedPolicy(
            slots_per_node=1, adaptive_shedding=False, cache_capacity=0,
            deadline=60.0,
        ),
    )
    order = []
    manager.submit(make_query(), tenant="seed")  # occupies region0's slot
    # Pin the round-robin so both contenders land on busy region0.
    manager._next_queue = 0
    manager.submit(
        make_query(), tenant="bg", priority=PriorityClass.BACKGROUND,
        on_done=lambda r: order.append("bg"),
    )
    manager._next_queue = 0
    manager.submit(
        make_query(), tenant="fg", priority=PriorityClass.INTERACTIVE,
        on_done=lambda r: order.append("fg"),
    )
    assert manager.drain()
    assert order == ["fg", "bg"]


def test_drain_gives_up_at_the_horizon(deployment):
    manager = WorkloadManager(deployment, policy=SchedPolicy.legacy())
    for __ in range(5):
        manager.submit(make_query(), tenant="acme")
    assert not manager.drain(max_time=1e-9, step=1e-9)
    assert manager.outstanding() > 0
    with pytest.raises(ConfigurationError):
        manager.drain(step=0.0)
    assert manager.drain()


def test_retain_recent_bounds_every_per_query_log(deployment):
    manager = WorkloadManager(deployment, policy=SchedPolicy(cache_capacity=0))
    manager.retain_recent(8)
    for __ in range(40):
        manager.submit(make_query(), tenant="acme")
        assert manager.drain()
    assert len(manager.records) == 8
    assert len(deployment.proxy.query_log) == 8
    coordinators = deployment.coordinators.values()
    assert max(len(c.executions) for c in coordinators) == 8
    assert all(c.success_ratio() == 1.0 for c in coordinators)
    assert deployment.proxy.success_ratio() == 1.0
    assert deployment.proxy.first_try_success_ratio() == 1.0


@pytest.mark.parametrize("cache_capacity", [0, 256])
def test_unknown_table_fails_the_same_with_or_without_cache(
    deployment, cache_capacity
):
    manager = WorkloadManager(
        deployment, policy=SchedPolicy(cache_capacity=cache_capacity)
    )
    done = []
    record = manager.submit(
        Query.build("ghosts", [Aggregation(AggFunc.SUM, "clicks")]),
        on_done=done.append,
    )
    assert manager.drain()
    assert record.outcome == "failed"
    assert record.error.startswith("TableNotFoundError")
    assert done == [record]
    assert manager.outstanding() == 0


def test_unknown_table_is_not_a_cache_lookup(deployment):
    # The metrics registry and the cache's own stats (the gateway's
    # ``stats`` op) count the same misses.
    manager = WorkloadManager(deployment, policy=SchedPolicy(cache_capacity=8))
    misses = manager.obs.metrics.counter("repro.sched.cache", outcome="miss")
    manager.submit(Query.build("ghosts", [Aggregation(AggFunc.SUM, "clicks")]))
    assert manager.drain()
    assert manager.cache.stats.misses == misses.value == 0
    manager.submit(make_query())
    assert manager.drain()
    assert manager.cache.stats.misses == misses.value == 1
