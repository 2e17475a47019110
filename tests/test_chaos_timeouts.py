"""Regression tests: per-hop timeout semantics.

The region coordinator routes the decision through the query's
``TimeoutPolicy.is_timeout``: a hop that exceeds the bound counts as a
failed attempt and consumes the proxy's retry budget like a crash.
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import ChaosInjector, FaultSchedule
from repro.chaos.policies import ResiliencePolicy, RetryPolicy, TimeoutPolicy
from repro.chaos.scenarios import build_chaos_deployment
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.errors import QueryFailedError


@pytest.fixture
def settled():
    deployment, expected_total = build_chaos_deployment(seed=13)
    deployment.simulator.run_until(30.0)
    return deployment, expected_total


def _sum_query():
    return Query.build("events", [Aggregation(AggFunc.SUM, "clicks")])


def test_coordinator_counts_timed_out_hop_as_failed(settled):
    deployment, __ = settled
    injector = ChaosInjector(deployment)
    # Amplify one region0 host far past the per-hop bound.
    injector.install(
        FaultSchedule().slow_disk(
            40.0, "region0-rack000-host000", factor=10_000.0, duration=60.0
        )
    )
    deployment.simulator.run_until(41.0)
    coordinator = deployment.coordinators["region0"]
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1),
        timeout=TimeoutPolicy(per_hop=2.0),
    )
    with pytest.raises(QueryFailedError, match="per-hop timeout"):
        coordinator.execute(_sum_query(), policy=policy)


def test_coordinator_timeout_skipped_in_partial_mode(settled):
    deployment, __ = settled
    injector = ChaosInjector(deployment)
    injector.install(
        FaultSchedule().slow_disk(
            40.0, "region0-rack000-host000", factor=10_000.0, duration=60.0
        )
    )
    deployment.simulator.run_until(41.0)
    coordinator = deployment.coordinators["region0"]
    policy = ResiliencePolicy(timeout=TimeoutPolicy(per_hop=2.0))
    result = coordinator.execute(
        _sum_query(), allow_partial=True, policy=policy
    )
    assert result.metadata["coverage"] < 1.0


def test_both_layers_share_the_same_timeout_predicate(settled):
    # The unification itself: one policy object drives both layers.
    deployment, __ = settled
    policy = ResiliencePolicy(timeout=TimeoutPolicy(per_hop=2.0))
    assert policy.timeout.is_timeout(2.5)
    assert not policy.timeout.is_timeout(1.5)
    # Coordinator consults exactly this predicate (no private bound).
    coordinator = deployment.coordinators["region0"]
    assert not hasattr(coordinator, "per_hop_timeout")


def test_proxy_budget_bounded_under_total_blackout(settled):
    deployment, __ = settled
    injector = ChaosInjector(deployment)
    schedule = FaultSchedule()
    for region in ("region0", "region1", "region2"):
        schedule.tail_amplify(40.0, region, factor=100_000.0, duration=120.0)
    injector.install(schedule)
    deployment.simulator.run_until(41.0)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=4, base_backoff=0.0,
                          jitter_fraction=0.0),
        timeout=TimeoutPolicy(per_hop=2.0),
    )
    with pytest.raises(QueryFailedError):
        deployment.proxy.submit(_sum_query(), policy=policy)
    # Budget respected: the proxy gave up after exactly four attempts.
    entry = deployment.proxy.query_log[-1]
    assert entry.attempts == 4
