"""Overload traffic generation and the managed-vs-legacy SLA demo."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.sched import PriorityClass, SchedPolicy, WorkloadManager
from repro.workloads.loadgen import (
    SLA_DEADLINE,
    TrafficGenerator,
    _build_overload_deployment,
    overload_policy,
    run_overload_experiment,
)


@pytest.fixture(scope="module")
def managed_report():
    return run_overload_experiment(0, policy="managed")


@pytest.fixture(scope="module")
def legacy_report():
    return run_overload_experiment(0, policy="legacy")


# ----------------------------------------------------------------------
# TrafficGenerator
# ----------------------------------------------------------------------


def make_manager(seed=0, policy=None):
    deployment = _build_overload_deployment(seed)
    deployment.simulator.run_until(30.0)
    return WorkloadManager(
        deployment, policy=policy or SchedPolicy.legacy()
    )


def test_tenant_profiles_are_zipf_skewed_with_priority_ladder():
    traffic = TrafficGenerator(make_manager(), tenants=6, seed=0)
    weights = [p.weight for p in traffic.profiles]
    assert weights == sorted(weights, reverse=True)
    assert sum(weights) == pytest.approx(1.0)
    assert weights[0] > 2 * weights[-1]  # genuinely skewed
    # Hottest tenant carries the most sheddable class.
    assert traffic.profiles[0].priority is PriorityClass.BACKGROUND
    assert traffic.profiles[1].priority is PriorityClass.BATCH
    assert traffic.profiles[2].priority is PriorityClass.INTERACTIVE


def test_open_loop_arrivals_are_seeded_and_rate_shaped():
    manager = make_manager()
    traffic = TrafficGenerator(manager, tenants=3, seed=42)
    scheduled = traffic.run_open_loop(rate=50.0, duration=10.0)
    assert 350 < scheduled < 650  # ~500 expected
    manager.deployment.simulator.run_until(
        manager.deployment.simulator.now + 10.0
    )
    assert manager.drain()
    assert traffic.submitted == scheduled
    assert len(manager.records) == scheduled

    repeat_manager = make_manager()
    repeat = TrafficGenerator(repeat_manager, tenants=3, seed=42)
    assert repeat.run_open_loop(rate=50.0, duration=10.0) == scheduled


def test_traffic_generator_validation():
    manager = make_manager()
    with pytest.raises(ConfigurationError):
        TrafficGenerator(manager, tenants=0)
    with pytest.raises(ConfigurationError):
        TrafficGenerator(manager, query_pool_size=0)
    traffic = TrafficGenerator(manager)
    with pytest.raises(ConfigurationError):
        traffic.run_open_loop(rate=0.0, duration=1.0)
    with pytest.raises(ConfigurationError):
        traffic.run_open_loop(rate=1.0, duration=0.0)
    with pytest.raises(ConfigurationError):
        overload_policy("nonsense")
    with pytest.raises(ConfigurationError):
        run_overload_experiment(0, saturation=0.0)


# ----------------------------------------------------------------------
# The acceptance demo: managed defends the SLA, legacy collapses
# ----------------------------------------------------------------------


def test_managed_policy_defends_the_sla_at_5x_saturation(managed_report):
    report = managed_report
    assert report.drained
    assert report.sla_met
    assert report.success_ratio >= 0.99
    # Latency of served queries stays bounded by the deadline.
    assert report.latency_p99 < SLA_DEADLINE
    assert report.max_queue_depth <= 8
    # Defence was active: traffic was genuinely shed, and the cache
    # absorbed repeats.
    assert report.outcomes.get("shed", 0) > 100
    assert report.shed_level_max > 0.0
    assert report.cache_hits > 100


def test_legacy_policy_collapses_under_the_same_storm(legacy_report):
    report = legacy_report
    assert report.drained  # everything *eventually* completes...
    assert not report.sla_met  # ...far too late
    assert report.success_ratio < 0.5
    assert report.outcomes == {"ok": report.submitted}  # nothing shed
    # Unbounded queue growth and order-of-magnitude worse tail latency.
    assert report.max_queue_depth > 100
    assert report.latency_p99 > 5 * SLA_DEADLINE


def test_same_seed_reports_are_byte_identical(managed_report, legacy_report):
    assert (
        run_overload_experiment(0, policy="managed").render()
        == managed_report.render()
    )
    assert (
        run_overload_experiment(0, policy="legacy").render()
        == legacy_report.render()
    )


def test_storm_is_identical_across_policies(managed_report, legacy_report):
    # Same seed → the two policies face the exact same arrival process.
    assert managed_report.submitted == legacy_report.submitted
    assert managed_report.rate == legacy_report.rate


def test_overload_cli_prints_both_reports(capsys):
    assert main(["overload", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "policy=managed" in out
    assert "policy=legacy" in out
    assert "SLA MET" in out
    assert "SLA COLLAPSED" in out


def test_overload_cli_single_policy(capsys):
    assert main(["overload", "--policy", "legacy", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "policy=legacy" in out
    assert "policy=managed" not in out
