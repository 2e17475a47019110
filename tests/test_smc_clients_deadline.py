"""Tests for per-client SMC visibility and per-query deadlines."""

import numpy as np
import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.errors import (
    ConfigurationError,
    QueryFailedError,
    ShardMappingUnknownError,
)
from repro.sim.latency import HiccupModel, LogNormalTailLatency
from repro.sim.rng import derive_seed
from repro.smc.registry import ServiceDiscovery
from repro.workloads.fanout_experiment import probe_schema
from repro.workloads.queries import simple_probe_query


class TestPerClientVisibility:
    def test_same_client_is_consistent(self):
        discovery = ServiceDiscovery()
        discovery.publish(1, "hostA", now=0.0)
        times = np.linspace(0.0, 30.0, 50)
        views = []
        for t in times:
            try:
                views.append(discovery.resolve(1, t, client_id="c1"))
            except Exception:
                views.append(None)
        # Once visible, it stays visible (monotone view per client).
        first_seen = next(i for i, v in enumerate(views) if v == "hostA")
        assert all(v == "hostA" for v in views[first_seen:])

    def test_clients_disagree_during_propagation(self):
        discovery = ServiceDiscovery(rng=np.random.default_rng(5))
        discovery.publish(1, "hostA", now=0.0)
        discovery.publish(1, "hostB", now=100.0)
        # Shortly after the second publish, some clients still see hostA
        # while others already see hostB.
        views = {
            f"client-{i}": discovery.resolve(1, 101.5, client_id=f"client-{i}")
            for i in range(40)
        }
        assert set(views.values()) == {"hostA", "hostB"}

    def test_everyone_converges(self):
        discovery = ServiceDiscovery()
        discovery.publish(1, "hostA", now=0.0)
        discovery.publish(1, "hostB", now=100.0)
        horizon = 100.0 + discovery.tree.max_expected_delay() + 1.0
        for i in range(40):
            assert discovery.resolve(1, horizon, client_id=f"c{i}") == "hostB"

    def test_default_client_unchanged(self):
        discovery = ServiceDiscovery()
        assignment = discovery.publish(1, "hostA", now=0.0)
        assert discovery.resolve(1, assignment.visible_at + 0.01) == "hostA"

    def test_determinism_across_instances(self):
        views = []
        for __ in range(2):
            discovery = ServiceDiscovery(rng=np.random.default_rng(7))
            discovery.publish(1, "hostA", now=0.0)
            views.append(
                [
                    discovery._visible_at(
                        discovery._history[1].entries[0], f"c{i}"
                    )
                    for i in range(10)
                ]
            )
        assert views[0] == views[1]

    def test_resolve_matches_fresh_rng_visibility(self):
        """Per-client visibility agrees with drawing each client's delay
        from a fresh rng, before, inside and after each stale window."""
        discovery = ServiceDiscovery(rng=np.random.default_rng(11))
        entries = [
            discovery.publish(1, host, now=written)
            for host, written in (("hostA", 0.0), ("hostB", 40.0),
                                  (None, 41.0), ("hostC", 90.0))
        ]

        def fresh_visible_at(entry, client):
            rng = np.random.default_rng(
                derive_seed(entry.version, f"smc-client:{client}")
            )
            return entry.written_at + discovery.tree.sample_delay(rng)

        times = np.concatenate([
            np.linspace(0.0, 140.0, 57),
            [e.written_at + d for e in entries for d in (0.5, 2.0, 5.0)],
        ])
        for client in [f"c{i}" for i in range(12)]:
            for now in times:
                visible = [
                    e for e in entries if fresh_visible_at(e, client) <= now
                ]
                for __ in range(2):  # repeated reads agree
                    if not visible:
                        with pytest.raises(ShardMappingUnknownError):
                            discovery.resolve(1, now, client_id=client)
                    else:
                        assert discovery.resolve(
                            1, now, client_id=client
                        ) == visible[-1].host_id


class TestDeadline:
    @pytest.fixture
    def deployment(self):
        # Heavy hiccups so slow regions are common.
        model = LogNormalTailLatency(
            base=0.001, median=0.01, sigma=0.3,
            hiccups=HiccupModel(probability=0.3, min_delay=0.5, max_delay=1.0),
        )
        deployment = CubrickDeployment(
            DeploymentConfig(seed=88, regions=3, racks_per_region=2,
                             hosts_per_rack=4),
            latency_model=model,
        )
        schema = probe_schema("dl")
        deployment.create_table(schema)
        rng = np.random.default_rng(1)
        deployment.load(
            "dl",
            [{"bucket": int(rng.integers(64)), "value": 1.0}
             for __ in range(200)],
        )
        deployment.simulator.run_until(30.0)
        return deployment

    def test_hedging_happens_and_results_stay_exact(self, deployment):
        probe = simple_probe_query(probe_schema("dl"))
        hedged = 0
        answered = 0
        for __ in range(60):
            try:
                result = deployment.query(probe, deadline=0.2)
            except QueryFailedError:
                continue
            answered += 1
            assert result.scalar() == 200.0
            assert result.metadata["latency"] <= 0.2
            if result.metadata["timeouts"] > 0:
                hedged += 1
                assert result.metadata["latency_total"] > result.metadata[
                    "latency"
                ]
        assert answered > 0
        assert hedged > 0  # with 30% hiccups at fan-out 8, certain

    def test_all_regions_too_slow_raises(self, deployment):
        probe = simple_probe_query(probe_schema("dl"))
        # An impossible deadline (below the base latency) always fails.
        with pytest.raises(QueryFailedError) as excinfo:
            deployment.query(probe, deadline=1e-6)
        assert "deadline" in str(excinfo.value)

    def test_invalid_deadline_rejected(self, deployment):
        probe = simple_probe_query(probe_schema("dl"))
        with pytest.raises(ConfigurationError):
            deployment.query(probe, deadline=0.0)

    def test_no_deadline_keeps_old_behaviour(self, deployment):
        probe = simple_probe_query(probe_schema("dl"))
        result = deployment.query(probe)
        assert result.metadata["timeouts"] == 0
        assert result.metadata["latency_total"] == result.metadata["latency"]
