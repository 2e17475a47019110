"""Tests for the cross-region replica audit (§IV-D invariant)."""

import numpy as np
import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.workloads.fanout_experiment import probe_schema


@pytest.fixture
def deployment():
    deployment = CubrickDeployment(
        DeploymentConfig(seed=201, regions=3, racks_per_region=3,
                         hosts_per_rack=4)
    )
    schema = probe_schema("audited")
    deployment.create_table(schema)
    rng = np.random.default_rng(1)
    deployment.load(
        "audited",
        [{"bucket": int(rng.integers(64)), "value": 1.0}
         for __ in range(300)],
    )
    deployment.simulator.run_until(30.0)
    return deployment


class TestVerifyReplicas:
    def test_healthy_deployment_is_consistent(self, deployment):
        audit = deployment.verify_replicas("audited")
        assert audit["consistent"]
        assert set(audit["regions"].values()) == {300}
        assert audit["divergent_partitions"] == []

    def test_incomplete_region_reported_not_failed(self, deployment):
        sm = deployment.sm_servers["region2"]
        victim = next(
            h for h in sm.registered_hosts() if sm.shards_on_host(h)
        )
        deployment.cluster.host(victim).fail(permanent=False)
        audit = deployment.verify_replicas("audited")
        # region2 has an unreachable partition owner right now...
        assert audit["regions"]["region2"] is None
        # ... but the surviving copies still agree.
        assert audit["consistent"]
        assert audit["regions"]["region0"] == 300
        deployment.cluster.host(victim).recover()

    def test_divergence_is_detected(self, deployment):
        # Corrupt one region's copy by inserting extra rows directly.
        sm = deployment.sm_servers["region1"]
        shards = deployment.directory.shards_for_table("audited")
        owner = sm.discovery.resolve_authoritative(shards[0])
        node = sm.app_server(owner)
        node.partition("audited", 0).insert_many(
            [{"bucket": 1, "value": 1.0}] * 5
        )
        audit = deployment.verify_replicas("audited")
        assert not audit["consistent"]
        assert audit["divergent_partitions"]
        assert audit["divergent_partitions"][0]["partition"] == 0

    def test_consistent_after_failover_recovery(self, deployment):
        """Cross-region failover recovery restores full copies, so the
        audit passes again once the dust settles."""
        sm = deployment.sm_servers["region0"]
        victim = next(
            h for h in sm.registered_hosts() if sm.shards_on_host(h)
        )
        deployment.automation.handle_host_failure(victim, permanent=False)
        deployment.simulator.run_until(deployment.simulator.now + 300.0)
        audit = deployment.verify_replicas("audited")
        assert audit["consistent"]
        assert audit["regions"]["region0"] == 300
        deployment.automation.handle_host_recovery(victim)
