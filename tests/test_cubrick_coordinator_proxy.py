"""Tests for the region coordinator and the Cubrick proxy."""

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.storage import PartitionStorage
from repro.errors import (
    AdmissionControlError,
    QueryFailedError,
    RegionUnavailableError,
    TableNotFoundError,
)
from repro.workloads.fanout_experiment import probe_schema
from repro.workloads.queries import simple_probe_query
from tests.conftest import insert_rows, make_rows


def probe(deployment, table="events"):
    return Query.build(table, [Aggregation(AggFunc.COUNT, "clicks")])


class TestCoordinator:
    def test_partition_hosts_covers_all_partitions(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        hosts = coordinator.partition_hosts("events")
        indexes = sorted(i for idxs in hosts.values() for i in idxs)
        assert indexes == list(
            range(tiny_deployment.catalog.get("events").num_partitions)
        )

    def test_execute_merges_all_partitions(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        result = coordinator.execute(probe(tiny_deployment))
        assert result.scalar() == 500.0
        assert result.metadata["fanout"] >= 1
        assert result.metadata["latency"] > 0

    def test_execution_diagnostics_recorded(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        coordinator.execute(probe(tiny_deployment))
        execution = coordinator.executions[-1]
        assert execution.succeeded
        assert len(execution.per_host_latency) == execution.fanout
        assert execution.latency >= max(execution.per_host_latency.values())

    def test_down_host_fails_query(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        hosts = coordinator.partition_hosts("events")
        victim = sorted(hosts)[0]
        tiny_deployment.cluster.host(victim).fail(permanent=False)
        with pytest.raises(QueryFailedError) as excinfo:
            coordinator.execute(probe(tiny_deployment))
        assert excinfo.value.host == victim
        assert excinfo.value.retryable
        tiny_deployment.cluster.host(victim).recover()

    def test_extra_hops_add_latency(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        base = coordinator.execute(probe(tiny_deployment), extra_hops=0)
        hop = coordinator.execute(probe(tiny_deployment), extra_hops=3)
        # Deterministic part of the latency grows by 3 * HOP_COST; the
        # sampled part varies, so compare against the recorded overhead.
        assert hop.metadata["latency"] >= 3 * coordinator.HOP_COST

    def test_success_ratio_tracks_failures(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        coordinator.execute(probe(tiny_deployment))
        hosts = coordinator.partition_hosts("events")
        victim = sorted(hosts)[0]
        tiny_deployment.cluster.host(victim).fail(permanent=False)
        with pytest.raises(QueryFailedError):
            coordinator.execute(probe(tiny_deployment))
        assert 0.0 < coordinator.success_ratio() < 1.0
        tiny_deployment.cluster.host(victim).recover()


class TestStaleRouting:
    """A shard moved while the coordinator's SMC view still names its old
    host, which already dropped the data: the coordinator must ask the
    authoritative owner, or fail the attempt — never answer short."""

    QUERY = Query.build(
        "events",
        [Aggregation(AggFunc.SUM, "clicks"), Aggregation(AggFunc.COUNT, "cost")],
        group_by=["day"],
    )

    @pytest.fixture
    def moved(self, events_schema):
        deployment = CubrickDeployment(
            DeploymentConfig(seed=5, regions=1, racks_per_region=2,
                             hosts_per_rack=6)
        )
        deployment.create_table(events_schema)
        rows = make_rows(events_schema, 400, seed=3)
        deployment.load("events", rows)
        deployment.simulator.run_until(30.0)
        sm = deployment.sm_servers["region0"]
        coordinator = deployment.coordinators["region0"]
        stale_host = sorted(coordinator.partition_hosts("events"))[0]
        [index] = coordinator.partition_hosts("events")[stale_host]
        shard = deployment.directory.shards_for_table("events")[index]
        # No grace period: the old host drops the shard before the new
        # mapping has reached the coordinator's SMC proxy.
        sm.migrations.drop_grace_period = 0.0
        assert sm.drain_host(stale_host) > 0
        deployment.simulator.run_until(deployment.simulator.now)
        assert stale_host in coordinator.partition_hosts("events")
        assert not sm.app_server(stale_host).has_partition("events", index)
        owner = sm.discovery.resolve_authoritative(shard)
        assert owner != stale_host
        return deployment, rows, stale_host, index, shard, owner

    def test_answer_comes_from_the_authoritative_owner(self, moved, events_schema):
        deployment, rows, *__ = moved
        reference = PartitionStorage(events_schema, 0)
        insert_rows(reference, rows)
        expected = reference.execute(self.QUERY).finalize().rows
        result = deployment.coordinators["region0"].execute(self.QUERY)
        assert sorted(result.rows) == sorted(expected)
        assert result.metadata["coverage"] == 1.0

    def test_proxy_answers_through_the_forward_on_its_first_attempt(
        self, moved, events_schema
    ):
        # The stale mapping costs no proxy retry: the coordinator's
        # forward is the routing a client's query actually takes.
        deployment, rows, stale_host, *__ = moved
        reference = PartitionStorage(events_schema, 0)
        insert_rows(reference, rows)
        expected = reference.execute(self.QUERY).finalize().rows
        result = deployment.query(self.QUERY)
        assert sorted(result.rows) == sorted(expected)
        assert result.metadata["attempts"] == 1
        assert result.metadata["coverage"] == 1.0
        assert not deployment.proxy.is_blacklisted(stale_host)

    def test_unassigned_owner_fails_the_attempt(self, moved):
        deployment, __, stale_host, __, shard, __ = moved
        sm = deployment.sm_servers["region0"]
        sm.discovery.publish(shard, None, deployment.simulator.now)
        with pytest.raises(QueryFailedError) as excinfo:
            deployment.coordinators["region0"].execute(self.QUERY)
        assert excinfo.value.host == stale_host
        assert excinfo.value.retryable

    def test_owner_without_the_partition_fails_the_attempt(self, moved):
        deployment, __, __, __, shard, owner = moved
        deployment.sm_servers["region0"].app_server(owner).drop_shard(shard)
        with pytest.raises(QueryFailedError) as excinfo:
            deployment.coordinators["region0"].execute(self.QUERY)
        assert excinfo.value.host == owner

    def test_down_owner_fails_the_attempt(self, moved):
        deployment, __, __, __, __, owner = moved
        deployment.cluster.host(owner).fail(permanent=False)
        with pytest.raises(QueryFailedError) as excinfo:
            deployment.coordinators["region0"].execute(self.QUERY)
        assert excinfo.value.host == owner

    def test_authoritative_host_without_its_data_fails(self, tiny_deployment):
        # The stale host is still the authoritative owner: nobody else
        # to ask.
        coordinator = tiny_deployment.coordinators["region0"]
        host = sorted(coordinator.partition_hosts("events"))[0]
        sm = tiny_deployment.sm_servers["region0"]
        [shard] = sm.shards_on_host(host)
        sm.app_server(host).drop_shard(shard)
        with pytest.raises(QueryFailedError) as excinfo:
            coordinator.execute(self.QUERY)
        assert excinfo.value.host == host


class TestProxy:
    def test_retry_in_other_region(self, tiny_deployment):
        coordinator = tiny_deployment.coordinators["region0"]
        hosts = coordinator.partition_hosts("events")
        victim = sorted(hosts)[0]
        tiny_deployment.cluster.host(victim).fail(permanent=False)
        result = tiny_deployment.query(probe(tiny_deployment))
        assert result.scalar() == 500.0
        assert result.metadata["region"] == "region1"
        assert result.metadata["attempts"] == 2
        assert victim in tiny_deployment.proxy.blacklisted_hosts()
        tiny_deployment.cluster.host(victim).recover()

    def test_all_regions_failing_raises(self, tiny_deployment):
        victims = []
        for region, coordinator in tiny_deployment.coordinators.items():
            hosts = coordinator.partition_hosts("events")
            victim = sorted(hosts)[0]
            tiny_deployment.cluster.host(victim).fail(permanent=False)
            victims.append(victim)
        with pytest.raises(QueryFailedError):
            tiny_deployment.query(probe(tiny_deployment))
        for victim in victims:
            tiny_deployment.cluster.host(victim).recover()

    def test_unknown_table_is_logged_and_counted_before_admission(
        self, tiny_deployment
    ):
        proxy = tiny_deployment.proxy
        arrivals = len(proxy.admission._recent)
        with pytest.raises(TableNotFoundError):
            tiny_deployment.query(probe(tiny_deployment, table="ghosts"))
        # Resolved before admission: no slot of the window was taken.
        assert len(proxy.admission._recent) == arrivals
        entry = proxy.query_log[-1]
        assert (entry.table, entry.succeeded, entry.attempts, entry.error) == (
            "ghosts", False, 0, "table_not_found"
        )
        outcome = tiny_deployment.obs.metrics.counter(
            "cubrick.proxy.queries", outcome="table_not_found"
        )
        assert outcome.value == 1
        root = tiny_deployment.obs.tracer.recent[-1]
        assert root.name == "cubrick.proxy.query"
        assert root.annotations["outcome"] == "table_not_found"

    def test_region_drain_routes_elsewhere(self, tiny_deployment):
        tiny_deployment.cluster.set_region_available("region0", False)
        result = tiny_deployment.query(probe(tiny_deployment))
        assert result.metadata["region"] == "region1"
        assert result.metadata["attempts"] == 1
        tiny_deployment.cluster.set_region_available("region0", True)

    def test_no_regions_available_raises(self, tiny_deployment):
        for region in tiny_deployment.region_names():
            tiny_deployment.cluster.set_region_available(region, False)
        with pytest.raises(RegionUnavailableError):
            tiny_deployment.query(probe(tiny_deployment))
        for region in tiny_deployment.region_names():
            tiny_deployment.cluster.set_region_available(region, True)

    def test_admission_control_limits_qps(self, events_schema):
        deployment = CubrickDeployment(
            DeploymentConfig(seed=1, regions=1, racks_per_region=2,
                             hosts_per_rack=3)
        )
        deployment.create_table(events_schema)
        deployment.load("events", make_rows(events_schema, 50, seed=1))
        deployment.simulator.run_until(30.0)
        deployment.proxy.admission.max_qps = 5.0
        query = probe(deployment)
        successes, rejections = 0, 0
        for __ in range(20):  # all at the same virtual instant
            try:
                deployment.query(query)
                successes += 1
            except AdmissionControlError:
                rejections += 1
        assert successes == 5
        assert rejections == 15

    def test_query_log_records_everything(self, tiny_deployment):
        before = len(tiny_deployment.proxy.query_log)
        tiny_deployment.query(probe(tiny_deployment))
        log = tiny_deployment.proxy.query_log
        assert len(log) == before + 1
        assert log[-1].succeeded
        assert log[-1].table == "events"
        assert log[-1].latency is not None

    def test_partition_cache_updated_from_metadata(self, tiny_deployment):
        tiny_deployment.query(probe(tiny_deployment))
        cached = tiny_deployment.proxy.locator.cached_count("events")
        assert cached == tiny_deployment.catalog.get("events").num_partitions

    def test_success_ratio_accounting(self, tiny_deployment):
        tiny_deployment.query(probe(tiny_deployment))
        assert 0.0 < tiny_deployment.proxy.success_ratio() <= 1.0
        assert (
            tiny_deployment.proxy.first_try_success_ratio()
            <= tiny_deployment.proxy.success_ratio()
        )

    def test_blacklist_expires(self, tiny_deployment):
        proxy = tiny_deployment.proxy
        proxy.blacklist_host("some-host")
        assert proxy.is_blacklisted("some-host")
        tiny_deployment.simulator.run_until(
            tiny_deployment.simulator.now + proxy.blacklist_ttl + 1.0
        )
        assert not proxy.is_blacklisted("some-host")
