"""Retry budgets of the shard-management data paths.

SM server tries five placement targets for a failover or a live
migration before giving up; the migration engine and a node's partition
recovery make exactly one call and let a transient error propagate to
the caller, which owns the decision to try elsewhere.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import Cluster
from repro.cubrick.node import CubrickNode
from repro.cubrick.schema import Catalog
from repro.cubrick.sharding import MonotonicHashMapper, ShardDirectory
from repro.errors import NonRetryableShardError, RetryableShardError
from repro.shardmanager.app_server import InMemoryApplicationServer
from repro.shardmanager.balancer import MigrationProposal
from repro.shardmanager.migration import MigrationEngine
from repro.shardmanager.server import SMServer
from repro.shardmanager.spec import ServiceSpec
from repro.sim.engine import Simulator
from repro.smc.registry import ServiceDiscovery
from tests.conftest import insert_rows, make_rows


class RefusingApp(InMemoryApplicationServer):
    """Accepts shards until ``refuse`` is set, then raises ``error``."""

    def __init__(self, host_id: str, calls: list):
        super().__init__(host_id, capacity=1000.0)
        self.refuse = False
        self.error = NonRetryableShardError
        self._calls = calls

    def add_shard(self, shard_id, source):
        if self.refuse:
            self._calls.append(self.host_id)
            raise self.error(f"{self.host_id} refuses shard {shard_id}")
        super().add_shard(shard_id, source)


def _service():
    simulator = Simulator()
    cluster = Cluster.build(regions=1, racks_per_region=2, hosts_per_rack=5)
    server = SMServer(
        ServiceSpec(name="t", max_shards=10_000), simulator, cluster,
        region="region0",
    )
    calls: list[str] = []
    apps = {}
    for host in cluster.hosts_in_region("region0"):
        app = RefusingApp(host.host_id, calls)
        apps[host.host_id] = app
        server.register_host(app)
    return simulator, cluster, server, apps, calls


def test_failover_tries_five_refusing_targets_then_leaves_it_unplaced():
    simulator, cluster, server, apps, calls = _service()
    entry = server.create_shard(1, size_hint=5.0)
    victim = entry.replicas[0].host_id
    for host_id, app in apps.items():
        app.refuse = host_id != victim
    cluster.host(victim).fail(permanent=False)
    simulator.run_until(120.0)  # heartbeats stop, the session expires
    assert len(calls) == 5
    assert len(set(calls)) == 5  # a refusing host is never asked twice
    assert server.unplaced_failovers == [1]
    assert set(calls) <= server.shard_entry(1).refused_hosts


def test_live_migration_tries_five_refusing_targets():
    __, __c, server, apps, calls = _service()
    entry = server.create_shard(1, size_hint=5.0)
    source = entry.replicas[0].host_id
    for host_id, app in apps.items():
        app.refuse = host_id != source
    target = next(h for h in sorted(apps) if h != source)
    proposal = MigrationProposal(
        shard_id=1, from_host=source, to_host=target, shard_load=5.0
    )
    assert not server._execute_move(proposal)
    assert len(calls) == 5
    assert calls[0] == target
    assert server.shards_on_host(source) == {1}


@pytest.mark.parametrize("workflow", ["live_migrate", "failover"])
def test_migration_engine_makes_one_call_on_a_transient_error(workflow):
    engine = MigrationEngine(Simulator(), ServiceDiscovery())
    calls: list[str] = []
    source = InMemoryApplicationServer("a")
    source.add_shard(1, None)
    target = RefusingApp("b", calls)
    target.refuse = True
    target.error = RetryableShardError
    with pytest.raises(RetryableShardError):
        if workflow == "live_migrate":
            engine.live_migrate(1, source, target)
        else:
            engine.failover(1, target, failed_host="a", recovery_source=source)
    assert calls == ["b"]
    assert engine.log == []
    assert not source.is_forwarding(1)


def test_partition_recovery_reads_the_donor_once(events_schema):
    catalog = Catalog()
    catalog.create(events_schema, num_partitions=4)
    directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
    shards = directory.register_table("events", 4)
    donor = CubrickNode("h1", catalog, directory)
    donor.add_shard(shards[0], None)
    storage = donor.partition("events", 0)
    insert_rows(storage, make_rows(events_schema, 20, seed=3))
    reads: list[int] = []

    def flaky_read():
        reads.append(1)
        raise RetryableShardError("donor read interrupted")

    storage.all_columns = flaky_read
    target = CubrickNode("h2", catalog, directory)
    with pytest.raises(RetryableShardError):
        target.add_shard(shards[0], donor)
    assert reads == [1]
    assert target.hosted_shards() == set()
