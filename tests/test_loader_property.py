"""Property test: the streaming loader never loses or duplicates rows.

Under arbitrary interleavings of appends, flushes, mid-stream
re-partitions and outages of a partition's owner, every region must end
up holding exactly the rows accepted — the exactly-once ingestion
invariant. An outage fails the partition's owner in region0 and drops
its owner's session in region1, so region1 has no live owner (its
failover waits for a healthy donor) while region0 still takes writes:
the case where a flush that wrote region by region would duplicate rows
on retry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.partitioning import PartitioningPolicy
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.errors import HostUnavailableError
from repro.workloads.fanout_experiment import probe_schema
from tests.conftest import region_rows

# Each action is (kind, amount): append N rows, flush, try repartition,
# take partition N's owners out, or bring them back.
action_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 120)),
        st.tuples(st.just("flush"), st.just(0)),
        st.tuples(st.just("repartition"), st.just(0)),
        st.tuples(st.just("outage"), st.integers(0, 63)),
        st.tuples(st.just("restore"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(actions=action_strategy, seed=st.integers(0, 10_000))
def test_loader_exactly_once(actions, seed):
    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=7, regions=2, racks_per_region=4, hosts_per_rack=4,
            partitioning=PartitioningPolicy(
                max_rows_per_partition=80, min_rows_per_partition=2
            ),
        )
    )
    schema = probe_schema("prop_stream")
    deployment.create_table(schema)
    deployment.simulator.run_until(30.0)
    loader = deployment.loader("prop_stream", batch_rows=50)
    rng = np.random.default_rng(seed)
    region0, region1 = deployment.sm_servers.values()
    outage = None  # (region0 host failed, region1 host without a session)

    def restore():
        donor, victim = outage
        deployment.automation.handle_host_recovery(donor)
        deployment._on_host_return(victim)
        deployment.simulator.run_until(deployment.simulator.now + 1.0)

    accepted = 0
    for kind, amount in actions:
        if kind == "append":
            rows = [
                {"bucket": int(rng.integers(64)),
                 "value": float(rng.integers(1, 5))}
                for __ in range(amount)
            ]
            accepted += amount  # accepted even when a flush fails
            try:
                loader.append_many(rows)
            except HostUnavailableError:
                assert outage is not None
        elif kind == "flush":
            try:
                loader.flush()
            except HostUnavailableError:
                assert outage is not None
        elif kind == "outage" and outage is None:
            info = deployment.catalog.get("prop_stream")
            index = amount % info.num_partitions
            shard = deployment.directory.shards_for_table(
                info.physical_table
            )[index]
            outage = (
                region0.discovery.resolve_authoritative(shard),
                region1.discovery.resolve_authoritative(shard),
            )
            deployment.automation.handle_host_failure(outage[0], permanent=False)
            region1.datastore.expire_session_of(outage[1])
            deployment.simulator.run_until(deployment.simulator.now + 1.0)
        elif kind == "restore" and outage is not None:
            restore()
            outage = None
        elif kind == "repartition" and outage is None:
            deployment.maybe_repartition("prop_stream")
            deployment.simulator.run_until(deployment.simulator.now + 30.0)
    if outage is not None:
        restore()
    loader.flush()
    deployment.simulator.run_until(deployment.simulator.now + 30.0)

    assert loader.stats.rows_accepted == accepted
    assert loader.stats.rows_flushed == accepted
    assert loader.buffered_rows == 0
    for sm in deployment.sm_servers.values():
        assert region_rows(deployment, sm, "prop_stream") == accepted
    result = deployment.query(
        Query.build("prop_stream", [Aggregation(AggFunc.COUNT, "value")])
    )
    count = result.scalar() if result.rows else 0.0
    assert count == accepted
