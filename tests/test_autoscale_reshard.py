"""Online resharding: staged, verified, atomically cut over — and
queries answer correctly at every point in between.

The differential acceptance test: a query stream running across a
split (and a merge) must return exactly what a quiesced deployment
returns; the generation-tagged shard maps are what make that hold.
"""

import numpy as np
import pytest

from repro.autoscale.reshard import ReshardPlanner, ReshardSpec, ReshardState
from repro.chaos.invariants import InvariantChecker
from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.locator import CachedRandom
from repro.cubrick.partitioning import PartitioningPolicy
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.sharding import generation_alias, logical_table
from repro.errors import ConfigurationError, TableNotFoundError
from tests.conftest import insert_rows


def build_deployment(seed=0, *, regions=2, racks=2, hosts_per_rack=3,
                     partitions=2, rows=200):
    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=seed,
            regions=regions,
            racks_per_region=racks,
            hosts_per_rack=hosts_per_rack,
            max_shards=10_000,
        )
    )
    schema = TableSchema.build(
        "events",
        dimensions=[Dimension("day", 30, range_size=7)],
        metrics=[Metric("clicks")],
    )
    deployment.create_table(schema, num_partitions=partitions)
    loaded = make_rows(seed, rows)
    deployment.load("events", loaded)
    return deployment, loaded


def make_rows(seed, count):
    rng = np.random.default_rng(seed)
    return [
        {"day": int(rng.integers(30)), "clicks": float(rng.integers(1, 100))}
        for __ in range(count)
    ]


def grouped_query():
    return Query.build(
        "events",
        [Aggregation(AggFunc.SUM, "clicks"), Aggregation(AggFunc.COUNT, "clicks")],
        group_by=["day"],
    )


def expected_groups(rows):
    groups = {}
    for row in rows:
        key = row["day"]
        total, count = groups.get(key, (0.0, 0))
        groups[key] = (total + row["clicks"], count + 1)
    return groups


def observed_groups(result):
    return {
        row[0]: (float(row[1]), int(row[2])) for row in result.rows
    }


def assert_matches(deployment, rows, label):
    """The live answer must equal the ground truth computed from rows."""
    result = deployment.proxy.submit(grouped_query())
    assert observed_groups(result) == expected_groups(rows), label
    return result


# Staging rebalances shards, and a migrated mapping only becomes
# visible to coordinators after the SMC propagation delay (worst case
# ~7s with the default tree). Queries issued inside that window can
# transiently fail exactly as they would for any migration; the
# mid-reshard guarantee starts once mappings have propagated.
SETTLE = 10.0


class TestGenerationAliases:
    def test_alias_round_trip(self):
        assert generation_alias("events", 0) == "events"
        assert generation_alias("events", 3) == "events@g3"
        assert logical_table("events@g3") == "events"
        assert logical_table("events") == "events"
        assert logical_table("weird@gx") == "weird@gx"

    def test_negative_generation_rejected(self):
        with pytest.raises(ConfigurationError):
            generation_alias("events", -1)

    def test_locator_ignores_stale_generation(self):
        locator = CachedRandom()
        locator.observe_result("events", 4, generation=2)
        locator.observe_result("events", 2, generation=1)  # straggler
        assert locator.cached_count("events") == 4
        locator.observe_result("events", 8, generation=3)
        assert locator.cached_count("events") == 8


class TestStagedReshard:
    def run_to_state(self, deployment, planner, op, state, limit=600.0):
        deadline = deployment.simulator.now + limit
        while op.state is not state:
            assert deployment.simulator.now < deadline, (
                f"never reached {state}: stuck at {op.state} ({op.note})"
            )
            deployment.simulator.run_until(deployment.simulator.now + 5.0)

    def test_split_correct_at_every_stage(self):
        deployment, rows = build_deployment()
        checker = InvariantChecker(deployment)
        planner = ReshardPlanner(
            deployment,
            ReshardSpec(verify_delay=20.0, cutover_delay=10.0,
                        cleanup_grace=30.0),
        )
        info = deployment.catalog.get("events")
        op = planner.begin("events", 4)
        deployment.simulator.run_until(deployment.simulator.now + SETTLE)

        # STAGING -> VERIFYING happened synchronously; both layouts live.
        assert op.state is ReshardState.VERIFYING
        assert info.resharding
        assert info.num_partitions == 2  # serving layout unchanged
        result = assert_matches(deployment, rows, "mid-staging")
        assert result.metadata["num_partitions"] == 2

        # Ingest lands in both layouts while staged (dual writes).
        extra = make_rows(99, 50)
        deployment.load("events", extra)
        rows = rows + extra
        assert_matches(deployment, rows, "after mid-reshard load")

        self.run_to_state(deployment, planner, op, ReshardState.CUT_OVER)
        assert not info.resharding
        assert info.num_partitions == 4
        assert info.physical_table == op.new_physical
        result = assert_matches(deployment, rows, "after cutover")
        assert result.metadata["num_partitions"] == 4
        assert result.metadata["generation"] == info.generation

        self.run_to_state(deployment, planner, op, ReshardState.DONE)
        # The old layout is gone from the directory.
        with pytest.raises(Exception):
            deployment.directory.shards_for_table(op.old_physical)
        assert_matches(deployment, rows, "after cleanup")
        assert checker.check_all(label="post-split").ok

    def test_merge_correct_at_every_stage(self):
        deployment, rows = build_deployment(partitions=4)
        checker = InvariantChecker(deployment)
        planner = ReshardPlanner(
            deployment, ReshardSpec(verify_delay=20.0, cutover_delay=10.0)
        )
        op = planner.begin("events", 2)
        deployment.simulator.run_until(deployment.simulator.now + SETTLE)
        assert op.state is ReshardState.VERIFYING
        assert not op.widened
        assert_matches(deployment, rows, "mid-staging merge")
        self.run_to_state(deployment, planner, op, ReshardState.DONE)
        info = deployment.catalog.get("events")
        assert info.num_partitions == 2
        assert_matches(deployment, rows, "after merge")
        assert checker.check_all(label="post-merge").ok

    def test_differential_against_quiesced_deployment(self):
        """Mid-reshard answers == the answers of an untouched twin."""
        live, rows = build_deployment(seed=3)
        quiet, quiet_rows = build_deployment(seed=3)
        assert rows == quiet_rows
        planner = ReshardPlanner(
            live, ReshardSpec(verify_delay=30.0, cutover_delay=15.0)
        )
        op = planner.begin("events", 4)
        live.simulator.run_until(live.simulator.now + SETTLE)
        extra = make_rows(17, 40)
        live.load("events", extra)
        quiet.load("events", extra)
        for stage in (ReshardState.CUT_OVER, ReshardState.DONE):
            # Keep the twin's clock in lockstep so both proxies see
            # fully propagated shard maps at comparison time.
            quiet.simulator.run_until(live.simulator.now)
            live_result = live.proxy.submit(grouped_query())
            quiet_result = quiet.proxy.submit(grouped_query())
            assert observed_groups(live_result) == observed_groups(quiet_result)
            self.run_to_state(live, planner, op, stage)
        quiet.simulator.run_until(live.simulator.now)
        assert observed_groups(live.proxy.submit(grouped_query())) == \
            observed_groups(quiet.proxy.submit(grouped_query()))

    def test_streaming_loader_dual_writes_mid_reshard(self):
        deployment, rows = build_deployment()
        planner = ReshardPlanner(
            deployment, ReshardSpec(verify_delay=30.0, cutover_delay=10.0)
        )
        loader = deployment.loader("events", batch_rows=10)
        op = planner.begin("events", 4)
        deployment.simulator.run_until(deployment.simulator.now + SETTLE)
        streamed = make_rows(5, 30)
        loader.append_many(streamed)
        loader.flush()
        rows = rows + streamed
        assert_matches(deployment, rows, "streamed mid-reshard")
        self.run_to_state(deployment, planner, op, ReshardState.DONE)
        assert_matches(deployment, rows, "streamed after reshard")

    def test_verify_mismatch_aborts_and_preserves_serving(self):
        deployment, rows = build_deployment()
        planner = ReshardPlanner(
            deployment, ReshardSpec(verify_delay=20.0)
        )
        info = deployment.catalog.get("events")
        op = planner.begin("events", 4)
        # Corrupt the staged copy in one region only: verification must
        # catch the divergence and abort, leaving serving untouched.
        sm = deployment.sm_servers["region0"]
        shards = deployment.directory.shards_for_table(op.new_physical)
        owner = sm.discovery.resolve_authoritative(shards[0])
        node = sm.app_server(owner)
        insert_rows(node.partition(op.new_physical, 0), [{"day": 1, "clicks": 5.0}])
        deployment.simulator.run_until(deployment.simulator.now + 60.0)
        assert op.state is ReshardState.ABORTED
        assert "mismatch" in op.note
        assert not info.resharding
        assert info.num_partitions == 2
        with pytest.raises(Exception):
            deployment.directory.shards_for_table(op.new_physical)
        assert_matches(deployment, rows, "after aborted reshard")

    def test_begin_rejects_bad_requests(self):
        deployment, _ = build_deployment()
        planner = ReshardPlanner(deployment, ReshardSpec())
        with pytest.raises(ConfigurationError):
            planner.begin("events", 0)
        with pytest.raises(ConfigurationError):
            planner.begin("events", 2)  # already that wide
        planner.begin("events", 4)
        with pytest.raises(ConfigurationError):
            planner.begin("events", 8)  # one reshard at a time
        with pytest.raises(TableNotFoundError):
            planner.begin("nope", 4)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ReshardSpec(verify_delay=-1.0)
        with pytest.raises(ConfigurationError):
            ReshardSpec(cleanup_grace=-1.0)
        with pytest.raises(ConfigurationError):
            ReshardSpec(capacity_headroom=0.0)


class TestEvaluate:
    def test_widens_when_partitions_overflow(self):
        deployment, _ = build_deployment(rows=600)
        planner = ReshardPlanner(
            deployment,
            ReshardSpec(),
            policy=PartitioningPolicy(
                initial_partitions=2,
                max_rows_per_partition=100,
                min_rows_per_partition=10,
                max_partitions=8,
            ),
        )
        op = planner.evaluate("events")
        assert op is not None and op.widened
        assert op.to_count == 4

    def test_max_count_caps_widening(self):
        deployment, _ = build_deployment(rows=600)
        planner = ReshardPlanner(
            deployment,
            ReshardSpec(),
            policy=PartitioningPolicy(
                initial_partitions=2,
                max_rows_per_partition=100,
                min_rows_per_partition=10,
                max_partitions=8,
            ),
        )
        assert planner.evaluate("events", max_count=2) is None

    def test_defers_widening_without_capacity(self):
        # Two hosts per region cannot host four collision-free
        # partitions: the widen is deferred, not attempted and failed.
        deployment, _ = build_deployment(
            racks=1, hosts_per_rack=2, rows=600
        )
        planner = ReshardPlanner(
            deployment,
            ReshardSpec(),
            policy=PartitioningPolicy(
                initial_partitions=2,
                max_rows_per_partition=100,
                min_rows_per_partition=10,
                max_partitions=8,
            ),
        )
        assert planner.evaluate("events") is None

    def test_no_op_inside_thresholds(self):
        deployment, _ = build_deployment(rows=200)
        planner = ReshardPlanner(deployment, ReshardSpec())
        assert planner.evaluate("events") is None
        assert planner.active() == []
