"""Tests for CubrickNode: SM endpoints, collision refusal, local queries."""

import pytest

from repro.cubrick.node import CubrickNode
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.schema import Catalog, Dimension, Metric, TableSchema
from repro.cubrick.sharding import MonotonicHashMapper, ShardDirectory
from repro.errors import (
    NonRetryableShardError,
    PartitionNotFoundError,
    ShardAlreadyAssignedError,
    ShardNotFoundError,
)
from tests.conftest import insert_rows, make_rows


@pytest.fixture
def env(events_schema):
    catalog = Catalog()
    catalog.create(events_schema, num_partitions=4)
    directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
    shards = directory.register_table("events", 4)
    node = CubrickNode("h1", catalog, directory)
    return catalog, directory, shards, node


class TestShardEndpoints:
    def test_add_shard_creates_partitions(self, env):
        __, directory, shards, node = env
        node.add_shard(shards[0], None)
        assert node.has_partition("events", 0)
        assert node.hosted_shards() == {shards[0]}
        assert node.partition_names() == ["events#0"]

    def test_duplicate_add_rejected(self, env):
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        with pytest.raises(ShardAlreadyAssignedError):
            node.add_shard(shards[0], None)

    def test_drop_shard_deletes_data(self, env):
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        insert_rows(
            node.partition("events", 0),
            [{"day": 1, "country": 1, "clicks": 1.0, "cost": 1.0}],
        )
        node.drop_shard(shards[0])
        assert not node.has_partition("events", 0)
        assert node.total_rows() == 0

    def test_drop_unknown_shard_rejected(self, env):
        __, __d, __s, node = env
        with pytest.raises(ShardNotFoundError):
            node.drop_shard(12345)

    def test_collision_refused_with_non_retryable(self, env):
        """The §IV-A1 behaviour: refuse shards that co-locate a table."""
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        with pytest.raises(NonRetryableShardError):
            node.add_shard(shards[1], None)

    def test_unrelated_shards_coexist(self, env, events_schema):
        catalog, directory, shards, node = env
        other = TableSchema.build(
            "other", [Dimension("x", 10)], [Metric("m")]
        )
        catalog.create(other, num_partitions=2)
        other_shards = directory.register_table("other", 2)
        node.add_shard(shards[0], None)
        if other_shards[0] not in node.hosted_shards():
            node.add_shard(other_shards[0], None)
        assert node.tables_stored() == {"events", "other"}

    def test_migration_copies_data(self, env):
        catalog, directory, shards, node = env
        node.add_shard(shards[0], None)
        rows = make_rows(catalog.get("events").schema, 50, seed=1)
        in_zero = [
            r for r in rows
        ]
        insert_rows(node.partition("events", 0), in_zero)
        target = CubrickNode("h2", catalog, directory)
        target.add_shard(shards[0], node)
        assert target.partition("events", 0).rows == 50

    def test_failover_without_source_creates_empty(self, env):
        catalog, directory, shards, __ = env
        fresh = CubrickNode("h3", catalog, directory)
        fresh.add_shard(shards[2], None)
        assert fresh.partition("events", 2).rows == 0

    def test_graceful_protocol_forwarding_state(self, env):
        catalog, directory, shards, node = env
        node.add_shard(shards[0], None)
        target = CubrickNode("h2", catalog, directory)
        target.prepare_add_shard(shards[0], node)
        node.prepare_drop_shard(shards[0], target)
        assert node.is_forwarding(shards[0])
        target.commit_add_shard(shards[0])
        node.drop_shard(shards[0])
        assert not node.is_forwarding(shards[0])

    def test_commit_without_prepare_rejected(self, env):
        __, __d, shards, node = env
        with pytest.raises(ShardNotFoundError):
            node.commit_add_shard(shards[0])


class TestAttachDetach:
    def test_attach_partition_to_existing_shard(self, env, events_schema):
        catalog, directory, shards, node = env
        node.add_shard(shards[0], None)
        other = TableSchema.build("late", [Dimension("x", 10)], [Metric("m")])
        catalog.create(other, num_partitions=1)
        node.attach_partition(shards[0], "late", 0)
        assert node.has_partition("late", 0)
        assert "late" in node.tables_stored()

    def test_attach_can_create_shard_collision(self, env):
        """Creation-time shard collisions are allowed (paper §IV-A1)."""
        catalog, directory, shards, node = env
        node.add_shard(shards[0], None)
        # Simulate a second shard arriving that, at creation time, holds
        # a partition of a *different* table...
        other = TableSchema.build("t2", [Dimension("x", 10)], [Metric("m")])
        catalog.create(other, num_partitions=2)
        other_shards = directory.register_table("t2", 2)
        target_shard = next(s for s in other_shards if s not in shards)
        node.add_shard(target_shard, None)
        # ... and then a new table maps partitions onto both hosted shards.
        node.attach_partition(shards[0], "t2", 1)
        assert "t2" in node.has_shard_collision()

    def test_detach_partition(self, env):
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        node.detach_partition(shards[0], "events", 0)
        assert not node.has_partition("events", 0)
        assert node.hosted_shards() == {shards[0]}

    def test_attach_to_missing_shard_rejected(self, env):
        __, __d, __s, node = env
        with pytest.raises(ShardNotFoundError):
            node.attach_partition(999, "events", 0)


class TestLocalExecution:
    def test_execute_local_over_partitions(self, env):
        catalog, __, shards, node = env
        node.add_shard(shards[0], None)
        rows = [
            {"day": 1, "country": 2, "clicks": 5.0, "cost": 1.0},
            {"day": 2, "country": 3, "clicks": 7.0, "cost": 1.0},
        ]
        insert_rows(node.partition("events", 0), rows)
        query = Query.build("events", [Aggregation(AggFunc.SUM, "clicks")])
        partial = node.execute_local(query, [0])
        assert partial.finalize().scalar() == 12.0

    def test_execute_local_missing_partition_raises(self, env):
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        query = Query.build("events", [Aggregation(AggFunc.SUM, "clicks")])
        with pytest.raises(PartitionNotFoundError):
            node.execute_local(query, [1])


class TestMetricsAndMaintenance:
    def test_shard_metrics_per_shard(self, env):
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        insert_rows(
            node.partition("events", 0),
            [{"day": 1, "country": 1, "clicks": 1.0, "cost": 1.0}] * 10,
        )
        metrics = node.shard_metrics()
        assert set(metrics) == {shards[0]}
        assert metrics[shards[0]] > 0

    def test_exported_capacity_positive(self, env):
        __, __d, __s, node = env
        assert node.exported_capacity() > 0

    def test_memory_monitor_compresses_under_pressure(
        self, env, events_schema
    ):
        from repro.cubrick.compression import MemoryBudget

        catalog, directory, shards, __ = env
        node = CubrickNode(
            "tiny", catalog, directory,
            memory_budget=MemoryBudget(capacity_bytes=4096),
        )
        node.add_shard(shards[0], None)
        insert_rows(node.partition("events", 0), make_rows(events_schema, 500, seed=9))
        report = node.run_memory_monitor()
        assert report.compressed > 0
        assert report.footprint_after < report.footprint_before

    def test_decay_hotness_counts_bricks(self, env, events_schema):
        __, __d, shards, node = env
        node.add_shard(shards[0], None)
        insert_rows(node.partition("events", 0), make_rows(events_schema, 100, seed=4))
        assert node.decay_hotness() == node.partition("events", 0).brick_count

    def test_repr(self, env):
        __, __d, __s, node = env
        assert "h1" in repr(node)
