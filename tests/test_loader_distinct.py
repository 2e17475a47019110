"""Tests for the streaming loader and COUNT DISTINCT."""

import numpy as np
import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.partitioning import PartitioningPolicy
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.storage import PartitionStorage
from repro.errors import ConfigurationError, QueryError
from repro.workloads.fanout_experiment import probe_schema
from tests.conftest import insert_rows, make_rows


def count_query(table):
    return Query.build(table, [Aggregation(AggFunc.COUNT, "value")])


@pytest.fixture
def deployment():
    # 16 hosts per region so a re-partition to 16 partitions still finds
    # collision-free placements.
    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=66, regions=2, racks_per_region=4, hosts_per_rack=4,
            partitioning=PartitioningPolicy(
                max_rows_per_partition=300, min_rows_per_partition=10
            ),
        )
    )
    deployment.create_table(probe_schema("stream"))
    deployment.simulator.run_until(30.0)
    return deployment


def stream_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"bucket": int(rng.integers(64)), "value": float(rng.integers(1, 10))}
        for __ in range(n)
    ]


class TestStreamingLoader:
    def test_append_buffers_until_batch(self, deployment):
        loader = deployment.loader("stream", batch_rows=100)
        loader.append_many(stream_rows(50))
        assert loader.buffered_rows == 50
        assert loader.stats.rows_flushed == 0

    def test_full_batches_flush_automatically(self, deployment):
        loader = deployment.loader("stream", batch_rows=10)
        loader.append_many(stream_rows(500))
        assert loader.stats.batches_flushed > 0
        assert loader.stats.rows_flushed > 0

    def test_flush_writes_everything_to_all_regions(self, deployment):
        loader = deployment.loader("stream", batch_rows=10_000)
        loader.append_many(stream_rows(250))
        loader.flush()
        assert loader.buffered_rows == 0
        assert loader.stats.rows_flushed == 250
        for coordinator in deployment.coordinators.values():
            result = coordinator.execute(count_query("stream"))
            assert result.scalar() == 250.0

    def test_loaded_data_is_queryable(self, deployment):
        loader = deployment.loader("stream", batch_rows=64)
        rows = stream_rows(300, seed=3)
        loader.append_many(rows)
        loader.flush()
        result = deployment.query(
            Query.build("stream", [Aggregation(AggFunc.SUM, "value")])
        )
        assert result.scalar() == pytest.approx(sum(r["value"] for r in rows))

    def test_rebucket_after_midstream_repartition(self, deployment):
        loader = deployment.loader("stream", batch_rows=10_000)
        loader.append_many(stream_rows(3000, seed=4))
        loader.flush()
        # Grow the table while more rows sit in the loader's buffers.
        loader.append_many(stream_rows(100, seed=5))
        assert deployment.maybe_repartition("stream")
        deployment.simulator.run_until(deployment.simulator.now + 30.0)
        loader.flush()
        assert loader.stats.reroutes == 100
        result = deployment.query(count_query("stream"))
        assert result.scalar() == 3100.0

    def test_invalid_rows_rejected_before_buffering(self, deployment):
        loader = deployment.loader("stream")
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            loader.append_many([{"bucket": 64, "value": 1.0}])  # out of domain
        assert loader.buffered_rows == 0

    def test_replicated_table_rejected(self, deployment):
        dim = TableSchema.build("d", [Dimension("k", 5)], [])
        deployment.create_table(dim, replicated=True)
        with pytest.raises(ConfigurationError):
            deployment.loader("d")

    def test_invalid_batch_size_rejected(self, deployment):
        with pytest.raises(ConfigurationError):
            deployment.loader("stream", batch_rows=0)

    def test_flush_survives_owner_migration(self, deployment):
        loader = deployment.loader("stream", batch_rows=10_000)
        loader.append_many(stream_rows(100, seed=6))
        loader.flush()
        # Drain a host holding data: ownership moves.
        sm = deployment.sm_servers["region0"]
        victim = next(
            h for h in sm.registered_hosts() if sm.shards_on_host(h)
        )
        sm.drain_host(victim)
        loader.append_many(stream_rows(100, seed=7))
        loader.flush()  # re-resolves the authoritative owner
        deployment.simulator.run_until(deployment.simulator.now + 60.0)
        result = deployment.query(count_query("stream"))
        assert result.scalar() == 200.0


class TestCountDistinct:
    @pytest.fixture
    def storage(self, events_schema):
        part = PartitionStorage(events_schema, 0)
        insert_rows(part, make_rows(events_schema, 500, seed=21))
        return part

    def test_distinct_dimension(self, storage, events_schema):
        rows = make_rows(events_schema, 500, seed=21)
        expected = len({r["country"] for r in rows})
        result = storage.execute(
            Query.build(
                "events", [Aggregation(AggFunc.COUNT_DISTINCT, "country")]
            )
        ).finalize()
        assert result.scalar() == expected

    def test_distinct_metric(self, storage, events_schema):
        rows = make_rows(events_schema, 500, seed=21)
        expected = len({r["clicks"] for r in rows})
        result = storage.execute(
            Query.build(
                "events", [Aggregation(AggFunc.COUNT_DISTINCT, "clicks")]
            )
        ).finalize()
        assert result.scalar() == expected

    def test_distinct_with_group_by(self, storage, events_schema):
        rows = make_rows(events_schema, 500, seed=21)
        expected = {}
        for row in rows:
            expected.setdefault(row["day"], set()).add(row["country"])
        result = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.COUNT_DISTINCT, "country")],
                group_by=["day"],
            )
        ).finalize()
        got = {int(k): v for k, v in result.rows}
        assert got == {day: float(len(s)) for day, s in expected.items()}

    def test_distinct_merges_across_partitions(self, events_schema):
        """The crucial distinct property: overlap between partitions must
        not be double-counted."""
        rows = make_rows(events_schema, 400, seed=22)
        left = PartitionStorage(events_schema, 0)
        right = PartitionStorage(events_schema, 1)
        insert_rows(left, rows[:250])
        insert_rows(right, rows[150:])  # 100 rows overlap
        query = Query.build(
            "events", [Aggregation(AggFunc.COUNT_DISTINCT, "country")]
        )
        merged = left.execute(query).merge(right.execute(query)).finalize()
        expected = len({r["country"] for r in rows[:250]} |
                       {r["country"] for r in rows[150:]})
        assert merged.scalar() == expected

    def test_distinct_unknown_column_rejected(self, storage):
        with pytest.raises(QueryError):
            storage.execute(
                Query.build(
                    "events", [Aggregation(AggFunc.COUNT_DISTINCT, "nope")]
                )
            )

    def test_distinct_end_to_end(self, deployment):
        loader = deployment.loader("stream", batch_rows=100)
        rows = stream_rows(600, seed=9)
        loader.append_many(rows)
        loader.flush()
        result = deployment.query(
            Query.build(
                "stream", [Aggregation(AggFunc.COUNT_DISTINCT, "bucket")]
            )
        )
        assert result.scalar() == len({r["bucket"] for r in rows})
