"""Tests for replicated dimension tables and local joins (paper §II-B)."""

import numpy as np
import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.node import CubrickNode
from repro.cubrick.query import AggFunc, Aggregation, Filter, Join, Query
from repro.cubrick.schema import Catalog, Dimension, Metric, TableSchema
from repro.cubrick.sharding import MonotonicHashMapper, ShardDirectory
from repro.cubrick.storage import PartitionStorage
from repro.errors import PartitionNotFoundError, QueryError
from tests.conftest import insert_rows

FACT = TableSchema.build(
    "sales",
    dimensions=[Dimension("user_id", 100), Dimension("day", 10)],
    metrics=[Metric("amount")],
)
DIM = TableSchema.build(
    "dim_users",
    dimensions=[Dimension("user_id", 100), Dimension("country", 5)],
    metrics=[],
)

FACT_ROWS = [
    {"user_id": 1, "day": 0, "amount": 10.0},
    {"user_id": 2, "day": 0, "amount": 20.0},
    {"user_id": 3, "day": 1, "amount": 30.0},
    {"user_id": 1, "day": 1, "amount": 40.0},
    {"user_id": 99, "day": 2, "amount": 500.0},  # no dim row: inner-joined away
]
DIM_ROWS = [
    {"user_id": 1, "country": 0},
    {"user_id": 2, "country": 1},
    {"user_id": 3, "country": 0},
]

JOIN = Join(table="dim_users", fact_key="user_id", dim_key="user_id")


def build_lookup():
    """Key->country lookup as the node would materialise it."""
    lookup = np.full(100, -1, dtype=np.int64)
    for row in DIM_ROWS:
        lookup[row["user_id"]] = row["country"]
    return {"dim_users.country": ("user_id", lookup)}


class TestJoinModel:
    def test_join_validation(self):
        with pytest.raises(QueryError):
            Join(table="", fact_key="a", dim_key="b")

    def test_column_of(self):
        assert JOIN.column_of("dim_users.country") == "country"
        assert JOIN.column_of("other.country") is None

    def test_duplicate_join_tables_rejected(self):
        with pytest.raises(QueryError):
            Query.build(
                "sales",
                [Aggregation(AggFunc.SUM, "amount")],
                joins=[JOIN, JOIN],
            )

    def test_joined_columns(self):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            filters=[Filter.eq("day", 0)],
            joins=[JOIN],
        )
        assert query.joined_columns() == {"dim_users.country"}


class TestStorageJoinExecution:
    @pytest.fixture
    def storage(self):
        part = PartitionStorage(FACT, 0)
        insert_rows(part, FACT_ROWS)
        return part

    def test_group_by_joined_column(self, storage):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            joins=[JOIN],
        )
        result = storage.execute(query, build_lookup()).finalize()
        got = {int(k): v for k, v in result.rows}
        # country 0: users 1,3 -> 10+40+30 = 80; country 1: user 2 -> 20.
        assert got == {0: 80.0, 1: 20.0}

    def test_unmatched_keys_dropped(self, storage):
        """user 99 has no dim row: inner join drops its 500.0."""
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            joins=[JOIN],
        )
        result = storage.execute(query, build_lookup()).finalize()
        assert sum(v for __, v in result.rows) == 100.0

    def test_filter_on_joined_column(self, storage):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.COUNT, "amount")],
            filters=[Filter.eq("dim_users.country", 0)],
            joins=[JOIN],
        )
        result = storage.execute(query, build_lookup()).finalize()
        assert result.scalar() == 3.0  # rows of users 1 and 3

    def test_mixed_fact_and_joined_filters(self, storage):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            filters=[Filter.eq("dim_users.country", 0), Filter.eq("day", 1)],
            joins=[JOIN],
        )
        result = storage.execute(query, build_lookup()).finalize()
        assert result.scalar() == 70.0  # user1 day1 + user3 day1

    def test_missing_lookup_raises(self, storage):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            joins=[JOIN],
        )
        with pytest.raises(QueryError):
            storage.execute(query)  # no lookups supplied


class TestNodeJoins:
    @pytest.fixture
    def node(self):
        catalog = Catalog()
        catalog.create(FACT, num_partitions=1)
        catalog.create(DIM, num_partitions=1, replicated=True)
        directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
        shards = directory.register_table("sales", 1)
        node = CubrickNode("h1", catalog, directory)
        node.add_shard(shards[0], None)
        insert_rows(node.partition("sales", 0), FACT_ROWS)
        insert_rows(node.store_replicated("dim_users"), DIM_ROWS)
        return node

    def test_local_join_execution(self, node):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            joins=[JOIN],
        )
        result = node.execute_local(query, [0]).finalize()
        assert {int(k): v for k, v in result.rows} == {0: 80.0, 1: 20.0}

    def test_missing_replica_raises(self, node):
        node.drop_replicated("dim_users")
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            joins=[JOIN],
        )
        with pytest.raises(PartitionNotFoundError):
            node.execute_local(query, [0])

    def test_replicated_tables_listed(self, node):
        assert node.replicated_tables() == {"dim_users"}


class TestDeploymentJoins:
    @pytest.fixture
    def deployment(self):
        deployment = CubrickDeployment(
            DeploymentConfig(seed=123, regions=2, racks_per_region=2,
                             hosts_per_rack=3)
        )
        deployment.create_table(FACT)
        deployment.create_table(DIM, replicated=True)
        deployment.load("sales", FACT_ROWS * 20)
        deployment.load("dim_users", DIM_ROWS)
        deployment.simulator.run_until(30.0)
        return deployment

    def test_replicated_table_on_every_node(self, deployment):
        for node in deployment.nodes.values():
            assert "dim_users" in node.replicated_tables()

    def test_distributed_join_through_proxy(self, deployment):
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.SUM, "amount")],
            group_by=["dim_users.country"],
            joins=[JOIN],
        )
        result = deployment.query(query)
        got = {int(k): v for k, v in result.rows}
        assert got == {0: 80.0 * 20, 1: 20.0 * 20}

    def test_join_survives_region_failover(self, deployment):
        coordinator = deployment.coordinators["region0"]
        victim = sorted(coordinator.partition_hosts("sales"))[0]
        deployment.cluster.host(victim).fail(permanent=False)
        query = Query.build(
            "sales",
            [Aggregation(AggFunc.COUNT, "amount")],
            filters=[Filter.eq("dim_users.country", 0)],
            joins=[JOIN],
        )
        result = deployment.query(query)
        assert result.scalar() == 3.0 * 20
        assert result.metadata["region"] == "region1"
        deployment.cluster.host(victim).recover()

    def test_drop_replicated_table(self, deployment):
        deployment.drop_table("dim_users")
        for node in deployment.nodes.values():
            assert "dim_users" not in node.replicated_tables()
        assert "dim_users" not in deployment.catalog
