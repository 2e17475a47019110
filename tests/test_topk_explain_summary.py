"""Tests for ORDER BY/LIMIT (top-k), explain, and the ops summary."""

import pytest

from repro.cubrick.query import AggFunc, Aggregation, Filter, Query
from repro.cubrick.storage import PartitionStorage
from repro.errors import QueryError
from tests.conftest import insert_rows, make_rows


@pytest.fixture
def storage(events_schema):
    part = PartitionStorage(events_schema, 0)
    insert_rows(part, make_rows(events_schema, 600, seed=13))
    return part


class TestTopK:
    def test_order_by_aggregation_descending(self, storage):
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day"],
            order_by="sum(clicks)",
        )
        rows = storage.execute(query).finalize().rows
        values = [r[1] for r in rows]
        assert values == sorted(values, reverse=True)

    def test_order_by_ascending(self, storage):
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day"],
            order_by="sum(clicks)",
            descending=False,
        )
        rows = storage.execute(query).finalize().rows
        values = [r[1] for r in rows]
        assert values == sorted(values)

    def test_limit_returns_top_k(self, storage):
        full = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.SUM, "clicks")],
                group_by=["day"],
                order_by="sum(clicks)",
            )
        ).finalize()
        top3 = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.SUM, "clicks")],
                group_by=["day"],
                order_by="sum(clicks)",
                limit=3,
            )
        ).finalize()
        assert len(top3.rows) == 3
        assert top3.rows == full.rows[:3]

    def test_order_by_group_column(self, storage):
        query = Query.build(
            "events",
            [Aggregation(AggFunc.COUNT, "clicks")],
            group_by=["day"],
            order_by="day",
            descending=False,
            limit=5,
        )
        rows = storage.execute(query).finalize().rows
        days = [r[0] for r in rows]
        assert days == sorted(days)
        assert len(rows) == 5

    def test_limit_without_order(self, storage):
        query = Query.build(
            "events",
            [Aggregation(AggFunc.COUNT, "clicks")],
            group_by=["day"],
            limit=4,
        )
        assert len(storage.execute(query).finalize().rows) == 4

    def test_topk_split_invariance(self, events_schema):
        """Top-k over merged partials equals top-k over the whole —
        the coordinator applies shaping only after the final merge."""
        rows = make_rows(events_schema, 400, seed=14)
        whole = PartitionStorage(events_schema, 0)
        insert_rows(whole, rows)
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["country"],
            order_by="sum(clicks)",
            limit=5,
        )
        expected = whole.execute(query).finalize().rows

        left = PartitionStorage(events_schema, 0)
        right = PartitionStorage(events_schema, 1)
        insert_rows(left, rows[:200])
        insert_rows(right, rows[200:])
        merged = left.execute(query).merge(right.execute(query)).finalize()
        assert merged.rows == expected

    def test_invalid_order_by_rejected(self):
        with pytest.raises(QueryError):
            Query.build(
                "t",
                [Aggregation(AggFunc.SUM, "x")],
                order_by="nope",
            )

    def test_invalid_limit_rejected(self):
        with pytest.raises(QueryError):
            Query.build("t", [Aggregation(AggFunc.SUM, "x")], limit=0)


class TestExplain:
    def test_unfiltered_scans_everything(self, storage):
        plan = storage.explain(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        )
        assert plan["bricks_scanned"] == plan["bricks_total"]
        assert plan["rows_estimated"] == 600

    def test_filtered_prunes(self, storage):
        plan = storage.explain(
            Query.build(
                "events",
                [Aggregation(AggFunc.COUNT, "clicks")],
                filters=[Filter.eq("day", 0)],
            )
        )
        assert plan["bricks_scanned"] < plan["bricks_total"]
        assert plan["rows_estimated"] < 600

    def test_explain_does_not_touch_hotness(self, storage):
        storage.explain(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        )
        assert all(b.hotness == 0 for b in storage.bricks())


class TestSummary:
    def test_summary_shape(self, tiny_deployment):
        tiny_deployment.query(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        )
        summary = tiny_deployment.summary()
        assert summary["hosts"]["total"] == len(tiny_deployment.cluster)
        assert summary["tables"]["events"]["partitions"] == 6
        assert not summary["tables"]["events"]["replicated"]
        assert set(summary["regions"]) == set(tiny_deployment.region_names())
        for stats in summary["regions"].values():
            assert stats["registered_hosts"] == 6
            assert stats["shards"] > 0
        assert summary["proxy"]["queries"] >= 1
        assert 0.0 < summary["proxy"]["success_ratio"] <= 1.0

    def test_summary_reflects_failures(self, tiny_deployment):
        victim = tiny_deployment.cluster.host_ids()[0]
        tiny_deployment.automation.handle_host_failure(victim, permanent=True)
        summary = tiny_deployment.summary()
        assert summary["hosts"]["by_state"]["repair"] == 1
        assert summary["repairs"] == 1
        tiny_deployment.automation.handle_host_recovery(victim)
