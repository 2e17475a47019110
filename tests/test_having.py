"""Tests for HAVING (post-aggregation filtering)."""

import numpy as np
import pytest

from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    CompareOp,
    Having,
    Query,
)
from repro.cubrick.sql import render_query
from repro.cubrick.storage import PartitionStorage
from repro.errors import QueryError
from tests.conftest import insert_rows, make_rows


@pytest.fixture
def storage(events_schema):
    part = PartitionStorage(events_schema, 0)
    insert_rows(part, make_rows(events_schema, 600, seed=41))
    return part


def day_sums(storage):
    result = storage.execute(
        Query.build(
            "events", [Aggregation(AggFunc.SUM, "clicks")], group_by=["day"]
        )
    ).finalize()
    return {int(k): v for k, v in result.rows}


class TestHavingExecution:
    @pytest.mark.parametrize("op,keep", [
        (CompareOp.GT, lambda v, t: v > t),
        (CompareOp.GE, lambda v, t: v >= t),
        (CompareOp.LT, lambda v, t: v < t),
        (CompareOp.LE, lambda v, t: v <= t),
    ])
    def test_operators_match_python(self, storage, op, keep):
        sums = day_sums(storage)
        threshold = sorted(sums.values())[len(sums) // 2]
        result = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.SUM, "clicks")],
                group_by=["day"],
                having=[Having("sum(clicks)", op, threshold)],
            )
        ).finalize()
        got = {int(k) for k, __ in result.rows}
        expected = {d for d, v in sums.items() if keep(v, threshold)}
        assert got == expected

    def test_having_on_group_column(self, storage):
        result = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.COUNT, "clicks")],
                group_by=["day"],
                having=[Having("day", CompareOp.LE, 4)],
            )
        ).finalize()
        assert {int(k) for k, __ in result.rows} == {0, 1, 2, 3, 4}

    def test_having_before_limit(self, storage):
        sums = day_sums(storage)
        threshold = sorted(sums.values())[-5]  # keep top-5 days
        result = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.SUM, "clicks")],
                group_by=["day"],
                having=[Having("sum(clicks)", CompareOp.GE, threshold)],
                order_by="sum(clicks)",
                limit=3,
            )
        ).finalize()
        assert len(result.rows) == 3
        expected_top = sorted(sums.values(), reverse=True)[:3]
        assert [v for __, v in result.rows] == expected_top

    def test_having_split_invariance(self, events_schema):
        """HAVING applies only after the full merge, so a split dataset
        yields the same surviving groups."""
        rows = make_rows(events_schema, 400, seed=42)
        whole = PartitionStorage(events_schema, 0)
        insert_rows(whole, rows)
        sums = day_sums(whole)
        threshold = sorted(sums.values())[len(sums) // 2]
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day"],
            having=[Having("sum(clicks)", CompareOp.GT, threshold)],
        )
        expected = whole.execute(query).finalize().rows
        left = PartitionStorage(events_schema, 0)
        right = PartitionStorage(events_schema, 1)
        insert_rows(left, rows[:200])
        insert_rows(right, rows[200:])
        merged = left.execute(query).merge(right.execute(query)).finalize()
        assert merged.rows == expected

    def test_invalid_having_column_rejected(self):
        with pytest.raises(QueryError):
            Query.build(
                "t",
                [Aggregation(AggFunc.SUM, "x")],
                having=[Having("nope", CompareOp.GT, 1)],
            )

    def test_having_none_values_dropped(self, storage):
        # avg of an empty group never exists here, but a missing value
        # (NaN in the value arrays, None in the rows) never passes.
        for op in CompareOp:
            assert not Having("x", op, 0).mask(np.array([np.nan]))[0]


class TestHavingSql:
    def test_parse(self, tiny_deployment):
        query = tiny_deployment.compile_sql(
            "SELECT sum(clicks) FROM events GROUP BY day "
            "HAVING sum(clicks) > 100"
        )
        assert query.having == (
            Having("sum(clicks)", CompareOp.GT, 100.0),
        )

    def test_parse_conjunction_and_ops(self, tiny_deployment):
        query = tiny_deployment.compile_sql(
            "SELECT sum(clicks) FROM events GROUP BY day "
            "HAVING sum(clicks) >= 10 AND day < 5"
        )
        assert query.having[0].op is CompareOp.GE
        assert query.having[1].op is CompareOp.LT

    def test_render_roundtrip(self, tiny_deployment):
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day"],
            having=[Having("sum(clicks)", CompareOp.GT, 100.0),
                    Having("day", CompareOp.LE, 6.0)],
        )
        assert tiny_deployment.compile_sql(render_query(query)) == query

    def test_unsupported_operator_rejected(self, tiny_deployment):
        with pytest.raises(QueryError):
            tiny_deployment.compile_sql(
                "SELECT sum(clicks) FROM events GROUP BY day "
                "HAVING sum(clicks) between 1"
            )

    def test_end_to_end(self, tiny_deployment):
        result = tiny_deployment.sql(
            "SELECT count(clicks) FROM events GROUP BY day "
            "HAVING count(clicks) >= 10 ORDER BY count(clicks) DESC"
        )
        assert all(v >= 10 for __, v in result.rows)
