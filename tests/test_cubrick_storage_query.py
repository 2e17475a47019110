"""Tests for partition storage and query execution, against oracles."""

import numpy as np
import pytest

from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    Filter,
    FilterOp,
    PartialResult,
    Query,
)
from repro.cubrick.storage import PartitionStorage
from repro.errors import QueryError
from tests.conftest import insert_rows, make_rows


@pytest.fixture
def loaded_storage(events_schema):
    storage = PartitionStorage(events_schema, partition_index=0)
    rows = make_rows(events_schema, 800, seed=11)
    insert_rows(storage, rows)
    return storage, rows


def oracle(rows, filters=(), group_by=(), agg=("sum", "clicks")):
    """Pure-Python reference implementation."""
    def match(row):
        for flt in filters:
            value = row[flt.dimension]
            if flt.op is FilterOp.EQ and value != flt.values[0]:
                return False
            if flt.op is FilterOp.IN and value not in flt.values:
                return False
            if flt.op is FilterOp.BETWEEN and not (
                flt.values[0] <= value <= flt.values[1]
            ):
                return False
        return True

    groups = {}
    for row in rows:
        if not match(row):
            continue
        key = tuple(int(row[d]) for d in group_by)
        groups.setdefault(key, []).append(row[agg[1]])

    func, __ = agg
    out = {}
    for key, values in groups.items():
        if func == "sum":
            out[key] = sum(values)
        elif func == "count":
            out[key] = float(len(values))
        elif func == "min":
            out[key] = min(values)
        elif func == "max":
            out[key] = max(values)
        elif func == "avg":
            out[key] = sum(values) / len(values)
        elif func == "count_distinct":
            out[key] = float(len(set(values)))
    return out


class TestFilterValidation:
    def test_eq_needs_one_value(self):
        with pytest.raises(QueryError):
            Filter(dimension="d", op=FilterOp.EQ, values=(1, 2))

    def test_between_needs_ordered_pair(self):
        with pytest.raises(QueryError):
            Filter(dimension="d", op=FilterOp.BETWEEN, values=(5, 1))

    def test_in_needs_values(self):
        with pytest.raises(QueryError):
            Filter(dimension="d", op=FilterOp.IN, values=())

    def test_query_needs_aggregation(self):
        with pytest.raises(QueryError):
            Query.build("t", [])


class TestExecution:
    @pytest.mark.parametrize("func", list(AggFunc))
    def test_global_aggregates_match_oracle(self, loaded_storage, func):
        storage, rows = loaded_storage
        query = Query.build("events", [Aggregation(func, "clicks")])
        result = storage.execute(query).finalize()
        expected = oracle(rows, agg=(func.value, "clicks"))[()]
        assert result.scalar() == pytest.approx(expected)

    def test_eq_filter_matches_oracle(self, loaded_storage):
        storage, rows = loaded_storage
        flt = Filter.eq("day", 3)
        query = Query.build(
            "events", [Aggregation(AggFunc.SUM, "clicks")], filters=[flt]
        )
        result = storage.execute(query).finalize()
        expected = oracle(rows, filters=[flt]).get((), 0.0)
        got = result.scalar() if result.rows else 0.0
        assert got == pytest.approx(expected)

    def test_between_filter_matches_oracle(self, loaded_storage):
        storage, rows = loaded_storage
        flt = Filter.between("day", 5, 20)
        query = Query.build(
            "events", [Aggregation(AggFunc.COUNT, "clicks")], filters=[flt]
        )
        result = storage.execute(query).finalize()
        assert result.scalar() == pytest.approx(
            oracle(rows, filters=[flt], agg=("count", "clicks"))[()]
        )

    def test_in_filter_matches_oracle(self, loaded_storage):
        storage, rows = loaded_storage
        flt = Filter.isin("country", [1, 5, 99])
        query = Query.build(
            "events", [Aggregation(AggFunc.SUM, "cost")], filters=[flt]
        )
        result = storage.execute(query).finalize()
        expected = oracle(rows, filters=[flt], agg=("sum", "cost")).get((), 0.0)
        got = result.scalar() if result.rows else 0.0
        assert got == pytest.approx(expected)

    def test_group_by_matches_oracle(self, loaded_storage):
        storage, rows = loaded_storage
        query = Query.build(
            "events", [Aggregation(AggFunc.AVG, "clicks")], group_by=["day"]
        )
        result = storage.execute(query).finalize()
        expected = oracle(rows, group_by=["day"], agg=("avg", "clicks"))
        got = {(int(r[0]),): r[1] for r in result.rows}
        assert set(got) == set(expected)
        for key in expected:
            assert got[key] == pytest.approx(expected[key])

    def test_group_by_two_dims_with_filter(self, loaded_storage):
        storage, rows = loaded_storage
        flt = Filter.between("country", 0, 49)
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day", "country"],
            filters=[flt],
        )
        result = storage.execute(query).finalize()
        expected = oracle(rows, filters=[flt], group_by=["day", "country"])
        got = {(int(r[0]), int(r[1])): r[2] for r in result.rows}
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key] == pytest.approx(expected[key])

    def test_pruning_reduces_bricks_scanned(self, loaded_storage):
        storage, __ = loaded_storage
        unfiltered = storage.execute(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        )
        filtered = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.COUNT, "clicks")],
                filters=[Filter.eq("day", 0)],
            )
        )
        assert filtered.bricks_scanned < unfiltered.bricks_scanned

    def test_execution_touches_bricks(self, loaded_storage):
        storage, __ = loaded_storage
        assert all(b.hotness == 0 for b in storage.bricks())
        storage.execute(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        )
        assert all(b.hotness == 1.0 for b in storage.bricks())

    def test_unknown_filter_dimension_rejected(self, loaded_storage):
        storage, __ = loaded_storage
        with pytest.raises(QueryError):
            storage.execute(
                Query.build(
                    "events",
                    [Aggregation(AggFunc.COUNT, "clicks")],
                    filters=[Filter.eq("nope", 1)],
                )
            )

    def test_unknown_metric_rejected(self, loaded_storage):
        storage, __ = loaded_storage
        with pytest.raises(QueryError):
            storage.execute(
                Query.build("events", [Aggregation(AggFunc.SUM, "nope")])
            )

    def test_unknown_group_by_rejected(self, loaded_storage):
        storage, __ = loaded_storage
        with pytest.raises(QueryError):
            storage.execute(
                Query.build(
                    "events",
                    [Aggregation(AggFunc.SUM, "clicks")],
                    group_by=["nope"],
                )
            )

    def test_empty_result_when_nothing_matches(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        insert_rows(storage, [{"day": 0, "country": 0, "clicks": 1.0, "cost": 1.0}])
        result = storage.execute(
            Query.build(
                "events",
                [Aggregation(AggFunc.SUM, "clicks")],
                filters=[Filter.eq("day", 29)],
            )
        ).finalize()
        assert result.rows == []

    def test_execute_on_compressed_partition(self, loaded_storage):
        storage, rows = loaded_storage
        for brick in storage.bricks():
            brick.compress()
        result = storage.execute(
            Query.build("events", [Aggregation(AggFunc.SUM, "clicks")])
        ).finalize()
        assert result.scalar() == pytest.approx(oracle(rows)[()])


class TestPartialMerge:
    def test_merge_two_partitions_equals_whole(self, events_schema):
        rows = make_rows(events_schema, 400, seed=5)
        whole = PartitionStorage(events_schema, 0)
        insert_rows(whole, rows)
        left = PartitionStorage(events_schema, 0)
        right = PartitionStorage(events_schema, 1)
        insert_rows(left, rows[:200])
        insert_rows(right, rows[200:])
        query = Query.build(
            "events", [Aggregation(AggFunc.AVG, "clicks")], group_by=["day"]
        )
        merged = left.execute(query).merge(right.execute(query)).finalize()
        expected = whole.execute(query).finalize()
        assert merged.rows == expected.rows

    def test_merge_different_queries_rejected(self, events_schema):
        a = PartialResult(
            query=Query.build("t", [Aggregation(AggFunc.SUM, "x")])
        )
        b = PartialResult(
            query=Query.build("t", [Aggregation(AggFunc.MAX, "x")])
        )
        with pytest.raises(QueryError):
            a.merge(b)

    def test_merge_different_group_bys_rejected(self, events_schema):
        """Same aggregations but different grouping: the group keys are
        incompatible tuples, so merging must fail loudly instead of
        producing silently wrong totals."""
        aggs = [Aggregation(AggFunc.SUM, "x")]
        a = PartialResult(query=Query.build("t", aggs, group_by=["day"]))
        b = PartialResult(
            query=Query.build("t", aggs, group_by=["day", "country"])
        )
        a.accumulate_block(np.array([[1]]), [np.array([2.0])])
        b.accumulate_block(np.array([[1, 5]]), [np.array([3.0])])
        with pytest.raises(QueryError, match="group-by"):
            a.merge(b)

    def test_scalar_on_non_scalar_rejected(self, loaded_storage):
        storage, __ = loaded_storage
        result = storage.execute(
            Query.build(
                "events", [Aggregation(AggFunc.SUM, "clicks")], group_by=["day"]
            )
        ).finalize()
        with pytest.raises(QueryError):
            result.scalar()

    def test_to_dicts(self, loaded_storage):
        storage, __ = loaded_storage
        result = storage.execute(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        ).finalize()
        assert result.to_dicts() == [{"count(clicks)": 800.0}]


class TestStorageInternals:
    def test_insert_routes_to_granular_brick(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        insert_rows(storage, [
            {"day": 0, "country": 0, "clicks": 1.0, "cost": 1.0},
            {"day": 29, "country": 99, "clicks": 1.0, "cost": 1.0},
        ])
        assert [b.brick_id for b in storage.bricks()] == [
            0, storage.index.total_bricks - 1
        ]

    def test_all_columns_roundtrip(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        rows = make_rows(events_schema, 50, seed=2)
        insert_rows(storage, rows)
        columns = storage.all_columns()
        names = events_schema.column_names
        recovered = sorted(zip(*(columns[name].tolist() for name in names)))
        assert recovered == sorted(tuple(row[name] for name in names) for row in rows)

    def test_footprints(self, loaded_storage):
        storage, __ = loaded_storage
        assert storage.footprint_bytes() == storage.decompressed_bytes()
        for brick in storage.bricks():
            brick.compress()
        assert storage.footprint_bytes() < storage.decompressed_bytes()
