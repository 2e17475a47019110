"""Tests for vectorised columnar ingestion."""

import numpy as np
import pytest

from repro.cubrick.granular import GranularIndex
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.storage import PartitionStorage
from repro.errors import CubrickError, SchemaError
from tests.conftest import insert_rows, make_rows


def columns_from_rows(rows):
    names = rows[0].keys()
    return {name: np.array([r[name] for r in rows]) for name in names}


class TestInsertColumns:
    def test_equivalent_to_row_inserts(self, events_schema):
        rows = make_rows(events_schema, 400, seed=31)
        by_rows = PartitionStorage(events_schema, 0)
        insert_rows(by_rows, rows)
        by_columns = PartitionStorage(events_schema, 0)
        assert by_columns.insert_columns(columns_from_rows(rows)) == 400

        assert by_columns.rows == by_rows.rows
        assert by_columns.brick_count == by_rows.brick_count
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks"),
             Aggregation(AggFunc.COUNT, "clicks")],
            group_by=["day"],
        )
        assert (
            by_columns.execute(query).finalize().rows
            == by_rows.execute(query).finalize().rows
        )

    def test_routes_to_same_bricks_as_scalar_path(self, events_schema):
        rows = make_rows(events_schema, 200, seed=32)
        storage = PartitionStorage(events_schema, 0)
        storage.insert_columns(columns_from_rows(rows))
        for row in rows[:50]:
            expected = storage.index.brick_of(row)
            brick = storage.brick(expected)
            assert brick is not None and brick.rows > 0

    def test_empty_load(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        empty = {
            name: np.array([])
            for name in events_schema.column_names
        }
        assert storage.insert_columns(empty) == 0
        assert storage.rows == 0

    def test_missing_column_rejected(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        with pytest.raises(CubrickError):
            storage.insert_columns({"day": np.array([1])})

    def test_ragged_columns_rejected(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        with pytest.raises(CubrickError):
            storage.insert_columns(
                {
                    "day": np.array([1, 2]),
                    "country": np.array([1]),
                    "clicks": np.array([1.0, 2.0]),
                    "cost": np.array([1.0, 2.0]),
                }
            )

    def test_out_of_domain_rejected(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        with pytest.raises(SchemaError):
            storage.insert_columns(
                {
                    "day": np.array([30]),  # domain is [0, 30)
                    "country": np.array([0]),
                    "clicks": np.array([1.0]),
                    "cost": np.array([1.0]),
                }
            )
        assert storage.rows == 0

    def test_out_of_domain_error_names_column_and_row(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        with pytest.raises(SchemaError, match=r"'country'.*row 2"):
            storage.insert_columns(
                {
                    "day": np.array([0, 1, 2, 3]),
                    "country": np.array([0, 1, 100, -1]),  # domain [0, 100)
                    "clicks": np.ones(4),
                    "cost": np.ones(4),
                }
            )
        assert storage.rows == 0

    def test_fractional_dimension_rejected_before_cast(self, events_schema):
        """A float like 3.7 must not be silently truncated into brick 3's
        bucket — the int64 cast happens only after validation."""
        storage = PartitionStorage(events_schema, 0)
        with pytest.raises(SchemaError, match=r"'day'.*non-integer"):
            storage.insert_columns(
                {
                    "day": np.array([1.0, 3.7]),
                    "country": np.array([0, 0]),
                    "clicks": np.ones(2),
                    "cost": np.ones(2),
                }
            )
        assert storage.rows == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_metric_rejected(self, events_schema, bad):
        """NaN would read as "no value" to grouped MIN/MAX (but not to
        ungrouped ones) and is not valid JSON on the wire; ±inf has no
        JSON form either. The load fails, naming column and row."""
        storage = PartitionStorage(events_schema, 0)
        with pytest.raises(SchemaError, match=r"'cost'.*non-finite.*row 2"):
            storage.insert_columns(
                {
                    "day": np.array([0, 1, 2]),
                    "country": np.array([0, 0, 0]),
                    "clicks": np.ones(3),
                    "cost": np.array([1.0, 2.0, bad]),
                }
            )
        assert storage.rows == 0

    def test_integral_float_dimensions_accepted(self, events_schema):
        storage = PartitionStorage(events_schema, 0)
        n = storage.insert_columns(
            {
                "day": np.array([1.0, 29.0]),  # integral floats are fine
                "country": np.array([0, 99]),
                "clicks": np.ones(2),
                "cost": np.ones(2),
            }
        )
        assert n == 2 and storage.rows == 2

    def test_incremental_bulk_loads_accumulate(self, events_schema):
        rows = make_rows(events_schema, 300, seed=33)
        storage = PartitionStorage(events_schema, 0)
        storage.insert_columns(columns_from_rows(rows[:150]))
        storage.insert_columns(columns_from_rows(rows[150:]))
        result = storage.execute(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        ).finalize()
        assert result.scalar() == 300.0

    def test_row_and_column_loads_build_identical_bricks(self, events_schema):
        """Row dicts, one at a time or many, and column arrays all end in
        the same bricks, byte for byte: each brick holds its rows in load
        order, in the storage dtypes."""
        rows = make_rows(events_schema, 2000, seed=34)
        by_brick: dict[int, list[dict]] = {}
        for row in rows:
            by_brick.setdefault(GranularIndex(events_schema).brick_of(row), []).append(row)
        expected = {
            brick_id: {
                name: np.array(
                    [row[name] for row in brick_rows],
                    dtype=np.int64 if events_schema.has_dimension(name) else np.float64,
                ).tobytes()
                for name in events_schema.column_names
            }
            for brick_id, brick_rows in by_brick.items()
        }
        one_by_one = PartitionStorage(events_schema, 0)
        for row in rows[:700]:
            insert_rows(one_by_one, [row])
        insert_rows(one_by_one, rows[700:])
        by_rows = PartitionStorage(events_schema, 0)
        insert_rows(by_rows, rows)
        by_columns = PartitionStorage(events_schema, 0)
        by_columns.insert_columns(columns_from_rows(rows))
        for storage in (one_by_one, by_rows, by_columns):
            assert {
                brick.brick_id: {
                    name: values.tobytes() for name, values in brick.columns().items()
                }
                for brick in storage.bricks()
            } == expected
