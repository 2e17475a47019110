"""Tests for table schemas, partition names and the catalog."""

import pytest

from repro.cubrick.schema import (
    Catalog,
    Dimension,
    Metric,
    TableSchema,
    partition_name,
    split_partition_name,
    validate_table_name,
)
from repro.errors import (
    InvalidTableNameError,
    SchemaError,
    TableAlreadyExistsError,
    TableNotFoundError,
)


class TestNames:
    def test_partition_name_format(self):
        assert partition_name("dim_users", 2) == "dim_users#2"

    def test_split_roundtrip(self):
        assert split_partition_name("dim_users#2") == ("dim_users", 2)

    def test_split_rejects_plain_names(self):
        with pytest.raises(SchemaError):
            split_partition_name("dim_users")

    def test_hash_in_table_name_rejected(self):
        """# is reserved as the partition separator (paper §IV-A)."""
        with pytest.raises(InvalidTableNameError):
            validate_table_name("bad#name")

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidTableNameError):
            validate_table_name("")

    def test_negative_partition_rejected(self):
        with pytest.raises(SchemaError):
            partition_name("t", -1)


class TestDimension:
    def test_bucket_count_rounds_up(self):
        dim = Dimension("day", 30, range_size=7)
        assert dim.bucket_count == 5

    def test_default_range_is_whole_domain(self):
        dim = Dimension("x", 100)
        assert dim.bucket_count == 1
        assert dim.bucket_of(99) == 0

    def test_bucket_of(self):
        dim = Dimension("day", 30, range_size=7)
        assert dim.bucket_of(0) == 0
        assert dim.bucket_of(6) == 0
        assert dim.bucket_of(7) == 1
        assert dim.bucket_of(29) == 4

    def test_out_of_domain_rejected(self):
        dim = Dimension("day", 30)
        with pytest.raises(SchemaError):
            dim.bucket_of(30)
        with pytest.raises(SchemaError):
            dim.bucket_of(-1)

    def test_invalid_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            Dimension("x", 0)


class TestTableSchema:
    def test_column_names(self, events_schema):
        assert events_schema.dimension_names == ("day", "country")
        assert events_schema.metric_names == ("clicks", "cost")
        assert events_schema.column_names == ("day", "country", "clicks", "cost")

    def test_requires_dimensions(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [], [Metric("m")])

    def test_metrics_may_be_empty_for_dimension_tables(self):
        schema = TableSchema.build("dim_users", [Dimension("user_id", 10)], [])
        assert schema.metric_names == ()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build(
                "t", [Dimension("x", 10)], [Metric("x")]
            )

    def test_dimension_lookup(self, events_schema):
        assert events_schema.dimension("day").cardinality == 30
        with pytest.raises(SchemaError):
            events_schema.dimension("nope")

    def test_has_helpers(self, events_schema):
        assert events_schema.has_dimension("day")
        assert not events_schema.has_dimension("clicks")
        assert events_schema.has_metric("cost")
        assert not events_schema.has_metric("day")

    def test_columns_of_rows_accepts_good_rows(self, events_schema):
        columns = events_schema.columns_of_rows(
            [{"day": 3, "country": 50, "clicks": 1.0, "cost": 2.0}]
        )
        assert columns["country"].tolist() == [50]

    def test_columns_of_rows_rejects_missing_column(self, events_schema):
        with pytest.raises(SchemaError):
            events_schema.columns_of_rows(
                [{"day": 3, "clicks": 1.0, "cost": 2.0}]
            )

    def test_columns_of_rows_rejects_out_of_domain(self, events_schema):
        with pytest.raises(SchemaError):
            events_schema.columns_of_rows(
                [{"day": 30, "country": 0, "clicks": 1.0, "cost": 2.0}]
            )

    def test_columns_of_rows_rejects_fractional_dimension(self, events_schema):
        with pytest.raises(SchemaError):
            events_schema.columns_of_rows(
                [{"day": 1.5, "country": 0, "clicks": 1.0, "cost": 2.0}]
            )


class TestCatalog:
    def test_create_and_get(self, events_schema):
        catalog = Catalog()
        info = catalog.create(events_schema)
        assert info.num_partitions == 8  # the paper's default
        assert catalog.get("events") is info
        assert "events" in catalog

    def test_duplicate_create_rejected(self, events_schema):
        catalog = Catalog()
        catalog.create(events_schema)
        with pytest.raises(TableAlreadyExistsError):
            catalog.create(events_schema)

    def test_get_unknown_raises(self):
        with pytest.raises(TableNotFoundError):
            Catalog().get("missing")

    def test_drop(self, events_schema):
        catalog = Catalog()
        catalog.create(events_schema)
        catalog.drop("events")
        assert "events" not in catalog
        with pytest.raises(TableNotFoundError):
            catalog.drop("events")

    def test_table_names_sorted(self, events_schema):
        catalog = Catalog()
        catalog.create(events_schema)
        other = TableSchema.build(
            "aaa", [Dimension("d", 5)], [Metric("m")]
        )
        catalog.create(other)
        assert catalog.table_names() == ["aaa", "events"]

    def test_invalid_partition_count_rejected(self, events_schema):
        catalog = Catalog()
        with pytest.raises(SchemaError):
            catalog.create(events_schema, num_partitions=0)
