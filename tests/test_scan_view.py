"""The partition scan view: one kernel call per partition, not per brick.

A :class:`~repro.cubrick.storage.PartitionStorage` scans over a lazily
built :class:`~repro.cubrick.bricks.ScanView`. These tests pin its
structure (one ``encode_group_keys`` call per grouped query), its
invalidation under appends, compression and eviction, its brick-run row
selection, exact per-brick hotness and the release of a dropped view's
memory.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.cubrick.storage as storage_module
from repro.cubrick.query import AggFunc, Aggregation, Filter, Query
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.storage import PartitionStorage
from tests.test_kernels_differential import reference_groups, reference_shape


def schema(day_range: int) -> TableSchema:
    return TableSchema.build(
        "events",
        dimensions=[
            Dimension("day", 64, range_size=day_range),
            Dimension("user", 400, range_size=400, dict_encode=True),
        ],
        metrics=[Metric("cost")],
    )


def columns(rng: np.random.Generator, rows: int, users: int = 300) -> dict:
    return {
        "day": np.arange(rows) % 64,
        "user": rng.integers(users, size=rows),
        "cost": rng.integers(0, 800, size=rows) / 8.0,
    }


QUERIES = [
    Query.build("events", [Aggregation(f, "cost") for f in AggFunc],
                group_by=["day"]),
    Query.build("events", [Aggregation(AggFunc.SUM, "cost"),
                           Aggregation(AggFunc.COUNT_DISTINCT, "user")],
                group_by=["user"]),
    Query.build("events", [Aggregation(f, "cost") for f in AggFunc]),
    Query.build("events", [Aggregation(AggFunc.SUM, "cost")],
                filters=[Filter.isin("day", [3, 4, 40])], group_by=["user"]),
    Query.build("events", [Aggregation(AggFunc.AVG, "cost")],
                filters=[Filter.between("day", 10, 20),
                         Filter.eq("user", 7)]),
]


def answer(storage: PartitionStorage, query: Query):
    return storage.execute(query).finalize().rows


def reference(twin: PartitionStorage, query: Query):
    return reference_shape(query, reference_groups(twin, query, {}))


def assert_matches_reference(storage, twin) -> None:
    for query in QUERIES:
        assert answer(storage, query) == reference(twin, query), query


@pytest.mark.parametrize("day_range, bricks", [(64, 1), (1, 64)])
def test_grouped_query_encodes_keys_once_per_partition(
    monkeypatch, day_range, bricks
):
    storage = PartitionStorage(schema(day_range), 0)
    storage.insert_columns(columns(np.random.default_rng(1), 2_000))
    assert storage.brick_count == bricks
    calls = []
    encode = storage_module.encode_group_keys

    def counting(key_columns):
        calls.append(len(key_columns[0]))
        return encode(key_columns)

    monkeypatch.setattr(storage_module, "encode_group_keys", counting)
    partial = storage.execute(QUERIES[0])
    assert partial.bricks_scanned == bricks
    assert calls == [2_000]


def test_invalidation_matrix_matches_reference():
    """Load, scan, append, compress, evict, decompress, reload: after
    every step the answers equal the row-at-a-time reference, computed
    on a twin partition that only ever sees the same loads."""
    rng = np.random.default_rng(7)
    storage = PartitionStorage(schema(8), 0)
    twin = PartitionStorage(schema(8), 0)

    def load(batch):
        storage.insert_columns(batch)
        twin.insert_columns(batch)
        assert storage._view is None  # never built at load time

    load(columns(rng, 3_000))
    assert_matches_reference(storage, twin)

    # Append: new rows in existing bricks, and user values the
    # partition dictionary has not seen yet.
    load(columns(rng, 500, users=400))
    assert_matches_reference(storage, twin)

    first, second = storage.bricks()[0], storage.bricks()[3]
    first.compress()
    # A scan pruned away from the compressed brick leaves it compressed.
    only_later_days = Query.build(
        "events", [Aggregation(AggFunc.SUM, "cost")],
        filters=[Filter.between("day", 24, 63)], group_by=["user"],
    )
    assert answer(storage, only_later_days) == reference(twin, only_later_days)
    assert first.is_compressed
    assert_matches_reference(storage, twin)
    assert first.is_resident

    second.evict()
    assert_matches_reference(storage, twin)
    assert second.io_reads == 1

    first.compress()
    first.decompress()
    assert_matches_reference(storage, twin)

    second.evict()
    second.load_from_ssd()
    assert second.is_compressed
    assert_matches_reference(storage, twin)

    load(columns(rng, 200))
    assert_matches_reference(storage, twin)


def test_non_contiguous_survivors_equal_the_unpruned_answer():
    rng = np.random.default_rng(3)
    batch = columns(rng, 4_000)
    fine = PartitionStorage(schema(1), 0)  # one brick per day
    coarse = PartitionStorage(schema(64), 0)  # one brick: nothing prunes
    fine.insert_columns(batch)
    coarse.insert_columns(batch)
    for days in ([1, 5, 9, 10, 11, 60], [7], [20, 21, 22]):
        query = Query.build(
            "events",
            [Aggregation(f, "cost") for f in AggFunc],
            filters=[Filter.isin("day", days)],
            group_by=["user", "day"],
        )
        partial = fine.execute(query)
        assert partial.bricks_scanned == len(days)
        assert partial.rows_scanned == sum(
            fine.brick(day).rows for day in days
        )
        assert partial.finalize().rows == coarse.execute(query).finalize().rows
    view = fine.scan_view()
    assert isinstance(view.rows_of(np.array([1, 5, 9, 10])), np.ndarray)
    assert isinstance(view.rows_of(np.array([20, 21, 22])), slice)


def test_hotness_counts_each_surviving_brick_once():
    storage = PartitionStorage(schema(8), 0)
    storage.insert_columns(columns(np.random.default_rng(5), 2_000))
    before = {b.brick_id: b.hotness for b in storage.bricks()}
    query = Query.build(
        "events", [Aggregation(AggFunc.SUM, "cost")],
        filters=[Filter.isin("day", [0, 17, 50])], group_by=["user"],
    )
    partial = storage.execute(query)
    survivors = {0, 2, 6}  # day buckets of width 8
    assert partial.bricks_scanned == len(survivors)
    for brick in storage.bricks():
        gained = brick.hotness - before[brick.brick_id]
        assert gained == (1.0 if brick.brick_id in survivors else 0.0)


def test_compression_frees_the_dropped_view():
    storage = PartitionStorage(schema(8), 0)
    storage.insert_columns(columns(np.random.default_rng(9), 2_000))
    storage.execute(QUERIES[1])
    base = weakref.ref(storage.scan_view().columns["cost"])
    assert base() is not None
    storage.bricks()[2].compress()
    gc.collect()
    assert base() is None
    # The other bricks copied their rows out and still answer.
    twin = PartitionStorage(schema(8), 0)
    twin.insert_columns(columns(np.random.default_rng(9), 2_000))
    assert_matches_reference(storage, twin)
