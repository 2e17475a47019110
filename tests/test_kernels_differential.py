"""Differential tests: vectorised scan kernels vs a per-row reference.

Randomized queries (filters x group-bys x every :class:`AggFunc`, with
and without joins) run through ``PartitionStorage.execute`` AND a naive
pure-Python reference that accumulates one row at a time through the
``PartialResult`` state machinery. Finalized results must be *exactly*
equal — no tolerances. Metric values are multiples of 1/8 with sums far
below 2**53, so they are exactly representable and every summation
order produces the same float: any kernel discrepancy surfaces as a
hard mismatch rather than rounding noise.

The storage under test mixes plain, zlib-compressed and SSD-evicted
bricks, so the kernels are also exercised over decompressed
``np.frombuffer`` views and reloaded blobs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    Filter,
    Join,
    PartialResult,
    Query,
)
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.storage import PartitionStorage
from tests.conftest import insert_rows

SCHEMA = TableSchema.build(
    "facts",
    dimensions=[
        Dimension("day", 30, range_size=5),
        Dimension("country", 50, range_size=10),
        Dimension("user", 200, range_size=40),
    ],
    metrics=[Metric("clicks"), Metric("cost")],
)

ROWS = 4_000

def _build_lookups(rng: np.random.Generator) -> dict:
    """dotted reference -> (fact_key, lookup array), hand-built the way
    a node derives them from its replicated-table copy. lookup[key] is
    the joined attribute, -1 where the key is absent from the dimension
    table (inner-join drop)."""
    tier = rng.integers(0, 5, size=200)
    tier[rng.random(200) < 0.15] = -1  # users missing from dim table
    return {"dim_users.tier": ("user", tier)}


def _build_storage(rng: np.random.Generator) -> PartitionStorage:
    storage = PartitionStorage(SCHEMA, 0)
    columns = {
        "day": rng.integers(30, size=ROWS),
        "country": rng.integers(50, size=ROWS),
        "user": rng.integers(200, size=ROWS),
        # Multiples of 1/8 — exactly representable at any summation order.
        "clicks": rng.integers(0, 100, size=ROWS).astype(np.float64),
        "cost": rng.integers(0, 800, size=ROWS) / 8.0,
    }
    storage.insert_columns(columns)
    # A few one-row loads too (one-row brick chunks).
    for __ in range(50):
        insert_rows(storage, [
            {
                "day": int(rng.integers(30)),
                "country": int(rng.integers(50)),
                "user": int(rng.integers(200)),
                "clicks": float(rng.integers(0, 100)),
                "cost": float(rng.integers(0, 800)) / 8.0,
            }
        ])
    _cycle_brick_states(storage)
    return storage


def _cycle_brick_states(storage: PartitionStorage) -> None:
    """Mix brick states: every third brick compressed, every fifth
    evicted all the way to SSD (queries transparently restore them, so
    the randomized run re-applies this periodically)."""
    for i, brick in enumerate(storage.bricks()):
        if i % 5 == 0:
            brick.evict()
        elif i % 3 == 0:
            brick.compress()


@pytest.fixture(scope="module")
def loaded():
    rng = np.random.default_rng(2024)
    storage = _build_storage(rng)
    states = [(b.is_compressed, b.is_evicted) for b in storage.bricks()]
    return storage, _build_lookups(rng), states


# ----------------------------------------------------------------------
# The reference: one row at a time through the PartialResult machinery
# ----------------------------------------------------------------------


def _row_state(func: AggFunc, value):
    if func is AggFunc.COUNT:
        return 1.0
    if func is AggFunc.AVG:
        return (float(value), 1.0)
    if func is AggFunc.COUNT_DISTINCT:
        return frozenset({value})
    return float(value)  # SUM / MIN / MAX


def _matches(flt: Filter, value) -> bool:
    if flt.op.value == "eq":
        return value == flt.values[0]
    if flt.op.value == "in":
        return value in flt.values
    return flt.values[0] <= value <= flt.values[1]  # BETWEEN


def reference_execute(
    storage: PartitionStorage,
    query: Query,
    lookups: dict[str, tuple[str, np.ndarray]],
) -> PartialResult:
    """Row-at-a-time evaluation with no numpy in the aggregate path."""
    partial = PartialResult(query=query)
    joined = query.joined_columns()
    for brick in storage.bricks():
        arrays = brick.columns()
        names = list(arrays)
        column_lists = [arrays[name].tolist() for name in names]
        for values in zip(*column_lists):
            row = dict(zip(names, values))

            def resolve(name: str):
                if "." in name:
                    fact_key, lookup = lookups[name]
                    return int(lookup[int(row[fact_key])])
                return row[name]

            if any(not _matches(f, resolve(f.dimension)) for f in query.filters):
                continue
            if any(resolve(name) < 0 for name in joined):
                continue  # inner join: key missing from dimension table
            key = tuple(int(resolve(dim)) for dim in query.group_by)
            partial.accumulate(
                key,
                [
                    _row_state(agg.func, row.get(agg.metric))
                    for agg in query.aggregations
                ],
            )
    return partial


# ----------------------------------------------------------------------
# Randomized query generation
# ----------------------------------------------------------------------

ALL_AGGS = [
    Aggregation(AggFunc.SUM, "cost"),
    Aggregation(AggFunc.COUNT, "cost"),
    Aggregation(AggFunc.MIN, "cost"),
    Aggregation(AggFunc.MAX, "clicks"),
    Aggregation(AggFunc.AVG, "clicks"),
    Aggregation(AggFunc.COUNT_DISTINCT, "clicks"),
]

GROUP_CHOICES = [
    [],
    ["day"],
    ["country"],
    ["day", "country"],
    ["user", "day"],
    ["dim_users.tier"],
    ["dim_users.tier", "day"],
]


def _random_filters(rng: np.random.Generator) -> list[Filter]:
    filters = []
    if rng.random() < 0.5:
        filters.append(Filter.between("day", int(rng.integers(0, 15)),
                                      int(rng.integers(15, 30))))
    if rng.random() < 0.4:
        filters.append(
            Filter.isin("country", rng.integers(0, 50, size=8).tolist())
        )
    if rng.random() < 0.3:
        filters.append(Filter.eq("dim_users.tier", int(rng.integers(0, 5))))
    return filters


def _random_query(rng: np.random.Generator) -> Query:
    group_by = GROUP_CHOICES[int(rng.integers(len(GROUP_CHOICES)))]
    filters = _random_filters(rng)
    joins = []
    if any("." in name for name in [*group_by, *(f.dimension for f in filters)]):
        joins.append(Join(table="dim_users", fact_key="user", dim_key="id"))
    n_aggs = int(rng.integers(1, len(ALL_AGGS) + 1))
    picked = [ALL_AGGS[i] for i in rng.permutation(len(ALL_AGGS))[:n_aggs]]
    return Query.build(
        "facts", picked, group_by=group_by, filters=filters, joins=joins
    )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


def _assert_identical(storage, query, lookups):
    engine = storage.execute(query, lookups).finalize()
    reference = reference_execute(storage, query, lookups).finalize()
    assert engine.columns == reference.columns
    assert engine.rows == reference.rows, (
        f"kernel/reference divergence for {query}"
    )


@pytest.mark.parametrize("func", list(AggFunc))
def test_every_agg_func_matches_reference(loaded, func):
    storage, lookups, __ = loaded
    query = Query.build(
        "facts",
        [Aggregation(func, "cost")],
        group_by=["day", "country"],
    )
    _assert_identical(storage, query, lookups)


def test_randomized_queries_match_reference(loaded):
    storage, lookups, __ = loaded
    rng = np.random.default_rng(7)
    for i in range(60):
        if i % 15 == 0:
            # Queries transparently decompress/un-evict; re-mix the
            # brick states so later queries hit those paths again.
            _cycle_brick_states(storage)
        _assert_identical(storage, _random_query(rng), lookups)


def test_ungrouped_and_filtered_paths(loaded):
    storage, lookups, __ = loaded
    query = Query.build(
        "facts",
        [Aggregation(f, "cost") for f in AggFunc],
        filters=[Filter.between("day", 3, 11)],
    )
    _assert_identical(storage, query, lookups)


def test_joined_group_by_matches_reference(loaded):
    storage, lookups, __ = loaded
    query = Query.build(
        "facts",
        [Aggregation(AggFunc.SUM, "cost"), Aggregation(AggFunc.AVG, "clicks")],
        group_by=["dim_users.tier"],
        joins=[Join(table="dim_users", fact_key="user", dim_key="id")],
    )
    _assert_identical(storage, query, lookups)


def test_mixed_brick_states_covered(loaded):
    """The fixture must actually have covered compressed + evicted
    bricks (states captured at build time — queries restore bricks to
    memory as they touch them)."""
    storage, __, states = loaded
    assert any(evicted for __, evicted in states)
    assert sum(compressed for compressed, __ in states) >= 1
    for brick in storage.bricks():
        brick.columns()  # forces any still-evicted brick through an IO
    assert any(b.io_reads > 0 for b in storage.bricks())


# ----------------------------------------------------------------------
# Dictionary-encoded columns
# ----------------------------------------------------------------------

ENCODED_SCHEMA = TableSchema.build(
    "facts_enc",
    dimensions=[
        Dimension("day", 30, range_size=5),
        Dimension("country", 50, range_size=10),
        # Forced below the cardinality heuristic: every scan of `user`
        # goes through the per-brick dictionary codes.
        Dimension("user", 200, range_size=40, dict_encode=True),
    ],
    metrics=[Metric("clicks"), Metric("cost")],
)


@pytest.fixture(scope="module")
def loaded_encoded():
    rng = np.random.default_rng(4096)
    storage = PartitionStorage(ENCODED_SCHEMA, 0)
    columns = {
        "day": rng.integers(30, size=ROWS),
        "country": rng.integers(50, size=ROWS),
        "user": rng.integers(200, size=ROWS),
        "clicks": rng.integers(0, 100, size=ROWS).astype(np.float64),
        "cost": rng.integers(0, 800, size=ROWS) / 8.0,
    }
    storage.insert_columns(columns)
    # One-row loads after the bulk load: the per-brick dictionaries must
    # extend incrementally instead of going stale.
    for __ in range(100):
        insert_rows(storage, [
            {
                "day": int(rng.integers(30)),
                "country": int(rng.integers(50)),
                "user": int(rng.integers(200)),
                "clicks": float(rng.integers(0, 100)),
                "cost": float(rng.integers(0, 800)) / 8.0,
            }
        ])
    _cycle_brick_states(storage)
    return storage, _build_lookups(rng)


def test_encoded_dimension_is_actually_encoded(loaded_encoded):
    storage, lookups = loaded_encoded
    query = Query.build(
        "facts_enc", [Aggregation(AggFunc.SUM, "cost")], group_by=["user"]
    )
    _assert_identical(storage, query, lookups)
    # The scan above must have materialised user dictionaries.
    stats = [b.stats() for b in storage.bricks()]
    assert any(s.encoded_columns > 0 for s in stats)
    assert any(s.dictionary_entries > 0 for s in stats)


def test_encoded_group_by_and_distinct_match_reference(loaded_encoded):
    storage, lookups = loaded_encoded
    queries = [
        Query.build(
            "facts_enc",
            [Aggregation(f, "cost") for f in AggFunc],
            group_by=["user", "day"],
        ),
        Query.build(
            "facts_enc",
            # COUNT_DISTINCT over the encoded column itself: distinct
            # codes are distinct values.
            [Aggregation(AggFunc.COUNT_DISTINCT, "user")],
            group_by=["day"],
        ),
        Query.build(
            "facts_enc",
            [Aggregation(AggFunc.COUNT_DISTINCT, "user")],
        ),
        Query.build(
            "facts_enc",
            [Aggregation(AggFunc.AVG, "clicks")],
            group_by=["user"],
            filters=[Filter.between("day", 5, 20)],
        ),
    ]
    for query in queries:
        _assert_identical(storage, query, lookups)


def test_encoded_randomized_queries_match_reference(loaded_encoded):
    storage, lookups = loaded_encoded
    rng = np.random.default_rng(99)
    for i in range(30):
        if i % 10 == 0:
            _cycle_brick_states(storage)
        query = _random_query(rng)
        query = Query.build(
            "facts_enc",
            list(query.aggregations),
            group_by=list(query.group_by),
            filters=list(query.filters),
            joins=list(query.joins),
        )
        _assert_identical(storage, query, lookups)


# ----------------------------------------------------------------------
# High-cardinality group-bys (>= 100k groups)
# ----------------------------------------------------------------------

HC_SCHEMA = TableSchema.build(
    "facts_hc",
    dimensions=[
        Dimension("day", 4),
        Dimension("entity", 150_000),  # auto dict-encoded (>= 1024)
    ],
    metrics=[Metric("cost")],
)


def test_high_cardinality_group_by_matches_reference():
    rows = 160_000
    rng = np.random.default_rng(31)
    storage = PartitionStorage(HC_SCHEMA, 0)
    storage.insert_columns({
        "day": rng.integers(4, size=rows),
        "entity": rng.integers(150_000, size=rows),
        "cost": rng.integers(0, 800, size=rows) / 8.0,
    })
    query = Query.build(
        "facts_hc",
        [
            Aggregation(AggFunc.SUM, "cost"),
            Aggregation(AggFunc.MIN, "cost"),
            Aggregation(AggFunc.COUNT_DISTINCT, "cost"),
        ],
        group_by=["entity", "day"],
    )
    engine = storage.execute(query, {}).finalize()
    assert len(engine.rows) >= 100_000, "fixture must exceed 100k groups"
    reference = reference_execute(storage, query, {}).finalize()
    assert engine.columns == reference.columns
    assert engine.rows == reference.rows


# ----------------------------------------------------------------------
# Empty / single-group edge cases
# ----------------------------------------------------------------------


def test_empty_result_matches_reference(loaded):
    storage, lookups, __ = loaded
    query = Query.build(
        "facts",
        [Aggregation(f, "cost") for f in AggFunc],
        group_by=["day", "country"],
        # day is bounded by 30; IN {29} ∧ BETWEEN [0, 5] is empty.
        filters=[Filter.isin("day", [29]), Filter.between("day", 0, 5)],
    )
    engine = storage.execute(query, lookups).finalize()
    assert engine.rows == []
    _assert_identical(storage, query, lookups)


def test_single_group_matches_reference(loaded):
    storage, lookups, __ = loaded
    query = Query.build(
        "facts",
        [Aggregation(f, "cost") for f in AggFunc],
        group_by=["day"],
        filters=[Filter.eq("day", 7)],
    )
    engine = storage.execute(query, lookups).finalize()
    assert len(engine.rows) == 1
    _assert_identical(storage, query, lookups)


def test_empty_storage_matches_reference():
    storage = PartitionStorage(SCHEMA, 0)
    for group_by in ([], ["day"]):
        query = Query.build(
            "facts",
            [Aggregation(f, "cost") for f in AggFunc],
            group_by=group_by,
        )
        _assert_identical(storage, query, {})
