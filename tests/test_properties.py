"""Property-based tests (hypothesis) on core invariants."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.wall import query_success_ratio, scalability_wall
from repro.cubrick.granular import GranularIndex
from repro.cubrick.kernels import (
    encode_group_keys,
    grouped_state_arrays,
    scalar_state,
)
from repro.cubrick.partitioning import partition_of, plan_repartition
from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    PartialResult,
    Query,
)
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.sharding import MonotonicHashMapper, NaiveHashMapper
from repro.cubrick.storage import PartitionStorage
from tests.conftest import insert_rows

SCHEMA = TableSchema.build(
    "prop",
    dimensions=[Dimension("a", 64, range_size=16), Dimension("b", 16, range_size=4)],
    metrics=[Metric("m")],
)

row_strategy = st.fixed_dictionaries(
    {
        "a": st.integers(0, 63),
        "b": st.integers(0, 15),
        "m": st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    }
)


exact_values = st.integers(-8000, 8000).map(lambda v: v / 8.0)


def _partial(query: Query, keys: list[int], values: list[float],
             bricks: int) -> PartialResult:
    """A partial of ``query`` over rows ``(keys[i], values[i])``, scanned
    as ``bricks`` blocks through the engine's kernels."""
    partial = PartialResult(query=query)
    func = query.aggregations[0].func
    for chunk in np.array_split(np.arange(len(values)), bricks):
        if not len(chunk):
            continue
        column = np.asarray(values)[chunk]
        if query.group_by:
            group_idx, unique_keys = encode_group_keys(
                [np.asarray(keys, dtype=np.int64)[chunk]]
            )
            state = grouped_state_arrays(
                func, group_idx, column, len(unique_keys)
            )
        else:
            unique_keys = np.empty((1, 0), dtype=np.int64)
            state = scalar_state(func, column, len(chunk))
        partial.accumulate_block(unique_keys, [state])
    return partial


class TestAggStateProperties:
    """The block algebra: merging partials is invisible in the answer."""

    @given(
        func=st.sampled_from(list(AggFunc)),
        grouped=st.booleans(),
        rows=st.lists(st.tuples(st.integers(0, 5), exact_values),
                      min_size=1, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=3),
        bricks=st.integers(1, 3),
    )
    def test_merge_is_split_invariant(self, func, grouped, rows, cuts, bricks):
        """For every aggregate family and any split of the rows into
        partials, finalize(merge(parts)) == finalize(whole), whichever
        way the merges nest."""
        query = Query.build(
            "t", [Aggregation(func, "m")], group_by=["k"] if grouped else []
        )
        keys = [k for k, __ in rows]
        values = [v for __, v in rows]
        whole = _partial(query, keys, values, 1).finalize().rows
        bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]

        def parts():
            return [
                _partial(query, keys[a:b], values[a:b], bricks)
                for a, b in zip(bounds, bounds[1:])
            ]

        left = PartialResult(query=query)
        for part in parts():
            left.merge(part)
        right = PartialResult(query=query)
        for part in reversed(parts()):
            right = part.merge(right)
        assert left.finalize().rows == whole
        assert right.finalize().rows == whole

    @given(
        func=st.sampled_from(list(AggFunc)),
        grouped=st.booleans(),
        rows=st.lists(st.tuples(st.integers(0, 5), exact_values),
                      max_size=20),
    )
    def test_initial_state_is_identity(self, func, grouped, rows):
        """An empty partial merges as the identity on either side, and a
        query that matched nothing — grouped or not — has zero rows."""
        query = Query.build(
            "t", [Aggregation(func, "m")], group_by=["k"] if grouped else []
        )
        keys = [k for k, __ in rows]
        values = [v for __, v in rows]
        expected = _partial(query, keys, values, 1).finalize().rows
        assert len(expected) == len(set(keys) if grouped else rows[:1])
        empty = PartialResult(query=query)
        with_empty = _partial(query, keys, values, 2).merge(empty)
        assert with_empty.finalize().rows == expected
        onto_empty = empty.merge(_partial(query, keys, values, 2))
        assert onto_empty.finalize().rows == expected


class TestPartitioningProperties:
    @given(row=row_strategy, n=st.integers(1, 128))
    def test_partition_in_range_and_deterministic(self, row, n):
        p = partition_of(SCHEMA, row, n)
        assert 0 <= p < n
        assert partition_of(SCHEMA, row, n) == p

    @given(
        rows=st.lists(row_strategy, max_size=50),
        n=st.integers(1, 16),
    )
    def test_repartition_plan_is_a_partition(self, rows, n):
        plan = plan_repartition(SCHEMA, rows, n)
        assert sum(len(chunk) for chunk in plan.values()) == len(rows)
        for index, chunk in plan.items():
            for row in chunk:
                assert partition_of(SCHEMA, row, n) == index


class TestMapperProperties:
    @given(
        table=st.text(
            alphabet=st.characters(blacklist_characters="#", min_codepoint=33,
                                   max_codepoint=126),
            min_size=1, max_size=20,
        ),
        count=st.integers(1, 64),
        max_shards=st.integers(64, 100_000),
    )
    def test_monotonic_mapper_never_self_collides(self, table, count, max_shards):
        assume(count <= max_shards)
        mapper = MonotonicHashMapper(max_shards=max_shards)
        shards = mapper.shards_of(table, count)
        assert len(set(shards)) == count
        assert all(0 <= s < max_shards for s in shards)

    @given(
        table=st.text(
            alphabet=st.characters(blacklist_characters="#", min_codepoint=33,
                                   max_codepoint=126),
            min_size=1, max_size=20,
        ),
        count=st.integers(1, 32),
    )
    def test_naive_mapper_in_keyspace(self, table, count):
        mapper = NaiveHashMapper(max_shards=997)
        assert all(0 <= s < 997 for s in mapper.shards_of(table, count))


class TestWallProperties:
    @given(
        p=st.floats(min_value=1e-7, max_value=0.1),
        sla=st.floats(min_value=0.5, max_value=0.9999),
    )
    def test_wall_is_the_sla_boundary(self, p, sla):
        wall = scalability_wall(p, sla)
        assert query_success_ratio(wall, p) >= sla
        assert query_success_ratio(wall + 1, p) < sla

    @given(
        p=st.floats(min_value=1e-7, max_value=0.1),
        n1=st.integers(0, 1000),
        n2=st.integers(0, 1000),
    )
    def test_success_monotone_in_fanout(self, p, n1, n2):
        low, high = sorted((n1, n2))
        assert query_success_ratio(high, p) <= query_success_ratio(low, p)


class TestQueryEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(row_strategy, min_size=1, max_size=60))
    def test_sum_and_count_match_numpy(self, rows):
        storage = PartitionStorage(SCHEMA, 0)
        insert_rows(storage, rows)
        query = Query.build(
            "prop",
            [Aggregation(AggFunc.SUM, "m"), Aggregation(AggFunc.COUNT, "m")],
        )
        result = storage.execute(query).finalize()
        values = np.array([r["m"] for r in rows])
        total, count = result.rows[0]
        assert count == len(rows)
        assert total == pytest.approx(values.sum(), rel=1e-9, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=1, max_size=60),
        splits=st.integers(1, 4),
    )
    def test_partition_split_is_execution_invariant(self, rows, splits):
        """Any horizontal split of the data gives the same group-by answer
        after partial-result merging — the invariant that makes Cubrick's
        distributed execution correct regardless of shard layout."""
        query = Query.build(
            "prop", [Aggregation(AggFunc.SUM, "m")], group_by=["b"]
        )
        whole = PartitionStorage(SCHEMA, 0)
        insert_rows(whole, rows)
        expected = whole.execute(query).finalize().rows

        merged = PartialResult(query=query)
        for i in range(splits):
            part = PartitionStorage(SCHEMA, i)
            insert_rows(part, [r for j, r in enumerate(rows) if j % splits == i])
            merged.merge(part.execute(query))
        got = merged.finalize().rows
        assert len(got) == len(expected)
        for (k1, v1), (k2, v2) in zip(got, expected):
            assert k1 == k2
            assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(row_strategy, min_size=1, max_size=60))
    def test_granular_routing_is_consistent(self, rows):
        """Every row lands in the brick its coordinates demand."""
        storage = PartitionStorage(SCHEMA, 0)
        insert_rows(storage, rows)
        index = GranularIndex(SCHEMA)
        expected = Counter(index.brick_of(row) for row in rows)
        assert {b.brick_id: b.rows for b in storage.bricks()} == expected

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(row_strategy, min_size=1, max_size=60))
    def test_compression_does_not_change_results(self, rows):
        storage = PartitionStorage(SCHEMA, 0)
        insert_rows(storage, rows)
        query = Query.build(
            "prop", [Aggregation(AggFunc.SUM, "m")], group_by=["a"]
        )
        before = storage.execute(query).finalize().rows
        for brick in storage.bricks():
            brick.compress()
        after = storage.execute(query).finalize().rows
        assert len(before) == len(after)
        for (k1, v1), (k2, v2) in zip(before, after):
            assert k1 == k2
            assert v1 == pytest.approx(v2, rel=1e-12)
