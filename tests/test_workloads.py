"""Tests for workload generators and experiment drivers."""

import numpy as np
import pytest

from repro.cubrick.bricks import Brick
from repro.cubrick.partitioning import PartitioningPolicy
from repro.sim.latency import HiccupModel, LogNormalTailLatency
from repro.workloads.fanout_experiment import (
    QUERIES_PER_WEEK,
    LatencyPercentiles,
    sample_fanout_latencies,
    statistical_fanout_experiment,
)
from repro.workloads.hotcold import run_hot_cold_week
from repro.workloads.queries import QueryGenerator, simple_probe_query
from repro.workloads.tables import (
    TenantWorkload,
    expected_partitions,
    generate_rows,
    generate_table_population,
)


class TestTablePopulation:
    def test_count_and_naming(self, rng):
        specs = generate_table_population(50, rng)
        assert len(specs) == 50
        assert len({s.name for s in specs}) == 50

    def test_sizes_are_heavy_tailed(self, rng):
        specs = generate_table_population(2000, rng)
        sizes = np.array([s.rows for s in specs])
        assert sizes.max() > 20 * np.median(sizes)

    def test_figure_4b_shape(self):
        """Most tables stay at 8 partitions; a tail is re-partitioned."""
        workload = TenantWorkload.generate(2000, seed=3)
        histogram = workload.partition_histogram()
        total = sum(histogram.values())
        assert histogram[8] / total > 0.5  # the dominant bucket
        assert max(histogram) > 8  # a re-partitioned tail exists
        assert max(histogram) <= 64

    def test_expected_partitions_growth(self):
        policy = PartitioningPolicy(
            max_rows_per_partition=1000, min_rows_per_partition=10
        )
        assert expected_partitions(500, policy) == 8
        assert expected_partitions(10_000, policy) == 16
        assert expected_partitions(10 ** 9, policy) == policy.max_partitions

    def test_generate_rows_valid(self, rng):
        specs = generate_table_population(1, rng)
        schema = specs[0].schema
        rows = list(generate_rows(schema, 200, rng))
        assert len(rows) == 200
        schema.columns_of_rows(rows[:20])

    def test_invalid_count_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_table_population(0, rng)


class TestQueryGenerator:
    def _generator(self, rng, count=5):
        specs = generate_table_population(count, rng)
        return QueryGenerator([s.schema for s in specs], rng), specs

    def test_queries_are_valid_for_their_schema(self, rng):
        generator, specs = self._generator(rng)
        by_name = {s.schema.name: s.schema for s in specs}
        for query in generator.stream(100):
            schema = by_name[query.table]
            for flt in query.filters:
                assert schema.has_dimension(flt.dimension)
            for dim in query.group_by:
                assert schema.has_dimension(dim)

    def test_pinned_table(self, rng):
        generator, specs = self._generator(rng)
        query = generator.next_query(table=specs[2].name)
        assert query.table == specs[2].name

    def test_table_popularity_is_skewed(self, rng):
        generator, specs = self._generator(rng, count=20)
        tables = [q.table for q in generator.stream(2000)]
        counts = sorted(
            (tables.count(s.name) for s in specs), reverse=True
        )
        assert counts[0] > 5 * max(counts[-1], 1)

    def test_probe_query_is_simple_count(self, rng):
        generator, specs = self._generator(rng)
        probe = simple_probe_query(specs[0].schema)
        assert probe.filters == ()
        assert probe.group_by == ()
        assert len(probe.aggregations) == 1


class TestFanoutSampling:
    def test_week_constant(self):
        assert QUERIES_PER_WEEK == 1_209_600

    def test_latency_grows_with_fanout(self, rng):
        model = LogNormalTailLatency()
        result = statistical_fanout_experiment(
            model, [1, 8, 64], 20_000, rng
        )
        p999 = dict(result.series("p999"))
        assert p999[1] < p999[8] < p999[64]

    def test_median_nearly_flat_tail_grows(self, rng):
        """The defining Figure 5 shape."""
        # Tight common case + rare large hiccups: the regime where
        # fan-out leaves medians alone but amplifies the tail.
        model = LogNormalTailLatency(
            sigma=0.3,
            hiccups=HiccupModel(probability=1e-3, min_delay=0.2, max_delay=1.0),
        )
        result = statistical_fanout_experiment(
            model, [1, 64], 50_000, rng
        )
        p50 = dict(result.series("p50"))
        p999 = dict(result.series("p999"))
        p50_growth = p50[64] / p50[1]
        tail_growth = p999[64] / p999[1]
        assert p50_growth < 6.0  # medians grow modestly
        assert tail_growth > 3.0  # the tail blows up
        assert tail_growth > p50_growth  # and faster than the median

    def test_sample_batching_consistent(self, rng):
        model = LogNormalTailLatency()
        samples = sample_fanout_latencies(model, 16, 5000, rng, batch=1000)
        assert samples.shape == (5000,)
        assert (samples > 0).all()

    def test_percentiles_ordered(self, rng):
        samples = np.abs(rng.normal(size=10_000)) + 0.01
        row = LatencyPercentiles.from_samples(4, samples)
        assert row.p50 <= row.p90 <= row.p99 <= row.p999 <= row.maximum

    def test_invalid_inputs_rejected(self, rng):
        model = LogNormalTailLatency()
        with pytest.raises(ValueError):
            sample_fanout_latencies(model, 0, 10, rng)
        with pytest.raises(ValueError):
            sample_fanout_latencies(model, 1, 0, rng)
        with pytest.raises(ValueError):
            LatencyPercentiles.from_samples(1, np.array([]))


class TestHotCold:
    def _bricks(self, count=200):
        bricks = []
        for i in range(count):
            brick = Brick(i, ("d",), ("m",))
            brick.append_columns({"d": [0], "m": [1.0]})
            bricks.append(brick)
        return bricks

    def test_produces_hot_and_cold_populations(self, rng):
        trace = run_hot_cold_week(self._bricks(), rng, hours=48)
        assert trace.hot_count > 0
        assert trace.cold_count > 0
        assert trace.hot_count + trace.cold_count == 200

    def test_recency_skew_keeps_new_data_hot(self, rng):
        """Figure 4e: recently loaded (low-rank) blocks stay hot."""
        bricks = self._bricks(500)
        trace = run_hot_cold_week(bricks, rng, hours=72)
        newest = trace.hotness[:25].mean()
        oldest = trace.hotness[-250:].mean()
        assert newest > 5 * max(oldest, 0.01)

    def test_cold_majority_with_strong_skew(self, rng):
        trace = run_hot_cold_week(
            self._bricks(1000), rng, hours=48, recency_skew=2.0,
            accesses_per_hour=100,
        )
        assert trace.hot_fraction < 0.5

    def test_histogram_shape(self, rng):
        trace = run_hot_cold_week(self._bricks(100), rng, hours=24)
        counts, edges = trace.histogram(bins=10)
        assert counts.sum() == 100
        assert len(edges) == 11

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            run_hot_cold_week([], rng)
        with pytest.raises(ValueError):
            run_hot_cold_week(self._bricks(1), rng, hours=0)
