"""Tests for adaptive compression (memory monitor) and dynamic partitioning."""

import numpy as np
import pytest

from repro.cubrick.bricks import Brick
from repro.cubrick.compression import (
    MemoryBudget,
    MemoryMonitor,
    classify_hot_cold,
    decay_all,
)
from repro.cubrick.partitioning import (
    PartitioningPolicy,
    partition_of,
    plan_repartition,
    skew,
)
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.errors import ConfigurationError


def make_bricks(count, rows_each=200, hotness=None):
    bricks = []
    rng = np.random.default_rng(1)
    for i in range(count):
        brick = Brick(i, ("d",), ("m",))
        d, m = zip(*[
            (int(rng.integers(100)), float(rng.random())) for __ in range(rows_each)
        ])
        brick.append_columns({"d": d, "m": m})
        if hotness is not None:
            brick.hotness = hotness[i]
        bricks.append(brick)
    return bricks


class TestMemoryBudget:
    def test_watermarks(self):
        budget = MemoryBudget(
            capacity_bytes=1000, high_watermark=0.9, low_watermark=0.5
        )
        assert budget.high_bytes == 900
        assert budget.low_bytes == 500

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(capacity_bytes=1000, high_watermark=0.3,
                         low_watermark=0.8)
        with pytest.raises(ConfigurationError):
            MemoryBudget(capacity_bytes=0)


class TestMemoryMonitor:
    def test_pressure_compresses_coldest_first(self):
        bricks = make_bricks(4, hotness=[10.0, 0.0, 5.0, 1.0])
        footprint = sum(b.footprint_bytes() for b in bricks)
        budget = MemoryBudget(
            capacity_bytes=int(footprint * 0.9),
            high_watermark=0.8,
            low_watermark=0.7,
        )
        report = MemoryMonitor(budget).run(bricks)
        assert report.compressed >= 1
        compressed_ids = [b.brick_id for b in bricks if b.is_compressed]
        # Brick 1 (coldest) must be the first compressed.
        assert 1 in compressed_ids
        # The hottest brick should be compressed only if everything was.
        if len(compressed_ids) < 4:
            assert 0 not in compressed_ids

    def test_surplus_decompresses_hottest_first(self):
        bricks = make_bricks(4, hotness=[10.0, 0.0, 5.0, 1.0])
        for brick in bricks:
            brick.compress()
        total_decompressed = sum(b.decompressed_bytes() for b in bricks)
        budget = MemoryBudget(
            capacity_bytes=total_decompressed * 10,
            high_watermark=0.9,
            low_watermark=0.8,
        )
        report = MemoryMonitor(budget).run(bricks)
        assert report.decompressed == 4  # plenty of room: all decompressed

    def test_partial_decompression_respects_watermark(self):
        bricks = make_bricks(4, hotness=[10.0, 0.0, 5.0, 1.0])
        for brick in bricks:
            brick.compress()
        gains = sorted(
            b.decompressed_bytes() - b.footprint_bytes() for b in bricks
        )
        compressed_total = sum(b.footprint_bytes() for b in bricks)
        # Room for exactly one decompression gain above current footprint.
        budget = MemoryBudget(
            capacity_bytes=int(compressed_total + gains[-1] * 1.1),
            high_watermark=1.0,
            low_watermark=0.99,
        )
        MemoryMonitor(budget).run(bricks)
        decompressed = [b for b in bricks if not b.is_compressed]
        assert decompressed  # surplus was used
        assert len(decompressed) < len(bricks)  # but bounded by watermark
        # And it picked the hottest first.
        assert bricks[0] in decompressed
        # The watermark was respected.
        assert sum(b.footprint_bytes() for b in bricks) <= budget.high_bytes

    def test_steady_state_no_churn(self):
        bricks = make_bricks(4)
        footprint = sum(b.footprint_bytes() for b in bricks)
        budget = MemoryBudget(
            capacity_bytes=footprint * 2, high_watermark=0.9, low_watermark=0.1
        )
        report = MemoryMonitor(budget).run(bricks)
        assert report.compressed == 0
        assert report.decompressed == 0
        assert report.footprint_before == report.footprint_after

    def test_report_footprint_accounting(self):
        bricks = make_bricks(3)
        footprint = sum(b.footprint_bytes() for b in bricks)
        budget = MemoryBudget(capacity_bytes=int(footprint * 0.5))
        report = MemoryMonitor(budget).run(bricks)
        assert report.footprint_after == sum(
            b.footprint_bytes() for b in bricks
        )
        assert report.footprint_after < report.footprint_before


class TestHotColdHelpers:
    def test_classify(self):
        bricks = make_bricks(3, hotness=[0.0, 2.0, 0.5])
        hot, cold = classify_hot_cold(bricks, hot_threshold=1.0)
        assert (hot, cold) == (1, 2)

    def test_decay_all_returns_count(self, rng):
        bricks = make_bricks(5)
        assert decay_all(bricks, rng) == 5


class TestPartitioningPolicy:
    def test_default_starts_at_eight(self):
        assert PartitioningPolicy().initial_partitions == 8

    def test_growth_doubles(self):
        policy = PartitioningPolicy(max_rows_per_partition=100, min_rows_per_partition=10)
        assert policy.next_partition_count(8, 150, 800) == 16

    def test_growth_capped(self):
        policy = PartitioningPolicy(max_rows_per_partition=100, min_rows_per_partition=10, max_partitions=64)
        assert policy.next_partition_count(64, 1000, 64000) == 64

    def test_shrink_halves(self):
        policy = PartitioningPolicy(
            max_rows_per_partition=1000, min_rows_per_partition=100
        )
        assert policy.next_partition_count(32, 50, 32 * 50) == 16

    def test_never_shrinks_below_initial(self):
        policy = PartitioningPolicy(
            max_rows_per_partition=1000, min_rows_per_partition=100
        )
        assert policy.next_partition_count(8, 1, 8) == 8

    def test_stable_in_band(self):
        policy = PartitioningPolicy(
            max_rows_per_partition=1000, min_rows_per_partition=100
        )
        assert policy.next_partition_count(16, 500, 16 * 500) == 16

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitioningPolicy(initial_partitions=0)
        with pytest.raises(ConfigurationError):
            PartitioningPolicy(
                max_rows_per_partition=10, min_rows_per_partition=20
            )
        with pytest.raises(ConfigurationError):
            PartitioningPolicy(max_partitions=4)

    def test_growth_clamps_on_overshoot(self):
        # Doubling 48 would overshoot a cap of 64; the policy must land
        # exactly on the cap, not at 96.
        policy = PartitioningPolicy(
            max_rows_per_partition=100, min_rows_per_partition=10,
            max_partitions=64,
        )
        assert policy.next_partition_count(48, 500, 48 * 500) == 64

    def test_overloaded_at_cap_never_shrinks(self):
        # Regression: a skewed table at max_partitions whose hottest
        # partition is over the growth threshold but whose *average*
        # is under the shrink threshold used to fall through into the
        # shrink branch and get halved — making the hot partition worse.
        policy = PartitioningPolicy(
            max_rows_per_partition=100, min_rows_per_partition=10,
            max_partitions=64,
        )
        # max partition has 5000 rows, but total 320 → avg 5 < min 10.
        assert policy.next_partition_count(64, 5000, 320) == 64

    def test_shrink_clamps_to_initial_from_odd_count(self):
        # 12 // 2 = 6 would undershoot initial=8; must clamp at 8.
        policy = PartitioningPolicy(
            initial_partitions=8,
            max_rows_per_partition=1000, min_rows_per_partition=100,
        )
        assert policy.next_partition_count(12, 50, 12 * 50) == 8

    def test_below_initial_never_shrinks_further(self):
        # A table created with fewer partitions than the policy initial
        # (e.g. policy changed after creation) must not shrink at all.
        policy = PartitioningPolicy(
            initial_partitions=8,
            max_rows_per_partition=1000, min_rows_per_partition=100,
        )
        assert policy.next_partition_count(4, 1, 4) == 4

    def test_above_cap_never_grows_further(self):
        # Likewise a table already above the cap stays put even when
        # overloaded: growth is gated on current < max_partitions.
        policy = PartitioningPolicy(
            max_rows_per_partition=100, min_rows_per_partition=10,
            max_partitions=64,
        )
        assert policy.next_partition_count(128, 5000, 128 * 5000) == 128

    def test_boundary_rows_do_not_trigger(self):
        # Exactly at the thresholds: no growth at == max rows, no
        # shrink at average == min rows.
        policy = PartitioningPolicy(
            max_rows_per_partition=100, min_rows_per_partition=10,
        )
        assert policy.next_partition_count(16, 100, 16 * 100) == 16
        assert policy.next_partition_count(16, 10, 16 * 10) == 16

    def test_invalid_current_rejected(self):
        policy = PartitioningPolicy()
        with pytest.raises(ConfigurationError):
            policy.next_partition_count(0, 10, 10)


class TestRecordAssignment:
    @pytest.fixture
    def schema(self):
        return TableSchema.build(
            "t", [Dimension("a", 1000), Dimension("b", 1000)], [Metric("m")]
        )

    def test_deterministic(self, schema):
        row = {"a": 5, "b": 7, "m": 1.0}
        assert partition_of(schema, row, 8) == partition_of(schema, row, 8)

    def test_in_range(self, schema, rng):
        for __ in range(200):
            row = {"a": int(rng.integers(1000)), "b": int(rng.integers(1000))}
            assert 0 <= partition_of(schema, row, 8) < 8

    def test_low_skew(self, schema, rng):
        counts = [0] * 8
        for __ in range(8000):
            row = {"a": int(rng.integers(1000)), "b": int(rng.integers(1000))}
            counts[partition_of(schema, row, 8)] += 1
        assert skew(counts) < 1.15

    def test_plan_repartition_preserves_rows(self, schema, rng):
        rows = [
            {"a": int(rng.integers(1000)), "b": int(rng.integers(1000)), "m": 1.0}
            for __ in range(500)
        ]
        plan = plan_repartition(schema, rows, 16)
        assert sum(len(v) for v in plan.values()) == 500
        assert set(plan) == set(range(16))
        for index, chunk in plan.items():
            for row in chunk:
                assert partition_of(schema, row, 16) == index

    def test_skew_edge_cases(self):
        assert skew([]) == 1.0
        assert skew([0, 0]) == 1.0
        assert skew([10, 10]) == 1.0
        assert skew([30, 10]) == 1.5

    def test_invalid_partition_count_rejected(self, schema):
        with pytest.raises(ConfigurationError):
            partition_of(schema, {"a": 1, "b": 1}, 0)
