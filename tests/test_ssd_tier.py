"""Tests for the generation-3 SSD tier (paper §IV-F3)."""

import numpy as np
import pytest

from repro.cubrick.bricks import Brick
from repro.cubrick.compression import MemoryBudget, MemoryMonitor
from repro.cubrick.loadbalance import IopsAwareExporter, SsdExporter
from repro.cubrick.node import CubrickNode
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.schema import Catalog
from repro.cubrick.sharding import MonotonicHashMapper, ShardDirectory
from tests.conftest import insert_rows, make_rows


def make_brick(rows=200, seed=0) -> Brick:
    brick = Brick(0, ("d",), ("m",))
    rng = np.random.default_rng(seed)
    d, m = zip(*[
        (int(rng.integers(10)), float(rng.random())) for __ in range(rows)
    ])
    brick.append_columns({"d": d, "m": m})
    return brick


class TestBrickEviction:
    def test_evict_frees_all_memory(self):
        brick = make_brick()
        brick.evict()
        assert brick.is_evicted
        assert brick.footprint_bytes() == 0
        assert brick.ssd_bytes() > 0

    def test_evict_compresses_first_if_needed(self):
        brick = make_brick()
        assert not brick.is_compressed
        brick.evict()
        # SSD bytes are compressed bytes, less than the logical size.
        assert brick.ssd_bytes() < brick.decompressed_bytes()

    def test_read_pays_io_and_restores(self):
        brick = make_brick()
        total = brick.columns()["m"].sum()
        brick.evict()
        assert brick.io_reads == 0
        assert brick.columns()["m"].sum() == pytest.approx(total)
        assert brick.io_reads == 1
        assert not brick.is_evicted
        assert brick.footprint_bytes() > 0

    def test_append_to_evicted_brick(self):
        brick = make_brick(rows=10)
        brick.evict()
        brick.append_columns({"d": [1], "m": [9.0]})
        assert brick.rows == 11
        assert brick.io_reads == 1

    def test_evict_is_idempotent(self):
        brick = make_brick()
        brick.evict()
        size = brick.ssd_bytes()
        brick.evict()
        assert brick.ssd_bytes() == size
        assert brick.io_reads == 0

    def test_load_from_ssd_hook(self):
        brick = make_brick()
        brick.evict()
        brick.load_from_ssd()
        assert not brick.is_evicted
        assert brick.is_compressed  # back to compressed-in-memory
        assert brick.io_reads == 1

    def test_decompressed_bytes_stable_under_eviction(self):
        brick = make_brick()
        logical = brick.decompressed_bytes()
        brick.evict()
        assert brick.decompressed_bytes() == logical

    def test_stats_reflect_eviction(self):
        brick = make_brick()
        brick.evict()
        stats = brick.stats()
        assert stats.evicted
        assert stats.ssd_bytes > 0
        assert stats.footprint_bytes == 0


class TestEvictingMonitor:
    def _bricks(self, count=4, hotness=None):
        bricks = []
        rng = np.random.default_rng(1)
        for i in range(count):
            brick = Brick(i, ("d",), ("m",))
            d, m = zip(*[
                (int(rng.integers(8)), float(rng.random())) for __ in range(300)
            ])
            brick.append_columns({"d": d, "m": m})
            if hotness is not None:
                brick.hotness = hotness[i]
            bricks.append(brick)
        return bricks

    def test_evicts_when_compression_insufficient(self):
        bricks = self._bricks(hotness=[10.0, 0.0, 5.0, 1.0])
        # Budget far below even the compressed size: must evict.
        budget = MemoryBudget(capacity_bytes=1024, high_watermark=0.9,
                              low_watermark=0.5)
        report = MemoryMonitor(budget, allow_eviction=True).run(bricks)
        assert report.evicted > 0
        # Coldest evicted first.
        assert bricks[1].is_evicted
        footprint = sum(b.footprint_bytes() for b in bricks)
        assert footprint <= budget.low_bytes or all(
            b.is_evicted for b in bricks
        )

    def test_no_eviction_without_flag(self):
        bricks = self._bricks()
        budget = MemoryBudget(capacity_bytes=1024)
        report = MemoryMonitor(budget, allow_eviction=False).run(bricks)
        assert report.evicted == 0
        assert not any(b.is_evicted for b in bricks)

    def test_surplus_loads_hottest_back(self):
        bricks = self._bricks(hotness=[10.0, 0.0, 5.0, 1.0])
        for brick in bricks:
            brick.evict()
        total = sum(b.decompressed_bytes() for b in bricks)
        budget = MemoryBudget(capacity_bytes=total * 10)
        report = MemoryMonitor(budget, allow_eviction=True).run(bricks)
        assert report.loaded == 4
        assert not any(b.is_evicted for b in bricks)

    def test_memory_can_reach_zero(self):
        """The §IV-F3 premise: with eviction, a shard's memory footprint
        can be zero — which is what broke the generation-2 metric."""
        bricks = self._bricks()
        budget = MemoryBudget(capacity_bytes=1, high_watermark=0.9,
                              low_watermark=0.5)
        MemoryMonitor(budget, allow_eviction=True).run(bricks)
        assert sum(b.footprint_bytes() for b in bricks) == 0


class TestGen3Node:
    @pytest.fixture
    def node(self, events_schema):
        catalog = Catalog()
        catalog.create(events_schema, num_partitions=2)
        directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
        shards = directory.register_table("events", 2)
        node = CubrickNode(
            "gen3", catalog, directory,
            memory_budget=MemoryBudget(capacity_bytes=2048),
            allow_ssd_eviction=True,
            exporter=SsdExporter(),
        )
        node.add_shard(shards[0], None)
        insert_rows(node.partition("events", 0), make_rows(events_schema, 600, seed=5))
        return node

    def test_monitor_evicts_and_queries_still_work(self, node):
        report = node.run_memory_monitor()
        assert report.evicted > 0
        assert node.ssd_footprint_bytes() > 0
        result = node.execute_local(
            Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")]), [0]
        ).finalize()
        assert result.scalar() == 600.0
        assert node.total_io_reads() > 0

    def test_ssd_exporter_unmoved_by_eviction(self, node):
        shard = next(iter(node.hosted_shards()))
        before = node.exporter.shard_size(node, shard)
        node.run_memory_monitor()
        assert node.exporter.shard_size(node, shard) == before


class TestIopsAwareExporter:
    def test_io_hot_shard_looks_bigger(self, events_schema):
        catalog = Catalog()
        catalog.create(events_schema, num_partitions=2)
        directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
        shards = directory.register_table("events", 2)
        node = CubrickNode(
            "iops", catalog, directory,
            memory_budget=MemoryBudget(capacity_bytes=1024),
            allow_ssd_eviction=True,
            exporter=IopsAwareExporter(io_cost_bytes=1_000_000.0),
        )
        node.add_shard(shards[0], None)
        insert_rows(node.partition("events", 0), make_rows(events_schema, 400, seed=6))
        shard = shards[0]
        baseline = node.exporter.shard_size(node, shard)
        # Evict, then hammer the shard with queries: every one pays IOs.
        query = Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        for __ in range(5):
            node.run_memory_monitor()
            node.execute_local(query, [0])
        inflated = node.exporter.shard_size(node, shard)
        assert inflated > baseline

    def test_io_penalty_decays_when_quiet(self, events_schema):
        catalog = Catalog()
        catalog.create(events_schema, num_partitions=2)
        directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
        shards = directory.register_table("events", 2)
        node = CubrickNode(
            "iops2", catalog, directory,
            memory_budget=MemoryBudget(capacity_bytes=1024),
            allow_ssd_eviction=True,
            exporter=IopsAwareExporter(io_cost_bytes=1_000_000.0,
                                       smoothing_alpha=0.5),
        )
        node.add_shard(shards[0], None)
        insert_rows(node.partition("events", 0), make_rows(events_schema, 400, seed=6))
        shard = shards[0]
        query = Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
        node.run_memory_monitor()
        node.execute_local(query, [0])
        hot = node.exporter.shard_size(node, shard)
        quiet = hot
        for __ in range(8):  # no more IOs: smoothed penalty decays
            quiet = node.exporter.shard_size(node, shard)
        assert quiet < hot

    def test_invalid_io_cost_rejected(self):
        with pytest.raises(ValueError):
            IopsAwareExporter(io_cost_bytes=-1.0)
