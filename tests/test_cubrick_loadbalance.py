"""Tests for the three load-balancing metric generations (paper §IV-F)."""

import pytest

from repro.cluster.host import GIB
from repro.cubrick.compression import MemoryBudget
from repro.cubrick.loadbalance import (
    DecompressedSizeExporter,
    FootprintExporter,
    LoadBalanceGeneration,
    SsdExporter,
    make_exporter,
)
from repro.cubrick.node import CubrickNode
from repro.cubrick.schema import Catalog
from repro.cubrick.sharding import MonotonicHashMapper, ShardDirectory
from tests.conftest import insert_rows, make_rows


@pytest.fixture
def loaded_node(events_schema):
    catalog = Catalog()
    catalog.create(events_schema, num_partitions=2)
    directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
    shards = directory.register_table("events", 2)
    node = CubrickNode(
        "h1", catalog, directory,
        memory_bytes=GIB, ssd_bytes=8 * GIB,
        memory_budget=MemoryBudget(capacity_bytes=GIB),
    )
    node.add_shard(shards[0], None)
    insert_rows(node.partition("events", 0), make_rows(events_schema, 400, seed=3))
    return node, shards


class TestGeneration1:
    def test_capacity_is_90_percent_of_memory(self, loaded_node):
        node, __ = loaded_node
        exporter = FootprintExporter()
        assert exporter.capacity(node) == pytest.approx(0.9 * GIB)

    def test_shard_size_is_actual_footprint(self, loaded_node):
        node, shards = loaded_node
        exporter = FootprintExporter()
        expected = sum(
            p.footprint_bytes() for p in node.partitions_of_shard(shards[0])
        )
        assert exporter.shard_size(node, shards[0]) == expected

    def test_metric_changes_under_compression(self, loaded_node):
        """The generation-1 flaw: compression changes the exported size."""
        node, shards = loaded_node
        exporter = FootprintExporter()
        before = exporter.shard_size(node, shards[0])
        for brick in node.all_bricks():
            brick.compress()
        after = exporter.shard_size(node, shards[0])
        assert after < before


class TestGeneration2:
    def test_metric_stable_under_compression(self, loaded_node):
        """The generation-2 fix: decompressed size never moves."""
        node, shards = loaded_node
        exporter = DecompressedSizeExporter()
        before = exporter.shard_size(node, shards[0])
        for brick in node.all_bricks():
            brick.compress()
        assert exporter.shard_size(node, shards[0]) == before

    def test_metric_grows_only_with_data(self, loaded_node, events_schema):
        node, shards = loaded_node
        exporter = DecompressedSizeExporter()
        before = exporter.shard_size(node, shards[0])
        insert_rows(node.partition("events", 0), make_rows(events_schema, 100, seed=4))
        assert exporter.shard_size(node, shards[0]) > before

    def test_capacity_scaled_by_compression_ratio(self, loaded_node):
        node, __ = loaded_node
        exporter = DecompressedSizeExporter(average_compression_ratio=2.5)
        assert exporter.capacity(node) == pytest.approx(0.9 * GIB * 2.5)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            DecompressedSizeExporter(average_compression_ratio=0.5)


class TestGeneration3:
    def test_capacity_is_ssd(self, loaded_node):
        node, __ = loaded_node
        assert SsdExporter().capacity(node) == 8 * GIB

    def test_shard_size_is_spillable_size(self, loaded_node):
        node, shards = loaded_node
        exporter = SsdExporter()
        expected = sum(
            p.decompressed_bytes() for p in node.partitions_of_shard(shards[0])
        )
        assert exporter.shard_size(node, shards[0]) == expected


class TestFactory:
    @pytest.mark.parametrize(
        "generation,cls",
        [
            (LoadBalanceGeneration.GEN1_FOOTPRINT, FootprintExporter),
            (LoadBalanceGeneration.GEN2_DECOMPRESSED, DecompressedSizeExporter),
            (LoadBalanceGeneration.GEN3_SSD, SsdExporter),
        ],
    )
    def test_make_exporter(self, generation, cls):
        assert isinstance(make_exporter(generation), cls)

    def test_shard_metrics_covers_all_shards(self, loaded_node):
        node, shards = loaded_node
        metrics = make_exporter(
            LoadBalanceGeneration.GEN2_DECOMPRESSED
        ).shard_metrics(node)
        assert set(metrics) == {shards[0]}
