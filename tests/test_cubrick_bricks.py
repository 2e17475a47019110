"""Tests for bricks: storage, hotness counters, real compression."""

import numpy as np
import pytest

from repro.cubrick.bricks import Brick


def make_brick(rows=100, seed=0) -> Brick:
    brick = Brick(0, ("day",), ("value",))
    rng = np.random.default_rng(seed)
    brick.append_columns({
        "day": [int(rng.integers(10)) for __ in range(rows)],
        "value": [1.0] * rows,
    })
    return brick


class TestAppendAndRead:
    def test_append_and_columns(self):
        brick = Brick(5, ("d",), ("m",))
        brick.append_columns({"d": [1], "m": [2.5]})
        brick.append_columns({"d": [3], "m": [4.5]})
        arrays = brick.columns()
        assert arrays["d"].tolist() == [1, 3]
        assert arrays["m"].tolist() == [2.5, 4.5]
        assert brick.rows == 2

    def test_column_dtypes(self):
        brick = make_brick(rows=5)
        arrays = brick.columns()
        assert arrays["day"].dtype == np.int64
        assert arrays["value"].dtype == np.float64

    def test_bulk_append(self):
        brick = Brick(0, ("d",), ("m",))
        brick.append_columns(
            {"d": np.array([1, 2, 3]), "m": np.array([1.0, 2.0, 3.0])}
        )
        assert brick.rows == 3
        assert brick.columns()["d"].tolist() == [1, 2, 3]

    def test_bulk_append_ragged_rejected(self):
        brick = Brick(0, ("d",), ("m",))
        with pytest.raises(Exception):
            brick.append_columns(
                {"d": np.array([1, 2]), "m": np.array([1.0])}
            )

    def test_append_after_read_invalidates_cache(self):
        brick = Brick(0, ("d",), ("m",))
        brick.append_columns({"d": [1], "m": [1.0]})
        first = brick.columns()
        brick.append_columns({"d": [2], "m": [2.0]})
        assert brick.columns()["d"].tolist() == [1, 2]
        assert len(first["d"]) == 1  # old snapshot untouched


class TestHotness:
    def test_touch_increments(self):
        brick = make_brick()
        brick.touch()
        brick.touch()
        assert brick.hotness == 2.0

    def test_decay_skips_recently_touched(self, rng):
        brick = make_brick()
        brick.touch()
        brick.decay(rng, probability=1.0)
        assert brick.hotness == 1.0  # protected this round
        brick.decay(rng, probability=1.0, factor=0.5)
        assert brick.hotness == 0.5  # decays next round

    def test_decay_is_stochastic(self):
        rng = np.random.default_rng(0)
        decayed = 0
        for __ in range(1000):
            brick = Brick(0, ("d",), ("m",))
            brick.hotness = 4.0
            brick.decay(rng, probability=0.3, factor=0.5)
            if brick.hotness < 4.0:
                decayed += 1
        assert 250 < decayed < 350

    def test_decay_floors_to_zero(self, rng):
        brick = make_brick()
        brick.hotness = 0.001
        brick.decay(rng, probability=1.0, factor=0.5)
        assert brick.hotness == 0.0


class TestCompression:
    def test_compress_reduces_footprint(self):
        brick = make_brick(rows=2000)
        before = brick.footprint_bytes()
        brick.compress()
        assert brick.is_compressed
        assert brick.footprint_bytes() < before
        assert brick.compression_ratio() > 1.0

    def test_decompressed_bytes_stable_under_compression(self):
        """The generation-2 LB metric must not move when state changes."""
        brick = make_brick(rows=500)
        logical = brick.decompressed_bytes()
        brick.compress()
        assert brick.decompressed_bytes() == logical
        brick.decompress()
        assert brick.decompressed_bytes() == logical

    def test_data_survives_compression_roundtrip(self):
        brick = make_brick(rows=300, seed=3)
        original = {k: v.copy() for k, v in brick.columns().items()}
        brick.compress()
        brick.decompress()
        for name, values in original.items():
            assert (brick.columns()[name] == values).all()

    def test_read_transparently_decompresses(self):
        brick = make_brick(rows=100)
        expected = brick.columns()["day"].sum()
        brick.compress()
        assert brick.columns()["day"].sum() == expected
        assert not brick.is_compressed  # read decompressed it

    def test_append_to_compressed_brick(self):
        brick = make_brick(rows=10)
        brick.compress()
        brick.append_columns({"day": [5], "value": [9.0]})
        assert brick.rows == 11
        assert brick.columns()["value"][-1] == 9.0

    def test_compress_is_idempotent(self):
        brick = make_brick(rows=50)
        brick.compress()
        footprint = brick.footprint_bytes()
        brick.compress()
        assert brick.footprint_bytes() == footprint

    def test_ratio_is_one_when_uncompressed(self):
        assert make_brick().compression_ratio() == 1.0

    def test_stats_snapshot(self):
        brick = make_brick(rows=42)
        brick.touch()
        stats = brick.stats()
        assert stats.rows == 42
        assert stats.hotness == 1.0
        assert not stats.compressed
        assert stats.footprint_bytes == stats.decompressed_bytes

    def test_decompressed_bytes_formula(self):
        brick = Brick(0, ("a", "b"), ("m",))
        brick.append_columns({"a": [1] * 10, "b": [2] * 10, "m": [3.0] * 10})
        # 10 rows x (2 dims x 8B + 1 metric x 8B) = 240 bytes
        assert brick.decompressed_bytes() == 240
