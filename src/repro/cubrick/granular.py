"""Granular Partitioning: Cubrick's multidimensional brick index.

Cubrick range-partitions the dataset on *every* dimension column
(paper §IV, [21]): each dimension is cut into fixed-width buckets, and a
brick exists for every combination of buckets that contains data. The
brick id is the row-major composition of per-dimension bucket indexes,
which gives constant-time record routing and cheap filter pruning —
a range predicate on any dimension maps to a slab of brick ids without
touching the data.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cubrick.schema import TableSchema
from repro.errors import QueryError, SchemaError


class GranularIndex:
    """Maps dimension coordinates to brick ids and prunes by predicates."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._bucket_counts = [d.bucket_count for d in schema.dimensions]
        # Row-major strides: last dimension varies fastest.
        strides = [1] * len(self._bucket_counts)
        for i in range(len(self._bucket_counts) - 2, -1, -1):
            strides[i] = strides[i + 1] * self._bucket_counts[i + 1]
        self._strides = strides
        self._axis = {d.name: i for i, d in enumerate(schema.dimensions)}

    @property
    def total_bricks(self) -> int:
        """Size of the (sparse) brick id space."""
        total = 1
        for count in self._bucket_counts:
            total *= count
        return total

    def brick_of(self, row: dict[str, float]) -> int:
        """Brick id for a record, from its dimension values."""
        brick_id = 0
        for dim, stride in zip(self.schema.dimensions, self._strides):
            value = row.get(dim.name)
            if value is None:
                raise SchemaError(f"row missing dimension {dim.name!r}")
            brick_id += dim.bucket_of(int(value)) * stride
        return brick_id

    def bricks_of_columns(self, columns) -> np.ndarray:
        """Vectorised :meth:`brick_of` over column arrays.

        ``columns`` maps dimension names to equal-length integer arrays;
        returns the brick id per row. Domain violations raise, matching
        the scalar path.
        """
        brick_ids = None
        for dim, stride in zip(self.schema.dimensions, self._strides):
            values = np.asarray(columns[dim.name])
            if values.size and (
                values.min() < 0 or values.max() >= dim.cardinality
            ):
                raise SchemaError(
                    f"dimension {dim.name!r}: values outside "
                    f"[0, {dim.cardinality})"
                )
            buckets = values // dim.effective_range_size
            contribution = buckets * stride
            brick_ids = contribution if brick_ids is None else brick_ids + contribution
        return brick_ids

    def brick_coordinates(self, brick_id: int) -> tuple[int, ...]:
        """Inverse of :meth:`brick_of` at bucket granularity."""
        if not 0 <= brick_id < self.total_bricks:
            raise QueryError(f"brick id {brick_id} out of range")
        coords = []
        remainder = brick_id
        for stride in self._strides:
            coords.append(remainder // stride)
            remainder %= stride
        return tuple(coords)

    # ------------------------------------------------------------------
    # Filter pruning
    # ------------------------------------------------------------------

    def candidate_buckets(
        self, dim_name: str, values: Sequence[int] | None,
        value_range: tuple[int, int] | None,
    ) -> set[int]:
        """Buckets on one dimension that can contain matching rows."""
        dim = self.schema.dimension(dim_name)
        if values is not None:
            return {dim.bucket_of(int(v)) for v in values}
        if value_range is not None:
            low, high = value_range
            low = max(0, int(low))
            high = min(dim.cardinality - 1, int(high))
            if low > high:
                return set()
            return set(range(dim.bucket_of(low), dim.bucket_of(high) + 1))
        return set(range(dim.bucket_count))

    def coordinates(self, brick_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`brick_coordinates`: an ``(n, dimensions)``
        array of bucket indexes, one row per brick id."""
        ids = np.asarray(brick_ids, dtype=np.int64)
        return np.stack(
            [
                (ids // stride) % count
                for stride, count in zip(self._strides, self._bucket_counts)
            ],
            axis=1,
        )

    def matching(
        self,
        per_dimension_buckets: dict[str, set[int]],
        coordinates: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask over ``coordinates`` rows: inside the allowed
        buckets on every constrained dimension."""
        keep = np.ones(len(coordinates), dtype=bool)
        for name, buckets in per_dimension_buckets.items():
            axis = self._axis.get(name)
            if axis is None:
                raise QueryError(f"unknown dimension in filter: {name!r}")
            allowed = np.zeros(self._bucket_counts[axis], dtype=bool)
            allowed[np.fromiter(buckets, dtype=np.int64, count=len(buckets))] = True
            keep &= allowed[coordinates[:, axis]]
        return keep

    def prune(
        self,
        per_dimension_buckets: dict[str, set[int]],
        existing_bricks: Iterable[int],
    ) -> list[int]:
        """Brick ids from ``existing_bricks`` whose coordinates fall
        inside the allowed buckets on every constrained dimension."""
        ids = np.fromiter(existing_bricks, dtype=np.int64)
        keep = self.matching(per_dimension_buckets, self.coordinates(ids))
        return ids[keep].tolist()
