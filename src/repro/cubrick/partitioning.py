"""Record→partition assignment and dynamic re-partitioning (paper §IV-B).

Cubrick segments each table into horizontal partitions; records are
assigned by a deterministic hash of the dimension values (minimising
skew between partitions so every server does roughly equal work at
query time). The partition count is *dynamic*: tables start at 8
partitions — enough parallelism for small tables without frequent
re-partitions — and a re-partition (doubling) is triggered when any
partition exceeds a size threshold. Shrinking collapses data into fewer
partitions when they get too small. Re-partitions shuffle data and are
expensive, so thresholds are chosen to keep them sporadic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cubrick.schema import TableSchema
from repro.cubrick.sharding import stable_hash
from repro.errors import ConfigurationError

try:  # CPython's own md5: twice OpenSSL's speed on 30-byte keys
    from _md5 import md5 as _key_md5
except ImportError:  # pragma: no cover - interpreters without it
    from hashlib import md5 as _key_md5

DEFAULT_INITIAL_PARTITIONS = 8
#: Rows whose routing keys are formatted and hashed together.
_KEY_BLOCK = 4096


@dataclass(frozen=True)
class PartitioningPolicy:
    """When to grow/shrink a table's partition count.

    ``max_rows_per_partition`` triggers growth (doubling);
    ``min_rows_per_partition`` triggers shrinking (halving) once the
    table is above the initial partition count. ``max_partitions``
    caps growth — the paper notes production tables top out around 60
    partitions, bounded by the ~1TB max dataset size.
    """

    initial_partitions: int = DEFAULT_INITIAL_PARTITIONS
    max_rows_per_partition: int = 100_000
    min_rows_per_partition: int = 10_000
    max_partitions: int = 64

    def __post_init__(self) -> None:
        if self.initial_partitions <= 0:
            raise ConfigurationError(
                f"initial_partitions must be positive: {self.initial_partitions}"
            )
        if self.max_rows_per_partition <= 0:
            raise ConfigurationError(
                f"max_rows_per_partition must be positive: "
                f"{self.max_rows_per_partition}"
            )
        if not 0 <= self.min_rows_per_partition < self.max_rows_per_partition:
            raise ConfigurationError(
                "min_rows_per_partition must be in [0, max_rows_per_partition)"
            )
        if self.max_partitions < self.initial_partitions:
            raise ConfigurationError(
                "max_partitions must be >= initial_partitions"
            )

    def next_partition_count(self, current: int, max_partition_rows: int,
                             total_rows: int) -> int:
        """Partition count after evaluating thresholds (may be unchanged)."""
        if current < 1:
            raise ConfigurationError(f"current partition count invalid: {current}")
        if max_partition_rows > self.max_rows_per_partition:
            # Grow, clamped at the cap even when doubling overshoots.
            if current < self.max_partitions:
                return min(current * 2, self.max_partitions)
            # Already at (or above) the cap: an overloaded table must
            # never fall through into the shrink branch — a skewed table
            # can be over the per-partition maximum while its *average*
            # rows-per-partition sits below the shrink threshold, and
            # halving it would make the hot partition worse.
            return current
        if (
            current > self.initial_partitions
            and total_rows / current < self.min_rows_per_partition
        ):
            return max(current // 2, self.initial_partitions)
        return current


def partition_of(schema: TableSchema, row: dict[str, float],
                 num_partitions: int) -> int:
    """Deterministic record→partition assignment.

    Hashes the full dimension tuple so sibling records spread evenly
    and the assignment is reproducible across loaders.
    """
    if num_partitions <= 0:
        raise ConfigurationError(f"num_partitions must be positive: {num_partitions}")
    key = "|".join(f"{d.name}={int(row[d.name])}" for d in schema.dimensions)
    return stable_hash(key) % num_partitions


def partitions_of_columns(schema: TableSchema, columns,
                          num_partitions: int) -> np.ndarray:
    """:func:`partition_of` for every row of ``columns``, bit-identical:
    ``name=value|...`` keys are formatted a block of rows per string
    operation and md5-hashed, and the first 8 bytes of each 16-byte
    digest, read little-endian, are :func:`stable_hash` of its key."""
    if num_partitions <= 0:
        raise ConfigurationError(f"num_partitions must be positive: {num_partitions}")
    values = np.column_stack([
        np.asarray(columns[d.name], dtype=np.int64) for d in schema.dimensions
    ])
    # Keys are cut apart at byte 0xFF, which UTF-8 never produces; the
    # separator is written as U+DCFF and encoded with surrogateescape.
    key = "|".join(f"{d.name.replace('%', '%%')}=%d" for d in schema.dimensions)
    key += "\udcff"
    # Blocks bound the short-lived key objects, whose memory the
    # allocator would otherwise keep after a large batch.
    digests = []
    for start in range(0, len(values), _KEY_BLOCK):
        block = values[start:start + _KEY_BLOCK]
        batch = (key * len(block)) % tuple(block.ravel().tolist())
        keys = batch.encode("utf-8", "surrogateescape").split(b"\xff")[:-1]
        digests.append(b"".join([_key_md5(k).digest() for k in keys]))
    hashes = np.frombuffer(b"".join(digests), dtype="<u8")[::2]
    return (hashes % np.uint64(num_partitions)).astype(np.intp)


def split_by_partition(
    columns: dict[str, np.ndarray], partitions: np.ndarray, num_partitions: int
) -> dict[int, tuple[np.ndarray, dict[str, np.ndarray]]]:
    """partition -> (row positions, columns) of its rows, in row order;
    partitions without rows are left out. One stable sort and one gather
    per column; the groups are views of the gathered arrays."""
    order = np.argsort(partitions, kind="stable")
    gathered = {name: column[order] for name, column in columns.items()}
    ends = np.cumsum(np.bincount(partitions, minlength=num_partitions))
    groups: dict[int, tuple[np.ndarray, dict[str, np.ndarray]]] = {}
    start = 0
    for index, end in enumerate(ends.tolist()):
        if end > start:
            groups[index] = (order[start:end], {
                name: column[start:end] for name, column in gathered.items()
            })
        start = end
    return groups


def plan_repartition(
    schema: TableSchema,
    rows: list[dict[str, float]],
    new_partition_count: int,
) -> dict[int, list[dict[str, float]]]:
    """Shuffle rows into their new partitions: new-partition-index →
    rows, the row-dict view of :func:`partitions_of_columns`."""
    keys = {d.name: [row[d.name] for row in rows] for d in schema.dimensions}
    plan: dict[int, list[dict[str, float]]] = {i: [] for i in range(new_partition_count)}
    for row, index in zip(rows, partitions_of_columns(schema, keys, new_partition_count)):
        plan[index].append(row)
    return plan


def skew(partition_rows: list[int]) -> float:
    """Max/mean row-count ratio across partitions (1.0 = perfectly even)."""
    if not partition_rows:
        return 1.0
    mean = sum(partition_rows) / len(partition_rows)
    if mean == 0:
        return 1.0
    return max(partition_rows) / mean
