"""Bricks: Cubrick's data blocks, with hotness counters and compression.

A *brick* is the unit of storage inside a partition, addressed by the
Granular Partitioning index (one brick per combination of per-dimension
range buckets). Each brick keeps a *hotness counter*: incremented when a
query touches the brick, and slowly, stochastically decayed over time
when unused (paper §IV-F2, inspired by LeanStore's hot/cold
classification [16]). The adaptive-compression memory monitor uses the
counters to compress coldest-first under memory pressure and decompress
hottest-first when memory frees up.

Storage is zero-copy: column data lives as a list of sealed numpy
*chunks* per column. ``append_columns`` appends the caller's arrays
directly (no ``.tolist()`` round-trip), and decompression materialises
arrays straight from the zlib blobs without rebuilding Python list
builders.

Scans do not read bricks one by one. A partition's :class:`ScanView`
concatenates every resident brick's chunks once per column, in brick-id
order, and the bricks' chunks become slices of it, so the rows are held
once. Bricks stay the unit of hotness, compression and SSD eviction: a
brick whose in-memory columns change (append, compress, decompress —
eviction compresses first) tells its partition, which drops the view;
a compression also makes every other brick copy its slice out, so the
dropped view's arrays are freed at once.

Compression here is *real*: column arrays are serialised and
zlib-compressed, so compressed footprints and the compression ratio come
from actual data, not a constant.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.cubrick.kernels import EncodedColumn
from repro.errors import CubrickError

DIMENSION_DTYPE = np.int64
METRIC_DTYPE = np.float64


@dataclass
class BrickStats:
    """Aggregate stats for monitoring/benchmarks."""

    rows: int
    hotness: float
    compressed: bool
    footprint_bytes: int
    decompressed_bytes: int
    evicted: bool = False
    ssd_bytes: int = 0
    io_reads: int = 0


class Brick:
    """One data block: columnar chunk storage for a bucket of rows.

    Appends store sealed numpy chunks; ``columns()`` concatenates once
    and caches. Compression pickles the arrays through zlib. A compressed
    brick transparently decompresses on access (and the access bumps its
    hotness, so the memory monitor will tend to keep it decompressed).
    """

    def __init__(self, brick_id: int, dimension_names: tuple[str, ...],
                 metric_names: tuple[str, ...]):
        self.brick_id = brick_id
        self.dimension_names = dimension_names
        self.metric_names = metric_names
        self._column_names = dimension_names + metric_names
        #: Sealed numpy chunks per column.
        self._chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in self._column_names
        }
        self._arrays: dict[str, np.ndarray] | None = None
        self._compressed: dict[str, bytes] | None = None
        # Generation-3 tier (paper §IV-F3): compressed blobs evicted to
        # SSD occupy no memory; reading them back costs an IO.
        self._ssd: dict[str, bytes] | None = None
        self._rows = 0
        self.hotness: float = 0.0
        self._touched_since_decay = False
        #: IOs paid loading this brick back from SSD (gen-3 LB input).
        self.io_reads = 0
        #: A weak reference to ``callback(released)``, called whenever
        #: the in-memory columns change; ``released`` is true when the
        #: brick gave its memory up (compression).
        self.on_change: weakref.WeakMethod | None = None

    def _changed(self, released: bool) -> None:
        if self.on_change is not None:
            callback = self.on_change()
            if callback is not None:
                callback(released)

    def _dtype_of(self, name: str) -> np.dtype:
        if name in self.dimension_names:
            return np.dtype(DIMENSION_DTYPE)
        return np.dtype(METRIC_DTYPE)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def append_columns(self, columns: dict[str, np.ndarray]) -> None:
        """Bulk-append pre-validated column arrays (same length each),
        loading/decompressing first if needed.

        The arrays are stored as sealed chunks directly — zero copy when
        the caller already supplies the storage dtypes.
        """
        lengths = {name: len(arr) for name, arr in columns.items()}
        if len(set(lengths.values())) != 1:
            raise CubrickError(f"ragged column lengths: {lengths}")
        missing = [
            name for name in self._column_names if name not in columns
        ]
        if missing:
            raise CubrickError(
                f"missing column {missing[0]!r} in bulk append"
            )
        if self._ssd is not None:
            self._load_from_ssd()
        if self._compressed is not None:
            self._decompress()
        n = next(iter(lengths.values()))
        for name in self._column_names:
            self._chunks[name].append(
                np.asarray(columns[name], dtype=self._dtype_of(name))
            )
        self._arrays = None
        self._rows += n
        self._changed(False)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def is_resident(self) -> bool:
        """Whether the columns are in memory, decompressed."""
        return self._compressed is None and self._ssd is None

    def touch(self) -> None:
        """A query needed this brick: bump its hotness counter."""
        self.hotness += 1.0
        self._touched_since_decay = True

    def columns(self) -> dict[str, np.ndarray]:
        """The sealed columnar arrays (loading/decompressing if needed).

        Chunks are concatenated at most once: the chunk list collapses to
        the concatenated array, so repeated reads (and reads after a
        collapse) are zero-copy until the next append. Inside a built
        :class:`ScanView` the arrays are slices of the view's columns.
        """
        if self._ssd is not None:
            self._load_from_ssd()
        if self._compressed is not None:
            self._decompress()
        if self._arrays is None:
            arrays: dict[str, np.ndarray] = {}
            for name in self._column_names:
                chunks = self._chunks[name]
                if not chunks:
                    sealed = np.empty(0, dtype=self._dtype_of(name))
                elif len(chunks) == 1:
                    sealed = chunks[0]
                else:
                    sealed = np.concatenate(chunks)
                    self._chunks[name] = [sealed]
                arrays[name] = sealed
            self._arrays = arrays
        return self._arrays

    # ------------------------------------------------------------------
    # Hotness decay (paper §IV-F2)
    # ------------------------------------------------------------------

    def decay(self, rng: np.random.Generator, probability: float = 0.5,
              factor: float = 0.5) -> None:
        """Stochastically decay the counter if the brick sat unused.

        With ``probability``, an untouched brick's counter is multiplied
        by ``factor``. Touched bricks skip decay this round (recent use
        protects them) and the touch flag resets.
        """
        if self._touched_since_decay:
            self._touched_since_decay = False
            return
        if self.hotness > 0 and rng.random() < probability:
            self.hotness *= factor
            if self.hotness < 1e-3:
                self.hotness = 0.0

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    @property
    def is_compressed(self) -> bool:
        return self._compressed is not None

    def compress(self) -> None:
        """zlib-compress the sealed arrays, dropping the chunk storage."""
        if self._compressed is not None:
            return
        arrays = self.columns()
        self._compressed = {
            name: zlib.compress(np.ascontiguousarray(arr).tobytes(), level=1)
            for name, arr in arrays.items()
        }
        self._arrays = None
        self._chunks = {name: [] for name in self._column_names}
        self._changed(True)

    def _decompress(self) -> None:
        assert self._compressed is not None
        arrays: dict[str, np.ndarray] = {}
        for name in self._column_names:
            raw = zlib.decompress(self._compressed[name])
            # frombuffer views the decompressed bytes — no second copy,
            # and no Python-list rebuild (the old path doubled memory).
            arrays[name] = np.frombuffer(raw, dtype=self._dtype_of(name))
        self._compressed = None
        self._adopt(arrays)
        self._changed(False)

    def _adopt(self, arrays: dict[str, np.ndarray]) -> None:
        self._arrays = arrays
        self._chunks = {name: [arr] for name, arr in arrays.items()}

    def detach(self) -> None:
        """Copy the in-memory rows into arrays of the brick's own (they
        may be slices of a dropped :class:`ScanView`)."""
        for name, chunks in self._chunks.items():
            if chunks:
                self._chunks[name] = [np.concatenate(chunks)]
        self._arrays = None

    def decompress(self) -> None:
        """Public decompression hook for the memory monitor."""
        if self._ssd is not None:
            self._load_from_ssd()
        if self._compressed is not None:
            self._decompress()

    # ------------------------------------------------------------------
    # SSD eviction (generation 3, paper §IV-F3)
    # ------------------------------------------------------------------

    @property
    def is_evicted(self) -> bool:
        return self._ssd is not None

    def evict(self) -> None:
        """Move the brick's (compressed) bytes to SSD; frees all memory.

        An unevicted read (:meth:`columns`, :meth:`append_columns`)
        transparently pays one IO and restores the compressed-in-memory
        state.
        """
        if self._ssd is not None:
            return
        if self._compressed is None:
            self.compress()
        self._ssd = self._compressed
        self._compressed = None
        self._arrays = None
        self._chunks = {name: [] for name in self._column_names}

    def _load_from_ssd(self) -> None:
        assert self._ssd is not None
        self.io_reads += 1
        self._compressed = self._ssd
        self._ssd = None

    def load_from_ssd(self) -> None:
        """Public un-evict hook for the memory monitor (counts the IO)."""
        if self._ssd is not None:
            self._load_from_ssd()

    def ssd_bytes(self) -> int:
        """Bytes this brick occupies on SSD (0 when memory-resident)."""
        if self._ssd is None:
            return 0
        return sum(len(blob) for blob in self._ssd.values())

    # ------------------------------------------------------------------
    # Footprint accounting
    # ------------------------------------------------------------------

    def decompressed_bytes(self) -> int:
        """Memory the brick would occupy fully decompressed.

        This is the load-balancing metric of Cubrick's second generation
        (paper §IV-F2): stable under the server's current memory
        pressure, changing only when data is added.
        """
        width = np.dtype(DIMENSION_DTYPE).itemsize * len(self.dimension_names)
        width += np.dtype(METRIC_DTYPE).itemsize * len(self.metric_names)
        return self._rows * width

    def footprint_bytes(self) -> int:
        """Actual current *memory* footprint (0 when evicted to SSD)."""
        if self._ssd is not None:
            return 0
        if self._compressed is not None:
            return sum(len(blob) for blob in self._compressed.values())
        return self.decompressed_bytes()

    def compression_ratio(self) -> float:
        """decompressed/compressed size (1.0 when not compressed)."""
        footprint = self.footprint_bytes()
        if not self.is_compressed or footprint == 0:
            return 1.0
        return self.decompressed_bytes() / footprint

    def stats(self) -> BrickStats:
        return BrickStats(
            rows=self._rows,
            hotness=self.hotness,
            compressed=self.is_compressed,
            footprint_bytes=self.footprint_bytes(),
            decompressed_bytes=self.decompressed_bytes(),
            evicted=self.is_evicted,
            ssd_bytes=self.ssd_bytes(),
            io_reads=self.io_reads,
        )


class ScanView:
    """A partition's resident bricks as one set of contiguous columns.

    ``bricks`` are every brick of the partition in id order; each column
    is one ``np.concatenate`` over the resident bricks' chunks, after
    which those bricks' arrays are slices of it. Brick ``i`` holds rows
    ``offsets[i]:offsets[i + 1]`` (none while compressed or evicted) and
    has bucket coordinates ``coords[i]`` (pruning reads them here, not
    from the index). Encoded dimensions get one partition-level
    dictionary each, built on first use (:meth:`encoded`).
    """

    def __init__(self, bricks: list[Brick], coords: np.ndarray,
                 dtypes: dict[str, np.dtype]):
        self.bricks = bricks
        self.coords = coords
        resident = [brick for brick in bricks if brick.is_resident]
        self.offsets = [0, *accumulate(
            brick.rows if brick.is_resident else 0 for brick in bricks
        )]
        self.rows = self.offsets[-1]
        self.columns = {
            name: np.concatenate(
                [chunk for brick in resident for chunk in brick._chunks[name]]
                or [np.empty(0, dtype=dtype)]
            )
            for name, dtype in dtypes.items()
        }
        for i, brick in enumerate(bricks):
            if brick.is_resident:
                start, end = self.offsets[i], self.offsets[i + 1]
                brick._adopt({
                    name: column[start:end]
                    for name, column in self.columns.items()
                })
        self._encoded: dict[str, EncodedColumn] = {}

    def rows_of(self, positions: list[int]) -> slice | np.ndarray:
        """The rows of the bricks at ``positions`` (ascending, resident).

        Adjacent bricks merge into runs: one run is a zero-copy slice,
        several become one gather index. Either costs work in proportion
        to the rows kept, never to the partition.
        """
        bounds = self.offsets
        starts: list[int] = []
        ends: list[int] = []
        for i in positions:
            if ends and ends[-1] == bounds[i]:
                ends[-1] = bounds[i + 1]
            else:
                starts.append(bounds[i])
                ends.append(bounds[i + 1])
        if len(starts) <= 1:
            return slice(starts[0], ends[0]) if starts else slice(0, 0)
        first = np.array(starts)
        lengths = np.array(ends) - first
        before = np.cumsum(lengths) - lengths  # kept rows ahead of each run
        return np.arange(before[-1] + lengths[-1]) + np.repeat(
            first - before, lengths
        )

    def encoded(self, name: str) -> EncodedColumn:
        """The column's partition-level dictionary encoding: sorted
        ``dictionary`` with ``dictionary[codes]`` the column's rows."""
        encoded = self._encoded.get(name)
        if encoded is None:
            dictionary, codes = np.unique(
                self.columns[name], return_inverse=True
            )
            encoded = EncodedColumn(codes.astype(np.int64), dictionary)
            self._encoded[name] = encoded
        return encoded
