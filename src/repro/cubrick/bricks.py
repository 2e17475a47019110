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
directly (no ``.tolist()`` round-trip), ``columns()`` concatenates the
chunks once and caches the result (collapsing the chunk list so repeated
reads never re-concatenate), and decompression materialises arrays
straight from the zlib blobs without rebuilding Python list builders.

Compression here is *real*: column arrays are serialised and
zlib-compressed, so compressed footprints and the compression ratio come
from actual data, not a constant.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

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
    #: Columns with a live per-brick dictionary, and their total entries.
    encoded_columns: int = 0
    dictionary_entries: int = 0


@dataclass
class _EncodedCache:
    """A column's per-brick dictionary encoding, plus coverage row count.

    ``rows`` records how many rows the codes cover; appends don't
    invalidate the cache — the next :meth:`Brick.encoded` read extends
    it incrementally (union the tail's values into the dictionary, remap
    the old codes only when the dictionary actually grew)."""

    codes: np.ndarray
    dictionary: np.ndarray
    rows: int


class Brick:
    """One data block: columnar chunk storage for a bucket of rows.

    Appends store sealed numpy chunks; ``columns()`` concatenates once
    and caches. Compression pickles the arrays through zlib. A compressed
    brick transparently decompresses on access (and the access bumps its
    hotness, so the memory monitor will tend to keep it decompressed).
    """

    def __init__(self, brick_id: int, dimension_names: tuple[str, ...],
                 metric_names: tuple[str, ...],
                 encoded_dimensions: tuple[str, ...] = ()):
        self.brick_id = brick_id
        self.dimension_names = dimension_names
        self.metric_names = metric_names
        #: Dimensions that carry a per-brick dictionary (high-cardinality
        #: entity columns — see ``TableSchema.encoded_dimension_names``).
        self.encoded_dimensions = tuple(encoded_dimensions)
        self._encoded: dict[str, _EncodedCache] = {}
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

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    def touch(self) -> None:
        """A query needed this brick: bump its hotness counter."""
        self.hotness += 1.0
        self._touched_since_decay = True

    def columns(self) -> dict[str, np.ndarray]:
        """The sealed columnar arrays (loading/decompressing if needed).

        Chunks are concatenated at most once: the chunk list collapses to
        the concatenated array, so repeated reads (and reads after a
        collapse) are zero-copy until the next append.
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

    def encoded(self, name: str) -> EncodedColumn:
        """The column's per-brick dictionary encoding (built lazily).

        Returns ``EncodedColumn(codes, dictionary)`` with ``dictionary``
        sorted ascending and ``dictionary[codes]`` reconstructing the
        raw column. The first read after a load pays one ``np.unique``;
        subsequent appends extend the cache incrementally: the appended
        tail's values union into the dictionary, and the old codes remap
        only when the dictionary actually grew. Compression and SSD
        eviction drop the cache (it's memory the monitor wants back) —
        the next scan after decompression rebuilds it.
        """
        values = self.columns()[name]
        cached = self._encoded.get(name)
        if cached is not None and cached.rows == len(values):
            return EncodedColumn(cached.codes, cached.dictionary)
        if cached is None or cached.rows > len(values):
            dictionary, codes = np.unique(values, return_inverse=True)
            codes = codes.astype(np.int64)
        else:
            tail = values[cached.rows:]
            old_dict = cached.dictionary
            new_dict = np.union1d(old_dict, tail)
            tail_codes = np.searchsorted(new_dict, tail)
            if len(new_dict) == len(old_dict):
                dictionary = old_dict
                codes = np.concatenate([cached.codes, tail_codes])
            else:
                remap = np.searchsorted(new_dict, old_dict)
                dictionary = new_dict
                codes = np.concatenate(
                    [remap[cached.codes], tail_codes]
                )
        self._encoded[name] = _EncodedCache(codes, dictionary, len(values))
        return EncodedColumn(codes, dictionary)

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
        self._encoded = {}

    def _decompress(self) -> None:
        assert self._compressed is not None
        arrays: dict[str, np.ndarray] = {}
        for name in self._column_names:
            raw = zlib.decompress(self._compressed[name])
            # frombuffer views the decompressed bytes — no second copy,
            # and no Python-list rebuild (the old path doubled memory).
            arrays[name] = np.frombuffer(raw, dtype=self._dtype_of(name))
        self._compressed = None
        self._arrays = arrays
        self._chunks = {name: [arr] for name, arr in arrays.items()}

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
            encoded_columns=len(self._encoded),
            dictionary_entries=sum(
                len(c.dictionary) for c in self._encoded.values()
            ),
        )
