"""Vectorised grouped-aggregation kernels for the partition scan.

The scan hot path (``PartitionStorage.execute`` over the partition's
scan view) calls each of these kernels once per aggregate and partition
instead of running a per-group Python loop:

* Composite group keys are encoded into a single int64 code per row
  (mixed-radix over the per-column value dictionaries). Dimensions
  dictionary-encoded by the partition (:class:`EncodedColumn`) contribute
  their pre-computed dense codes directly — no per-scan sort at all.
* The dense group index is recovered from the codes by *dense bincount
  compaction* when the code space is small enough (one O(n + space)
  counting pass), falling back to a sort-partitioned ``np.unique`` for
  huge code spaces.
* SUM/COUNT/AVG are single ``np.bincount`` passes over the dense group
  index (COUNT without weights, SUM with the metric as weights, AVG as
  the (sum, count) state pair).
* MIN/MAX are unbuffered scatter kernels (``np.minimum.at`` /
  ``np.maximum.at`` into a ±inf-initialised accumulator) — no sort, no
  reduceat, O(n) regardless of group count.
* COUNT_DISTINCT produces compact *(group, value)* pair arrays: values
  are dictionary-coded (integers directly, floats via one
  ``np.unique``), combined with the group index into composite codes and
  deduplicated by one sort. The pair arrays are
  the merge-friendly partial state that crosses node → coordinator.
* Raw non-negative integer key columns whose ``max + 1`` is a dense code
  space are their own codes (dictionary ``arange(max + 1)``), so neither
  a partition group-by nor the coordinator's key consolidation sorts keys
  that are already small integers.

Grouped SUM kernels accumulate in row order (``bincount`` adds weights
sequentially), exactly like a row-at-a-time reference aggregator. On
exactly-representable inputs every summation order yields identical
bits, which is what ``tests/test_kernels_differential.py`` pins against
a pure-Python reference aggregator.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.cubrick.query import AggFunc
from repro.errors import QueryError

#: Largest mixed-radix code space before int64 encoding could overflow;
#: beyond it the encoder falls back to row-wise unique (axis=0).
_MAX_CODE_SPACE = float(2**62)


class EncodedColumn(NamedTuple):
    """A dictionary-encoded group-key column.

    ``codes[i]`` indexes into ``dictionary`` (sorted ascending), so
    ``dictionary[codes]`` reconstructs the raw values. A partition's scan
    view carries one dictionary per encoded dimension; the scan hands the
    codes straight to :func:`encode_group_keys`, skipping the per-scan
    ``np.unique`` sort a raw column would need.
    """

    codes: np.ndarray
    dictionary: np.ndarray


GroupColumn = Union[np.ndarray, EncodedColumn]


def _dense_ok(space: int, n: int) -> bool:
    """Whether a code space is small enough for bincount compaction.

    A counting pass allocates ``space`` int64 slots; we allow it while
    that stays within a small multiple of the row count (or a 64Ki
    floor, where the allocation is trivially cheap).
    """
    return space <= max(4 * n, 1 << 16)


def compact_codes(
    codes: np.ndarray, space: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense group index from composite codes.

    Returns ``(group_idx, unique_codes)`` with ``unique_codes`` sorted
    ascending — the radix/sort-partitioned step of the group-by: a dense
    O(n + space) bincount pass when the code space is small, a
    sort-partitioned ``np.unique`` above that threshold.
    """
    n = len(codes)
    if n == 0:
        return codes.astype(np.int64), np.empty(0, dtype=np.int64)
    if _dense_ok(space, n):
        counts = np.bincount(codes, minlength=space)
        unique_codes = np.flatnonzero(counts)
        lookup = np.zeros(space, dtype=np.int64)
        lookup[unique_codes] = np.arange(len(unique_codes))
        return lookup[codes], unique_codes
    unique_codes, group_idx = np.unique(codes, return_inverse=True)
    return group_idx, unique_codes


def _own_code_space(array: np.ndarray) -> int | None:
    """``max + 1`` when a raw column can serve as its own codes.

    Non-negative integers index a dictionary ``arange(max + 1)``
    directly, so they need no ``np.unique`` sort; the caller decides
    whether that code space is small enough to use.
    """
    if array.dtype.kind in "iu" and array.size and int(array.min()) >= 0:
        return int(array.max()) + 1
    return None


def _column_codes(column: GroupColumn) -> tuple[np.ndarray, np.ndarray]:
    """(codes, dictionary) for one group-key column.

    Encoded columns pass their load-time codes through unchanged. A raw
    non-negative integer column whose ``max + 1`` is a dense code space
    is its own code over ``arange(max + 1)``; any other raw column pays
    one ``np.unique`` here. Both dictionaries are sorted, so the group
    order stays lexicographic.
    """
    if isinstance(column, EncodedColumn):
        return np.asarray(column.codes), np.asarray(column.dictionary)
    array = np.asarray(column)
    space = _own_code_space(array)
    if space is not None and _dense_ok(space, len(array)):
        return array, np.arange(space, dtype=np.int64)
    uniques, inverse = np.unique(array, return_inverse=True)
    return inverse, uniques.astype(np.int64)


def encode_group_keys(
    key_columns: Sequence[GroupColumn],
) -> tuple[np.ndarray, np.ndarray]:
    """Encode composite group keys into a dense group index per row.

    Returns ``(group_idx, unique_keys)``: ``group_idx[i]`` is the dense
    index (``0..n_groups-1``) of row ``i``'s group, and ``unique_keys``
    is an ``(n_groups, n_cols)`` int64 array of the distinct key tuples
    in lexicographic order — the same ordering
    ``np.unique(stacked, axis=0)`` would produce, at a fraction of the
    cost for multi-column keys.
    """
    if not key_columns:
        raise QueryError("encode_group_keys needs at least one key column")
    per_column = [_column_codes(column) for column in key_columns]
    if len(per_column) == 1:
        codes, dictionary = per_column[0]
        group_idx, unique_codes = compact_codes(codes, len(dictionary))
        return group_idx, dictionary[unique_codes].astype(np.int64).reshape(-1, 1)

    code_space = 1.0
    for __, dictionary in per_column:
        code_space *= max(len(dictionary), 1)
    if code_space > _MAX_CODE_SPACE:
        # Pathological cardinality product: encode by row instead.
        stacked = np.stack(
            [
                col.dictionary[col.codes]
                if isinstance(col, EncodedColumn)
                else np.asarray(col)
                for col in key_columns
            ],
            axis=1,
        )
        unique_rows, group_idx = np.unique(
            stacked, axis=0, return_inverse=True
        )
        return group_idx, unique_rows.astype(np.int64)

    codes = np.zeros(len(per_column[0][0]), dtype=np.int64)
    for column_codes, dictionary in per_column:
        codes = codes * len(dictionary) + column_codes
    group_idx, unique_codes = compact_codes(codes, int(code_space))

    # Decode the surviving codes back into key tuples (mixed radix).
    unique_keys = np.empty(
        (len(unique_codes), len(key_columns)), dtype=np.int64
    )
    remainder = unique_codes
    for j in range(len(per_column) - 1, -1, -1):
        dictionary = per_column[j][1]
        unique_keys[:, j] = dictionary[remainder % len(dictionary)]
        remainder = remainder // len(dictionary)
    return group_idx, unique_keys


def group_counts(group_idx: np.ndarray, n_groups: int) -> np.ndarray:
    """Row count per group (float64, matching the COUNT state type)."""
    return np.bincount(group_idx, minlength=n_groups).astype(np.float64)


def group_sums(
    group_idx: np.ndarray, values: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group sums; ``bincount`` adds in row order (sequential IEEE
    addition), so sums match a row-at-a-time accumulator bit-for-bit."""
    return np.bincount(group_idx, weights=values, minlength=n_groups)


def group_mins(
    group_idx: np.ndarray, values: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group minimum via one ``np.minimum.at`` scatter pass."""
    out = np.full(n_groups, np.inf)
    np.minimum.at(out, group_idx, values)
    return out


def group_maxs(
    group_idx: np.ndarray, values: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group maximum via one ``np.maximum.at`` scatter pass."""
    out = np.full(n_groups, -np.inf)
    np.maximum.at(out, group_idx, values)
    return out


def group_distinct_pairs(
    group_idx: np.ndarray, values: GroupColumn, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated ``(group, value)`` pairs — the COUNT_DISTINCT state.

    Returns ``(owners, distinct_values)`` sorted by (group, value):
    ``distinct_values[k]`` is one distinct value of group ``owners[k]``.
    Values are dictionary-coded first (encoded/integer columns use their
    codes directly, floats pay one ``np.unique``), then the composite
    ``group * n_values + value_code`` codes are deduplicated by one sort
    (cheaper than ``np.unique``, and than a counting pass over the
    usually sparse pair space) — no per-group Python objects anywhere.
    """
    if isinstance(values, EncodedColumn):
        value_codes, dictionary = (
            np.asarray(values.codes),
            np.asarray(values.dictionary),
        )
        n_values = len(dictionary)
    else:
        array = np.asarray(values)
        space = _own_code_space(array)
        if space is not None and float(n_groups) * space <= _MAX_CODE_SPACE:
            # Non-negative integers that fit the composite code space
            # are their own codes — skip the dictionary sort entirely.
            value_codes, dictionary, n_values = array, None, space
        else:
            dictionary, value_codes = np.unique(array, return_inverse=True)
            n_values = len(dictionary)
    if value_codes.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    if float(n_groups) * max(n_values, 1) > _MAX_CODE_SPACE:
        # Composite code would overflow int64: lexsort the pairs instead.
        raw = dictionary[value_codes] if dictionary is not None else value_codes
        order = np.lexsort((raw, group_idx))
        sorted_idx = group_idx[order]
        sorted_values = raw[order]
        keep = np.r_[
            True,
            (sorted_idx[1:] != sorted_idx[:-1])
            | (sorted_values[1:] != sorted_values[:-1]),
        ]
        return sorted_idx[keep], sorted_values[keep]
    codes = np.sort(group_idx * n_values + value_codes)
    unique_codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    owners = unique_codes // n_values
    value_part = unique_codes % n_values
    distinct = (
        dictionary[value_part] if dictionary is not None else value_part
    )
    return owners, distinct


def grouped_state_arrays(
    func: AggFunc,
    group_idx: np.ndarray,
    values: GroupColumn | None,
    n_groups: int,
    counts: np.ndarray | None = None,
):
    """Array-form per-group states for one aggregate (one partition scan).

    ``counts`` is the precomputed :func:`group_counts` output (shared by
    COUNT and AVG — pass it when either appears in the query); ``values``
    is the masked metric column (``None`` for COUNT). The return value
    is the block-state form consumed by
    :meth:`repro.cubrick.query.PartialResult.accumulate_block`:

    * SUM/COUNT/MIN/MAX → float64 array of length ``n_groups``
    * AVG → ``(sums, counts)`` array pair
    * COUNT_DISTINCT → ``(owners, values)`` pair arrays
    """
    if func is AggFunc.COUNT or func is AggFunc.AVG:
        if counts is None:
            counts = group_counts(group_idx, n_groups)
        if func is AggFunc.COUNT:
            return counts
    if values is None:
        raise QueryError(f"aggregate {func} needs a value column")
    if func is AggFunc.COUNT_DISTINCT:
        return group_distinct_pairs(group_idx, values, n_groups)
    if isinstance(values, EncodedColumn):
        values = values.dictionary[values.codes]
    if func is AggFunc.SUM:
        return group_sums(group_idx, values, n_groups)
    if func is AggFunc.MIN:
        return group_mins(group_idx, values, n_groups)
    if func is AggFunc.MAX:
        return group_maxs(group_idx, values, n_groups)
    if func is AggFunc.AVG:
        return (group_sums(group_idx, values, n_groups), counts)
    raise QueryError(f"unsupported aggregate: {func}")


def scalar_state(func: AggFunc, values: GroupColumn | None, matched: int):
    """Block-form state of one ungrouped aggregate (``matched`` > 0).

    The same forms as :func:`grouped_state_arrays` for a single group.
    Uses numpy's standard reductions: for the single-group case a
    pairwise SIMD sum beats routing through :func:`group_sums`' one-bin
    bincount by ~5x.
    """
    if func is AggFunc.COUNT:
        return np.array([float(matched)])
    if isinstance(values, EncodedColumn):
        if func is AggFunc.COUNT_DISTINCT:
            # Distinct codes = distinct values; the dictionary is sorted,
            # so indexing with the sorted unique codes stays sorted.
            distinct = values.dictionary[np.unique(values.codes)]
            return np.zeros(len(distinct), dtype=np.int64), distinct
        values = values.dictionary[values.codes]
    if func is AggFunc.SUM:
        return np.array([values.sum()], dtype=np.float64)
    if func is AggFunc.MIN:
        return np.array([values.min()], dtype=np.float64)
    if func is AggFunc.MAX:
        return np.array([values.max()], dtype=np.float64)
    if func is AggFunc.AVG:
        return (
            np.array([values.sum()], dtype=np.float64),
            np.array([float(matched)]),
        )
    if func is AggFunc.COUNT_DISTINCT:
        distinct = np.unique(values)
        return np.zeros(len(distinct), dtype=np.int64), distinct
    raise QueryError(f"unsupported aggregate: {func}")
