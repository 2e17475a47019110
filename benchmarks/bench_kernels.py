"""Microbenchmarks for the grouped-aggregation scan kernels.

Three kernel families, each with a tracked before/after pair:

* ``group_day.*`` / ``group_day_entity.*`` — every aggregate function
  against the seed's naive per-group scan (``np.unique(stacked,
  axis=0)`` followed by one boolean mask per group).
* ``group_user100k.*`` — the high-cardinality (~87k groups) family.
  The naive scan is quadratic there, so the "before" is the previous
  kernel generation (raw-column key encode, ``argsort``+``reduceat``
  extremes, per-group frozenset distincts) and the "after" is this
  generation (load-time dictionary codes, ``np.minimum.at`` scatter,
  composite-key pair dedup).

Run directly for a table plus the machine-readable ledger::

    PYTHONPATH=src python benchmarks/bench_kernels.py

``--check`` runs the CI smoke instead: re-times only the kernel path of
the key cases and asserts generous throughput floors, exiting non-zero
on a regression. The full run merges its numbers into the ``"kernels"``
section of ``benchmarks/results/BENCH_engine.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
if __package__ in (None, ""):
    # Running as a script: make src/ importable like the test suite does.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cubrick.kernels import (  # noqa: E402
    EncodedColumn,
    encode_group_keys,
    group_counts,
    grouped_state_arrays,
)
from repro.cubrick.query import AggFunc  # noqa: E402

from conftest import report, report_json  # noqa: E402

#: Rows per synthetic partition scan.
ROWS = 50_000
#: Rows / key cardinality of the high-cardinality family (~87k groups).
HC_ROWS = 200_000
HC_CARDINALITY = 100_000
#: Repeat each measurement and keep the best (least-noise) run.
REPEATS = 3

#: CI smoke floors (``--check``): generous fractions of the measured
#: numbers so shared CI hardware doesn't flap the build.
CHECK_FLOORS = {
    "group_day.count_distinct": 15_000_000,
    "group_day_entity.sum": 5_000_000,
}


def make_columns(rows: int, seed: int = 7) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "day": rng.integers(64, size=rows),
        "entity": rng.integers(1024, size=rows),
        # Multiples of 1/8: exactly representable, so naive and kernel
        # sums are bit-identical regardless of summation order.
        "value": np.round(rng.exponential(10.0, size=rows) * 8.0) / 8.0,
    }


def make_hc_columns(rows: int, seed: int = 11) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "user": rng.integers(HC_CARDINALITY, size=rows),
        "value": np.round(rng.exponential(10.0, size=rows) * 8.0) / 8.0,
    }


def naive_scan(key_columns: list[np.ndarray], values: np.ndarray,
               func: AggFunc) -> dict[tuple, object]:
    """The seed's per-group loop: one boolean mask per group."""
    stacked = np.stack(key_columns, axis=1)
    unique_keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    out: dict[tuple, object] = {}
    for group_idx in range(len(unique_keys)):
        group_mask = inverse == group_idx
        key = tuple(int(v) for v in unique_keys[group_idx])
        if func is AggFunc.COUNT:
            out[key] = float(group_mask.sum())
            continue
        group_values = values[group_mask]
        if func is AggFunc.SUM:
            out[key] = float(group_values.sum())
        elif func is AggFunc.MIN:
            out[key] = float(group_values.min())
        elif func is AggFunc.MAX:
            out[key] = float(group_values.max())
        elif func is AggFunc.AVG:
            out[key] = (float(group_values.sum()), float(len(group_values)))
        else:  # COUNT_DISTINCT
            out[key] = frozenset(np.unique(group_values).tolist())
    return out


def legacy_scan(key_columns: list[np.ndarray], values: np.ndarray,
                func: AggFunc) -> dict[tuple, object]:
    """The previous kernel generation (this PR's "before" on
    high-cardinality keys, where the naive mask loop is quadratic):
    raw-column key encoding, ``argsort``+``reduceat`` extremes, and
    per-group Python frozensets for COUNT_DISTINCT."""
    group_idx, unique_keys = encode_group_keys(key_columns)
    n_groups = len(unique_keys)
    keys = [tuple(row) for row in unique_keys.tolist()]
    if func is AggFunc.COUNT:
        states = group_counts(group_idx, n_groups).tolist()
    elif func is AggFunc.SUM:
        states = np.bincount(
            group_idx, weights=values, minlength=n_groups
        ).tolist()
    elif func is AggFunc.AVG:
        sums = np.bincount(group_idx, weights=values, minlength=n_groups)
        counts = group_counts(group_idx, n_groups)
        states = list(zip(sums.tolist(), counts.tolist()))
    elif func in (AggFunc.MIN, AggFunc.MAX):
        order = np.argsort(group_idx, kind="stable")
        sorted_values = values[order]
        boundaries = np.flatnonzero(np.diff(group_idx[order])) + 1
        starts = np.concatenate(([0], boundaries))
        reduce = np.minimum if func is AggFunc.MIN else np.maximum
        states = reduce.reduceat(sorted_values, starts).tolist()
    else:  # COUNT_DISTINCT via per-group frozensets
        order = np.lexsort((values, group_idx))
        sorted_idx = group_idx[order]
        sorted_values = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
        starts = np.concatenate(([0], boundaries, [len(sorted_values)]))
        states = [
            frozenset(np.unique(
                sorted_values[starts[g]:starts[g + 1]]
            ).tolist())
            for g in range(n_groups)
        ]
    return dict(zip(keys, states))


def kernel_block(key_columns: list, values, func: AggFunc):
    """The engine's scan hot path: key encoding + one array-kernel pass.

    This is exactly what ``PartitionStorage.execute`` runs per partition
    — the output stays in array-block form (``accumulate_block``), so
    this is the timed region. ``key_columns`` entries (and ``values``
    for COUNT_DISTINCT) may be :class:`EncodedColumn` — the
    partition-dictionary fast path.
    """
    group_idx, unique_keys = encode_group_keys(key_columns)
    n_groups = len(unique_keys)
    counts = (
        group_counts(group_idx, n_groups)
        if func in (AggFunc.COUNT, AggFunc.AVG)
        else None
    )
    return unique_keys, grouped_state_arrays(
        func, group_idx, values, n_groups, counts
    )


def vectorised_scan(key_columns: list, values, func: AggFunc
                    ) -> dict[tuple, object]:
    """Kernel path materialised to a comparable dict (verification only;
    the engine never builds per-group Python states)."""
    unique_keys, state = kernel_block(key_columns, values, func)
    if func is AggFunc.AVG:
        states = list(zip(state[0].tolist(), state[1].tolist()))
    elif func is AggFunc.COUNT_DISTINCT:
        owners, distinct = state
        # owners is sorted ascending: each group's values are one run.
        bounds = np.searchsorted(owners, np.arange(len(unique_keys) + 1))
        states = [
            frozenset(distinct[start:end].tolist())
            for start, end in zip(bounds[:-1], bounds[1:])
        ]
    else:
        states = state.tolist()
    keys = [tuple(row) for row in unique_keys.tolist()]
    return dict(zip(keys, states))


def _time(fn) -> float:
    best = float("inf")
    for __ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _encode_load_time(column: np.ndarray) -> EncodedColumn:
    """Partition dictionary the storage layer builds once per scan view."""
    dictionary, codes = np.unique(column, return_inverse=True)
    return EncodedColumn(codes.astype(np.int64), dictionary)


def _case_table() -> list[tuple]:
    """(name, baseline_fn, key_columns_before, key_columns_after,
    values_before, values_after, func, rows)."""
    columns = make_columns(ROWS)
    values = columns["value"]
    # Entity (cardinality 1024) crosses the dict-encode threshold, so
    # partitions hand the scan dense codes: the "after" uses them, like
    # the real scan path does. The dictionary is built once per view.
    entity_encoded = _encode_load_time(columns["entity"])
    cases = []
    for func in AggFunc:
        cases.append((
            f"group_day.{func.value}", naive_scan,
            [columns["day"]], [columns["day"]],
            values, values, func, ROWS,
        ))
    for func in AggFunc:
        cases.append((
            f"group_day_entity.{func.value}", naive_scan,
            [columns["day"], columns["entity"]],
            [columns["day"], entity_encoded],
            values, values, func, ROWS,
        ))
    hc = make_hc_columns(HC_ROWS)
    hc_values = hc["value"]
    # Partition dictionary: built once per scan view, reused by every
    # scan — encoding cost sits outside the timed region, like in storage.
    hc_encoded = _encode_load_time(hc["user"])
    for func in (AggFunc.SUM, AggFunc.MIN, AggFunc.MAX,
                 AggFunc.COUNT_DISTINCT):
        cases.append((
            f"group_user100k.{func.value}", legacy_scan,
            [hc["user"]], [hc_encoded],
            hc_values, hc_values, func, HC_ROWS,
        ))
    return cases


def run_benchmarks(rows: int = ROWS) -> dict[str, dict[str, float]]:
    """Time baseline vs kernel scans; returns {case: before/after/...}."""
    results: dict[str, dict[str, float]] = {}
    for (name, baseline, keys_before, keys_after, vals_before,
         vals_after, func, n_rows) in _case_table():
        expected = baseline(keys_before, vals_before, func)
        actual = vectorised_scan(keys_after, vals_after, func)
        assert actual == expected, f"kernel mismatch in {name}"
        before = _time(lambda: baseline(keys_before, vals_before, func))
        after = _time(lambda: kernel_block(keys_after, vals_after, func))
        results[name] = {
            "rows": n_rows,
            "groups": len(expected),
            "baseline": "naive" if baseline is naive_scan else "pr1_kernel",
            "before_rows_per_s": round(n_rows / before),
            "after_rows_per_s": round(n_rows / after),
            "speedup": round(before / after, 2),
        }
    return results


def render(results: dict[str, dict[str, float]]) -> list[str]:
    lines = []
    for name, r in results.items():
        lines.append(
            f"{name:<32} {r['before_rows_per_s']:>13,} -> "
            f"{r['after_rows_per_s']:>13,} rows/s  ({r['speedup']:.1f}x "
            f"vs {r.get('baseline', 'naive')}, {r['groups']} groups)"
        )
    return lines


def run_check() -> int:
    """CI smoke: assert kernel-path throughput floors; 0 = pass."""
    failures = []
    cases = {c[0]: c for c in _case_table()}
    for case, floor in CHECK_FLOORS.items():
        (__, __, __, keys_after, __, vals_after, func, n_rows) = cases[case]
        elapsed = _time(lambda: kernel_block(keys_after, vals_after, func))
        rate = n_rows / elapsed
        status = "ok" if rate >= floor else "FAIL"
        print(f"[{status}] {case}: {rate:,.0f} rows/s (floor {floor:,})")
        if rate < floor:
            failures.append(case)
    if failures:
        print(f"kernel throughput below floor: {failures}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    if "--check" in sys.argv[1:]:
        raise SystemExit(run_check())
    results = run_benchmarks()
    report("engine_kernels", render(results))
    report_json("kernels", results)


if __name__ == "__main__":
    main()
