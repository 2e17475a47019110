"""Query-engine micro-benchmarks: scan/aggregate throughput.

Not a paper figure — operational numbers for the reproduction itself:
rows/second for the columnar engine's main code paths, and the benefit
of Granular Partitioning's brick pruning on filtered queries.
"""

import numpy as np
import pytest

import bench_kernels
from repro.cubrick.query import AggFunc, Aggregation, Filter, Query
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.storage import PartitionStorage

from conftest import report, report_json, report_json_entry

ROWS = 100_000

#: Seed-era group-by throughput (benchmarks/results/engine_group_by.txt
#: before the vectorised kernels landed) — the baseline the kernel
#: rewrite is measured against.
SEED_GROUP_BY_ROWS_PER_S = 1_942_262

SCHEMA = TableSchema.build(
    "bench",
    dimensions=[
        Dimension("day", 64, range_size=8),
        Dimension("entity", 1024, range_size=128),
    ],
    metrics=[Metric("value")],
)


@pytest.fixture(scope="module")
def storage():
    part = PartitionStorage(SCHEMA, 0)
    rng = np.random.default_rng(81)
    part.insert_columns({
        "day": rng.integers(64, size=ROWS),
        "entity": rng.integers(1024, size=ROWS),
        "value": rng.exponential(10.0, size=ROWS),
    })
    return part


def test_bench_full_scan_sum(benchmark, storage):
    query = Query.build("bench", [Aggregation(AggFunc.SUM, "value")])
    result = benchmark(lambda: storage.execute(query).finalize())
    rate = ROWS / benchmark.stats["mean"]
    report("engine_full_scan", [f"full-scan SUM: {rate:,.0f} rows/s"])
    report_json_entry("engine", "full_scan_sum", {"rows_per_s": round(rate)})
    assert result.scalar() > 0


def test_bench_group_by(benchmark, storage):
    query = Query.build(
        "bench", [Aggregation(AggFunc.SUM, "value")], group_by=["day"]
    )
    result = benchmark(lambda: storage.execute(query).finalize())
    rate = ROWS / benchmark.stats["mean"]
    report("engine_group_by", [f"GROUP BY day SUM: {rate:,.0f} rows/s"])
    report_json_entry(
        "engine",
        "group_by_day_sum",
        {
            "rows_per_s": round(rate),
            "seed_rows_per_s": SEED_GROUP_BY_ROWS_PER_S,
            "speedup_vs_seed": round(rate / SEED_GROUP_BY_ROWS_PER_S, 2),
        },
    )
    assert len(result.rows) == 64


def test_bench_ingestion_row_path(benchmark):
    rng = np.random.default_rng(82)
    rows = [
        {"day": int(rng.integers(64)), "entity": int(rng.integers(1024)),
         "value": float(rng.random())}
        for __ in range(5_000)
    ]

    def load():
        part = PartitionStorage(SCHEMA, 0)
        part.insert_many(rows)
        return part

    part = benchmark(load)
    rate = len(rows) / benchmark.stats["mean"]
    report("engine_ingest_rows", [f"row dicts (insert_many): {rate:,.0f} rows/s"])
    assert part.rows == len(rows)


def test_bench_ingestion_columnar_path(benchmark):
    rng = np.random.default_rng(83)
    n = 200_000
    columns = {
        "day": rng.integers(64, size=n),
        "entity": rng.integers(1024, size=n),
        "value": rng.random(size=n),
    }

    def load():
        part = PartitionStorage(SCHEMA, 0)
        part.insert_columns(columns)
        return part

    part = benchmark(load)
    rate = n / benchmark.stats["mean"]
    report(
        "engine_ingest_columns",
        [f"vectorised bulk load: {rate:,.0f} rows/s"],
    )
    assert part.rows == n


def test_bench_pruned_filter(benchmark, storage):
    """Granular Partitioning prunes ~7/8 of the bricks for a one-bucket
    day filter; the pruned scan must touch far fewer rows."""
    query = Query.build(
        "bench",
        [Aggregation(AggFunc.COUNT, "value")],
        filters=[Filter.between("day", 0, 7)],  # exactly one day-bucket
    )
    partial = benchmark(lambda: storage.execute(query))
    fraction = partial.rows_scanned / ROWS
    report(
        "engine_pruning",
        [
            f"one-bucket filter scans {fraction:.1%} of rows "
            f"({partial.bricks_scanned} bricks)",
        ],
    )
    assert fraction < 0.2


def test_bench_kernel_before_after(benchmark):
    """Before/after for each grouped-aggregation kernel vs the seed's
    per-group masking loop; persists the ``"kernels"`` section of
    BENCH_engine.json. run_benchmarks does its own best-of timing, so a
    single pedantic round suffices."""
    results = benchmark.pedantic(
        bench_kernels.run_benchmarks, iterations=1, rounds=1
    )
    report("engine_kernels", bench_kernels.render(results))
    report_json("kernels", results)
    assert results["group_day.sum"]["speedup"] >= 5.0
    assert all(r["speedup"] > 1.0 for r in results.values())
