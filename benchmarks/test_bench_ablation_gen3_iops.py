"""Ablation (§IV-F3): the generation-3 open problem and the IOPS fix.

With SSD eviction, two hosts can have identical SSD footprints while one
of them pays IOs on every query (its *working set* does not fit in
memory). The plain SSD metric cannot see the difference; the paper's
proposed refinement — adding a smoothed IOPS component — makes the
IO-hot shard look bigger so the balancer can react.
"""

import numpy as np

from repro.cubrick.compression import MemoryBudget
from repro.cubrick.loadbalance import IopsAwareExporter, SsdExporter
from repro.cubrick.node import CubrickNode
from repro.cubrick.query import AggFunc, Aggregation, Query
from repro.cubrick.schema import Catalog, Dimension, Metric, TableSchema
from repro.cubrick.sharding import MonotonicHashMapper, ShardDirectory

from conftest import fmt_row, report

ROWS = 1500
QUERY_ROUNDS = 10


def build_node(name: str, memory_capacity: int) -> tuple[CubrickNode, int]:
    catalog = Catalog()
    schema = TableSchema.build(
        f"{name}_tbl",
        dimensions=[Dimension("k", 64, range_size=8)],
        metrics=[Metric("v")],
    )
    catalog.create(schema, num_partitions=1)
    directory = ShardDirectory(MonotonicHashMapper(max_shards=10_000))
    shards = directory.register_table(schema.name, 1)
    node = CubrickNode(
        name, catalog, directory,
        memory_budget=MemoryBudget(capacity_bytes=memory_capacity),
        allow_ssd_eviction=True,
    )
    node.add_shard(shards[0], None)
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    node.partition(schema.name, 0).insert_columns(schema.columns_of_rows(
        [{"k": int(rng.integers(64)), "v": float(rng.random())}
         for __ in range(ROWS)],
    ))
    return node, shards[0]


def compute_ablation():
    # Same data on both; only the memory budget differs: "roomy" keeps
    # the working set resident, "starved" evicts and pays IOs per query.
    roomy, roomy_shard = build_node("roomy", 10 ** 9)
    starved, starved_shard = build_node("starved", 1024)

    ssd = SsdExporter()
    iops_roomy = IopsAwareExporter(io_cost_bytes=4096.0)
    iops_starved = IopsAwareExporter(io_cost_bytes=4096.0)

    for node in (roomy, starved):
        query = Query.build(
            node.catalog.table_names()[0],
            [Aggregation(AggFunc.COUNT, "v")],
        )
        for __ in range(QUERY_ROUNDS):
            node.run_memory_monitor()  # starved: (re-)evicts each round
            node.execute_local(query, [0])

    return {
        "roomy": {
            "ssd_metric": ssd.shard_size(roomy, roomy_shard),
            "iops_metric": iops_roomy.shard_size(roomy, roomy_shard),
            "io_reads": roomy.total_io_reads(),
        },
        "starved": {
            "ssd_metric": ssd.shard_size(starved, starved_shard),
            "iops_metric": iops_starved.shard_size(starved, starved_shard),
            "io_reads": starved.total_io_reads(),
        },
    }


def test_bench_ablation_gen3_iops_metric(benchmark):
    results = benchmark.pedantic(compute_ablation, rounds=1, iterations=1)

    lines = [
        f"identical {ROWS}-row shards; one host's working set fits in "
        "memory, the other's does not",
        fmt_row("host", "SSD metric", "IOPS-aware", "IO reads", width=16),
    ]
    for name, stats in results.items():
        lines.append(
            fmt_row(
                name,
                f"{stats['ssd_metric']:.0f}",
                f"{stats['iops_metric']:.0f}",
                stats["io_reads"],
                width=16,
            )
        )
    lines.append("")
    lines.append("the plain gen-3 metric is blind to the working-set "
                 "difference; the IOPS-aware metric separates the hosts")
    report("ablation_gen3_iops", lines)

    roomy, starved = results["roomy"], results["starved"]
    # The open problem: the plain SSD metric sees identical shards.
    assert roomy["ssd_metric"] == starved["ssd_metric"]
    # But the IO behaviour is wildly different...
    assert starved["io_reads"] > 5 * max(roomy["io_reads"], 1)
    # ... and the IOPS-aware metric exposes it.
    assert starved["iops_metric"] > 1.5 * roomy["iops_metric"]
