"""Ablation (§II-C): the two ways past the wall.

The paper names two strategies once a system hits the scalability wall:
(a) trade accuracy for scale — accept partial results from whichever
hosts answer in time (Scuba's model), or (b) partial sharding — bound
the fan-out and keep results exact. This bench measures the trade on
the same failing cluster:

* strict full sharding — fails queries whenever any host is down;
* Scuba-mode full sharding — always answers, but with incomplete
  results and silently wrong aggregates;
* partial sharding (strict) — bounded fan-out keeps both success ratio
  and correctness.
"""

import numpy as np

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.core.fanout import ShardingMode
from repro.errors import QueryFailedError
from repro.workloads.fanout_experiment import probe_schema
from repro.workloads.queries import simple_probe_query

from conftest import fmt_row, report

ROWS = 640
TRIALS = 400
FAILURE_P = 0.004  # exaggerated per-visit failure so effects show


def run_mode(mode: ShardingMode, allow_partial: bool):
    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=91, regions=1, racks_per_region=4, hosts_per_rack=8,
            mode=mode, query_failure_probability=FAILURE_P,
        )
    )
    schema = probe_schema("wall")
    deployment.create_table(schema)
    rng = np.random.default_rng(92)
    deployment.load(
        "wall",
        [{"bucket": int(rng.integers(64)), "value": 1.0} for __ in range(ROWS)],
    )
    deployment.simulator.run_until(30.0)
    probe = simple_probe_query(schema)

    succeeded = 0
    exact = 0
    coverage_sum = 0.0
    for __ in range(TRIALS):
        try:
            result = deployment.proxy.submit(
                probe, allow_partial=allow_partial
            )
        except QueryFailedError:
            continue
        succeeded += 1
        coverage_sum += result.metadata["coverage"]
        count = result.scalar() if result.rows else 0.0
        if count == ROWS:
            exact += 1
    return {
        "success": succeeded / TRIALS,
        "exact": exact / TRIALS,
        "coverage": coverage_sum / succeeded if succeeded else 0.0,
        "fanout": deployment.table_fanout("wall"),
    }


def compute_ablation():
    return {
        "full + strict": run_mode(ShardingMode.FULL, allow_partial=False),
        "full + scuba": run_mode(ShardingMode.FULL, allow_partial=True),
        "partial + strict": run_mode(ShardingMode.PARTIAL, allow_partial=False),
    }


def test_bench_ablation_scuba_vs_partial_sharding(benchmark):
    results = benchmark.pedantic(compute_ablation, rounds=1, iterations=1)

    lines = [
        f"32-host region, p(visit failure)={FAILURE_P:.1%}, {TRIALS} queries, "
        "no cross-region retry",
        fmt_row("strategy", "fanout", "answered", "exact", "avg coverage",
                width=18),
    ]
    for name, stats in results.items():
        lines.append(
            fmt_row(
                name,
                stats["fanout"],
                f"{stats['success']:.1%}",
                f"{stats['exact']:.1%}",
                f"{stats['coverage']:.3f}",
                width=18,
            )
        )
    lines.append("")
    lines.append("scuba-mode answers everything but silently drops data; "
                 "partial sharding keeps answers exact at high success")
    report("ablation_scuba_mode", lines)

    full_strict = results["full + strict"]
    full_scuba = results["full + scuba"]
    partial = results["partial + strict"]
    # Scuba mode never fails a query outright...
    assert full_scuba["success"] == 1.0
    # ... but pays with inexact answers.
    assert full_scuba["exact"] < 1.0
    assert full_scuba["coverage"] < 1.0
    # Strict full sharding fails queries at this fan-out.
    assert full_strict["success"] < full_scuba["success"]
    assert full_strict["exact"] == full_strict["success"]
    # Partial sharding: bounded fan-out, exact answers, better success
    # than strict full sharding.
    assert partial["fanout"] < full_strict["fanout"]
    assert partial["success"] > full_strict["success"]
    assert partial["exact"] == partial["success"]
