"""Figure 4e: hot vs. cold data-block distribution over a week.

The paper plots the distribution of data blocks by hotness counter in a
production deployment over one week: a clear split between a hot head
(recently loaded, frequently queried) and a cold tail that adaptive
compression targets first.
"""

import numpy as np

from repro.cubrick.bricks import Brick
from repro.workloads.hotcold import run_hot_cold_week

from conftest import fmt_row, report

BRICKS = 5000


def compute_figure4e():
    bricks = []
    for i in range(BRICKS):
        brick = Brick(i, ("d",), ("m",))
        brick.append_columns({"d": [0], "m": [1.0]})
        bricks.append(brick)
    rng = np.random.default_rng(9)
    return run_hot_cold_week(
        bricks, rng, accesses_per_hour=500, recency_skew=1.5
    )


def test_bench_fig4e_hot_cold_distribution(benchmark):
    trace = benchmark.pedantic(compute_figure4e, rounds=1, iterations=1)

    counts, edges = trace.histogram(bins=14)
    lines = [
        f"{BRICKS} data blocks, one simulated week of Zipf-by-recency "
        "accesses with stochastic decay",
        f"hot blocks (counter >= {trace.hot_threshold}): "
        f"{trace.hot_count} ({trace.hot_fraction:.1%})",
        f"cold blocks: {trace.cold_count} ({1 - trace.hot_fraction:.1%})",
        "",
        fmt_row("log1p(hotness)", "blocks", width=18),
    ]
    for i, count in enumerate(counts):
        bar = "#" * int(60 * count / counts.max())
        lines.append(
            fmt_row(f"{edges[i]:.2f}-{edges[i + 1]:.2f}", count, width=18)
            + " " + bar
        )
    report("fig4e_hot_cold", lines)

    # Both populations exist and cold dominates (the skew the paper's
    # adaptive compression exploits).
    assert trace.hot_count > 0
    assert trace.cold_count > trace.hot_count
    # Hotness concentrates in the newest blocks.
    newest = trace.hotness[: BRICKS // 20].mean()
    oldest = trace.hotness[-BRICKS // 2:].mean()
    assert newest > 10 * max(oldest, 1e-6)
