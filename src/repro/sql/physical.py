"""Physical plan: what EXPLAIN prints about a logical plan's execution.

The executable plan is the logical plan's :class:`Query`: every join in
it carries its strategy and an empty plan records the planner's
verdict. Every kind is submitted to the Cubrick proxy (admission
control, cross-region retries) and executed by a region coordinator.
Four plan shapes exist, picked from the join strategies:

* ``empty`` — the WHERE clause is unsatisfiable; the result is
  synthesised (zero rows) without touching any node.
* ``fanout`` — no sharded joins: nodes answer joins from their local
  replicas.
* ``broadcast-join`` — each sharded dimension table's referenced
  columns are collected onto the coordinator and turned into
  fact-key-indexed lookup arrays, which ride down to every node scan;
  the fan-out itself is unchanged.
* ``hash-join`` — the single over-threshold sharded join: the fact
  side fans out grouped by the join key, the (filtered) dimension side
  is collected, and the coordinator presence-filters and remaps the
  pre-finalize partial states onto the final groups before one last
  merge + finalize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cubrick.coordinator import dim_columns, hash_join_sides
from repro.cubrick.query import BROADCAST, PARTITIONED_HASH, Query
from repro.sql.planner import LogicalPlan


@dataclass
class PhysicalPlan:
    """A plan's kind and EXPLAIN steps, beside the query that runs."""

    kind: str  # 'empty' | 'fanout' | 'broadcast-join' | 'hash-join'
    steps: list[str]
    query: Query


def build_physical(plan: LogicalPlan) -> PhysicalPlan:
    """Describe one logical plan's execution. Pure — nothing executes."""
    query = plan.query
    table = plan.fact_table
    partitions = plan.binding.fact.num_partitions
    if query.empty_reason:
        steps = [f"result: 0 rows synthesised ({query.empty_reason})"]
        return PhysicalPlan("empty", steps, query)
    strategies = {j.strategy for j in query.joins}
    if PARTITIONED_HASH in strategies:
        join, fact_query, pushed = hash_join_sides(query)
        steps = [
            f"collect: {join.table}.{{{', '.join(dim_columns(query, join))}}}"
            f" -> coordinator ({len(pushed)} pushed filter(s))",
            f"fan-out: {table} grouped by {fact_query.group_by[0]} "
            f"over {partitions} partitions (pre-finalize partials)",
            f"join: presence-filter fan-out groups against collected "
            f"{join.dim_key} keys, remap to final groups",
            "re-aggregate: merge remapped partial states, then finalize",
        ]
        return PhysicalPlan("hash-join", steps, query)
    merge = "merge: coordinator merges partials and finalizes"
    if BROADCAST in strategies:
        steps = [
            f"collect: {join.table}.{{{', '.join(dim_columns(query, join))}}}"
            f" -> coordinator, build {join.fact_key}-indexed lookup "
            f"arrays (broadcast)"
            for join in query.joins if join.strategy == BROADCAST
        ]
        steps.append(
            f"fan-out: {table} over {partitions} partitions "
            f"with broadcast lookups"
        )
        return PhysicalPlan("broadcast-join", steps + [merge], query)
    steps = [
        f"fan-out: {table} over {partitions} partitions "
        f"via proxy (admission control + retries)",
        merge,
    ]
    return PhysicalPlan("fanout", steps, query)
