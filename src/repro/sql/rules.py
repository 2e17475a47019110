"""Ordered rewrite-rule pipeline over the logical plan.

Each rule mutates the :class:`~repro.sql.planner.LogicalPlan` in place
and records human-readable notes; the ordered (rule, notes) trace is the
"rewrite rules" section of EXPLAIN output. Rules marked ``always`` run
even with the optimizer off — they are required for a correct
executable plan (predicate lowering, an executable join strategy); the
rest are genuinely optimizations (pushdown, pruning, placement
annotations).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.cubrick.query import Filter, FilterOp, kernel_family
from repro.sql import planner as planner_mod

if TYPE_CHECKING:
    from repro.sql.planner import LogicalPlan


def apply_pipeline(plan: "LogicalPlan") -> None:
    """Run every applicable rule, in order, recording the trace."""
    for rule in PIPELINE:
        if not rule.always and not plan.context.optimize:
            continue
        notes = rule.apply(plan)
        plan.trace.append((rule.name, notes or ["unchanged"]))


class NormalizePredicates:
    """Lower the WHERE tree onto the engine's conjunctive filter set.

    Simple AND-of-positive predicates map verbatim (preserving value
    order); everything else goes through per-column interval algebra
    over the dimension domains — OR within a column unions ranges, NOT
    complements, conjunctions intersect. Also injects the inner-join
    membership filter for joins with no other dotted reference, so SQL
    join semantics (drop unmatched keys) hold on every path.
    """

    name = "normalize-predicates"
    always = True

    def apply(self, plan: "LogicalPlan") -> list[str]:
        notes: list[str] = []
        where = plan.statement.where
        filters: list[Filter] = []
        if where is not None:
            literals = planner_mod.literal_conjuncts(plan, where)
            if literals is not None:
                filters = planner_mod.filters_from_literals(literals)
                notes.append(
                    f"{len(filters)} conjunctive predicate(s) mapped "
                    f"verbatim"
                )
            else:
                compiler = planner_mod.PredicateCompiler(plan)
                sets = compiler.column_sets(where)
                filters, emit_notes = planner_mod.emit_filters(
                    plan, sets, compiler.order
                )
                notes.extend(emit_notes)
        plan.filters = tuple(filters)
        notes.extend(self._inject_membership(plan))
        return notes

    @staticmethod
    def _inject_membership(plan: "LogicalPlan") -> list[str]:
        notes = []
        for join in plan.joins:
            if plan.dotted_references(join.table):
                continue
            info = plan.binding.join_infos[join.table]
            cardinality = info.schema.dimension(join.dim_key).cardinality
            membership = Filter.between(
                f"{join.table}.{join.dim_key}", 0, cardinality - 1
            )
            plan.filters = plan.filters + (membership,)
            notes.append(
                f"{join.table}: injected membership filter on "
                f"{join.dim_key} (inner-join semantics)"
            )
        return notes


class JoinStrategySelection:
    """Pick an executable strategy per joined table.

    Replicated tables always join locally on every node. Sharded tables
    broadcast their (filtered) columns to the coordinator unless the
    optimizer sees statistics putting them over the broadcast threshold,
    in which case the single sharded join runs partitioned-hash: the
    fact side fans out grouped by the join key and the coordinator
    joins pre-finalize partials. With two or more sharded joins the
    hash path's single-key regrouping does not apply, so all of them
    broadcast. Each join of the plan carries its strategy
    (``Join.strategy``) from here on.
    """

    name = "join-strategy"
    always = True

    def apply(self, plan: "LogicalPlan") -> list[str]:
        notes = []
        sharded = plan.sharded_join_tables()
        for join in plan.joins:
            table = join.table
            info = plan.binding.join_infos[table]
            if info.replicated:
                plan.join_strategies[table] = "replicated-local"
                notes.append(f"{table}: replicated-local (node replicas)")
                continue
            if not plan.context.optimize:
                plan.join_strategies[table] = "broadcast"
                notes.append(
                    f"{table}: broadcast (optimizer off: default)"
                )
                continue
            if len(sharded) > 1:
                plan.join_strategies[table] = "broadcast"
                notes.append(
                    f"{table}: broadcast (forced: {len(sharded)} sharded "
                    f"joins)"
                )
                continue
            rows = None
            if plan.context.stats is not None:
                rows = plan.context.stats(table)
            if rows is None:
                plan.join_strategies[table] = "broadcast"
                notes.append(f"{table}: broadcast (no statistics)")
            elif rows <= plan.context.broadcast_threshold:
                plan.join_strategies[table] = "broadcast"
                notes.append(
                    f"{table}: broadcast ({rows} rows <= "
                    f"{plan.context.broadcast_threshold} threshold)"
                )
            else:
                plan.join_strategies[table] = "partitioned-hash"
                notes.append(
                    f"{table}: partitioned-hash ({rows} rows > "
                    f"{plan.context.broadcast_threshold} threshold)"
                )
        plan.joins = tuple(
            replace(j, strategy=plan.join_strategies[j.table])
            for j in plan.joins
        )
        return notes


class PredicatePushdown:
    """Push dimension-side predicates below the join where possible.

    Partitioned-hash joins *must* apply a sharded dimension's filters at
    its collection scan (the coordinator join only sees collected rows);
    broadcast joins deliberately keep them at the fact scan, where the
    lookup arrays evaluate them per fact row. Fact-side filters always
    execute at the node scan — below the fan-out — which this rule
    records for the EXPLAIN trace.
    """

    name = "predicate-pushdown"
    always = False

    def apply(self, plan: "LogicalPlan") -> list[str]:
        notes = []
        fact_filters = [
            f for f in plan.filters if "." not in f.dimension
        ]
        if fact_filters:
            notes.append(
                f"fact: {len(fact_filters)} filter(s) pushed below "
                f"fan-out (node scans)"
            )
        for join in plan.joins:
            table = join.table
            prefix = f"{table}."
            dotted = [
                f for f in plan.filters if f.dimension.startswith(prefix)
            ]
            if not dotted:
                continue
            strategy = plan.join_strategies.get(table)
            if strategy == "partitioned-hash":
                pushed = tuple(
                    Filter(
                        dimension=f.dimension[len(prefix):],
                        op=f.op,
                        values=f.values,
                    )
                    for f in dotted
                )
                plan.dim_filters[table] = pushed
                notes.append(
                    f"{table}: {len(pushed)} filter(s) pushed into the "
                    f"dimension collection scan"
                )
            else:
                notes.append(
                    f"{table}: {len(dotted)} filter(s) kept at fact scan "
                    f"(evaluated via {strategy} lookups)"
                )
        return notes


class PartitionPruning:
    """Annotate Granular Partitioning bucket pruning per fact filter.

    Pure schema math (bucket width vs. filter ranges) — the storage
    layer applies the identical pruning at scan time; this rule makes
    the decision visible and byte-deterministic in EXPLAIN.
    """

    name = "partition-pruning"
    always = False

    def apply(self, plan: "LogicalPlan") -> list[str]:
        notes = []
        schema = plan.binding.fact.schema
        for flt in plan.filters:
            if "." in flt.dimension:
                continue
            dim = schema.dimension(flt.dimension)
            total = dim.bucket_count
            if flt.op is FilterOp.NOT_IN:
                note = (
                    f"{plan.fact_table}.{flt.dimension}: no pruning "
                    f"(complement filter scans all {total} buckets)"
                )
                notes.append(note)
                plan.pruning.append(note)
                continue
            if flt.op is FilterOp.BETWEEN:
                low = max(0, flt.values[0])
                high = min(dim.cardinality - 1, flt.values[1])
                if low > high:
                    buckets = 0
                else:
                    buckets = (
                        dim.bucket_of(high) - dim.bucket_of(low) + 1
                    )
            else:
                in_domain = {
                    v for v in flt.values if 0 <= v < dim.cardinality
                }
                buckets = len({dim.bucket_of(v) for v in in_domain})
            note = (
                f"{plan.fact_table}.{flt.dimension}: scan {buckets}/"
                f"{total} buckets"
            )
            notes.append(note)
            plan.pruning.append(note)
        if not notes:
            note = f"{plan.fact_table}: no prunable filters (full scan)"
            notes.append(note)
            plan.pruning.append(note)
        return notes


class PartialAggregationPlacement:
    """Decide where partial aggregation and finalization happen.

    Nodes always compute merge-friendly partial states over their
    partitions; the coordinator merges and finalizes. A partitioned-hash
    join adds a coordinator-side re-aggregation after the join remaps
    fan-out groups to final groups. HAVING/ORDER BY/LIMIT shaping is
    only correct after all partials merge, so it is pinned to the
    coordinator's finalize step.
    """

    name = "partial-aggregation"
    always = False

    def apply(self, plan: "LogicalPlan") -> list[str]:
        notes = []
        family = kernel_family(_placement_query(plan))
        note = (
            f"node partials: {family} over {plan.fact_table} "
            f"({plan.binding.fact.num_partitions} partitions)"
        )
        notes.append(note)
        plan.placement.append(note)
        for table, strategy in plan.join_strategies.items():
            if strategy == "partitioned-hash":
                note = (
                    f"coordinator: hash-join {table} on collected keys, "
                    f"then re-aggregate partial states"
                )
                notes.append(note)
                plan.placement.append(note)
        shaping = []
        if plan.having:
            shaping.append(f"HAVING x{len(plan.having)}")
        if plan.order_by is not None:
            direction = "DESC" if plan.descending else "ASC"
            shaping.append(f"ORDER BY {plan.order_by} {direction}")
        if plan.limit is not None:
            shaping.append(f"LIMIT {plan.limit}")
        note = (
            "coordinator finalize: " + ", ".join(shaping)
            if shaping
            else "coordinator finalize: merge only (no shaping)"
        )
        notes.append(note)
        plan.placement.append(note)
        return notes


def _placement_query(plan: "LogicalPlan"):
    """A throwaway Query carrying just shape info for kernel_family."""
    from repro.cubrick.query import Query

    return Query(
        table=plan.fact_table,
        aggregations=plan.aggregations,
        group_by=plan.group_by,
    )


PIPELINE = (
    NormalizePredicates(),
    JoinStrategySelection(),
    PredicatePushdown(),
    PartitionPruning(),
    PartialAggregationPlacement(),
)
