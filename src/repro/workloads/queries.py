"""OLAP query stream generator.

Generates dashboard-style queries over a table population: Zipf-skewed
table popularity (a few hot dashboards dominate), random filters over
recent time ranges, and mixed aggregation/group-by shapes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cubrick.query import AggFunc, Aggregation, Filter, Query
from repro.cubrick.schema import TableSchema


class QueryGenerator:
    """Random but schema-valid queries over a set of tables."""

    def __init__(
        self,
        schemas: list[TableSchema],
        rng: np.random.Generator,
        *,
        table_skew: float = 1.3,
        group_by_probability: float = 0.4,
        filter_probability: float = 0.8,
    ):
        if not schemas:
            raise ValueError("need at least one schema")
        if not 0.0 <= group_by_probability <= 1.0:
            raise ValueError(
                f"group_by_probability out of range: {group_by_probability}"
            )
        if not 0.0 <= filter_probability <= 1.0:
            raise ValueError(
                f"filter_probability out of range: {filter_probability}"
            )
        self.schemas = list(schemas)
        self._rng = rng
        self.table_skew = table_skew
        self.group_by_probability = group_by_probability
        self.filter_probability = filter_probability

    def _pick_schema(self) -> TableSchema:
        if self.table_skew > 1.0 and len(self.schemas) > 1:
            index = min(
                int(self._rng.zipf(self.table_skew)) - 1, len(self.schemas) - 1
            )
        else:
            index = int(self._rng.integers(len(self.schemas)))
        return self.schemas[index]

    def next_query(self, table: Optional[str] = None) -> Query:
        """Generate one query (optionally pinned to a table)."""
        if table is not None:
            schema = next(s for s in self.schemas if s.name == table)
        else:
            schema = self._pick_schema()

        aggregations = [Aggregation(AggFunc.SUM, schema.metrics[0].name)]
        if self._rng.random() < 0.5:
            aggregations.append(Aggregation(AggFunc.COUNT, schema.metrics[0].name))

        filters: list[Filter] = []
        if self._rng.random() < self.filter_probability:
            dim = schema.dimensions[int(self._rng.integers(len(schema.dimensions)))]
            kind = self._rng.random()
            if kind < 0.4:
                filters.append(Filter.eq(dim.name, int(self._rng.integers(dim.cardinality))))
            elif kind < 0.7:
                low = int(self._rng.integers(dim.cardinality))
                high = min(
                    low + int(self._rng.integers(1, max(2, dim.cardinality // 4))),
                    dim.cardinality - 1,
                )
                filters.append(Filter.between(dim.name, low, high))
            else:
                k = int(self._rng.integers(1, 4))
                values = self._rng.integers(dim.cardinality, size=k)
                filters.append(Filter.isin(dim.name, [int(v) for v in values]))

        group_by: list[str] = []
        if self._rng.random() < self.group_by_probability:
            dim = schema.dimensions[int(self._rng.integers(len(schema.dimensions)))]
            group_by.append(dim.name)

        return Query.build(
            schema.name, aggregations, group_by=group_by, filters=filters
        )

    def stream(self, count: int) -> list[Query]:
        """Generate ``count`` queries."""
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        return [self.next_query() for __ in range(count)]


def simple_probe_query(schema: TableSchema) -> Query:
    """The fan-out experiment's fixed 'same simple query' (paper §IV-H)."""
    return Query.build(schema.name, [Aggregation(AggFunc.COUNT, schema.metrics[0].name)])


def tpch_style_queries(
    fact: str = "events",
    users: str = "dim_users",
    geo: str = "dim_geo",
) -> list[str]:
    """A fixed TPC-H-flavoured SQL suite over the demo star schema.

    Ten statements against ``events(day, country, user_id; clicks,
    cost)`` joined to a sharded ``dim_users(user_id, tier)`` and a
    replicated ``dim_geo(country, region)`` — pricing-summary,
    top-N, and join-heavy shapes scaled down to the engine's dialect.
    Used by EXPERIMENTS.md's ``repro sql`` recipe and the differential
    battery.
    """
    return [
        # Q1-style pricing summary: wide scan, group, every agg family.
        f"SELECT day, sum(clicks), sum(cost), avg(cost), count(*) "
        f"FROM {fact} GROUP BY day ORDER BY day ASC",
        # Q3-style top-N over a recent window.
        f"SELECT country, sum(clicks) FROM {fact} "
        f"WHERE day BETWEEN 0 AND 6 "
        f"GROUP BY country ORDER BY sum(clicks) DESC LIMIT 10",
        # Q4-style existence count with a range predicate.
        f"SELECT count(*) FROM {fact} WHERE day < 7 AND country <= 9",
        # Q5-style local-nation revenue: replicated join + group.
        f"SELECT {geo}.region, sum(cost) FROM {fact} "
        f"JOIN {geo} ON {fact}.country = {geo}.country "
        f"GROUP BY {geo}.region ORDER BY sum(cost) DESC",
        # Q10-style returned-item ranking: sharded join, top-N.
        f"SELECT {users}.tier, sum(cost) FROM {fact} "
        f"JOIN {users} ON {fact}.user_id = {users}.user_id "
        f"GROUP BY {users}.tier ORDER BY sum(cost) DESC LIMIT 5",
        # Q13-style distribution: distinct users per day.
        f"SELECT day, count_distinct(user_id) FROM {fact} "
        f"GROUP BY day ORDER BY count_distinct(user_id) DESC LIMIT 7",
        # Q16-style filtered join with an exclusion list.
        f"SELECT {users}.tier, count(*) FROM {fact} "
        f"JOIN {users} ON {fact}.user_id = {users}.user_id "
        f"WHERE country NOT IN (0, 1) "
        f"GROUP BY {users}.tier ORDER BY count(*) DESC",
        # Q18-style large-volume customers via HAVING.
        f"SELECT country, sum(clicks) FROM {fact} GROUP BY country "
        f"HAVING sum(clicks) > 100 ORDER BY sum(clicks) DESC LIMIT 10",
        # Q19-style disjunctive predicate (compiled to one IN filter).
        f"SELECT sum(cost) FROM {fact} "
        f"WHERE day = 0 OR day = 1 OR day = 2",
        # Two-join star probe: sharded and replicated sides together.
        f"SELECT {geo}.region, count(*) FROM {fact} "
        f"JOIN {users} ON {fact}.user_id = {users}.user_id "
        f"JOIN {geo} ON {fact}.country = {geo}.country "
        f"WHERE {users}.tier = 1 GROUP BY {geo}.region "
        f"ORDER BY count(*) DESC",
    ]
