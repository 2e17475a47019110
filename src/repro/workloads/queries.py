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

