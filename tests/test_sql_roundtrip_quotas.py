"""SQL render/parse round-trip property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    CompareOp,
    Filter,
    Having,
    Join,
    Query,
)
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.sql import render_query

#: Every domain holds the drawn filter values 0..100.
DOMAIN = 128
FACT_DIMS = ("day", "country", "user_id")
METRICS = ("clicks", "cost")
#: Replicated join tables: their joins compile to the default
#: ``replicated-local`` strategy, so the render round-trips exactly.
DIM_TABLES = {"dim_a": ("key", "attr"), "dim_b": ("key", "group_id")}


@pytest.fixture(scope="module")
def catalog_deployment() -> CubrickDeployment:
    deployment = CubrickDeployment(
        DeploymentConfig(seed=5, regions=1, racks_per_region=1, hosts_per_rack=2)
    )
    deployment.create_table(TableSchema.build(
        "facts",
        dimensions=[Dimension(name, DOMAIN) for name in FACT_DIMS],
        metrics=[Metric(name) for name in METRICS],
    ))
    for table, dims in DIM_TABLES.items():
        deployment.create_table(
            TableSchema.build(
                table, dimensions=[Dimension(d, DOMAIN) for d in dims],
                metrics=[],
            ),
            replicated=True,
        )
    return deployment


@st.composite
def aggregation_strategy(draw):
    func = draw(st.sampled_from(list(AggFunc)))
    if func is AggFunc.COUNT:
        column = draw(st.sampled_from(("*",) + METRICS + FACT_DIMS))
    elif func is AggFunc.COUNT_DISTINCT:
        column = draw(st.sampled_from(METRICS + FACT_DIMS))
    else:
        column = draw(st.sampled_from(METRICS))
    return Aggregation(func, column)


@st.composite
def query_strategy(draw):
    """A query the planner could emit for a fan-out plan over ``facts``."""
    aggregations = draw(st.lists(aggregation_strategy(), min_size=1, max_size=3))
    dim_tables = draw(st.lists(
        st.sampled_from(sorted(DIM_TABLES)), max_size=2, unique=True
    ))
    joins = [
        Join(table=t, fact_key=draw(st.sampled_from(FACT_DIMS)),
             dim_key=draw(st.sampled_from(DIM_TABLES[t])))
        for t in dim_tables
    ]
    columns = list(FACT_DIMS) + [
        f"{t}.{d}" for t in dim_tables for d in DIM_TABLES[t]
    ]
    column = st.sampled_from(columns)
    filters = draw(
        st.lists(
            st.one_of(
                st.builds(Filter.eq, column, st.integers(0, 100)),
                st.builds(
                    Filter.between, column,
                    st.integers(0, 50), st.integers(50, 100),
                ),
                st.builds(
                    Filter.isin, column,
                    st.lists(st.integers(0, 100), min_size=1, max_size=4),
                ),
            ),
            max_size=3,
        )
    )
    group_by = draw(st.lists(column, max_size=2, unique=True))
    # A join nothing else references carries the planner's inner-join
    # membership filter.
    for join in joins:
        prefix = f"{join.table}."
        if not any(c.startswith(prefix) for c in
                   group_by + [f.dimension for f in filters]):
            filters.append(
                Filter.between(prefix + join.dim_key, 0, DOMAIN - 1)
            )
    result_columns = list(group_by) + [a.label() for a in aggregations]
    having = []
    if draw(st.booleans()):
        having = [
            Having(
                draw(st.sampled_from(result_columns)),
                draw(st.sampled_from(list(CompareOp))),
                float(draw(st.integers(0, 1000))),
            )
            for __ in range(draw(st.integers(1, 2)))
        ]
    order_by = None
    if group_by and draw(st.booleans()):
        order_by = draw(st.sampled_from(result_columns))
    limit = draw(st.one_of(st.none(), st.integers(1, 100)))
    # descending only matters (and only renders) with an ORDER BY.
    descending = draw(st.booleans()) if order_by is not None else True
    return Query.build(
        "facts",
        aggregations,
        group_by=group_by,
        filters=filters,
        joins=joins,
        having=having,
        order_by=order_by,
        descending=descending,
        limit=limit,
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(query=query_strategy())
    def test_parse_inverts_render(self, catalog_deployment, query):
        """The result-cache key (``plan_key``) compiles back to its query."""
        assert catalog_deployment.compile_sql(render_query(query)) == query

    def test_render_readable(self):
        query = Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day"],
            filters=[Filter.between("day", 0, 6)],
            order_by="sum(clicks)",
            limit=3,
        )
        assert render_query(query) == (
            "SELECT sum(clicks) FROM events WHERE day BETWEEN 0 AND 6 "
            "GROUP BY day ORDER BY sum(clicks) DESC LIMIT 3"
        )

