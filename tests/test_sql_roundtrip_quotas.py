"""SQL render/parse round-trip property and per-table admission quotas."""

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
from repro.errors import AdmissionControlError

#: Every domain holds the drawn filter values 0..100.
DOMAIN = 128
FACT_DIMS = ("day", "country", "user_id")
METRICS = ("clicks", "cost")
#: Replicated join tables: fan-out plans, so ``compile_sql`` accepts them.
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


class TestTableQuotas:
    def test_per_table_quota_is_enforced(self, tiny_deployment):
        proxy = tiny_deployment.proxy
        proxy.admission.set_table_quota("events", 3.0)
        query_sql = "SELECT count(clicks) FROM events"
        served = 0
        rejected = 0
        for __ in range(10):
            try:
                tiny_deployment.sql(query_sql)
                served += 1
            except AdmissionControlError:
                rejected += 1
        assert served == 3
        assert rejected == 7

    def test_other_tables_unaffected(self, tiny_deployment):
        from repro.cubrick.schema import Dimension, Metric, TableSchema

        other = TableSchema.build(
            "other", [Dimension("x", 5)], [Metric("m")]
        )
        tiny_deployment.create_table(other)
        tiny_deployment.load("other", [{"x": 1, "m": 1.0}] * 5)
        tiny_deployment.simulator.run_until(
            tiny_deployment.simulator.now + 30.0
        )
        proxy = tiny_deployment.proxy
        proxy.admission.set_table_quota("events", 1.0)
        tiny_deployment.sql("SELECT count(clicks) FROM events")
        with pytest.raises(AdmissionControlError):
            tiny_deployment.sql("SELECT count(clicks) FROM events")
        # The quota on "events" does not throttle "other".
        for __ in range(5):
            tiny_deployment.sql("SELECT count(m) FROM other")

    def test_quota_window_slides(self, tiny_deployment):
        proxy = tiny_deployment.proxy
        proxy.admission.set_table_quota("events", 1.0)
        tiny_deployment.sql("SELECT count(clicks) FROM events")
        with pytest.raises(AdmissionControlError):
            tiny_deployment.sql("SELECT count(clicks) FROM events")
        tiny_deployment.simulator.run_until(
            tiny_deployment.simulator.now + 2.0
        )
        tiny_deployment.sql("SELECT count(clicks) FROM events")

    def test_invalid_quota_rejected(self, tiny_deployment):
        with pytest.raises(ValueError):
            tiny_deployment.proxy.admission.set_table_quota("events", 0.0)
