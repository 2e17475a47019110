"""SQL text to the :class:`Query` the managed path schedules.

Every statement compiles through ``deployment.compile_sql``: the
catalog-aware planner behind ``deployment.sql`` as well.
"""

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.query import AggFunc, Filter, FilterOp
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.cubrick.sql import render_query
from repro.errors import QueryError


@pytest.fixture(scope="module")
def compile_sql():
    """``compile_sql`` over ``events(day, country, user_id; clicks,
    cost)`` and a replicated ``dim_users(user_id, uid, country)``."""
    deployment = CubrickDeployment(
        DeploymentConfig(seed=3, regions=1, racks_per_region=1, hosts_per_rack=2)
    )
    deployment.create_table(TableSchema.build(
        "events",
        dimensions=[
            Dimension("day", 30, range_size=7),
            Dimension("country", 100, range_size=25),
            Dimension("user_id", 1000),
        ],
        metrics=[Metric("clicks"), Metric("cost")],
    ))
    deployment.create_table(
        TableSchema.build(
            "dim_users",
            dimensions=[
                Dimension("user_id", 1000),
                Dimension("uid", 1000),
                Dimension("country", 100),
            ],
            metrics=[],
        ),
        replicated=True,
    )
    return deployment.compile_sql


class TestBasicSelect:
    def test_minimal_query(self, compile_sql):
        query = compile_sql("SELECT sum(clicks) FROM events")
        assert query.table == "events"
        assert len(query.aggregations) == 1
        assert query.aggregations[0].func is AggFunc.SUM
        assert query.aggregations[0].metric == "clicks"

    def test_multiple_aggregates(self, compile_sql):
        query = compile_sql(
            "SELECT sum(clicks), count(clicks), avg(cost) FROM events"
        )
        funcs = [a.func for a in query.aggregations]
        assert funcs == [AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG]

    def test_count_star(self, compile_sql):
        query = compile_sql("SELECT count(*) FROM events")
        assert query.aggregations[0].metric == "*"

    def test_count_distinct(self, compile_sql):
        query = compile_sql("SELECT count_distinct(country) FROM events")
        assert query.aggregations[0].func is AggFunc.COUNT_DISTINCT

    def test_keywords_case_insensitive(self, compile_sql):
        query = compile_sql("select SUM(clicks) from events")
        assert query.aggregations[0].func is AggFunc.SUM

    def test_star_only_for_count(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql("SELECT sum(*) FROM events")

    def test_unknown_aggregate_rejected(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql("SELECT median(clicks) FROM events")


class TestWhere:
    def test_equality(self, compile_sql):
        query = compile_sql("SELECT count(*) FROM events WHERE day = 3")
        flt = query.filters[0]
        assert flt.op is FilterOp.EQ
        assert flt.values == (3,)

    def test_between(self, compile_sql):
        query = compile_sql(
            "SELECT count(*) FROM events WHERE day BETWEEN 0 AND 6"
        )
        assert query.filters[0].op is FilterOp.BETWEEN
        assert query.filters[0].values == (0, 6)

    def test_in(self, compile_sql):
        query = compile_sql(
            "SELECT count(*) FROM events WHERE country IN (1, 2, 3)"
        )
        assert query.filters[0].op is FilterOp.IN
        assert query.filters[0].values == (1, 2, 3)

    def test_conjunction(self, compile_sql):
        query = compile_sql(
            "SELECT count(*) FROM events "
            "WHERE day = 1 AND country IN (4, 5) AND user_id BETWEEN 0 AND 9"
        )
        assert len(query.filters) == 3

    def test_range_comparison_lowers_to_between(self, compile_sql):
        query = compile_sql("SELECT count(*) FROM events WHERE day < 3")
        assert query.filters[0].op is FilterOp.BETWEEN
        assert query.filters[0].values == (0, 2)

    def test_not_in(self, compile_sql):
        query = compile_sql(
            "SELECT count(*) FROM events WHERE user_id NOT IN (1, 2)"
        )
        assert query.filters[0].op is FilterOp.NOT_IN
        assert query.filters[0].values == (1, 2)

    def test_or_within_one_column_lowers_to_one_filter(self, compile_sql):
        query = compile_sql(
            "SELECT count(*) FROM events WHERE day = 1 OR day = 5"
        )
        assert query.filters == (Filter.isin("day", [1, 5]),)
        query = compile_sql(
            "SELECT count(*) FROM events WHERE day = 1 OR day = 2"
        )
        assert query.filters == (Filter.between("day", 1, 2),)

    def test_or_across_columns_rejected(self, compile_sql):
        with pytest.raises(QueryError, match="OR across different columns"):
            compile_sql(
                "SELECT count(*) FROM events WHERE day = 1 OR country = 2"
            )


class TestClauses:
    def test_group_by(self, compile_sql):
        query = compile_sql(
            "SELECT sum(clicks) FROM events GROUP BY day, country"
        )
        assert query.group_by == ("day", "country")

    def test_order_by_aggregate_desc_default(self, compile_sql):
        query = compile_sql(
            "SELECT sum(clicks) FROM events GROUP BY day ORDER BY sum(clicks)"
        )
        assert query.order_by == "sum(clicks)"
        assert query.descending

    def test_order_by_asc(self, compile_sql):
        query = compile_sql(
            "SELECT sum(clicks) FROM events GROUP BY day "
            "ORDER BY day ASC LIMIT 3"
        )
        assert query.order_by == "day"
        assert not query.descending
        assert query.limit == 3

    def test_limit(self, compile_sql):
        query = compile_sql(
            "SELECT sum(clicks) FROM events GROUP BY day LIMIT 7"
        )
        assert query.limit == 7

    def test_join(self, compile_sql):
        query = compile_sql(
            "SELECT sum(cost) FROM events "
            "JOIN dim_users ON events.user_id = dim_users.user_id "
            "GROUP BY dim_users.country"
        )
        join = query.joins[0]
        assert join.table == "dim_users"
        assert join.fact_key == "user_id"
        assert join.dim_key == "user_id"
        assert query.group_by == ("dim_users.country",)

    def test_join_reversed_condition(self, compile_sql):
        query = compile_sql(
            "SELECT sum(cost) FROM events "
            "JOIN dim_users ON dim_users.uid = events.user_id"
        )
        join = query.joins[0]
        assert join.fact_key == "user_id"
        assert join.dim_key == "uid"
        # No dotted reference: the inner join still drops unmatched keys.
        assert query.filters == (Filter.between("dim_users.uid", 0, 999),)

    def test_join_requires_dotted_names(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql(
                "SELECT sum(cost) FROM events "
                "JOIN dim_users ON user_id = dim_users.user_id"
            )

    def test_join_unknown_table_rejected(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql(
                "SELECT sum(cost) FROM events JOIN d ON x.k = d.k"
            )


class TestErrors:
    def test_empty_input(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql("   ")

    def test_missing_from(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql("SELECT sum(clicks)")

    def test_trailing_garbage(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql("SELECT sum(clicks) FROM events LIMIT 5 LIMIT 6")

    def test_garbage_characters(self, compile_sql):
        with pytest.raises(QueryError):
            compile_sql("SELECT sum(clicks) FROM events WHERE day = 'text'")

    def test_aggregate_in_where(self, compile_sql):
        with pytest.raises(QueryError, match="not allowed in WHERE"):
            compile_sql("SELECT count(*) FROM events WHERE sum(clicks) = 1")


class TestRender:
    def test_not_in_renders_and_round_trips(self, compile_sql):
        query = compile_sql(
            "SELECT count(*) FROM events WHERE user_id NOT IN (3, 9)"
        )
        text = render_query(query)
        assert "user_id NOT IN (3, 9)" in text
        assert compile_sql(text) == query

    def test_float_having_value_renders_exactly(self, compile_sql):
        query = compile_sql(
            "SELECT sum(cost) FROM events GROUP BY day "
            "HAVING sum(cost) > 1.5"
        )
        text = render_query(query)
        assert "HAVING sum(cost) > 1.5" in text
        assert compile_sql(text) == query


class TestEndToEnd:
    def test_sql_through_deployment(self, tiny_deployment, events_schema):
        from tests.conftest import make_rows

        rows = make_rows(events_schema, 500, seed=7)
        expected = sum(r["clicks"] for r in rows if 0 <= r["day"] <= 6)
        result = tiny_deployment.sql(
            "SELECT sum(clicks) FROM events WHERE day BETWEEN 0 AND 6"
        )
        assert result.scalar() == pytest.approx(expected)

    def test_sql_topk(self, tiny_deployment):
        result = tiny_deployment.sql(
            "SELECT sum(clicks) FROM events GROUP BY day "
            "ORDER BY sum(clicks) DESC LIMIT 3"
        )
        assert len(result.rows) == 3
        values = [r[1] for r in result.rows]
        assert values == sorted(values, reverse=True)
