"""Differential battery: SQL must equal the programmatic query path.

Every statement here runs twice — once through the full SQL pipeline
(parse, plan, physical lowering) and once as a hand-built
:class:`Query` through the proxy — and the results must match exactly.
Join statements additionally run against a replicated twin of the
sharded dimension table (answered node-locally, the engine's original
join path), proving the broadcast and partitioned-hash plans compute
the same answer as replicated-local execution.
"""

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    CompareOp,
    Filter,
    Having,
    Query,
)
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.sql import build_physical, parse, plan

USERS = 2000  # dict-encoded, high-cardinality entity dimension
LOADED_USERS = 1500  # rest miss the dim table: inner joins drop them


def _user_dimensions():
    return [
        Dimension("user_id", USERS, range_size=250, dict_encode=True),
        Dimension("tier", 4, range_size=1),
        Dimension("segment", 5, range_size=1),
    ]


@pytest.fixture(scope="module")
def star() -> CubrickDeployment:
    deployment = CubrickDeployment(
        DeploymentConfig(seed=21, regions=2, racks_per_region=2,
                         hosts_per_rack=3)
    )
    deployment.create_table(TableSchema.build(
        "events",
        dimensions=[
            Dimension("day", 8, range_size=2),
            Dimension("country", 6, range_size=2),
            Dimension("user_id", USERS, range_size=250, dict_encode=True),
        ],
        metrics=[Metric("clicks"), Metric("cost")],
    ))
    deployment.create_table(TableSchema.build(
        "dim_users", dimensions=_user_dimensions(),
        metrics=[Metric("weight")],
    ))
    deployment.create_table(
        TableSchema.build(
            "dim_users_rep", dimensions=_user_dimensions(),
            metrics=[Metric("weight")],
        ),
        replicated=True,
    )
    deployment.create_table(
        TableSchema.build(
            "dim_geo",
            dimensions=[Dimension("country", 6, range_size=2),
                        Dimension("region", 3, range_size=1)],
            metrics=[Metric("population")],
        ),
        replicated=True,
    )

    import numpy as np

    generator = np.random.default_rng(21)
    deployment.load(
        "events",
        [{
            "day": int(generator.integers(8)),
            "country": int(generator.integers(6)),
            "user_id": int(generator.integers(USERS)),
            "clicks": float(generator.integers(1, 20)),
            "cost": float(generator.integers(1, 100)),
        } for __ in range(1200)],
    )
    user_rows = [{
        "user_id": user_id,
        "tier": user_id % 4,
        "segment": (user_id // 7) % 5,
        "weight": 1.0,
    } for user_id in range(LOADED_USERS)]
    deployment.load("dim_users", user_rows)
    deployment.load("dim_users_rep", user_rows)
    deployment.load(
        "dim_geo",
        [{"country": c, "region": c % 3, "population": float(100 + c)}
         for c in range(6)],
    )
    deployment.simulator.run_until(60.0)
    return deployment


def run_sql(deployment, statement, *, broadcast_threshold=None,
            optimize=True):
    """Compile with planner knobs exposed, then submit the compiled
    :class:`Query` through the proxy."""
    context = deployment.planner_context(optimize=optimize)
    if broadcast_threshold is not None:
        context.broadcast_threshold = broadcast_threshold
    logical = plan(parse(statement), context, source=statement)
    physical = build_physical(logical)
    result = deployment.proxy.submit(physical.query)
    return result, physical


def assert_same_result(sql_result, reference, *, ordered=True):
    assert len(sql_result.columns) == len(reference.columns)
    if ordered:
        assert sql_result.rows == reference.rows
    else:
        assert sorted(sql_result.rows) == sorted(reference.rows)


ALL_AGGS = [
    ("sum", AggFunc.SUM, "clicks"),
    ("count", AggFunc.COUNT, "clicks"),
    ("min", AggFunc.MIN, "cost"),
    ("max", AggFunc.MAX, "cost"),
    ("avg", AggFunc.AVG, "cost"),
    ("count_distinct", AggFunc.COUNT_DISTINCT, "user_id"),
]


class TestAggregateFamilies:
    @pytest.mark.parametrize("name,func,column", ALL_AGGS)
    def test_grouped(self, star, name, func, column):
        sql_result = star.sql(
            f"SELECT day, {name}({column}) FROM events GROUP BY day "
            f"ORDER BY day ASC"
        )
        reference = star.query(Query.build(
            "events", [Aggregation(func, column)], group_by=["day"],
            order_by="day", descending=False,
        ))
        assert sql_result.columns == reference.columns
        assert_same_result(sql_result, reference)

    @pytest.mark.parametrize("name,func,column", ALL_AGGS)
    def test_scalar(self, star, name, func, column):
        sql_result = star.sql(f"SELECT {name}({column}) FROM events")
        reference = star.query(
            Query.build("events", [Aggregation(func, column)])
        )
        assert_same_result(sql_result, reference)

    def test_count_star(self, star):
        sql_result = star.sql("SELECT count(*) FROM events")
        reference = star.query(
            Query.build("events", [Aggregation(AggFunc.COUNT, "*")])
        )
        assert_same_result(sql_result, reference)
        assert sql_result.rows == [(1200.0,)]

    def test_all_families_together(self, star):
        aggs = ", ".join(f"{n}({c})" for n, __, c in ALL_AGGS)
        sql_result = star.sql(
            f"SELECT country, {aggs} FROM events GROUP BY country "
            f"ORDER BY country ASC"
        )
        reference = star.query(Query.build(
            "events", [Aggregation(f, c) for __, f, c in ALL_AGGS],
            group_by=["country"], order_by="country", descending=False,
        ))
        assert_same_result(sql_result, reference)


class TestPredicates:
    @pytest.mark.parametrize("where,filters", [
        ("day = 3", [Filter.eq("day", 3)]),
        ("day BETWEEN 2 AND 5", [Filter.between("day", 2, 5)]),
        ("country IN (1, 3, 5)", [Filter.isin("country", [1, 3, 5])]),
        ("country NOT IN (0, 2)", [Filter.not_in("country", [0, 2])]),
        ("day < 3 AND country >= 4",
         [Filter.between("day", 0, 2), Filter.between("country", 4, 5)]),
        ("user_id != 42", [Filter.not_in("user_id", [42])]),
        # Compiled forms: OR unions and NOT complements on one column.
        ("day = 1 OR day BETWEEN 5 AND 6",
         [Filter.isin("day", [1, 5, 6])]),
        ("NOT (day BETWEEN 2 AND 5)", [Filter.isin("day", [0, 1, 6, 7])]),
    ])
    def test_where_equals_programmatic(self, star, where, filters):
        sql_result = star.sql(
            f"SELECT sum(clicks), count(*) FROM events WHERE {where}"
        )
        reference = star.query(Query.build(
            "events",
            [Aggregation(AggFunc.SUM, "clicks"),
             Aggregation(AggFunc.COUNT, "*")],
            filters=filters,
        ))
        assert_same_result(sql_result, reference)

    def test_unsatisfiable_short_circuits(self, star):
        result = star.sql(
            "SELECT sum(clicks) FROM events WHERE day < 2 AND day > 5"
        )
        assert result.rows == []
        assert result.metadata["fanout"] == 0
        assert "always false" in result.metadata["empty_reason"]

    def test_having_order_limit(self, star):
        sql_result = star.sql(
            "SELECT day, sum(clicks) FROM events GROUP BY day "
            "HAVING sum(clicks) > 100 ORDER BY sum(clicks) DESC LIMIT 3"
        )
        reference = star.query(Query.build(
            "events", [Aggregation(AggFunc.SUM, "clicks")],
            group_by=["day"],
            having=[Having(column="sum(clicks)", op=CompareOp(">"),
                           value=100.0)],
            order_by="sum(clicks)", descending=True, limit=3,
        ))
        assert_same_result(sql_result, reference)


def _join_statement(dim: str, *, where: str = "", group: str = "tier"):
    clause = f" WHERE {where}" if where else ""
    return (
        f"SELECT {dim}.{group}, sum(clicks), count(*) FROM events "
        f"JOIN {dim} ON events.user_id = {dim}.user_id{clause} "
        f"GROUP BY {dim}.{group}"
    )


class TestJoinStrategies:
    """Broadcast and partitioned-hash joins against the replicated twin.

    ``dim_users`` is sharded (its strategy depends on the broadcast
    threshold); ``dim_users_rep`` holds identical rows on every node, so
    its replicated-local answer is the ground truth.
    """

    CASES = [
        ("", "tier"),
        ("day BETWEEN 0 AND 3", "tier"),
        ("dim.segment IN (1, 2, 3)", "segment"),
        ("day < 6 AND dim.tier = 2", "segment"),
    ]

    def reference(self, star, where, group):
        statement = _join_statement(
            "dim_users_rep",
            where=where.replace("dim.", "dim_users_rep."),
            group=group,
        )
        result, physical = run_sql(star, statement)
        assert physical.kind == "fanout"
        strategies = result.metadata["join_strategies"]
        assert strategies == {"dim_users_rep": "replicated-local"}
        return result

    @pytest.mark.parametrize("where,group", CASES)
    def test_broadcast_equals_replicated(self, star, where, group):
        statement = _join_statement(
            "dim_users", where=where.replace("dim.", "dim_users."),
            group=group,
        )
        result, physical = run_sql(star, statement)
        assert physical.kind == "broadcast-join"
        assert result.metadata["join_strategies"] == {
            "dim_users": "broadcast"
        }
        assert result.metadata["fanout"] >= 2
        assert_same_result(
            result, self.reference(star, where, group), ordered=False
        )

    @pytest.mark.parametrize("where,group", CASES)
    def test_hash_equals_replicated(self, star, where, group):
        statement = _join_statement(
            "dim_users", where=where.replace("dim.", "dim_users."),
            group=group,
        )
        result, physical = run_sql(
            star, statement, broadcast_threshold=100
        )
        assert physical.kind == "hash-join"
        assert result.metadata["join_strategies"] == {
            "dim_users": "partitioned-hash"
        }
        assert result.metadata["fanout"] >= 2
        assert result.metadata["collect_fanout"] >= 2
        assert_same_result(
            result, self.reference(star, where, group), ordered=False
        )

    def test_membership_only_join(self, star):
        """No dotted references: the join still drops unmatched users."""
        for threshold in (None, 100):
            result, __ = run_sql(
                star,
                "SELECT count(*) FROM events JOIN dim_users "
                "ON events.user_id = dim_users.user_id",
                broadcast_threshold=threshold,
            )
            reference, __ = run_sql(
                star,
                "SELECT count(*) FROM events JOIN dim_users_rep "
                "ON events.user_id = dim_users_rep.user_id",
            )
            assert result.rows == reference.rows
        # Some events reference users beyond LOADED_USERS: the join
        # must drop them, so the count is strictly below the table size.
        assert 0 < reference.rows[0][0] < 1200

    def test_mixed_replicated_and_sharded_joins(self, star):
        statement = (
            "SELECT dim_geo.region, dim_users.tier, sum(cost) "
            "FROM events "
            "JOIN dim_users ON events.user_id = dim_users.user_id "
            "JOIN dim_geo ON events.country = dim_geo.country "
            "WHERE dim_users.tier IN (1, 2) "
            "GROUP BY dim_geo.region, dim_users.tier"
        )
        reference_stmt = statement.replace("dim_users", "dim_users_rep")
        reference, __ = run_sql(star, reference_stmt)
        for threshold in (None, 100):
            result, physical = run_sql(
                star, statement, broadcast_threshold=threshold
            )
            expected = (
                "broadcast" if threshold is None else "partitioned-hash"
            )
            assert result.metadata["join_strategies"] == {
                "dim_users": expected, "dim_geo": "replicated-local",
            }
            assert sorted(result.rows) == sorted(reference.rows)

    def test_optimizer_off_still_correct(self, star):
        statement = _join_statement(
            "dim_users", where="day BETWEEN 1 AND 6", group="tier"
        )
        optimized, __ = run_sql(star, statement, broadcast_threshold=100)
        unoptimized, physical = run_sql(
            star, statement, broadcast_threshold=100, optimize=False
        )
        assert physical.kind == "broadcast-join"  # hash needs optimize
        assert sorted(optimized.rows) == sorted(unoptimized.rows)


class TestSqlWorkloadStream:
    def test_generated_sql_equals_programmatic(self, star):
        """The SQL-defined workload variant is differential by design."""
        import numpy as np

        from repro.workloads.queries import QueryGenerator

        generator = QueryGenerator(
            [star.catalog.get("events").schema],
            np.random.default_rng(5),
        )
        for __ in range(25):
            query = generator.next_query()
            from repro.cubrick.sql import render_query

            sql_result = star.sql(render_query(query))
            reference = star.query(query)
            assert_same_result(sql_result, reference)
