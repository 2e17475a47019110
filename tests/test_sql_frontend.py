"""Unit tests for the SQL frontend: lexer, parser and planner.

The differential and property suites prove end-to-end equivalence;
this file pins the stage-by-stage contracts — token positions, AST
shapes, typed errors with caret positions, interval compilation and
rewrite-rule behaviour — and the proxy routing a compiled join gets.
"""

import dataclasses

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.query import FilterOp
from repro.cubrick.schema import Catalog, Dimension, Metric, TableSchema
from repro.errors import (
    QueryError,
    QueryFailedError,
    RegionUnavailableError,
    SqlError,
)
from repro.sql import ast, parse, plan, unparse
from repro.sql.lexer import EOF, KEYWORD, NAME, NUMBER, SYMBOL, tokenize
from repro.sql.planner import PlannerContext


def star_catalog() -> Catalog:
    catalog = Catalog()
    catalog.create(TableSchema.build(
        "events",
        dimensions=[Dimension("day", 8, range_size=2),
                    Dimension("country", 6, range_size=2),
                    Dimension("user_id", 2000, range_size=250)],
        metrics=[Metric("clicks"), Metric("cost")],
    ), num_partitions=4)
    catalog.create(TableSchema.build(
        "dim_users",
        dimensions=[Dimension("user_id", 2000, range_size=250),
                    Dimension("tier", 4, range_size=1)],
        metrics=[Metric("weight")],
    ), num_partitions=2)
    catalog.create(TableSchema.build(
        "dim_geo",
        dimensions=[Dimension("country", 6, range_size=2),
                    Dimension("region", 3, range_size=1)],
        metrics=[Metric("population")],
    ), num_partitions=1, replicated=True)
    return catalog


def make_context(**overrides) -> PlannerContext:
    defaults = dict(
        catalog=star_catalog(),
        stats={"events": 10_000, "dim_users": 1500}.get,
    )
    defaults.update(overrides)
    return PlannerContext(**defaults)


def plan_sql(statement: str, **overrides):
    return plan(parse(statement), make_context(**overrides),
                source=statement)


class TestLexer:
    def test_tokens_carry_positions(self):
        tokens = tokenize("SELECT sum(clicks) FROM t")
        kinds = [t.kind for t in tokens]
        assert kinds == [KEYWORD, NAME, SYMBOL, NAME, SYMBOL, KEYWORD,
                         NAME, EOF]
        assert [t.pos for t in tokens[:3]] == [0, 7, 10]

    def test_keywords_normalise_case(self):
        tokens = tokenize("SeLeCt FROM group BY")
        assert [t.value for t in tokens[:-1]] == [
            "select", "from", "group", "by",
        ]

    def test_dotted_name_is_one_token(self):
        (token, eof) = tokenize("dim_users.country")
        assert token.kind == NAME
        assert token.value == "dim_users.country"

    def test_numbers_keep_float_text(self):
        tokens = tokenize("1 2.5 300")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", "300"]

    def test_string_literal_rejected_with_position(self):
        with pytest.raises(SqlError) as info:
            tokenize("WHERE a = 'text'")
        assert info.value.position == 10

    def test_unknown_character_rejected(self):
        with pytest.raises(SqlError) as info:
            tokenize("SELECT @")
        assert info.value.position == 7


class TestParser:
    def test_select_items_and_count_star(self):
        stmt = parse("SELECT day, count(*), sum(clicks) FROM events "
                     "GROUP BY day")
        assert stmt.select[0] == ast.ColumnRef(name="day")
        assert stmt.select[1] == ast.AggregateCall(func="count",
                                                   argument="*")
        assert stmt.aggregates()[1].label() == "sum(clicks)"

    def test_star_only_for_count(self):
        with pytest.raises(SqlError, match="only valid inside count"):
            parse("SELECT sum(*) FROM events")

    def test_or_binds_looser_than_and(self):
        stmt = parse("SELECT count(*) FROM t WHERE a = 1 AND b = 2 "
                     "OR c = 3")
        assert isinstance(stmt.where, ast.Or)
        assert isinstance(stmt.where.items[0], ast.And)

    def test_parenthesised_predicates(self):
        stmt = parse("SELECT count(*) FROM t "
                     "WHERE a = 1 AND (b = 2 OR c = 3)")
        assert isinstance(stmt.where, ast.And)
        assert isinstance(stmt.where.items[1], ast.Or)

    def test_not_between_and_not_in(self):
        stmt = parse("SELECT count(*) FROM t "
                     "WHERE a NOT BETWEEN 1 AND 3 AND b NOT IN (4, 5)")
        between, inlist = stmt.where.items
        assert between.negated and inlist.negated

    def test_diamond_normalises_to_bang_equals(self):
        stmt = parse("SELECT count(*) FROM t WHERE a <> 5")
        assert stmt.where.op == "!="

    def test_join_condition_order_insensitive(self):
        forward = parse("SELECT count(*) FROM events JOIN dim_users "
                        "ON events.user_id = dim_users.user_id")
        reverse = parse("SELECT count(*) FROM events JOIN dim_users "
                        "ON dim_users.user_id = events.user_id")
        assert forward.joins == reverse.joins

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SqlError, match="unexpected"):
            parse("SELECT count(*) FROM t LIMIT 5 garbage")

    def test_empty_input_rejected(self):
        with pytest.raises(SqlError):
            parse("   ")

    def test_unparse_is_canonical_fixed_point(self):
        text = ("select COUNT ( * ) , sum(clicks) from events "
                "where NOT (day < 3 or day > 5) group by country "
                "having sum(clicks) >= 10 order by sum(clicks) asc "
                "limit 7")
        stmt = parse(text)
        canonical = unparse(stmt)
        assert parse(canonical) == stmt
        assert unparse(parse(canonical)) == canonical


class TestPlannerErrors:
    def test_unknown_table_position(self):
        statement = "SELECT count(*) FROM nope"
        with pytest.raises(SqlError) as info:
            plan_sql(statement)
        assert info.value.position == statement.index("nope")
        assert "unknown table" in str(info.value)
        assert "^" in info.value.context()

    def test_unknown_column_in_where(self):
        statement = "SELECT count(*) FROM events WHERE bogus = 1"
        with pytest.raises(SqlError) as info:
            plan_sql(statement)
        assert info.value.position == statement.index("bogus")
        assert "unknown column" in str(info.value)

    def test_unknown_column_in_join_table(self):
        statement = ("SELECT count(*) FROM events JOIN dim_users "
                     "ON events.user_id = dim_users.user_id "
                     "GROUP BY dim_users.bogus")
        with pytest.raises(SqlError) as info:
            plan_sql(statement)
        assert "unknown column 'bogus' in table 'dim_users'" in str(
            info.value
        )

    def test_aggregate_in_where(self):
        statement = "SELECT count(*) FROM events WHERE sum(clicks) > 5"
        with pytest.raises(SqlError) as info:
            plan_sql(statement)
        assert "aggregates are not allowed in WHERE" in str(info.value)
        assert info.value.position == statement.index("sum")

    def test_metric_rejected_as_group_column(self):
        with pytest.raises(SqlError, match="is a metric"):
            plan_sql("SELECT count(*) FROM events GROUP BY clicks")

    def test_sum_over_dimension_rejected(self):
        with pytest.raises(SqlError, match="needs a metric column"):
            plan_sql("SELECT sum(day) FROM events")

    def test_sql_error_is_a_query_error(self):
        with pytest.raises(QueryError):
            plan_sql("SELECT count(*) FROM nope")


class TestPredicateCompilation:
    def filters(self, where: str, **overrides):
        logical = plan_sql(
            f"SELECT count(*) FROM events WHERE {where}", **overrides
        )
        return logical.filters

    def test_simple_conjunction_is_verbatim(self):
        filters = self.filters("day = 3 AND country IN (2, 1, 2)")
        assert filters[0].op is FilterOp.EQ
        assert filters[1].values == (2, 1, 2)  # order and dupes kept

    def test_range_comparisons_merge(self):
        (f,) = self.filters("day > 1 AND day <= 5")
        assert f.op is FilterOp.BETWEEN
        assert f.values == (2, 5)

    def test_or_same_column_unions(self):
        (f,) = self.filters("day = 1 OR day BETWEEN 3 AND 4")
        assert f.op is FilterOp.IN
        assert f.values == (1, 3, 4)

    def test_not_complements(self):
        (f,) = self.filters("NOT (day BETWEEN 2 AND 5)")
        assert f.op is FilterOp.IN
        assert f.values == (0, 1, 6, 7)

    def test_not_equal_on_wide_domain_emits_not_in(self):
        (f,) = self.filters("user_id != 7")
        assert f.op is FilterOp.NOT_IN
        assert f.values == (7,)

    def test_contradiction_marks_plan_empty(self):
        logical = plan_sql(
            "SELECT count(*) FROM events WHERE day < 2 AND day > 5"
        )
        assert logical.empty
        assert "always false" in logical.empty_reason

    def test_tautology_drops_filter(self):
        logical = plan_sql(
            "SELECT count(*) FROM events WHERE day >= 0"
        )
        assert logical.filters == ()
        assert not logical.empty

    def test_or_across_columns_rejected(self):
        with pytest.raises(SqlError, match="OR across different columns"):
            self.filters("day = 1 OR country = 2")

    def test_enum_limit_enforced(self):
        with pytest.raises(SqlError, match="too complex"):
            self.filters("NOT (user_id BETWEEN 500 AND 1500)",
                         enum_limit=100)


class TestJoinStrategies:
    def test_replicated_table_is_local(self):
        logical = plan_sql(
            "SELECT count(*) FROM events JOIN dim_geo "
            "ON events.country = dim_geo.country"
        )
        assert logical.join_strategies == {"dim_geo": "replicated-local"}

    def test_small_sharded_table_broadcasts(self):
        logical = plan_sql(
            "SELECT count(*) FROM events JOIN dim_users "
            "ON events.user_id = dim_users.user_id"
        )
        assert logical.join_strategies == {"dim_users": "broadcast"}

    def test_large_sharded_table_hash_partitions(self):
        logical = plan_sql(
            "SELECT count(*) FROM events JOIN dim_users "
            "ON events.user_id = dim_users.user_id",
            broadcast_threshold=100,
        )
        assert logical.join_strategies == {"dim_users": "partitioned-hash"}

    def test_optimizer_off_falls_back_to_broadcast(self):
        logical = plan_sql(
            "SELECT count(*) FROM events JOIN dim_users "
            "ON events.user_id = dim_users.user_id",
            broadcast_threshold=100, optimize=False,
        )
        assert logical.join_strategies == {"dim_users": "broadcast"}

    def test_join_membership_filter_injected(self):
        logical = plan_sql(
            "SELECT count(*) FROM events JOIN dim_users "
            "ON events.user_id = dim_users.user_id"
        )
        # No dotted dim_users references: the sharded join still has to
        # drop fact rows without a matching user, via a membership range.
        (membership,) = [
            f for f in logical.filters if f.dimension == "dim_users.user_id"
        ]
        assert membership.op is FilterOp.BETWEEN
        assert membership.values == (0, 1999)

    def test_dim_filters_pushed_for_hash_join(self):
        logical = plan_sql(
            "SELECT count(*) FROM events JOIN dim_users "
            "ON events.user_id = dim_users.user_id "
            "WHERE dim_users.tier = 2",
            broadcast_threshold=100,
        )
        (pushed,) = logical.dim_filters["dim_users"]
        assert pushed.dimension == "tier"  # prefix stripped for the scan
        assert pushed.values == (2,)

    def test_rewrite_trace_is_ordered(self):
        logical = plan_sql("SELECT count(*) FROM events WHERE day = 1")
        names = [name for name, __ in logical.trace]
        assert names == [
            "normalize-predicates", "join-strategy",
            "predicate-pushdown", "partition-pruning",
            "partial-aggregation",
        ]

    def test_missing_statistics_force_broadcast(self):
        statement = ("SELECT count(*) FROM events JOIN dim_users "
                     "ON events.user_id = dim_users.user_id")
        for stats in (None, lambda table: None):
            logical = plan_sql(statement, stats=stats,
                               broadcast_threshold=100)
            assert logical.join_strategies == {"dim_users": "broadcast"}
            (__, notes), = [t for t in logical.trace
                            if t[0] == "join-strategy"]
            assert any("no statistics" in note for note in notes)

    def test_two_sharded_joins_force_broadcast(self):
        catalog = star_catalog()
        catalog.create(TableSchema.build(
            "dim_days",
            dimensions=[Dimension("day", 8, range_size=2),
                        Dimension("week", 2, range_size=1)],
            metrics=[Metric("hours")],
        ), num_partitions=2)
        statement = (
            "SELECT count(*) FROM events "
            "JOIN dim_users ON events.user_id = dim_users.user_id "
            "JOIN dim_days ON events.day = dim_days.day"
        )
        context = PlannerContext(
            catalog=catalog,
            stats={"events": 10_000, "dim_users": 1500, "dim_days": 8}.get,
        )
        logical = plan(parse(statement), context, source=statement)
        assert logical.join_strategies == {
            "dim_users": "broadcast", "dim_days": "broadcast",
        }
        (__, notes), = [t for t in logical.trace
                        if t[0] == "join-strategy"]
        assert any("forced: 2 sharded joins" in note for note in notes)


class TestParserEdgeCases:
    def test_negative_numbers(self):
        stmt = parse("SELECT count(*) FROM t WHERE day = -3")
        assert stmt.where.value.value == -3.0
        assert stmt.where.value.is_int

    def test_dotted_fact_table_rejected(self):
        with pytest.raises(SqlError, match="cannot be dotted"):
            parse("SELECT count(*) FROM db.events")

    def test_limit_zero_rejected(self):
        with pytest.raises(SqlError, match="positive integer"):
            parse("SELECT count(*) FROM t LIMIT 0")

    def test_limit_fraction_rejected(self):
        with pytest.raises(SqlError, match="positive integer"):
            parse("SELECT count(*) FROM t LIMIT 2.5")

    def test_join_condition_same_table_both_sides(self):
        with pytest.raises(SqlError, match="on both sides"):
            parse("SELECT count(*) FROM events JOIN dim_users "
                  "ON events.day = events.user_id")

    def test_join_condition_unknown_prefix(self):
        with pytest.raises(SqlError, match="unknown table 'nope'"):
            parse("SELECT count(*) FROM events JOIN dim_users "
                  "ON events.user_id = nope.user_id")

    def test_join_condition_requires_dotted_names(self):
        with pytest.raises(SqlError, match="dotted"):
            parse("SELECT count(*) FROM events JOIN dim_users "
                  "ON user_id = dim_users.user_id")


class TestPlannerEdgeCases:
    def test_or_with_multi_column_branch_rejected(self):
        with pytest.raises(SqlError, match="OR across different columns"):
            plan_sql("SELECT count(*) FROM events "
                     "WHERE (day = 1 AND country = 2) OR day = 3")

    def test_not_over_multi_column_rejected(self):
        with pytest.raises(SqlError, match="NOT over a multi-column"):
            plan_sql("SELECT count(*) FROM events "
                     "WHERE NOT (day = 1 AND country = 2)")

    def test_not_in_atom_complements(self):
        logical = plan_sql(
            "SELECT count(*) FROM events WHERE day NOT IN (1, 2)"
        )
        (f,) = logical.filters
        assert f.op is FilterOp.IN
        assert f.values == (0, 3, 4, 5, 6, 7)

    def test_not_between_atom_complements(self):
        logical = plan_sql(
            "SELECT count(*) FROM events WHERE day NOT BETWEEN 2 AND 5"
        )
        (f,) = logical.filters
        assert f.values == (0, 1, 6, 7)

    def test_inverted_between_is_empty(self):
        logical = plan_sql(
            "SELECT count(*) FROM events WHERE day BETWEEN 5 AND 2"
        )
        assert logical.empty

    def test_out_of_domain_equality_is_empty(self):
        logical = plan_sql("SELECT count(*) FROM events WHERE day = 12")
        assert logical.empty
        assert "always false" in logical.empty_reason

    def test_metric_in_where_rejected(self):
        with pytest.raises(SqlError, match="is a metric"):
            plan_sql("SELECT count(*) FROM events WHERE clicks = 5")

    def test_self_join_rejected(self):
        stmt = parse("SELECT count(*) FROM events JOIN dim_users "
                     "ON events.user_id = dim_users.user_id")
        # The parser already refuses `JOIN events ON events.a = events.b`
        # (same table on both condition sides), so exercise the planner's
        # own guard with a hand-altered AST.
        clause = dataclasses.replace(stmt.joins[0], table="events")
        bad = dataclasses.replace(stmt, joins=(clause,))
        with pytest.raises(SqlError, match="to itself"):
            plan(bad, make_context())

    def test_unknown_join_table_rejected(self):
        with pytest.raises(SqlError, match="unknown table 'nope'"):
            plan_sql("SELECT count(*) FROM events JOIN nope "
                     "ON events.user_id = nope.user_id")

    def test_fact_join_key_must_be_dimension(self):
        with pytest.raises(SqlError, match="'clicks' is not a dimension"):
            plan_sql("SELECT count(*) FROM events JOIN dim_users "
                     "ON events.clicks = dim_users.user_id")

    def test_dim_join_key_must_be_dimension(self):
        with pytest.raises(SqlError, match="'weight' is not a dimension"):
            plan_sql("SELECT count(*) FROM events JOIN dim_users "
                     "ON events.user_id = dim_users.weight")

    def test_duplicate_join_table_rejected(self):
        stmt = parse("SELECT count(*) FROM events JOIN dim_users "
                     "ON events.user_id = dim_users.user_id")
        bad = dataclasses.replace(stmt, joins=(stmt.joins[0],) * 2)
        with pytest.raises(SqlError, match="duplicate join table"):
            plan(bad, make_context())


JOIN_SQL = (
    "SELECT dim_users.tier, count(*) FROM events "
    "JOIN dim_users ON events.user_id = dim_users.user_id "
    "GROUP BY dim_users.tier"
)


@pytest.fixture
def star_fleet():
    """Two regions: a sharded ``events`` fact and a sharded ``dim_users``
    (48 of 64 users loaded, so the inner join drops some fact rows);
    returns the deployment and the join's expected rows."""
    deployment = CubrickDeployment(
        DeploymentConfig(seed=5, regions=2, racks_per_region=2,
                         hosts_per_rack=3)
    )
    deployment.create_table(TableSchema.build(
        "events",
        dimensions=[Dimension("day", 8, range_size=2),
                    Dimension("user_id", 64, range_size=8)],
        metrics=[Metric("clicks")],
    ))
    deployment.create_table(TableSchema.build(
        "dim_users",
        dimensions=[Dimension("user_id", 64, range_size=8),
                    Dimension("tier", 4, range_size=1)],
        metrics=[Metric("weight")],
    ), num_partitions=2)
    events = [{"day": i % 8, "user_id": (i * 7) % 64, "clicks": 1.0}
              for i in range(300)]
    deployment.load("events", events)
    deployment.load("dim_users", [
        {"user_id": u, "tier": u % 4, "weight": 1.0} for u in range(48)
    ])
    deployment.simulator.run_until(30.0)
    counts: dict[int, int] = {}
    for row in events:
        if row["user_id"] < 48:
            tier = row["user_id"] % 4
            counts[tier] = counts.get(tier, 0) + 1
    expected = [(tier, float(n)) for tier, n in sorted(counts.items())]
    return deployment, expected


def _join(deployment):
    query = deployment.compile_sql(JOIN_SQL)
    assert [j.strategy for j in query.joins] == ["broadcast"]
    return query


def _dim_host(deployment, region):
    """A host holding a ``dim_users`` partition in ``region``."""
    hosts = deployment.coordinators[region].partition_hosts("dim_users")
    return sorted(hosts)[0]


class TestRegionFallback:
    """A compiled join routes through the proxy's attempt loop."""

    def test_unavailable_region_skipped(self, star_fleet):
        deployment, expected = star_fleet
        deployment.cluster.set_region_available("region0", False)
        result = deployment.proxy.submit(_join(deployment))
        assert result.metadata["region"] == "region1"
        assert sorted(result.rows) == expected

    def test_retryable_failure_falls_through(self, star_fleet):
        deployment, expected = star_fleet
        victim = _dim_host(deployment, "region0")
        deployment.cluster.host(victim).fail(permanent=False)
        result = deployment.proxy.submit(_join(deployment))
        assert result.metadata["region"] == "region1"
        assert result.metadata["attempts"] == 2
        assert sorted(result.rows) == expected

    def test_non_retryable_failure_raises_immediately(
        self, star_fleet, monkeypatch
    ):
        deployment, __ = star_fleet

        def fatal(*args, **kwargs):
            raise QueryFailedError("fatal", region="region0",
                                   retryable=False)

        monkeypatch.setattr(
            deployment.coordinators["region0"], "collect_columns", fatal
        )
        never = deployment.coordinators["region1"]
        with pytest.raises(QueryFailedError, match="fatal"):
            deployment.proxy.submit(_join(deployment))
        assert never.executions == []

    def test_all_regions_failing_raises_last_error(self, star_fleet):
        deployment, __ = star_fleet
        for region in ("region0", "region1"):
            victim = _dim_host(deployment, region)
            deployment.cluster.host(victim).fail(permanent=False)
        with pytest.raises(QueryFailedError) as excinfo:
            deployment.proxy.submit(_join(deployment))
        assert excinfo.value.region == "region1"

    def test_all_regions_unavailable(self, star_fleet):
        deployment, __ = star_fleet
        for region in ("region0", "region1"):
            deployment.cluster.set_region_available(region, False)
        with pytest.raises(RegionUnavailableError):
            deployment.proxy.submit(_join(deployment))


class TestJoinThroughProxy:
    """What a join gets from the proxy that a fan-out already had."""

    def test_failing_host_is_blacklisted(self, star_fleet):
        deployment, __ = star_fleet
        victim = _dim_host(deployment, "region0")
        deployment.cluster.host(victim).fail(permanent=False)
        deployment.proxy.submit(_join(deployment))
        assert deployment.proxy.is_blacklisted(victim)

    def test_join_is_one_query_log_entry(self, star_fleet):
        deployment, __ = star_fleet
        proxy = deployment.proxy
        ok = deployment.obs.metrics.counter("cubrick.proxy.queries",
                                            outcome="ok")
        logged, answered = len(proxy.query_log), ok.value
        deployment.sql(JOIN_SQL)
        assert len(proxy.query_log) == logged + 1
        assert proxy.query_log[-1].succeeded
        assert ok.value == answered + 1

    def test_one_root_span_over_collect_and_scans(self, star_fleet):
        deployment, __ = star_fleet
        tracer = deployment.obs.tracer
        before = tracer.finished_traces
        deployment.sql(JOIN_SQL)
        assert tracer.finished_traces == before + 1
        root = tracer.recent[-1]
        assert root.name == "cubrick.proxy.query"
        names = [span.name for span in root.walk()]
        assert "cubrick.coordinator.collect" in names
        assert "cubrick.node.scan" in names
        collect = next(s for s in root.walk()
                       if s.name == "cubrick.coordinator.collect")
        scans = [s for s in root.walk() if s.name == "cubrick.node.scan"]
        # The fact scan starts once the dimension side is collected.
        assert min(s.start for s in scans) >= collect.end

    def test_deadline_hedges_it(self, star_fleet):
        deployment, expected = star_fleet
        deployment.coordinators["region0"].service_time_hook = (
            lambda host, service_time: service_time + 5.0
        )
        result = deployment.sql(JOIN_SQL, deadline=1.0)
        assert result.metadata["region"] == "region1"
        assert result.metadata["timeouts"] == 1
        assert result.metadata["latency_total"] > 1.0
        assert sorted(result.rows) == expected
        with pytest.raises(QueryFailedError, match="deadline"):
            deployment.sql(JOIN_SQL, deadline=1e-6)

    def test_partial_mode_never_drops_dimension_rows(self, star_fleet):
        deployment, expected = star_fleet
        victim = _dim_host(deployment, "region0")
        deployment.cluster.host(victim).fail(permanent=False)
        result = deployment.sql(JOIN_SQL, allow_partial=True)
        assert result.metadata["region"] == "region1"
        assert sorted(result.rows) == expected
        # With the dimension side down everywhere there is no answer,
        # rather than one missing dimension matches.
        victim = _dim_host(deployment, "region1")
        deployment.cluster.host(victim).fail(permanent=False)
        with pytest.raises(QueryFailedError):
            deployment.sql(JOIN_SQL, allow_partial=True)
