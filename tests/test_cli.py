"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_int_list, build_parser, main


class TestParsing:
    def test_int_list(self):
        assert _parse_int_list("1,2,3") == [1, 2, 3]

    def test_int_list_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_int_list("1,x")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_wall(self, capsys):
        assert main(["wall"]) == 0
        out = capsys.readouterr().out
        assert "scalability wall    : 100 servers" in out

    def test_wall_custom_parameters(self, capsys):
        assert main(["wall", "--failure-probability", "1e-3",
                     "--sla", "0.99"]) == 0
        out = capsys.readouterr().out
        assert "10 servers" in out

    def test_curve(self, capsys):
        assert main(["curve", "--fanouts", "1,100,1000"]) == 0
        out = capsys.readouterr().out
        assert "NO" in out  # 1000 hosts misses the 99% SLA
        assert "yes" in out

    def test_required_reliability(self, capsys):
        assert main(["required-reliability", "--fanout", "10000"]) == 0
        out = capsys.readouterr().out
        assert "must be below" in out

    def test_collisions(self, capsys):
        assert main(["collisions", "--tables", "100",
                     "--max-shards", "50000", "--hosts", "100"]) == 0
        out = capsys.readouterr().out
        assert "same-table partition coll.  : 0.00%" in out

    def test_smc_delay(self, capsys):
        assert main(["smc-delay", "--samples", "5000"]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "mean" in out

    def test_demo_sql(self, capsys):
        assert main([
            "sql",
            "SELECT count(*) FROM events WHERE day = 1",
            "--rows", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "count(*)" in out
        assert "1 row(s)" in out

    def test_demo_sql_rejects_bad_statement(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            main(["sql", "SELEC oops", "--rows", "10"])

    def test_sql_sharded_join(self, capsys):
        assert main([
            "sql",
            "SELECT dim_users.tier, sum(clicks) FROM events "
            "JOIN dim_users ON events.user_id = dim_users.user_id "
            "GROUP BY dim_users.tier",
            "--rows", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "dim_users.tier" in out
        assert "joins {'dim_users': 'broadcast'}" in out

    def test_explain_deterministic(self, capsys):
        argv = [
            "explain",
            "SELECT count(*) FROM events WHERE day < 7 GROUP BY country",
            "--rows", "200",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "== physical plan == [fanout]" in first

    def test_explain_no_optimize(self, capsys):
        statement = (
            "SELECT count(*) FROM events "
            "JOIN dim_users ON events.user_id = dim_users.user_id "
            "WHERE day = 1"
        )
        assert main(["explain", statement, "--rows", "200"]) == 0
        optimized = capsys.readouterr().out
        assert main(["explain", statement, "--rows", "200",
                     "--no-optimize"]) == 0
        unoptimized = capsys.readouterr().out
        assert optimized != unoptimized
        assert "partition-pruning" in optimized

    def test_fanout_experiment_small(self, capsys):
        assert main(["fanout-experiment", "--fanouts", "1,2",
                     "--queries", "30"]) == 0
        out = capsys.readouterr().out
        assert "fanout" in out
        assert " 1 " in out or "\n      1" in out
