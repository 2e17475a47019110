"""Command-line interface: run the paper's analyses from a shell.

Usage::

    python -m repro.cli wall --failure-probability 1e-4 --sla 0.99
    python -m repro.cli curve --fanouts 1,10,100,1000
    python -m repro.cli fanout-experiment --fanouts 1,4,8 --queries 200
    python -m repro.cli collisions --tables 500 --max-shards 300000
    python -m repro.cli smc-delay --samples 100000
    python -m repro.cli sql "SELECT sum(clicks) FROM events GROUP BY day"
    python -m repro.cli explain "SELECT count(*) FROM events JOIN \\
        dim_users ON events.user_id = dim_users.user_id"

Each subcommand prints the corresponding paper figure's series as text.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.core.wall import (
    WallAnalysis,
    required_failure_probability,
    success_curve,
)
from repro.cubrick.partitioning import PartitioningPolicy
from repro.cubrick.sharding import MonotonicHashMapper, analyze_collisions
from repro.smc.tree import PropagationTree
from repro.workloads.fanout_experiment import run_fanout_experiment
from repro.workloads.tables import TenantWorkload, expected_partitions


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def cmd_wall(args: argparse.Namespace) -> int:
    analysis = WallAnalysis.compute(args.failure_probability, args.sla)
    print(f"failure probability : {analysis.failure_probability:g}")
    print(f"SLA                 : {analysis.sla:.2%}")
    print(f"scalability wall    : {analysis.wall_fanout} servers")
    print(f"success at wall     : {analysis.success_at_wall:.4%}")
    print(f"success at 2x wall  : {analysis.success_at_twice_wall:.4%}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    values = success_curve(args.fanouts, args.failure_probability)
    print(f"{'fanout':>8}  {'success':>10}  meets {args.sla:.0%} SLA")
    for fanout, value in zip(args.fanouts, values):
        meets = "yes" if value >= args.sla else "NO"
        print(f"{fanout:>8}  {value:>10.4%}  {meets}")
    return 0


def cmd_required_reliability(args: argparse.Namespace) -> int:
    p = required_failure_probability(args.fanout, args.sla)
    print(f"to run fan-out {args.fanout} at {args.sla:.2%} success, "
          f"per-server failure probability must be below {p:.3e}")
    return 0


def _fanout_deployment(args: argparse.Namespace) -> CubrickDeployment:
    return CubrickDeployment(
        DeploymentConfig(
            seed=args.seed, regions=2, racks_per_region=2,
            hosts_per_rack=max(4, max(args.fanouts) // 4),
        )
    )


def cmd_fanout_experiment(args: argparse.Namespace) -> int:
    deployment = _fanout_deployment(args)
    result = run_fanout_experiment(
        deployment, args.fanouts, queries_per_table=args.queries
    )
    # Percentiles come from the telemetry histograms (retained samples,
    # interpolated readout), not a side-channel latency list.
    print(f"{'fanout':>7} {'queries':>8} {'p50ms':>8} {'p95ms':>8} "
          f"{'p99ms':>8} {'maxms':>8}")
    for row in result.rows:
        histogram = deployment.obs.metrics.get(
            "workloads.fanout.latency_seconds", fanout=row.fanout
        )
        readout = histogram.readout()
        print(f"{row.fanout:>7} {readout['count']:>8} "
              f"{readout['p50'] * 1e3:>8.1f} {readout['p95'] * 1e3:>8.1f} "
              f"{readout['p99'] * 1e3:>8.1f} {readout['max'] * 1e3:>8.1f}")
    failures = sum(result.failed_queries.values())
    if failures:
        print(f"failed queries: {failures}")
    if args.obs_json:
        deployment.obs.dump(args.obs_json)
        print(f"telemetry written to {args.obs_json}")
    return 0


def _print_span(span: dict, depth: int = 0) -> None:
    indent = "  " * depth
    labels = " ".join(
        f"{k}={v}" for k, v in sorted(span.get("labels", {}).items())
    )
    duration_ms = span["duration"] * 1e3
    print(f"{indent}{span['name']} {duration_ms:8.2f} ms"
          + (f"  [{labels}]" if labels else ""))
    for child in span.get("children", []):
        _print_span(child, depth + 1)


def cmd_obs(args: argparse.Namespace) -> int:
    """Run a seeded fanout workload and print its telemetry."""
    deployment = _fanout_deployment(args)
    result = run_fanout_experiment(
        deployment, args.fanouts, queries_per_table=args.queries
    )
    obs = deployment.obs

    print(f"== metrics ({len(obs.metrics)} instruments) ==")
    for entry in obs.metrics.snapshot():
        labels = " ".join(
            f"{k}={v}" for k, v in sorted(entry["labels"].items())
        )
        key = f"{entry['name']}" + (f"{{{labels}}}" if labels else "")
        if entry["type"] in ("counter", "gauge"):
            print(f"  {key} = {entry['value']:g}")
        elif entry["count"] == 0:
            print(f"  {key} count=0")
        else:
            print(f"  {key} count={entry['count']} "
                  f"p50={entry['p50']:.6f} p95={entry['p95']:.6f} "
                  f"p99={entry['p99']:.6f}")

    print(f"\n== slowest traces (top {args.top} per kind, "
          f"{obs.tracer.finished_traces} finished) ==")
    by_name: dict[str, list] = {}
    for span in obs.tracer.slowest():
        by_name.setdefault(span.name, []).append(span)
    for name in sorted(by_name):
        for span in by_name[name][:args.top]:
            _print_span(span.to_dict())

    events = obs.events
    print(f"\n== events ({events.emitted} emitted, "
          f"{events.dropped} dropped) ==")
    if events.dropped:
        print(f"  !! ring overflow: {events.dropped} event(s) dropped "
              "(counted in repro.obs.events_dropped)")
    for line in events.to_jsonl(args.events).splitlines():
        print(f"  {line}")

    failures = sum(result.failed_queries.values())
    if failures:
        print(f"\nfailed queries: {failures}")
    if args.json:
        obs.dump(args.json)
        print(f"\ntelemetry written to {args.json}")
    return 0


def _print_stage_table(stages: dict, wall: Optional[float] = None) -> None:
    """One stage-breakdown table: self time (+share of wall), volumes."""
    total = wall if wall is not None else sum(
        s.self_time for s in stages.values()
    )
    print(f"    {'stage':<28} {'self':>10}  {'share':>6} "
          f"{'spans':>6} {'rows':>9}")
    ordered = sorted(
        stages.values(), key=lambda s: (-s.self_time, s.stage)
    )
    for stats in ordered:
        share = stats.self_time / total if total > 0 else 0.0
        print(f"    {stats.stage:<28} {stats.self_time * 1e3:>8.2f}ms "
              f"{share:>6.1%} {stats.spans:>6} {stats.rows_scanned:>9}")


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a seeded overload storm end to end.

    Runs the managed overload demo with the SLO engine attached on the
    DES clock, then prints the top-N queries by wall time with
    per-stage self-time breakdowns (stage self-times sum to each
    query's wall time), stage and per-tenant aggregates, the
    error-budget ledger and the burn-rate alert timeline. Output is
    byte-identical for identical seeds; ``--flame``/``--prom``/
    ``--spans`` write the flamegraph collapsed stacks, Prometheus text
    and OTLP-ish span dump to files.
    """
    from repro.obs import Profiler, prometheus_text, spans_jsonl
    from repro.obs.export import write_text
    from repro.workloads.loadgen import run_profiled_overload

    report, deployment, __, engine = run_profiled_overload(
        args.seed,
        policy=args.policy,
        saturation=args.saturation,
        duration=args.duration,
    )
    obs = deployment.obs
    profiler = Profiler(obs)
    profiles = profiler.profiles()

    print(f"storm: {report.rate:.1f} qps for {report.duration:.1f}s "
          f"({report.saturation:g}x), admitted success ratio "
          f"{report.success_ratio:.4f}, drained "
          f"{'yes' if report.drained else 'NO'}")
    print(f"\n== query profiles: {len(profiles)} traced queries retained "
          f"(seed={args.seed} policy={args.policy} "
          f"saturation={args.saturation:g}x) ==")
    ranked = sorted(profiles, key=lambda p: (-p.wall_time, p.trace_id))
    for profile in ranked[:args.top]:
        print(f"\n  trace {profile.trace_id}: table={profile.table} "
              f"tenant={profile.tenant} outcome={profile.outcome} "
              f"wall={profile.wall_time * 1e3:.2f}ms "
              f"(stages sum to {profile.self_time_total * 1e3:.2f}ms)")
        _print_stage_table(profile.stages, profile.wall_time)

    print("\n== stage totals (all retained queries) ==")
    _print_stage_table(profiler.by_stage(profiles))

    print("\n== per-tenant stage totals ==")
    for tenant, stages in profiler.by_tenant(profiles).items():
        wall = sum(s.self_time for s in stages.values())
        print(f"  {tenant} ({wall * 1e3:.2f}ms attributed)")
        _print_stage_table(stages)

    print("\n== error-budget ledger ==")
    print(engine.render_ledger(), end="")

    print("\n== burn-rate alerts ==")
    timeline = engine.alert_timeline()
    print(timeline if timeline else "  (no alert transitions)\n", end="")

    dropped = obs.events.dropped
    if dropped:
        print(f"\n!! event ring overflow: {dropped} event(s) dropped")

    if args.flame:
        write_text(args.flame, profiler.folded(profiles))
        print(f"\nflamegraph collapsed stacks written to {args.flame}")
    if args.prom:
        write_text(args.prom, prometheus_text(obs.metrics))
        print(f"prometheus text written to {args.prom}")
    if args.spans:
        write_text(args.spans, spans_jsonl(obs))
        print(f"span dump written to {args.spans}")
    return 0


def cmd_collisions(args: argparse.Namespace) -> int:
    workload = TenantWorkload.generate(args.tables, seed=args.seed)
    policy = PartitioningPolicy()
    population = {
        spec.name: expected_partitions(spec.rows, policy)
        for spec in workload.specs
    }
    rng = np.random.default_rng(args.seed)
    mapper = MonotonicHashMapper(max_shards=args.max_shards)
    used = set()
    for table, count in population.items():
        used.update(mapper.shards_of(table, count))
    shard_to_host = {
        shard: f"host{rng.integers(args.hosts):04d}" for shard in sorted(used)
    }
    reportage = analyze_collisions(population, mapper, shard_to_host)
    print(f"tables                      : {reportage.tables}")
    print(f"shard collisions            : "
          f"{reportage.shard_collision_fraction:.2%}")
    print(f"cross-table partition coll. : {reportage.cross_table_fraction:.2%}")
    print(f"same-table partition coll.  : {reportage.same_table_fraction:.2%}")
    return 0


def _sql_demo_deployment(seed: int, rows: int) -> CubrickDeployment:
    """A seeded demo deployment for the ``sql``/``explain`` commands.

    Three tables exercise every join strategy: ``events(day[30],
    country[50], user_id[400]; clicks, cost)`` is the sharded fact;
    ``dim_users(user_id[400], tier[4]; weight)`` is sharded too (so
    joining it needs a broadcast or partitioned-hash plan); ``dim_geo``
    is a replicated country attribute table answered node-locally.
    """
    deployment = CubrickDeployment(
        DeploymentConfig(seed=seed, regions=2, racks_per_region=2,
                         hosts_per_rack=3)
    )
    from repro.cubrick.schema import Dimension, Metric, TableSchema

    deployment.create_table(TableSchema.build(
        "events",
        dimensions=[Dimension("day", 30, range_size=7),
                    Dimension("country", 50, range_size=10),
                    Dimension("user_id", 400, range_size=50)],
        metrics=[Metric("clicks"), Metric("cost")],
    ))
    deployment.create_table(TableSchema.build(
        "dim_users",
        dimensions=[Dimension("user_id", 400, range_size=50),
                    Dimension("tier", 4, range_size=1)],
        metrics=[Metric("weight")],
    ))
    deployment.create_table(
        TableSchema.build(
            "dim_geo",
            dimensions=[Dimension("country", 50, range_size=10),
                        Dimension("region", 8, range_size=1)],
            metrics=[Metric("population")],
        ),
        replicated=True,
    )
    rng = np.random.default_rng(seed)
    deployment.load(
        "events",
        [{
            "day": int(rng.integers(30)),
            "country": min(int(rng.zipf(1.5)) - 1, 49),
            "user_id": int(rng.integers(400)),
            "clicks": float(rng.integers(1, 20)),
            "cost": float(rng.exponential(2.0)),
        } for __ in range(rows)],
    )
    deployment.load(
        "dim_users",
        [{
            "user_id": user_id,
            "tier": user_id % 4,
            "weight": 1.0,
        } for user_id in range(400)],
    )
    deployment.load(
        "dim_geo",
        [{
            "country": country,
            "region": country % 8,
            "population": float(1000 + country),
        } for country in range(50)],
    )
    deployment.simulator.run_until(60.0)
    return deployment


def cmd_sql(args: argparse.Namespace) -> int:
    """Run SQL against a freshly built demo deployment.

    The fact table is ``events(day[30], country[50], user_id[400],
    clicks, cost)`` with Zipf-skewed synthetic rows, plus a *sharded*
    ``dim_users`` join table and a *replicated* ``dim_geo`` one —
    enough to explore the dialect and every join strategy:

        python -m repro.cli sql \\
            "SELECT sum(clicks) FROM events GROUP BY day LIMIT 5"
    """
    deployment = _sql_demo_deployment(args.seed, args.rows)
    result = deployment.sql(args.sql)
    print("  ".join(result.columns))
    for row in result.rows:
        print("  ".join(
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        ))
    strategies = result.metadata.get("join_strategies")
    print(f"-- {len(result.rows)} row(s), "
          f"latency {result.metadata['latency'] * 1e3:.1f} ms, "
          f"fan-out {result.metadata['fanout']}"
          + (f", region {result.metadata['region']}"
             if "region" in result.metadata else "")
          + (f", joins {strategies}" if strategies else ""))
    if args.obs_json:
        deployment.obs.dump(args.obs_json)
        print(f"telemetry written to {args.obs_json}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the deterministic EXPLAIN text for a statement.

    Plans against the same demo deployment as the ``sql`` command
    without executing anything; byte-identical for identical
    ``(seed, rows, statement)``.

        python -m repro.cli explain \\
            "SELECT count(*) FROM events WHERE day < 7"
    """
    deployment = _sql_demo_deployment(args.seed, args.rows)
    print(deployment.explain(args.sql, optimize=not args.no_optimize),
          end="")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a named chaos scenario and print its invariant/SLA report.

    The report is byte-identical for identical ``(scenario, seed)``
    pairs — the CI determinism gate runs this twice and diffs.
    """
    from repro.chaos import list_scenarios, run_scenario

    if args.list:
        for name, description in list_scenarios():
            print(f"{name:<20} {description}")
        return 0
    if args.scenario is None:
        print("error: --scenario is required (or use --list)",
              file=sys.stderr)
        return 2
    report = run_scenario(args.scenario, seed=args.seed)
    print(report.render(), end="")
    return 0 if report.ok else 1


def cmd_overload(args: argparse.Namespace) -> int:
    """Run the overload-vs-SLA experiment and print its report(s).

    With ``--policy both`` (the default) the same seeded storm is run
    against the managed and legacy policies back to back — the paper's
    trade made visible: shed explicitly and defend the SLA for what you
    admitted, or admit everything and collapse it for everyone. Reports
    are byte-identical for identical seeds — the CI determinism gate
    runs this twice and diffs.
    """
    from repro.workloads.loadgen import run_overload_experiment

    policies = (
        ["managed", "legacy"] if args.policy == "both" else [args.policy]
    )
    ok = True
    for index, policy in enumerate(policies):
        report = run_overload_experiment(
            args.seed,
            policy=policy,
            saturation=args.saturation,
            duration=args.duration,
        )
        if index:
            print()
        print(report.render(), end="")
        if policy == "managed" and not report.sla_met:
            ok = False
    return 0 if ok else 1


def cmd_autoscale(args: argparse.Namespace) -> int:
    """Run the wall-breach experiment and print its report.

    The managed arm (elastic control plane: staged provisioning, online
    resharding, fan-out capped at the wall) and the naive full-sharding
    baseline ride the same seeded growth ramp. Exit status is non-zero
    unless the managed arm held the SLA *and* the baseline collapsed —
    the paper's wall made operational. Reports are byte-identical for
    identical seeds.
    """
    from repro.autoscale import run_autoscale_experiment

    report = run_autoscale_experiment(
        args.seed,
        phases=args.phases,
        queries_per_phase=args.queries,
    )
    print(report.render(), end="")
    return 0 if report.sla_met and report.baseline_collapsed else 1


def cmd_regionfail(args: argparse.Namespace) -> int:
    """Run the region-failure experiment and print its report.

    The managed arm (three regions, consensus-replicated metadata,
    home-region query preference) and a single-region baseline ride the
    same traffic while the home region fully partitions mid-run. Exit
    status is non-zero unless the managed arm held the windowed SLA
    through the partition, the baseline collapsed, *and* every consensus
    safety invariant held through the elections. Reports are
    byte-identical for identical seeds.
    """
    from repro.consensus.demo import run_regionfail_experiment

    report = run_regionfail_experiment(
        args.seed,
        duration=args.duration,
        queries=args.queries,
    )
    print(report.render(), end="")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the simulated fleet over TCP until SIGTERM.

    Builds the standard serving deployment (seeded, warmed up under the
    virtual clock), binds the asyncio gateway, installs SIGTERM/SIGINT
    handlers for graceful drain, and blocks until drained. The fleet
    build is byte-reproducible; only the serving itself runs on the
    wall clock.
    """
    import asyncio

    from repro.serve import ServeGateway, build_serving_deployment

    async def _serve() -> int:
        serving = build_serving_deployment(args.seed)
        gateway = ServeGateway(
            serving,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            metrics_path=args.metrics,
        )
        host, port = await gateway.start()
        gateway.install_signal_handlers()
        print(f"repro serve: listening on {host}:{port} "
              f"(seed={args.seed}); SIGTERM drains gracefully",
              flush=True)
        await gateway.serve_forever()
        snapshot = gateway.snapshot()
        print(f"drained: {snapshot['responses_total']} responses, "
              f"{snapshot['protocol_errors']} protocol errors")
        return 0

    return asyncio.run(_serve())


def cmd_smc_delay(args: argparse.Namespace) -> int:
    tree = PropagationTree()
    rng = np.random.default_rng(args.seed)
    delays = tree.sample_delays(rng, args.samples)
    for percentile in (50, 90, 99, 99.9):
        print(f"p{percentile:<5} {np.percentile(delays, percentile):6.2f} s")
    print(f"mean   {delays.mean():6.2f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Breaching the Scalability Wall' "
                    "(ICDE 2021): run the paper's analyses from a shell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wall = sub.add_parser("wall", help="locate the scalability wall (Fig 1)")
    wall.add_argument("--failure-probability", type=float, default=1e-4)
    wall.add_argument("--sla", type=float, default=0.99)
    wall.set_defaults(func=cmd_wall)

    curve = sub.add_parser("curve", help="success-ratio curve (Figs 1-2)")
    curve.add_argument("--failure-probability", type=float, default=1e-4)
    curve.add_argument("--sla", type=float, default=0.99)
    curve.add_argument(
        "--fanouts", type=_parse_int_list,
        default=[1, 10, 50, 100, 200, 500, 1000],
    )
    curve.set_defaults(func=cmd_curve)

    required = sub.add_parser(
        "required-reliability",
        help="failure probability needed for a fan-out to meet an SLA",
    )
    required.add_argument("--fanout", type=int, required=True)
    required.add_argument("--sla", type=float, default=0.99)
    required.set_defaults(func=cmd_required_reliability)

    fanout = sub.add_parser(
        "fanout-experiment",
        help="integrated latency-vs-fanout run (Fig 5)",
    )
    fanout.add_argument("--fanouts", type=_parse_int_list, default=[1, 4, 8])
    fanout.add_argument("--queries", type=int, default=200)
    fanout.add_argument("--seed", type=int, default=0)
    fanout.add_argument(
        "--obs-json", metavar="PATH", default=None,
        help="write the full telemetry export (JSON) to PATH",
    )
    fanout.set_defaults(func=cmd_fanout_experiment)

    obs = sub.add_parser(
        "obs",
        help="run a seeded workload and print its telemetry "
             "(metrics, traces, events)",
    )
    obs.add_argument("--fanouts", type=_parse_int_list, default=[1, 4, 8])
    obs.add_argument("--queries", type=int, default=200)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--top", type=int, default=3,
                     help="slowest traces to print per trace kind")
    obs.add_argument("--events", type=int, default=20,
                     help="recent structured events to print")
    obs.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full telemetry export (JSON) to PATH",
    )
    obs.set_defaults(func=cmd_obs)

    profile = sub.add_parser(
        "profile",
        help="profile a seeded overload storm: per-stage breakdowns, "
             "SLO error budgets, flamegraph/Prometheus/span exports",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--policy", choices=("managed", "legacy"), default="managed"
    )
    profile.add_argument("--saturation", type=float, default=5.0,
                         help="arrival rate as a multiple of capacity")
    profile.add_argument("--duration", type=float, default=20.0,
                         help="storm duration in virtual seconds")
    profile.add_argument("--top", type=int, default=5,
                         help="queries to break down, slowest first")
    profile.add_argument("--flame", metavar="PATH", default=None,
                         help="write flamegraph collapsed stacks to PATH")
    profile.add_argument("--prom", metavar="PATH", default=None,
                         help="write the Prometheus text export to PATH")
    profile.add_argument("--spans", metavar="PATH", default=None,
                         help="write the OTLP-ish span dump (JSONL) to PATH")
    profile.set_defaults(func=cmd_profile)

    collisions = sub.add_parser(
        "collisions", help="collision census (Fig 4a)"
    )
    collisions.add_argument("--tables", type=int, default=500)
    collisions.add_argument("--max-shards", type=int, default=300_000)
    collisions.add_argument("--hosts", type=int, default=500)
    collisions.add_argument("--seed", type=int, default=0)
    collisions.set_defaults(func=cmd_collisions)

    sql = sub.add_parser(
        "sql",
        help="run SQL against a synthetic demo deployment "
             "(sharded fact + sharded and replicated join tables)",
    )
    sql.add_argument("sql", help="the SQL statement to execute")
    sql.add_argument("--rows", type=int, default=5000)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument(
        "--obs-json", metavar="PATH", default=None,
        help="write the full telemetry export (JSON) to PATH",
    )
    sql.set_defaults(func=cmd_sql)

    explain = sub.add_parser(
        "explain",
        help="print the deterministic EXPLAIN for a SQL statement "
             "against the demo deployment (no execution)",
    )
    explain.add_argument("sql", help="the SQL statement to explain")
    explain.add_argument("--rows", type=int, default=5000)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--no-optimize", action="store_true",
        help="skip optional rewrite rules (pushdown, pruning, "
             "hash-join selection)",
    )
    explain.set_defaults(func=cmd_explain)

    chaos = sub.add_parser(
        "chaos",
        help="run a named fault-injection scenario and print the "
             "invariant/SLA report",
    )
    chaos.add_argument("--scenario", default=None,
                       help="scenario name (see --list)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    chaos.set_defaults(func=cmd_chaos)

    overload = sub.add_parser(
        "overload",
        help="run a seeded overload storm against the managed and "
             "legacy workload-management policies",
    )
    overload.add_argument(
        "--policy", choices=("managed", "legacy", "both"), default="both"
    )
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--saturation", type=float, default=5.0,
                          help="arrival rate as a multiple of capacity")
    overload.add_argument("--duration", type=float, default=20.0,
                          help="storm duration in virtual seconds")
    overload.set_defaults(func=cmd_overload)

    autoscale = sub.add_parser(
        "autoscale",
        help="run the wall-breach experiment: elastic control plane vs "
             "naive full-sharding baseline on the same growth ramp",
    )
    autoscale.add_argument("--seed", type=int, default=0)
    autoscale.add_argument("--phases", type=int, default=4)
    autoscale.add_argument("--queries", type=int, default=500,
                           help="queries per growth phase")
    autoscale.set_defaults(func=cmd_autoscale)

    regionfail = sub.add_parser(
        "regionfail",
        help="run the region-failure experiment: consensus metadata + "
             "cross-region failover vs a single-region baseline",
    )
    regionfail.add_argument("--seed", type=int, default=0)
    regionfail.add_argument("--duration", type=float, default=600.0,
                            help="traffic duration in virtual seconds")
    regionfail.add_argument("--queries", type=int, default=600,
                            help="queries spread over the traffic window")
    regionfail.set_defaults(func=cmd_regionfail)

    serve = sub.add_parser(
        "serve",
        help="serve the simulated fleet over TCP (length-prefixed JSON "
             "protocol; SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7432,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="per-connection in-flight request window")
    serve.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the Prometheus text export to PATH on drain",
    )
    serve.set_defaults(func=cmd_serve)

    smc = sub.add_parser("smc-delay", help="SMC propagation delays (Fig 4c)")
    smc.add_argument("--samples", type=int, default=100_000)
    smc.add_argument("--seed", type=int, default=0)
    smc.set_defaults(func=cmd_smc_delay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g. head).
        return 0


if __name__ == "__main__":
    sys.exit(main())
