"""``engine_scan`` and ``engine_ingest``: the storage engine in-process.

No gateway, no pump, no cache: ``deployment.sql`` goes straight through
planner -> proxy -> coordinator -> node -> storage -> kernels, and the
loader through routing -> brick building. The unit of work ("op") is a
*round*: every query class of the workload once (``engine_scan``), or
one batch ingested plus every query class once (``engine_ingest``).

Two brick geometries of the same columns separate kernel speed from
per-brick Python overhead: ``facts`` has ~32 bricks of ~2000 rows,
``facts_fine`` ~256 bricks of ~94 rows.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Optional

import numpy as np

import reference
import tracing
from common import RESULTS, Tally, memory_kb, percentile, reset_peak_rss, timing
from reference import Spec

DAYS, ENTITIES, USERS = 64, 128, 4096
FACTS_ROWS, FINE_ROWS = 64_000, 24_000
PARTITIONS = 8
#: (day, entity, user) range sizes: the brick geometry of each table.
GEOMETRY = {
    "facts": (32, 64, USERS),
    "facts_fine": (16, 32, USERS // 2),
}
WARMUP_SECONDS = 30.0
INGEST_BATCH = 10_000
#: Batches per fresh table in ``engine_ingest``; then the table is
#: dropped and the cycle restarts, so memory and scan size stay bounded.
INGEST_CYCLE = 12

_PRUNED = (("day", "between", (8, 15)), ("entity", "in", (3, 40, 100)))
#: name -> (SQL with {t} for the table, oracle spec, table)
SCAN_CLASSES = {
    "full_sum": (
        "SELECT sum(value) FROM {t}", Spec(aggs=(("sum", "value"),)), "facts"),
    "group_day": (
        "SELECT day, sum(value), count(*) FROM {t} GROUP BY day",
        Spec(aggs=(("sum", "value"), ("count", "value")), group_by=("day",)),
        "facts"),
    "group_day_entity_top10": (
        "SELECT day, entity, sum(value) FROM {t} GROUP BY day, entity "
        "ORDER BY sum(value) DESC LIMIT 10",
        Spec(aggs=(("sum", "value"),), group_by=("day", "entity"),
             order_by=2, limit=10),
        "facts"),
    "group_user_count_distinct": (
        "SELECT user, count_distinct(entity) FROM {t} GROUP BY user "
        "ORDER BY count_distinct(entity) DESC LIMIT 10",
        Spec(aggs=(("count_distinct", "entity"),), group_by=("user",),
             order_by=1, limit=10),
        "facts"),
    "group_user_minmax": (
        "SELECT user, min(value), max(value) FROM {t} GROUP BY user "
        "ORDER BY max(value) DESC LIMIT 10",
        Spec(aggs=(("min", "value"), ("max", "value")), group_by=("user",),
             order_by=2, limit=10),
        "facts"),
    "filtered_pruned": (
        "SELECT sum(cost) FROM {t} WHERE day BETWEEN 8 AND 15 "
        "AND entity IN (3, 40, 100)",
        Spec(aggs=(("sum", "cost"),), filters=_PRUNED),
        "facts"),
    "fine_full_sum": (
        "SELECT sum(value) FROM {t}", Spec(aggs=(("sum", "value"),)),
        "facts_fine"),
    "fine_group_day": (
        "SELECT day, sum(value), count(*) FROM {t} GROUP BY day",
        Spec(aggs=(("sum", "value"), ("count", "value")), group_by=("day",)),
        "facts_fine"),
}
INGEST_CLASSES = ("full_sum", "group_day", "filtered_pruned")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def generate(rng: np.random.Generator, rows: int) -> dict:
    """Seeded columns. Metrics are multiples of 1/8: sums are exact."""
    return {
        "day": rng.integers(DAYS, size=rows),
        "entity": rng.integers(ENTITIES, size=rows),
        "user": rng.integers(USERS, size=rows),
        "value": rng.integers(0, 800, size=rows) / 8.0,
        "cost": rng.integers(0, 80, size=rows) / 8.0,
    }


def rows_of(columns: dict) -> list[dict]:
    """The columns as row dicts, the loader's input."""
    as_lists = [column.tolist() for column in columns.values()]
    return [dict(zip(columns, values)) for values in zip(*as_lists)]


def schema_of(table: str, geometry: str):
    from repro.cubrick.schema import Dimension, Metric, TableSchema

    day, entity, user = GEOMETRY[geometry]
    return TableSchema.build(
        table,
        dimensions=[
            Dimension("day", DAYS, range_size=day),
            Dimension("entity", ENTITIES, range_size=entity),
            Dimension("user", USERS, range_size=user),
        ],
        metrics=[Metric("value"), Metric("cost")],
    )


def new_deployment(seed: int, tables: dict):
    """1 region, 2 racks x 4 hosts, ``tables`` (name -> geometry) created,
    warmed up so that shard mappings have propagated."""
    from repro.core.deployment import CubrickDeployment, DeploymentConfig

    deployment = CubrickDeployment(
        DeploymentConfig(seed=seed, regions=1, racks_per_region=2, hosts_per_rack=4)
    )
    for table, geometry in tables.items():
        deployment.create_table(schema_of(table, geometry), num_partitions=PARTITIONS)
    deployment.simulator.run_until(WARMUP_SECONDS)
    return deployment


def load(deployment, table: str, rows: list[dict]) -> None:
    loader = deployment.loader(table)
    loader.append_many(rows)
    loader.flush()


# ----------------------------------------------------------------------
# Measuring rounds
# ----------------------------------------------------------------------


class Rounds:
    """Per-class query timings of the rounds of one phase."""

    def __init__(self, names) -> None:
        self.by_class = {name: [] for name in names}
        self.wall: list[float] = []  # per round, seconds
        self.cpu: list[float] = []
        self.rows_scanned = 0
        self.bricks_scanned = 0
        self.queries = 0

    def p50_ms(self) -> float:
        return percentile(sorted(self.wall), 50) * 1e3


def run_queries(deployment, statements: dict, check, rounds: Rounds) -> None:
    """One round: each statement once, each timed on its own; the answer
    check runs outside the timed region."""
    wall = cpu = 0.0
    for name, sql in statements.items():
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = deployment.sql(sql)
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        wall += dt
        rounds.by_class[name].append(dt)
        rounds.rows_scanned += result.rows_scanned
        rounds.bricks_scanned += result.bricks_scanned
        rounds.queries += 1
        check(name, result.rows)
    rounds.wall.append(wall)
    rounds.cpu.append(cpu)


def pruned_ratio(deployment, sql: str, table: str) -> float:
    """Share of the table's bricks a statement's filters let the scan
    skip, from ``PartitionStorage.explain`` — counted, not timed."""
    query = deployment.compile_sql(sql)
    scanned = total = 0
    for node in deployment.nodes.values():
        for index in range(PARTITIONS):
            if node.has_partition(table, index):
                plan = node.partition(table, index).explain(query)
                scanned += plan["bricks_scanned"]
                total += plan["bricks_total"]
    return 1.0 - scanned / total


def _end_to_end(setup_s: float, wall: list, cpu: list) -> dict:
    """The end-to-end metrics of ops that took ``wall`` / ``cpu`` seconds."""
    ordered = sorted(wall)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ordered) / sum(ordered),
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p90_ms": percentile(ordered, 90) * 1e3,
        "cpu_us_per_op": sum(cpu) / len(ordered) * 1e6,
        "peak_rss_mb": memory_kb(os.getpid(), "VmHWM") / 1024.0,
    }


def _class_metrics(rounds: Rounds) -> dict:
    return {
        f"cubrick.class.{name}_ms": percentile(sorted(samples), 50) * 1e3
        for name, samples in rounds.by_class.items()
    }


def _traced_phase(workload: str, recorder: tracing.Recorder, body) -> None:
    """Run ``body`` with the span recorder installed; write the trace."""
    tracing.install(recorder)
    try:
        body()
    finally:
        recorder.unpatch_all()
    RESULTS.mkdir(exist_ok=True)
    recorder.write(str(RESULTS / f"trace-{workload}.json"))


# ----------------------------------------------------------------------
# engine_scan
# ----------------------------------------------------------------------


def run_scan(seed: int, seconds: float, trace: bool, setups: int, import_s: float) -> dict:
    rng = np.random.default_rng([seed, 3])
    data = {
        "facts": generate(rng, FACTS_ROWS),
        "facts_fine": generate(rng, FINE_ROWS),
    }
    rows = {table: rows_of(columns) for table, columns in data.items()}
    tables = {name: table for name, (__, __, table) in SCAN_CLASSES.items()}
    statements = {
        name: sql.format(t=table) for name, (sql, __, table) in SCAN_CLASSES.items()
    }
    answers = reference.Answers({n: spec for n, (__, spec, __) in SCAN_CLASSES.items()})
    tally = Tally()

    def check(name: str, result) -> None:
        tally.record(answers.ok(name, data[tables[name]], 0, result))

    setup_times = []
    for __ in range(setups):
        t0 = time.perf_counter()
        deployment = new_deployment(seed, {t: t for t in data})
        for table in data:
            load(deployment, table, rows[table])
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    # The row dicts were the loader's input; kept alive they would be a
    # million objects for every garbage collection to walk. With them and
    # the earlier set-ups' deployments gone, peak memory starts afresh:
    # what the timed phase adds to it is the engine's.
    del rows
    reset_peak_rss()

    run_queries(deployment, statements, check, Rounds(statements))  # warm
    plain = Rounds(statements)
    budget = seconds * (0.3 if trace else 1.0)
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        run_queries(deployment, statements, check, plain)

    outcome = {"valid": True, "timings": {"round_ms": timing(plain.wall, 1e3)}}
    if not trace:
        outcome["metrics"] = _end_to_end(setup_s, plain.wall, plain.cpu)
    else:
        traced = Rounds(statements)
        recorder = tracing.Recorder(request_of=lambda: traced.queries)

        def body() -> None:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds * 0.7:
                run_queries(deployment, statements, check, traced)

        _traced_phase("engine_scan", recorder, body)
        metrics = tracing.per_call_self_us(recorder.summary())
        metrics.update(_class_metrics(plain))
        metrics.update(
            {
                "cubrick.scan_mrows_per_s": plain.rows_scanned / sum(plain.wall) / 1e6,
                "cubrick.kernels.self_us_per_krow": (
                    recorder.self_us("cubrick.kernels") / (traced.rows_scanned / 1e3)
                ),
                "cubrick.storage.bricks_per_query": plain.bricks_scanned / plain.queries,
                "cubrick.storage.rows_per_brick": plain.rows_scanned / plain.bricks_scanned,
                "cubrick.storage.pruned_ratio": pruned_ratio(
                    deployment, statements["filtered_pruned"], "facts"
                ),
                "trace.overhead_ratio": traced.p50_ms() / plain.p50_ms(),
            }
        )
        outcome["metrics"] = metrics
        outcome["timings"]["traced_round_ms"] = timing(traced.wall, 1e3)
    outcome.update(
        attempted=tally.attempted, failed=tally.failed, fail_reasons=tally.reasons
    )
    return outcome


# ----------------------------------------------------------------------
# engine_ingest
# ----------------------------------------------------------------------


class Ingest:
    """Cycles of INGEST_CYCLE batches into a fresh table, a round of
    queries after every batch."""

    def __init__(self, seed: int, tally: Tally):
        rng = np.random.default_rng([seed, 4])
        #: Columns of each batch of a cycle; a batch's row dicts are made
        #: just before it is loaded, so that peak memory holds one batch
        #: of the benchmark's own rows and not the whole cycle's.
        self.batches = [generate(rng, INGEST_BATCH) for __ in range(INGEST_CYCLE)]
        self.tally = tally
        self.answers = reference.Answers(
            {name: SCAN_CLASSES[name][1] for name in INGEST_CLASSES}
        )
        #: prefix[k]: the oracle's columns after k batches of a cycle.
        self.prefix = [
            {
                name: np.concatenate([b[name] for b in self.batches[:k]])
                for name in self.batches[0]
            }
            for k in range(1, INGEST_CYCLE + 1)
        ]
        self.deployment = None
        self.cycle = 0
        self.step = 0
        self.table: Optional[str] = None
        self.loader = None
        self.ingest_wall: list[float] = []
        self.rows_loaded = 0

    def setup(self, seed: int) -> None:
        self.deployment = new_deployment(seed, {})
        self.table = None
        self._fresh_table()

    def _fresh_table(self) -> None:
        dep = self.deployment
        if self.table is not None:
            dep.drop_table(self.table)
        self.table = f"facts_{self.cycle}"
        self.cycle += 1
        dep.create_table(schema_of(self.table, "facts"), num_partitions=PARTITIONS)
        # Virtual time only: the new table's shard mappings propagate.
        dep.simulator.run_until(dep.simulator.now + WARMUP_SECONDS)
        self.loader = dep.loader(self.table)
        self.step = 0

    def one_step(self, rounds: Rounds, step_wall: list, step_cpu: list) -> None:
        if self.step == INGEST_CYCLE:
            self._fresh_table()
        rows = rows_of(self.batches[self.step])
        columns = self.prefix[self.step]
        version = self.step
        self.step += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.loader.append_many(rows)
        self.loader.flush()
        ingest = time.perf_counter() - t0
        ingest_cpu = time.process_time() - c0
        self.ingest_wall.append(ingest)
        self.rows_loaded += len(rows)
        statements = {
            name: SCAN_CLASSES[name][0].format(t=self.table) for name in INGEST_CLASSES
        }
        run_queries(
            self.deployment,
            statements,
            lambda name, result: self.tally.record(
                self.answers.ok(name, columns, version, result)
            ),
            rounds,
        )
        step_wall.append(ingest + rounds.wall[-1])
        step_cpu.append(ingest_cpu + rounds.cpu[-1])


def run_ingest(seed: int, seconds: float, trace: bool, setups: int, import_s: float) -> dict:
    tally = Tally()
    ingest = Ingest(seed, tally)
    setup_times = []
    for __ in range(setups):
        t0 = time.perf_counter()
        ingest.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    reset_peak_rss()  # the earlier set-ups' deployments are garbage

    plain = Rounds(INGEST_CLASSES)
    step_wall: list[float] = []
    step_cpu: list[float] = []
    budget = seconds * (0.3 if trace else 1.0)
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        ingest.one_step(plain, step_wall, step_cpu)
    krows_per_s = ingest.rows_loaded / sum(ingest.ingest_wall) / 1e3

    outcome = {"valid": True, "timings": {"step_ms": timing(step_wall, 1e3)}}
    if not trace:
        outcome["metrics"] = _end_to_end(setup_s, step_wall, step_cpu)
    else:
        traced = Rounds(INGEST_CLASSES)
        traced_wall: list[float] = []
        recorder = tracing.Recorder(request_of=lambda: len(traced_wall))
        rows_before = ingest.rows_loaded

        def body() -> None:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds * 0.7:
                ingest.one_step(traced, traced_wall, [])

        _traced_phase("engine_ingest", recorder, body)
        traced_rows = ingest.rows_loaded - rows_before
        totals = recorder.summary()
        metrics = tracing.per_call_self_us(totals)
        metrics.update(_class_metrics(plain))
        flush = totals["cubrick.loader.flush"]
        metrics.update(
            {
                "cubrick.loader.krows_per_s": krows_per_s,
                "cubrick.loader.append_us_per_row": (
                    recorder.self_us("cubrick.loader.append_many") / traced_rows
                ),
                "cubrick.loader.flush_ms": flush["total_ns"] / flush["calls"] / 1e6,
                "cubrick.storage.insert_columns_us_per_krow": (
                    recorder.self_us("cubrick.storage.insert_columns")
                    / (traced_rows / 1e3)
                ),
                "cubrick.storage.bricks_per_query": plain.bricks_scanned / plain.queries,
                "cubrick.storage.rows_per_brick": plain.rows_scanned / plain.bricks_scanned,
                "trace.overhead_ratio": (
                    percentile(sorted(traced_wall), 50)
                    / percentile(sorted(step_wall), 50)
                ),
            }
        )
        outcome["metrics"] = metrics
    outcome.update(
        attempted=tally.attempted, failed=tally.failed, fail_reasons=tally.reasons
    )
    return outcome
