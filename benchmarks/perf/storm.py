"""``sim_storm``: the research-tool use — the DES under a query storm.

A seeded open-loop storm (Poisson arrivals, 30 queries per virtual second
for 100 virtual seconds, result cache off) of the dashboard statements
runs through admission -> queues -> proxy -> coordinator -> 300-row scans
entirely in virtual time. Kernels are
negligible; what is measured is the per-event and per-query Python
overhead of the simulator and the layers it drives. The unit of work
("op") is one virtual second of the storm.

Storms repeat, each on a fresh deployment, until the run's seconds are
used up. Virtual-time results are seeded, so a sha256 over ``(outcome,
latency)`` of every ``JobRecord`` must be the same for every storm of a
run, and for seed 0 equal to :data:`PINNED_SEED0` — the byte-identity
guard for PRs that promise not to change simulated behaviour. Every
answer is also checked against the oracle.

The arrival process is ``TrafficGenerator.run_open_loop``'s, written out
here because that class draws its own statement pool, whose mix of
shapes — and with it the cost of a query, by up to 25 % — changes with
the seed; :func:`dashboards.build_pool` keeps the shapes fixed.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from statistics import median

import numpy as np

import reference
import tracing
from common import RESULTS, Tally, memory_kb, percentile, timing
from dashboards import PRIORITY, build_pool, events_columns, statement_weights

RATE = 30.0
DURATION = 100.0
#: sha256 over the records of the seed-0 storm at this RATE x DURATION.
PINNED_SEED0 = "ae8d67667696279c"


class Storm:
    """One storm on a fresh deployment, timed per virtual second."""

    def __init__(self, seed: int, pool, weights):
        from repro.sched.queue import PriorityClass
        from repro.serve.deploy import build_serving_deployment, serve_policy

        t0 = time.perf_counter()
        self.serving = build_serving_deployment(
            seed, policy=serve_policy(cache_capacity=0)
        )
        manager, simulator = self.serving.manager, self.serving.simulator
        rng = np.random.default_rng([seed, 5])
        #: Statement index of the i-th submitted query (= i-th record).
        self.asked: list[int] = []

        def submit(index: int) -> None:
            statement = pool[index]
            self.asked.append(index)
            manager.submit(
                statement.query,
                tenant=statement.tenant,
                priority=PriorityClass[PRIORITY.upper()],
            )

        at = 0.0
        while True:
            at += float(rng.exponential(1.0 / RATE))
            if at >= DURATION:
                break
            index = int(rng.choice(len(pool), p=weights))
            simulator.call_later(at, lambda index=index: submit(index))
        self.setup_s = time.perf_counter() - t0
        self.slices: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.events = 0

    def run(self) -> None:
        """Run the storm, read everything worth keeping off the
        deployment, and let go of it."""
        simulator = self.serving.simulator
        events0 = simulator.events_processed
        cpu0 = time.process_time()
        begin = time.perf_counter()
        for __ in range(int(DURATION)):
            t0 = time.perf_counter()
            simulator.run_until(simulator.now + 1.0)
            self.slices.append(time.perf_counter() - t0)
        self.drained = self.serving.manager.drain()
        self.wall = time.perf_counter() - begin
        self.cpu = time.process_time() - cpu0
        self.events = simulator.events_processed - events0
        records = self.serving.manager.records
        digest = hashlib.sha256()
        for record in records:
            digest.update(f"{record.outcome},{record.latency!r};".encode())
        self.checksum = digest.hexdigest()[:16]
        self.records = [
            (r.outcome, r.result.rows if r.result is not None else None)
            for r in records
        ]
        # Spans per query trace, over the tracer's recent-trace store.
        roots = [
            root
            for root in self.serving.obs.tracer.recent
            if root.name == "repro.sched.query"
        ]
        self.spans_per_query = sum(1 for r in roots for __ in r.walk()) / len(roots)
        counters = self.serving.obs.metrics.find("repro.sched.admission")
        total = sum(c.value for c in counters)
        admitted = sum(
            c.value for c in counters if dict(c.labels).get("reason") == "ok"
        )
        self.reject_ratio = (total - admitted) / total if total else 0.0
        # A deployment is a web of cycles; collected here, outside any
        # timed region, so peak memory is one storm's and not the run's.
        self.serving = None
        gc.collect()


def run(seed: int, seconds: float, trace: bool, setups: int, import_s: float) -> dict:
    tally = Tally()
    storms: list[Storm] = []
    checksums = set()
    pool = build_pool(seed)
    weights = statement_weights()
    columns = events_columns(seed)
    answers = reference.Answers({i: s.spec for i, s in enumerate(pool)})

    def one_storm() -> Storm:
        storm = Storm(seed, pool, weights)
        storm.run()
        checksums.add(storm.checksum)
        same = len(checksums) == 1 and (seed != 0 or storm.checksum == PINNED_SEED0)
        for index, (outcome, rows) in zip(storm.asked, storm.records):
            if not (same and storm.drained):
                tally.record(False, "checksum")
            elif outcome != "ok":
                tally.record(False, outcome)
            else:
                tally.record(answers.ok(index, columns, 0, rows))
        storm.records = None
        return storm

    budget = seconds * (0.3 if trace else 1.0)
    start = time.perf_counter()
    while len(storms) < max(2, setups) or time.perf_counter() - start < budget:
        storms.append(one_storm())

    slices = sorted(s for storm in storms for s in storm.slices)
    outcome = {"valid": True, "timings": {"virtual_second_ms": timing(slices, 1e3)}}
    queries_per_s = median([len(s.asked) / s.wall for s in storms])
    if not trace:
        outcome["metrics"] = {
            "setup_s": import_s + median([s.setup_s for s in storms]),
            "ops_per_s": median([DURATION / s.wall for s in storms]),
            "p50_ms": percentile(slices, 50) * 1e3,
            "p90_ms": percentile(slices, 90) * 1e3,
            "cpu_us_per_op": median([s.cpu / DURATION for s in storms]) * 1e6,
            "peak_rss_mb": memory_kb(os.getpid(), "VmHWM") / 1024.0,
        }
    else:
        recorder = tracing.Recorder(request_of=lambda: 0)
        traced: list[Storm] = []
        tracing.install(recorder)
        try:
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < seconds * 0.7:
                traced.append(one_storm())
        finally:
            recorder.unpatch_all()
        RESULTS.mkdir(exist_ok=True)
        recorder.write(str(RESULTS / "trace-sim_storm.json"))
        events = sum(s.events for s in traced)
        last = storms[-1]
        metrics = tracing.per_call_self_us(recorder.summary())
        metrics.update(
            {
                "sim.queries_per_host_s": queries_per_s,
                "sim.engine.events_per_s": median([s.events / s.wall for s in storms]),
                "sim.engine.events_per_query": last.events / len(last.asked),
                "sim.engine.run_until_self_us_per_event": (
                    recorder.self_us("sim.engine.run_until") / events
                ),
                "sched.admission.reject_ratio": last.reject_ratio,
                "obs.tracer.spans_per_query": last.spans_per_query,
                "trace.overhead_ratio": (
                    median([s.wall for s in traced]) / median([s.wall for s in storms])
                ),
            }
        )
        outcome["metrics"] = metrics
    outcome.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fail_reasons=tally.reasons,
        checksum=sorted(checksums),
    )
    return outcome
