"""ExecutorQueue: slots, EDF dispatch, bounded depth."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.sched.queue import (
    OUTCOME_EXPIRED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_QUEUE_FULL,
    ExecutorQueue,
    PriorityClass,
    ScheduledJob,
)
from repro.sim.engine import Simulator


def make_job(label, *, priority=PriorityClass.INTERACTIVE, service=1.0,
             deadline=None, on_complete=None):
    return ScheduledJob(
        label=label,
        priority=priority,
        execute=lambda: service,
        deadline=deadline,
        on_complete=on_complete,
    )


def test_jobs_occupy_slots_and_wait_in_virtual_time():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1)
    done = []
    first = make_job("first", service=2.0, on_complete=lambda j: done.append(j))
    second = make_job("second", service=1.0, on_complete=lambda j: done.append(j))
    queue.submit(first)
    queue.submit(second)
    assert queue.running == 1
    assert queue.waiting == 1

    simulator.run_until(10.0)
    assert [j.label for j in done] == ["first", "second"]
    assert first.queue_delay == 0.0
    assert second.queue_delay == pytest.approx(2.0)  # waited for first's slot
    assert second.total_latency == pytest.approx(3.0)
    assert second.completed == pytest.approx(3.0)
    assert queue.stats.completed == 2
    assert queue.stats.total_wait == pytest.approx(2.0)


def test_dispatch_order_is_priority_class_then_edf():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1)
    order = []
    queue.submit(make_job("running", service=1.0))
    # Submitted in deliberately shuffled order; dispatch must sort by
    # priority class first, then earliest deadline within a class.
    for label, priority, deadline in [
        ("batch-late", PriorityClass.BATCH, 90.0),
        ("interactive-late", PriorityClass.INTERACTIVE, 80.0),
        ("batch-early", PriorityClass.BATCH, 50.0),
        ("interactive-early", PriorityClass.INTERACTIVE, 60.0),
        ("background", PriorityClass.BACKGROUND, 10.0),
    ]:
        queue.submit(make_job(
            label, priority=priority, service=1.0, deadline=deadline,
            on_complete=lambda j: order.append(j.label),
        ))
    simulator.run_until(100.0)
    assert order == [
        "interactive-early", "interactive-late",
        "batch-early", "batch-late",
        "background",
    ]


def test_missing_deadline_sorts_after_deadlined_jobs():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1)
    order = []
    queue.submit(make_job("running", service=1.0))
    queue.submit(make_job("no-deadline", service=1.0,
                          on_complete=lambda j: order.append(j.label)))
    queue.submit(make_job("deadlined", service=1.0, deadline=50.0,
                          on_complete=lambda j: order.append(j.label)))
    simulator.run_until(10.0)
    assert order == ["deadlined", "no-deadline"]


def test_full_queue_rejects_immediately():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1, max_depth=1)
    outcomes = {}
    for label in ("a", "b", "c"):
        queue.submit(make_job(
            label, service=1.0,
            on_complete=lambda j: outcomes.setdefault(j.label, j.outcome),
        ))
    # "c" found the single waiting slot taken by "b" and was bounced
    # synchronously, before any virtual time passed.
    assert outcomes == {"c": OUTCOME_QUEUE_FULL}
    assert queue.stats.rejected_full == 1
    simulator.run_until(10.0)
    assert outcomes["a"] == OUTCOME_OK
    assert outcomes["b"] == OUTCOME_OK


def test_lapsed_deadline_drops_without_executing():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1)
    executed = []

    def expiring_job():
        job = ScheduledJob(
            label="expiring",
            priority=PriorityClass.INTERACTIVE,
            execute=lambda: executed.append("expiring") or 1.0,
            deadline=2.0,  # lapses while the 5s job holds the slot
        )
        return job

    queue.submit(make_job("slow", service=5.0))
    dropped = expiring_job()
    queue.submit(dropped)
    simulator.run_until(10.0)
    assert dropped.outcome == OUTCOME_EXPIRED
    assert executed == []  # never ran: the slot went to no one
    assert dropped.queue_delay == pytest.approx(5.0)
    assert queue.stats.expired == 1
    assert not dropped.sla_ok


def test_failed_execution_frees_the_slot_immediately():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1)

    def boom():
        raise RuntimeError("scan exploded")

    failed = ScheduledJob(
        label="failing", priority=PriorityClass.INTERACTIVE, execute=boom
    )
    queue.submit(make_job("slow", service=3.0))
    queue.submit(failed)
    ok = make_job("after", service=1.0)
    queue.submit(ok)
    simulator.run_until(10.0)
    assert failed.outcome == OUTCOME_FAILED
    assert failed.error == "RuntimeError: scan exploded"
    assert queue.stats.failed == 1
    assert ok.outcome == OUTCOME_OK


def test_closed_loop_resubmit_queues_behind_earlier_arrivals():
    simulator = Simulator()
    queue = ExecutorQueue(simulator, slots=1)
    order = []

    def resubmit(job):
        order.append(job.label)
        if job.label == "looper":
            queue.submit(make_job("looper-2", service=1.0,
                                  on_complete=lambda j: order.append(j.label)))

    queue.submit(make_job("looper", service=1.0, on_complete=resubmit))
    queue.submit(make_job("waiter", service=1.0,
                          on_complete=lambda j: order.append(j.label)))
    simulator.run_until(10.0)
    # The synchronous resubmission from looper's completion callback must
    # not jump ahead of "waiter", which arrived first.
    assert order == ["looper", "waiter", "looper-2"]


def test_pressure_bounded_and_unbounded():
    simulator = Simulator()
    bounded = ExecutorQueue(simulator, slots=1, max_depth=4)
    assert bounded.pressure == 0.0
    bounded.submit(make_job("run", service=1.0))
    for i in range(2):
        bounded.submit(make_job(f"w{i}", service=1.0))
    assert bounded.pressure == pytest.approx(0.5)

    unbounded = ExecutorQueue(simulator, slots=1, max_depth=None)
    unbounded.submit(make_job("run", service=1.0))
    for i in range(2):
        unbounded.submit(make_job(f"w{i}", service=1.0))
    assert 0.0 < unbounded.pressure <= 1.0


def test_queue_emits_obs_counters_and_wait_histogram():
    simulator = Simulator()
    obs = Observability(clock=lambda: simulator.now)
    queue = ExecutorQueue(simulator, name="region0", slots=1, max_depth=1, obs=obs)
    for label in ("a", "b", "c"):
        queue.submit(make_job(label, service=1.0))
    simulator.run_until(10.0)
    counters = {
        (entry["labels"]["outcome"]): entry["value"]
        for entry in obs.metrics.snapshot()
        if entry["name"] == "repro.sched.queue.jobs"
    }
    assert counters == {OUTCOME_OK: 2, OUTCOME_QUEUE_FULL: 1}
    wait = obs.metrics.histogram("repro.sched.queue.wait_seconds", node="region0")
    assert wait.readout()["count"] == 2


def test_queue_validation():
    simulator = Simulator()
    with pytest.raises(ConfigurationError):
        ExecutorQueue(simulator, slots=0)
    with pytest.raises(ConfigurationError):
        ExecutorQueue(simulator, slots=1, max_depth=-1)
