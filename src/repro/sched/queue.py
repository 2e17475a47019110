"""Executor queues: concurrency slots, bounded depth, EDF dispatch.

Query execution in this reproduction is logically instantaneous — the
coordinator *samples* a service time and reports it as latency — so an
unmanaged deployment has unbounded concurrency: a thousand queries
arriving in the same virtual second all "execute" immediately and none
of them waits. Real engines have a fixed number of execution slots per
node, and under overload the difference between a bounded queue with a
dispatch discipline and an unbounded FIFO is the difference between a
defended SLA and a latency collapse ("Enhancing OLAP Resilience at
LinkedIn", PAPERS.md).

:class:`ExecutorQueue` models that here: a genuinely event-driven
queue bound to the DES simulator. Jobs occupy one of ``slots``
concurrency slots for their (sampled) service time; slots free up via
completion events on the virtual clock, so queueing delay is real
virtual time that shows up in query latency. Waiting jobs dispatch in
**priority-class order, then earliest-deadline-first (EDF)** within a
class; jobs whose deadline lapses while queued are dropped without
execution, and jobs arriving at a full queue are rejected immediately
(load shedding at the queue, the last line of defence behind admission
control).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.sim.engine import Simulator


class PriorityClass(enum.IntEnum):
    """Workload priority classes; lower value = more important.

    The shedding ladder drops BACKGROUND first, then BATCH; INTERACTIVE
    traffic is what the SLA defends and is never shed adaptively.
    """

    INTERACTIVE = 0
    BATCH = 1
    BACKGROUND = 2


#: Job outcome labels (also used as obs counter labels).
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_QUEUE_FULL = "queue_full"
OUTCOME_EXPIRED = "deadline"


@dataclass
class ScheduledJob:
    """One unit of work submitted to an :class:`ExecutorQueue`.

    ``execute`` runs the query synchronously and returns its service
    latency in virtual seconds (the DES clock does not advance during
    execution; the queue schedules the slot release that far in the
    future). ``deadline`` is an *absolute* virtual time; a job that is
    still queued past it is dropped without executing.
    """

    label: str
    priority: PriorityClass
    execute: Callable[[], float]
    deadline: Optional[float] = None
    on_complete: Optional[Callable[["ScheduledJob"], None]] = None
    # Filled in by the queue:
    arrival: float = 0.0
    started: Optional[float] = None
    completed: Optional[float] = None
    outcome: str = "pending"
    queue_delay: float = 0.0
    service_latency: float = 0.0
    error: Optional[str] = None

    @property
    def total_latency(self) -> float:
        """Queue wait plus service time (what the client observes)."""
        return self.queue_delay + self.service_latency

    @property
    def sla_ok(self) -> bool:
        """Completed successfully within its deadline (if it had one)."""
        if self.outcome != OUTCOME_OK:
            return False
        if self.deadline is None or self.completed is None:
            return self.outcome == OUTCOME_OK
        return self.completed <= self.deadline


@dataclass
class QueueStats:
    """Lifetime counters for one executor queue."""

    submitted: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    rejected_full: int = 0
    expired: int = 0
    max_depth: int = 0  # peak number of *waiting* jobs ever observed
    total_wait: float = 0.0  # summed queue delay of dispatched jobs


class ExecutorQueue:
    """A bounded, EDF-ordered executor with DES-driven slot release."""

    def __init__(
        self,
        simulator: "Simulator",
        *,
        name: str = "executor",
        slots: int = 4,
        max_depth: Optional[int] = 64,
        obs: Optional["Observability"] = None,
    ):
        if slots <= 0:
            raise ConfigurationError(f"executor slots must be positive: {slots}")
        if max_depth is not None and max_depth < 0:
            raise ConfigurationError(
                f"queue depth must be non-negative: {max_depth}"
            )
        self.simulator = simulator
        self.name = name
        self.slots = slots
        self.max_depth = max_depth
        self.stats = QueueStats()
        self._running = 0
        # (priority, deadline-or-inf, seq, job): strict weak order with a
        # deterministic sequence tie-breaker, matching the DES engine.
        self._waiting: list[tuple[int, float, int, ScheduledJob]] = []
        self._seq = itertools.count()
        if obs is not None:
            self._jobs_counter = lambda outcome: obs.metrics.counter(
                "repro.sched.queue.jobs", node=name, outcome=outcome
            )
            self._wait_histogram = obs.metrics.histogram(
                "repro.sched.queue.wait_seconds", node=name
            )
            self._depth_gauge = obs.metrics.gauge(
                "repro.sched.queue.depth", node=name
            )
        else:
            self._jobs_counter = None
            self._wait_histogram = None
            self._depth_gauge = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def waiting(self) -> int:
        """Jobs queued but not yet dispatched."""
        return len(self._waiting)

    @property
    def running(self) -> int:
        """Jobs currently occupying a slot."""
        return self._running

    @property
    def pressure(self) -> float:
        """Queue fullness in [0, 1]; 0 when the depth is unbounded-empty."""
        if self.max_depth is None or self.max_depth == 0:
            # Unbounded queues report pressure relative to one "full"
            # round of slots so adaptive shedding still sees saturation.
            return min(1.0, len(self._waiting) / max(1, 4 * self.slots))
        return min(1.0, len(self._waiting) / self.max_depth)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: ScheduledJob) -> bool:
        """Enqueue one job at the current virtual time.

        Returns False (and resolves the job as ``queue_full``) when the
        waiting line is at ``max_depth``; True otherwise. The job's
        ``on_complete`` fires exactly once for every submitted job,
        whatever its outcome.
        """
        now = self.simulator.now
        job.arrival = now
        self.stats.submitted += 1
        if self._running < self.slots:
            self._start(job, now)
            return True
        if self.max_depth is not None and len(self._waiting) >= self.max_depth:
            self.stats.rejected_full += 1
            self._resolve(job, OUTCOME_QUEUE_FULL)
            return False
        deadline_key = job.deadline if job.deadline is not None else float("inf")
        heapq.heappush(
            self._waiting,
            (int(job.priority), deadline_key, next(self._seq), job),
        )
        self.stats.max_depth = max(self.stats.max_depth, len(self._waiting))
        if self._depth_gauge is not None:
            self._depth_gauge.set(len(self._waiting))
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start(self, job: ScheduledJob, now: float) -> None:
        """Dispatch one job: run it and schedule its slot release."""
        job.started = now
        job.queue_delay = now - job.arrival
        self.stats.dispatched += 1
        self.stats.total_wait += job.queue_delay
        if self._wait_histogram is not None:
            self._wait_histogram.observe(job.queue_delay)
        try:
            job.service_latency = float(job.execute())
        except Exception as exc:  # noqa: BLE001 - resolved, not swallowed
            job.error = f"{type(exc).__name__}: {exc}"
            self.stats.failed += 1
            self._resolve(job, OUTCOME_FAILED)
            # A failed query releases its slot immediately (the failure
            # latency is already part of the proxy's accounting).
            self._dispatch_waiting(now)
            return
        self._running += 1
        completion = now + job.service_latency
        self.simulator.schedule(completion, lambda: self._release(job))

    def _release(self, job: ScheduledJob) -> None:
        """Completion event: free the slot and pull the next waiter.

        Waiters are dispatched *before* the completed job's callback
        fires: a closed-loop client resubmitting synchronously from
        ``on_complete`` must queue behind jobs that arrived earlier.
        """
        self._running -= 1
        job.completed = self.simulator.now
        self.stats.completed += 1
        job.outcome = OUTCOME_OK
        if self._jobs_counter is not None:
            self._jobs_counter(OUTCOME_OK).inc()
        self._dispatch_waiting(self.simulator.now)
        if job.on_complete is not None:
            job.on_complete(job)

    def _dispatch_waiting(self, now: float) -> None:
        """Fill free slots from the waiting heap in (priority, EDF) order.

        Jobs whose deadline already passed are dropped without consuming
        a slot — executing them could only waste capacity the still-
        feasible jobs behind them need.
        """
        while self._running < self.slots and self._waiting:
            __, deadline_key, __, job = heapq.heappop(self._waiting)
            if deadline_key < now:
                job.queue_delay = now - job.arrival
                self.stats.expired += 1
                self._resolve(job, OUTCOME_EXPIRED)
                continue
            self._start(job, now)
        if self._depth_gauge is not None:
            self._depth_gauge.set(len(self._waiting))

    def _resolve(self, job: ScheduledJob, outcome: str) -> None:
        job.outcome = outcome
        if self._jobs_counter is not None:
            self._jobs_counter(outcome).inc()
        if job.on_complete is not None:
            job.on_complete(job)
