"""Deterministic discrete-event simulation engine.

A minimal but complete event-heap simulator: events are ``(time, seq,
callback)`` triples ordered by time with a monotone sequence number as the
tie-breaker, which makes execution order fully deterministic. Components
schedule callbacks with :meth:`Simulator.schedule` (absolute time) or
:meth:`Simulator.call_later` (relative delay), and periodic work with
:meth:`Simulator.schedule_periodic`.

Time is a float in **seconds** throughout the repository.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability

# Handy constants for readable experiment configuration.
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY


@dataclass(order=True)
class Event:
    """A scheduled callback. Ordered by (time, seq) for determinism."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class Simulator:
    """Event-heap discrete-event simulator with a virtual clock."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._processed = 0
        self._evt_scheduled_counter = None
        self._evt_processed_counter = None
        self._time_gauge = None

    def attach_observability(self, obs: "Observability") -> None:
        """Wire engine instruments into a shared metrics registry.

        Span timestamps everywhere come from this engine's clock; these
        instruments expose the engine's own workload (events scheduled/
        processed, current virtual time) under the ``sim.engine.*``
        namespace.
        """
        self._evt_scheduled_counter = obs.metrics.counter(
            "sim.engine.events_scheduled"
        )
        self._evt_processed_counter = obs.metrics.counter(
            "sim.engine.events_processed"
        )
        self._time_gauge = obs.metrics.gauge("sim.engine.virtual_time_seconds")

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest live queued event, or None.

        Cancelled events at the heap top are discarded on the way — the
        serving tier's event-loop pump uses this to sleep exactly until
        the next completion instead of polling blind.
        """
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def schedule(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self._now}"
            )
        event = Event(time=float(time), seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, event)
        if self._evt_scheduled_counter is not None:
            self._evt_scheduled_counter.inc()
        return event

    def call_later(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, callback)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds.

        Returns a zero-argument cancel function. ``until`` is an absolute
        virtual-time bound (inclusive of the last tick at or before it).
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        state = {"cancelled": False, "event": None}

        def tick() -> None:
            if state["cancelled"]:
                return
            callback()
            next_time = self._now + interval
            if until is not None and next_time > until:
                return
            state["event"] = self.schedule(next_time, tick)

        first = self._now + (interval if start_delay is None else start_delay)
        if until is None or first <= until:
            state["event"] = self.schedule(first, tick)

        def cancel() -> None:
            state["cancelled"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel

    def run_until(self, end_time: float) -> None:
        """Execute events in order until virtual time reaches ``end_time``.

        The clock is left at ``end_time`` even if the heap drains early,
        so back-to-back experiment phases line up on wall-clock boundaries.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until target {end_time} is before now={self._now}"
            )
        while self._heap and self._heap[0].time <= end_time:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            if self._evt_processed_counter is not None:
                self._evt_processed_counter.inc()
            event.callback()
        self._now = end_time
        if self._time_gauge is not None:
            self._time_gauge.set(self._now)

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the event heap (optionally bounded by ``max_events``)."""
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                return
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            if self._evt_processed_counter is not None:
                self._evt_processed_counter.inc()
            event.callback()
            executed += 1
        if self._time_gauge is not None:
            self._time_gauge.set(self._now)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.3f}, pending={len(self._heap)}, "
            f"processed={self._processed})"
        )
