"""RealTimeClock: the single sanctioned wall-clock boundary.

Everything under ``src/repro`` reads time from the injected DES clock —
the ruff TID251 ban on ``time.time``/``time.monotonic``/
``time.perf_counter`` enforces it, and that ban is what makes seeded
simulations byte-reproducible. The serving tier is the one place real
time must enter the system: a real asyncio gateway answers real clients,
so *something* has to translate wall-clock progress into virtual-clock
progress.

This module is that something, and the **only** such place: the TID251
per-file ignore in ``pyproject.toml`` names exactly this file. Every
other serving-tier component (gateway, pump) takes a
:class:`RealTimeClock` — or any zero-argument float callable — by
injection, which keeps them testable with a fake clock and keeps the
wall clock corralled behind one auditable seam.

The clock satisfies the DES clock interface used throughout the repo
(a zero-argument callable returning seconds as ``float``; compare
``Observability(clock=...)`` and ``Simulator.now``). It is *anchored*:
``RealTimeClock(start=simulator.now)`` reads the current virtual time
as its epoch, so virtual and real time share one axis and the
event-loop pump can drive ``simulator.run_until(clock.now())``.
"""

from __future__ import annotations

import time


class RealTimeClock:
    """Monotonic wall clock re-based onto the simulation's time axis.

    ``now()`` (and calling the instance) returns ``start`` plus the
    monotonic wall-clock seconds elapsed since construction. Monotonic
    time never goes backwards, but the serving tier still treats
    cross-component timestamp arithmetic as jitter-prone (see the
    non-decreasing clamps in :mod:`repro.obs`): two clocks — this one
    and the pumped virtual clock — sample the same axis at slightly
    different instants.
    """

    __slots__ = ("start", "_origin")

    def __init__(self, start: float = 0.0):
        self.start = float(start)
        self._origin = time.monotonic()

    def now(self) -> float:
        """Seconds on the shared time axis (virtual epoch + real elapsed)."""
        return self.start + (time.monotonic() - self._origin)

    def __call__(self) -> float:
        return self.now()

    def __repr__(self) -> str:
        return f"RealTimeClock(start={self.start:.3f}, now={self.now():.3f})"
