"""What every workload shares: paths, clocks of other processes,
percentiles and the failure tally."""

from __future__ import annotations

import gc
import json
import os
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process (10 ms resolution)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def memory_kb(pid: int, field: str) -> float:
    """``VmHWM`` (peak resident set) or ``VmRSS`` of a process, kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def reset_peak_rss() -> None:
    """Collect garbage and restart this process's ``VmHWM`` from its
    present resident set, so that the peak read after a timed phase is
    that phase's and not the set-up's. Where the kernel refuses, the
    peak stays the process's."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timing(samples: list, scale: float = 1.0) -> dict:
    """Median, sample count and the highest percentile that still has at
    least ten samples beyond it (p50 itself when there are too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    tail_q = 50.0
    for q in (90.0, 99.0, 99.9, 99.99):
        if n * (100.0 - q) / 100.0 >= 10:
            tail_q = q
    return {
        "n": n,
        "p50": percentile(ordered, 50) * scale,
        "tail_q": tail_q,
        "tail": percentile(ordered, tail_q) * scale,
    }


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


class Tally:
    """Operations attempted and operations that failed.

    A refusal, a typed error, a disconnect, a wrong answer and a
    checksum mismatch all count the same: the operation did not give
    its user a correct answer.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def record(self, ok: bool, reason: str = "wrong_answer") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
