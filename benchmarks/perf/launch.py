"""Launcher of the traced gateway child.

``launch.py TRACE_PATH serve --port 0 --seed S`` runs the same
``repro.cli`` entry point as an untraced run, plus three signals the
load generator uses to bracket its phases:

* ``SIGUSR1`` — install the span recorder (tracing starts) and mark;
* ``SIGUSR2`` — remove it (a no-op when it is not installed) and mark.

A mark is this process's CPU time and the wall clock, both in ns, so
the phases' CPU comes from the child's own clock rather than from the
10 ms ticks of ``/proc``. At exit the spans go to ``TRACE_PATH`` and
the marks and per-name totals to stdout as one ``PERF_TRACE`` line.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402


def _task_number() -> int:
    """The N of asyncio's own ``Task-N`` name: one request, one task."""
    try:
        return int(asyncio.current_task().get_name()[5:])
    except (RuntimeError, AttributeError, ValueError):
        return 0


def main(argv: list[str]) -> int:
    from repro import cli

    trace_path, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder(request_of=_task_number)
    marks: list[dict] = []

    def mark(kind: str) -> None:
        marks.append(
            {
                "kind": kind,
                "cpu_ns": time.process_time_ns(),
                "wall_ns": time.perf_counter_ns(),
            }
        )

    def start(signum, frame) -> None:
        tracing.install(recorder)
        mark("start")

    def stop(signum, frame) -> None:
        recorder.unpatch_all()
        mark("stop")

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    code = cli.main(cli_args)
    recorder.unpatch_all()
    recorder.write(trace_path)
    print(
        "PERF_TRACE "
        + json.dumps({"marks": marks, "totals": recorder.summary()}),
        flush=True,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
