"""``serve_hot`` and ``serve_churn``: the gateway driven from outside.

The gateway is a child process started through its real entry point
(``python -m repro.cli serve``); this process is the load generator.
With two or more cores the gateway is pinned to one and the generator
to another, so the generator's cost is never charged to the server.

The generator is deliberately not asyncio: blocking sockets, ``select``
and pre-encoded request frames keep its CPU per request well under the
gateway's, which is the condition for ``ops_per_s`` to be the server's
number and not the client's.
"""

from __future__ import annotations

import asyncio
import bisect
import ctypes
import json
import os
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import reference
import tracing
from common import (
    HERE,
    RESULTS,
    SRC,
    Tally,
    cpu_seconds,
    memory_kb,
    percentile,
    timing,
)
from dashboards import Statement, build_pool, events_columns, statement_weights

HEADER = struct.Struct(">I")
CONNECTIONS = 2
PIPELINE = 8
CHURN_RATE = 300.0
#: The churn schedule's load slots: one every LOAD_EVERY slots (4 s),
#: the first after LOAD_FIRST (0.5 s), so that even a 2 s run has one.
LOAD_EVERY = 1200
LOAD_FIRST = 150
LOAD_ROWS = 20
#: The open-loop generator busy-waits this long before each due time.
SPIN_SECONDS = 0.001
UNLOADED_SECONDS = 1.0
IDLE_SECONDS = 2.0
#: ``serve_hot``'s timed phase is cut into this many equal windows and
#: every end-to-end figure is the median window's: the sandbox's host is
#: shared, and a neighbour's burst that stalls the gateway for part of a
#: run would otherwise set the run's p90 and its throughput.
WINDOWS = 15
#: Validity limits of a run (README.md, "Validity").
MAX_LATE_P99_MS = 0.2
MAX_CLIENT_CORES = 0.8
#: Whose latency ``p50_ms`` / ``p90_ms`` describe. On ``serve_churn``
#: only cache hits: a miss takes the 100+ ms the seeded latency model
#: gives it, and a percentile that falls now among hits, now among
#: misses, measures the mix and not the gateway. Misses have their own
#: layer metrics.
LATENCY_KINDS = {"serve_hot": (), "serve_churn": ("hit",)}


def frame_of(body: bytes) -> bytes:
    return HEADER.pack(len(body)) + body


# ----------------------------------------------------------------------
# The gateway child
# ----------------------------------------------------------------------


def _die_with_parent() -> None:
    """Have the kernel kill the child if the benchmark dies first."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def pin_generator() -> Optional[int]:
    """Pin this process to one core; returns the core left to the
    gateway (None when there is only one core to share)."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    os.sched_setaffinity(0, {cores[1]})
    return cores[0]


class Gateway:
    """One gateway child: started, measured from ``/proc``, stopped."""

    def __init__(
        self,
        seed: int,
        *,
        core: Optional[int] = None,
        trace_path: Optional[str] = None,
    ):
        self.core = core
        args = ["serve", "--port", "0", "--seed", str(seed)]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(HERE / "launch.py"), trace_path, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            preexec_fn=_die_with_parent,
        )
        self.pid = self.process.pid
        self.port = 0
        self.trace_summary: Optional[dict] = None

    def wait_listening(self, timeout: float = 60.0) -> int:
        """Parse the port from the child's ``listening on`` line."""
        ready, __, __ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"gateway did not start: {line!r}")
        address = line.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        if self.core is not None:
            os.sched_setaffinity(self.pid, {self.core})
        return self.port

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)
        # Give the child's handler a moment before the phase begins.
        time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it will not go."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, __ = self.process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, __ = self.process.communicate()
        for line in out.splitlines():
            if line.startswith("PERF_TRACE "):
                self.trace_summary = json.loads(line[len("PERF_TRACE "):])


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


@dataclass
class Sample:
    latency: float
    kind: str  # hit / coalesced / miss / load
    overhead: float = 0.0  # wall latency - simulated latency (leader misses)
    size: int = 0  # response frame bytes
    at: float = 0.0  # when the response arrived


@dataclass
class Phase:
    """What one timed phase of the generator measured."""

    seconds: float = 0.0
    samples: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    client_cpu: float = 0.0
    #: (time, gateway CPU seconds) at the start, at every window boundary
    #: and at the end of a closed-loop phase.
    marks: list = field(default_factory=list)

    def latencies(self, *kinds: str) -> list:
        return [s.latency for s in self.samples if not kinds or s.kind in kinds]

    def windows(self) -> list:
        """(seconds, gateway CPU seconds, sorted latencies) of the
        responses that arrived between each two marks."""
        at = [s.at for s in self.samples]  # arrival order: ascending
        out = []
        for (t0, c0), (t1, c1) in zip(self.marks, self.marks[1:]):
            low, high = bisect.bisect_left(at, t0), bisect.bisect_left(at, t1)
            out.append(
                (t1 - t0, c1 - c0, sorted(s.latency for s in self.samples[low:high]))
            )
        return out


class Load:
    """Connections, pending requests and the answer check."""

    def __init__(self, port: int, seed: int, pool: list[Statement], tally: Tally):
        self.pool = pool
        self.tally = tally
        self.socks = []
        for __ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.buffers = [bytearray() for __ in self.socks]
        self.next_id = 0
        #: id -> (reference time, statement index or None, loads acked at send)
        self.pending: dict = {}
        self.answers = reference.Answers(
            {index: s.spec for index, s in enumerate(pool)}
        )
        #: columns_at[g]: the table after g loads.
        self.columns_at = [events_columns(seed)]
        self.loads_sent = 0
        self.loads_acked = 0
        self.rng = np.random.default_rng([seed, 2])
        self.choices = self.rng.choice(
            len(pool), size=1 << 17, p=statement_weights()
        ).tolist()
        self.cursor = 0
        self.phase = Phase()

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    # -- sending -------------------------------------------------------

    def next_statement(self) -> int:
        index = self.choices[self.cursor % len(self.choices)]
        self.cursor += 1
        return index

    def send_sql(self, conn: int, index: int, reference_time: float) -> None:
        rid = self.next_id
        self.next_id += 1
        body = self.pool[index].prefix + str(rid).encode() + b"}"
        self.pending[rid] = (reference_time, index, self.loads_acked)
        self.socks[conn].sendall(frame_of(body))

    def send_load(self, conn: int, reference_time: float) -> None:
        rows = [
            {
                "day": int(self.rng.integers(30)),
                "clicks": float(self.rng.integers(1, 100)),
            }
            for __ in range(LOAD_ROWS)
        ]
        before = self.columns_at[-1]
        self.columns_at.append(
            {
                "day": np.concatenate([before["day"], [r["day"] for r in rows]]),
                "clicks": np.concatenate(
                    [before["clicks"], [r["clicks"] for r in rows]]
                ),
            }
        )
        self.loads_sent += 1
        rid = self.next_id
        self.next_id += 1
        self.pending[rid] = (reference_time, None, self.loads_acked)
        body = json.dumps(
            {"id": rid, "op": "load", "table": "events", "rows": rows},
            separators=(",", ":"),
        ).encode()
        self.socks[conn].sendall(frame_of(body))

    def call(self, message: dict) -> dict:
        """One out-of-band request (``stats``) on a quiet connection."""
        rid = self.next_id
        self.next_id += 1
        body = json.dumps({**message, "id": rid}, separators=(",", ":")).encode()
        self.socks[0].sendall(frame_of(body))
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            for __, msg, __ in self._receive(0.5):
                if msg.get("id") == rid:
                    return msg.get("result", {})
                self._settle(msg, time.perf_counter(), 0)
        raise RuntimeError(f"no answer to {message}")

    # -- receiving -----------------------------------------------------

    def _receive(self, timeout: float):
        """Yield (connection, message, frame bytes) of every complete frame."""
        ready, __, __ = select.select(self.socks, [], [], max(timeout, 0.0))
        for sock in ready:
            conn = self.socks.index(sock)
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError("gateway closed the connection")
            buffer = self.buffers[conn]
            buffer += data
            while len(buffer) >= HEADER.size:
                (length,) = HEADER.unpack_from(buffer)
                end = HEADER.size + length
                if len(buffer) < end:
                    break
                message = json.loads(bytes(buffer[HEADER.size:end]))
                del buffer[:end]
                yield conn, message, end

    def _settle(self, msg: dict, now: float, size: int) -> Optional[Sample]:
        """Match one response to its request, check it, record it."""
        entry = self.pending.pop(msg.get("id"), None)
        if entry is None:
            self.tally.record(False, "unmatched_response")
            return None
        reference_time, index, acked_at_send = entry
        if not msg.get("ok"):
            code = msg.get("error", {}).get("code", "error")
            self.tally.record(False, f"error:{code}")
            return None
        result = msg["result"]
        latency = now - reference_time
        if index is None:
            self.loads_acked += 1
            self.tally.record(result.get("rows_loaded") == LOAD_ROWS, "load")
            sample = Sample(latency, "load", size=size)
        else:
            # A response may reflect any load acknowledged before its
            # request was sent, up to any load sent before it came back.
            rows = result["rows"]
            ok = not result.get("degraded") and any(
                self.answers.ok(index, self.columns_at[g], g, rows)
                for g in range(acked_at_send, self.loads_sent + 1)
            )
            self.tally.record(ok)
            if result.get("cached"):
                sample = Sample(latency, "hit", size=size)
            elif result.get("coalesced"):
                sample = Sample(latency, "coalesced", size=size)
            else:
                sample = Sample(
                    latency, "miss", latency - float(result["latency"]), size
                )
        sample.at = now
        self.phase.samples.append(sample)
        return sample

    def drain(self, timeout: float = 30.0) -> None:
        """Wait for every pending response; what never comes has failed."""
        deadline = time.perf_counter() + timeout
        while self.pending and time.perf_counter() < deadline:
            for __, msg, size in self._receive(0.5):
                self._settle(msg, time.perf_counter(), size)
        for __ in self.pending:
            self.tally.record(False, "no_response")
        self.pending.clear()

    # -- phases --------------------------------------------------------

    def warm(self) -> None:
        """Every distinct statement once, pipelined, so the cache is full."""
        self.phase = Phase()  # not part of any timed phase
        seen = set()
        for index, statement in enumerate(self.pool):
            if statement.sql not in seen:
                seen.add(statement.sql)
                self.send_sql(len(seen) % CONNECTIONS, index, time.perf_counter())
        self.drain()

    def verify_all(self) -> None:
        """Every statement once more, against the final table. Checked and
        tallied like any request, but recorded in a phase of its own: the
        timed phase before it keeps its samples and its count."""
        self.phase = Phase()
        for index in range(len(self.pool)):
            self.send_sql(index % CONNECTIONS, index, time.perf_counter())
        self.drain()

    def closed_loop(
        self, seconds: float, conns: int, outstanding: int, server_cpu=lambda: 0.0
    ) -> Phase:
        """``conns`` connections, each keeping ``outstanding`` requests in
        flight: a response's arrival sends that connection's next request.
        The phase is cut into WINDOWS equal windows; ``server_cpu()`` is
        read at their boundaries (``Phase.marks``)."""
        self.phase = phase = Phase()
        cpu0 = time.process_time()
        start = time.perf_counter()
        end = start + seconds
        step = seconds / WINDOWS
        boundary = start + step
        phase.marks.append((start, server_cpu()))
        for conn in range(conns):
            for __ in range(outstanding):
                self.send_sql(conn, self.next_statement(), time.perf_counter())
        now = start
        while now < end:
            for conn, msg, size in self._receive(end - now):
                now = time.perf_counter()
                self._settle(msg, now, size)
                if now < end:
                    self.send_sql(conn, self.next_statement(), now)
            now = time.perf_counter()
            if now >= boundary:
                phase.marks.append((now, server_cpu()))
                boundary += step
        if len(phase.marks) <= WINDOWS:
            phase.marks.append((now, server_cpu()))
        phase.seconds = now - start
        phase.client_cpu = time.process_time() - cpu0
        self.drain()
        return phase

    def open_loop(self, seconds: float, rate: float) -> Phase:
        """Requests on a fixed schedule, whatever the gateway does; each
        latency runs from the request's *due* time, so a stall is charged
        to every request it delayed."""
        self.phase = phase = Phase()
        cpu0 = time.process_time()
        slots = int(seconds * rate)
        start = time.perf_counter() + 0.02
        for slot in range(slots):
            due = start + slot / rate
            while True:
                remaining = due - time.perf_counter()
                if remaining <= 0:
                    break
                # Sleep in select until SPIN_SECONDS before the due
                # time, then poll without blocking: responses are still
                # read promptly and the send is not late.
                for __, msg, size in self._receive(remaining - SPIN_SECONDS):
                    self._settle(msg, time.perf_counter(), size)
            phase.lateness.append(time.perf_counter() - due)
            conn = slot % CONNECTIONS
            if slot % LOAD_EVERY == LOAD_FIRST:
                self.send_load(conn, due)
            else:
                self.send_sql(conn, self.next_statement(), due)
        phase.seconds = time.perf_counter() - start
        phase.client_cpu = time.process_time() - cpu0
        self.drain()
        return phase


def decode_us(pool: list[Statement]) -> float:
    """Median cost of ``read_frame`` on one request frame, fed from an
    in-memory ``StreamReader`` (in the server the same call also waits
    for bytes, so it cannot be timed there)."""
    from repro.serve.protocol import read_frame

    async def measure() -> float:
        costs = []
        for round_ in range(40):
            for index, statement in enumerate(pool):
                reader = asyncio.StreamReader()
                body = statement.prefix + str(round_ * 1000 + index).encode() + b"}"
                reader.feed_data(frame_of(body))
                t0 = time.perf_counter_ns()
                await read_frame(reader)
                costs.append(time.perf_counter_ns() - t0)
        return percentile(sorted(costs), 50) / 1e3

    return asyncio.run(measure())


# ----------------------------------------------------------------------
# The two workloads
# ----------------------------------------------------------------------


def _start(seed: int, pool, tally: Tally, core, trace_path: Optional[str]):
    gateway = Gateway(seed, core=core, trace_path=trace_path)
    load = None
    try:
        gateway.wait_listening()
        load = Load(gateway.port, seed, pool, tally)
        load.warm()
    except BaseException:
        if load is not None:
            load.close()
        gateway.stop()
        raise
    return gateway, load


def _stats_delta(after: dict, before: dict) -> dict:
    return {
        "requests": after["requests_total"] - before["requests_total"],
        "coalesced": after["coalesced"] - before["coalesced"],
        "protocol_errors": after["protocol_errors"] - before["protocol_errors"],
        "internal_errors": after["internal_errors"] - before["internal_errors"],
        "rejected": sum(after["rejected"].values()) - sum(before["rejected"].values()),
        "hits": after["cache"]["hits"] - before["cache"]["hits"],
        "misses": after["cache"]["misses"] - before["cache"]["misses"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """Run ``serve_hot`` or ``serve_churn``; returns metrics and tallies."""
    hot = workload == "serve_hot"
    gateway_core = pin_generator()
    pool = build_pool(seed)
    tally = Tally()
    trace_path = str(RESULTS / f"trace-{workload}.json") if trace else None
    if trace:
        RESULTS.mkdir(exist_ok=True)

    def timed(load: Load, duration: float) -> Phase:
        if hot:
            return load.closed_loop(duration, CONNECTIONS, PIPELINE)
        return load.open_loop(duration, CHURN_RATE)

    setup_times = []
    gateway = load = None
    try:
        for __ in range(setups):
            if gateway is not None:
                load.close()
                gateway.stop()
            t0 = time.perf_counter()
            gateway, load = _start(seed, pool, tally, gateway_core, trace_path)
            setup_times.append(time.perf_counter() - t0)

        if not trace:
            pid = gateway.pid
            cpu0 = cpu_seconds(pid)
            if hot:
                phase = load.closed_loop(
                    seconds, CONNECTIONS, PIPELINE, lambda: cpu_seconds(pid)
                )
            else:
                phase = load.open_loop(seconds, CHURN_RATE)
            cpu = cpu_seconds(pid) - cpu0
            peak_rss_mb = memory_kb(pid, "VmHWM") / 1024.0
            if not hot:
                load.verify_all()
            ordered = sorted(phase.latencies(*LATENCY_KINDS[workload]))
            if hot:
                figures = _median_window(phase)
            else:
                answered = len(phase.samples)
                figures = {
                    "ops_per_s": answered / phase.seconds,
                    "p50_ms": percentile(ordered, 50) * 1e3,
                    "p90_ms": percentile(ordered, 90) * 1e3,
                    "cpu_us_per_op": cpu / answered * 1e6,
                }
            metrics = {
                "setup_s": statistics.median(setup_times),
                **figures,
                "peak_rss_mb": peak_rss_mb,
            }
            timings = {"latency_ms": timing(ordered, 1e3)}
            # On serve_hot the generator must also cost less than the
            # gateway, or ops_per_s is the client's number.
            valid = _valid(phase, hot) and not (hot and phase.client_cpu >= cpu)
        else:
            metrics, timings, valid, counts = _traced(
                workload, gateway, load, pool, timed, seconds
            )
    finally:
        if load is not None:
            load.close()
        if gateway is not None:
            gateway.stop()
    outcome = {
        "metrics": metrics,
        "timings": timings,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_reasons": tally.reasons,
        "valid": valid,
    }
    if trace:
        ledger = _close_ledger(workload, gateway.trace_summary, counts, metrics)
        outcome["ledger"] = (
            f"{ledger['server_cpu_us_per_req']:.1f} us/req, "
            f"unattributed {ledger['unattributed_share']:.1%}"
        )
    return outcome


def _median_window(phase: Phase) -> dict:
    """``serve_hot``'s figures: of each window's rate, percentiles and
    gateway CPU per request, the median over the windows (see WINDOWS).
    The whole run's latencies stay in the result's ``timings``."""
    windows = [w for w in phase.windows() if w[2]]
    return {
        "ops_per_s": statistics.median(len(lat) / s for s, __, lat in windows),
        "p50_ms": statistics.median(percentile(lat, 50) for __, __, lat in windows) * 1e3,
        "p90_ms": statistics.median(percentile(lat, 90) for __, __, lat in windows) * 1e3,
        "cpu_us_per_op": (
            statistics.median(cpu / len(lat) for __, cpu, lat in windows) * 1e6
        ),
    }


def _valid(phase: Phase, hot: bool) -> bool:
    """The generator was neither late nor the bottleneck."""
    if phase.client_cpu / phase.seconds >= MAX_CLIENT_CORES:
        return False
    if hot or not phase.lateness:
        return True
    return percentile(sorted(phase.lateness), 99) * 1e3 < MAX_LATE_P99_MS


def _traced(workload, gateway, load, pool, timed, seconds):
    """Unloaded, untraced and traced phases of one traced run."""
    hot = workload == "serve_hot"
    unloaded = load.closed_loop(UNLOADED_SECONDS, 1, 1)
    rss0 = memory_kb(gateway.pid, "VmRSS")
    gateway.signal(signal.SIGUSR2)  # mark 0: untraced phase begins
    plain = timed(load, seconds * 0.3)
    # Memory growth is read over the untraced phase: in the traced one
    # the recorder's own spans would be most of it.
    rss1 = memory_kb(gateway.pid, "VmRSS")
    stats0 = load.call({"op": "stats"})
    gateway.signal(signal.SIGUSR1)  # mark 1: tracing on
    phase = timed(load, seconds * 0.7)
    gateway.signal(signal.SIGUSR2)  # mark 2: tracing off
    stats = _stats_delta(load.call({"op": "stats"}), stats0)
    time.sleep(IDLE_SECONDS)
    gateway.signal(signal.SIGUSR2)  # mark 3: idle window ends
    if not hot:
        load.verify_all()

    answered = len(phase.samples)
    ordered = sorted(phase.latencies())
    sql_samples = [s for s in phase.samples if s.kind != "load"]
    overheads = sorted(s.overhead for s in phase.samples if s.kind == "miss")
    hits = sorted(phase.latencies("hit"))
    misses = sorted(phase.latencies("miss"))
    lookups = stats["hits"] + stats["misses"]
    metrics = {
        "client.rtt_unloaded_p50_us": percentile(sorted(unloaded.latencies()), 50) * 1e6,
        "client.p99_ms": percentile(ordered, 99) * 1e3,
        "client.late_p99_ms": (
            percentile(sorted(phase.lateness), 99) * 1e3 if phase.lateness else 0.0
        ),
        "client.cpu_us_per_req": phase.client_cpu / answered * 1e6,
        "serve.protocol.decode_us": decode_us(pool),
        "serve.protocol.resp_bytes_per_req": (
            sum(s.size for s in sql_samples) / len(sql_samples)
        ),
        "sched.cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "sched.cache.hit_p50_ms": percentile(hits, 50) * 1e3 if hits else 0.0,
        "sched.cache.miss_p50_ms": percentile(misses, 50) * 1e3 if misses else 0.0,
        "sched.admission.reject_ratio": stats["rejected"] / max(stats["requests"], 1),
        "serve.gateway.coalesced_ratio": stats["coalesced"] / max(stats["requests"], 1),
        "serve.gateway.miss_overhead_p90_ms": (
            percentile(overheads, 90) * 1e3 if overheads else 0.0
        ),
        "serve.gateway.protocol_errors": float(stats["protocol_errors"]),
        "serve.gateway.internal_errors": float(stats["internal_errors"]),
        "serve.gateway.rss_kb_per_kreq": (rss1 - rss0) / len(plain.samples) * 1e3,
    }
    timings = {
        "latency_ms": timing(ordered, 1e3),
        "unloaded_rtt_us": timing(unloaded.latencies(), 1e6),
    }
    counts = {"answered": answered, "plain_answered": len(plain.samples)}
    return metrics, timings, _valid(phase, hot), counts


def _close_ledger(workload: str, summary, counts: dict, metrics: dict) -> dict:
    """Close the ledger of the traced phase, write it, add its layer
    metrics to ``metrics``; returns the ledger.

    Integer nanoseconds throughout: the gateway's CPU over the traced
    phase, minus every layer's self time, minus frame decoding (measured
    in this process, see :func:`decode_us`), is the unattributed rest —
    so the parts sum to the whole exactly, by construction and in the
    file ``results/ledger-<workload>.json``.
    """
    if summary is None or len(summary["marks"]) != 4:
        raise RuntimeError("traced gateway left no usable trace summary")
    cpu = [m["cpu_ns"] for m in summary["marks"]]
    wall = [m["wall_ns"] for m in summary["marks"]]
    answered = counts["answered"]
    server_cpu_ns = cpu[2] - cpu[1]
    totals = summary["totals"]
    parts = {name: t["self_ns"] for name, t in totals.items()}
    parts["serve.protocol.decode"] = round(
        metrics["serve.protocol.decode_us"] * 1e3 * answered
    )
    unattributed_ns = server_cpu_ns - sum(parts.values())
    ledger = {
        "workload": workload,
        "requests": answered,
        "server_cpu_ns": server_cpu_ns,
        "parts_ns": dict(sorted(parts.items())),
        "unattributed_ns": unattributed_ns,
        "server_cpu_us_per_req": server_cpu_ns / answered / 1e3,
        "per_request_us": {
            name: ns / answered / 1e3 for name, ns in sorted(parts.items())
        },
        "unattributed_us_per_req": unattributed_ns / answered / 1e3,
        "unattributed_share": unattributed_ns / server_cpu_ns,
    }
    with open(RESULTS / f"ledger-{workload}.json", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
    plain_us = (cpu[1] - cpu[0]) / counts["plain_answered"] / 1e3
    load_total = totals.get("core.deployment.load")
    metrics.update(tracing.per_call_self_us(totals))
    metrics.update(
        {
            "serve.gateway.unattributed_us": ledger["unattributed_us_per_req"],
            "serve.gateway.idle_cpu_ms_per_s": (
                (cpu[3] - cpu[2]) / (wall[3] - wall[2]) * 1e3
            ),
            "sim.engine.run_until_self_us_per_req": (
                parts.get("sim.engine.run_until", 0) / answered / 1e3
            ),
            "core.deployment.load_ms": (
                load_total["total_ns"] / load_total["calls"] / 1e6
                if load_total
                else 0.0
            ),
            "trace.overhead_ratio": ledger["server_cpu_us_per_req"] / plain_us,
        }
    )
    return ledger
