"""repro.serve — the real serving tier over the simulated fleet.

A real asyncio TCP gateway (``repro serve``) in front of the
byte-reproducible DES stack: clients speak a length-prefixed JSON
protocol (:mod:`repro.serve.protocol`); the gateway bridges their
queries onto SQL compilation, admission v2, the result cache, executor
queues and coordinator fan-out, all still running on virtual time. The
clock domains meet in exactly two places — the anchored
:class:`~repro.serve.clock.RealTimeClock` (the single sanctioned
TID251 wall-clock boundary) and the gateway's
``simulator.run_until(clock.now())``, called when a request arrives and
when its event-driven pump timer fires.

The perf ledger (``benchmarks/perf``, workloads ``serve_hot`` and
``serve_churn``) measures the whole thing end to end, driving a gateway
in its own process from a load generator in another and checking every
answer against a reference.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.clock import RealTimeClock
from repro.serve.deploy import (
    ServingDeployment,
    build_serving_deployment,
    serve_policy,
)
from repro.serve.gateway import GatewayStats, ServeGateway, query_from_spec
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLargeError,
    MalformedFrameError,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)

__all__ = [
    "ConnectionClosed",
    "FrameTooLargeError",
    "GatewayStats",
    "MalformedFrameError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RealTimeClock",
    "ServeClient",
    "ServeError",
    "ServeGateway",
    "ServingDeployment",
    "build_serving_deployment",
    "encode_frame",
    "query_from_spec",
    "read_frame",
    "serve_policy",
    "write_frame",
]
