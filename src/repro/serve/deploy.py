"""Standard serving deployment: the fleet the gateway fronts.

One place builds the deployment ``repro serve`` runs against, so the
server, the perf ledger (``benchmarks/perf``) and the tests all agree on
the fleet shape — the same three-region dashboard deployment
the overload experiment uses (:mod:`repro.workloads.loadgen`), warmed
up and wrapped in a :class:`~repro.sched.WorkloadManager`.

Building is pure DES: everything here runs under the virtual clock and
is seeded, so two builds with one seed are identical. Real time only
enters afterwards, when :class:`~repro.serve.gateway.ServeGateway`
anchors its :class:`~repro.serve.clock.RealTimeClock` at the warmed-up
deployment's ``simulator.now``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sched.manager import SchedPolicy, WorkloadManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import CubrickDeployment

#: Virtual seconds of warm-up before serving (matches the overload demo).
WARMUP_SECONDS = 30.0


def serve_policy(**overrides) -> SchedPolicy:
    """The gateway's default admission policy.

    Tuned for interactive serving rather than the overload experiment's
    deliberately tiny lanes: a few slots per region queue, bounded
    depth, adaptive shedding on, and a result cache big enough for every
    tenant's dashboard pool.
    """
    params = dict(
        slots_per_node=4,
        max_queue_depth=64,
        deadline=2.0,
        enforce_deadlines=True,
        adaptive_shedding=True,
        cache_capacity=512,
    )
    params.update(overrides)
    return SchedPolicy(**params)


@dataclass
class ServingDeployment:
    """The wired fleet a gateway serves: deployment + workload manager."""

    deployment: "CubrickDeployment"
    manager: WorkloadManager

    @property
    def simulator(self):
        return self.deployment.simulator

    @property
    def obs(self):
        return self.deployment.obs


def build_serving_deployment(
    seed: int = 0,
    *,
    policy: Optional[SchedPolicy] = None,
    warmup: float = WARMUP_SECONDS,
) -> ServingDeployment:
    """Build, load and warm up the standard serving fleet.

    Reuses the overload experiment's deployment (three regions, the
    300-row ``events`` dashboard table, the slow-median latency model)
    so serving results are comparable with the DES overload numbers.
    """
    from repro.workloads.loadgen import _build_overload_deployment

    deployment = _build_overload_deployment(seed)
    manager = WorkloadManager(
        deployment,
        policy=policy if policy is not None else serve_policy(),
    )
    if warmup > 0:
        deployment.simulator.run_until(deployment.simulator.now + warmup)
    return ServingDeployment(deployment=deployment, manager=manager)
