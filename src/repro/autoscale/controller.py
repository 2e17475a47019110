"""The wall-breach controller: a closed loop that scales past the wall.

The scalability wall (repro.core.wall) says a query fanning out to
``n`` hosts succeeds with probability ``(1-p)^n``: past
``n* = ln(sla)/ln(1-p)`` hosts the SLA is arithmetically unreachable,
no matter how much hardware is added. *Breaching* the wall therefore
takes two coupled actuators, not one:

- **fleet size** tracks load (provision on high utilization or queue
  pressure, decommission on sustained idleness), and
- **per-table fan-out** stays capped at the wall regardless of fleet
  size — partial sharding is what makes the two independently
  controllable.

The controller closes the loop on three observability signals each
tick: the measured full-fan-out success ratio over a sliding window of
proxied queries (vs the SLA), mean registered-host utilization from the
shard-manager metrics store, and scheduler queue pressure from the
workload manager (when one is attached). The fan-out cap is primarily
analytic (``SlaPlanner.max_safe_fanout``) but *adaptive*: a measured
SLA miss tightens it below the analytic value, and sustained compliance
relaxes it back — so a mis-estimated failure probability degrades to a
conservative cap instead of a broken SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.host import HostState
from repro.core.fanout import SlaPlanner
from repro.core.wall import PAPER_FAILURE_PROBABILITY, PAPER_SLA
from repro.errors import ConfigurationError

from repro.autoscale.fleet import FleetController
from repro.autoscale.reshard import ReshardPlanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import CubrickDeployment


@dataclass(frozen=True)
class ControllerSpec:
    """Targets and thresholds for the control loop."""

    sla: float = PAPER_SLA
    failure_probability: float = PAPER_FAILURE_PROBABILITY
    interval: float = 30.0  # control tick period
    success_window: int = 200  # queries in the sliding success window
    min_window_samples: int = 20  # below this the signal is inconclusive
    scale_out_utilization: float = 0.70
    scale_in_utilization: float = 0.20
    queue_pressure_high: float = 0.80
    #: Error-budget burn rate (from the SLO engine) above which the
    #: fleet counts as overloaded and the fan-out cap must not relax.
    #: 2.0 = burning budget twice as fast as it accrues.
    burn_rate_high: float = 2.0
    hosts_per_step: int = 2
    min_hosts_per_region: int = 4
    cooldown: float = 120.0  # between fleet actions in one direction

    def __post_init__(self) -> None:
        if not 0 < self.sla < 1:
            raise ConfigurationError(f"sla must be in (0, 1): {self.sla}")
        if self.interval <= 0:
            raise ConfigurationError(
                f"interval must be positive: {self.interval}"
            )
        if self.hosts_per_step <= 0:
            raise ConfigurationError(
                f"hosts_per_step must be positive: {self.hosts_per_step}"
            )
        if self.scale_in_utilization >= self.scale_out_utilization:
            raise ConfigurationError(
                "scale_in_utilization must be below scale_out_utilization"
            )


@dataclass
class ControlDecision:
    """One control tick: the signals read and the actions taken."""

    time: float
    success_ratio: float
    utilization: float
    queue_pressure: float
    fanout_cap: int
    actions: list[str] = field(default_factory=list)
    burn_rate: float = 0.0


@dataclass
class WallBreachController:
    """Closed loop coupling fleet elasticity with fan-out capping."""

    deployment: "CubrickDeployment"
    fleet: FleetController
    reshard: ReshardPlanner
    spec: ControllerSpec = field(default_factory=ControllerSpec)
    # Optional queue-pressure signal, e.g. WorkloadManager.queue_pressure.
    queue_pressure_fn: Optional[Callable[[], float]] = None
    # Optional error-budget burn signal, e.g. SloEngine.burn_rate_signal:
    # sustained burn counts as overload and blocks cap relaxation.
    burn_rate_fn: Optional[Callable[[], float]] = None

    def __post_init__(self) -> None:
        self.planner = SlaPlanner(
            failure_probability=self.spec.failure_probability, sla=self.spec.sla
        )
        self.decisions: list[ControlDecision] = []
        # The adaptive cap starts at the analytic wall and is tightened
        # by measured SLA misses (never above the analytic value).
        self._cap = max(1, self.planner.max_safe_fanout)
        self._last_scale_out = float("-inf")
        self._last_scale_in = float("-inf")
        self._last_cap_change = float("-inf")
        self._cancel: Optional[Callable[[], None]] = None
        obs = self.deployment.obs
        self._ticks_counter = obs.metrics.counter("autoscale.controller.ticks")
        self._cap_gauge = obs.metrics.gauge("autoscale.controller.fanout_cap")
        self._cap_gauge.set(self._cap)

    # ------------------------------------------------------------------
    # Loop lifecycle
    # ------------------------------------------------------------------

    def start(self, *, until: Optional[float] = None) -> Callable[[], None]:
        """Begin periodic control ticks; returns a cancel function."""
        self._cancel = self.deployment.simulator.schedule_periodic(
            self.spec.interval, self.step, until=until
        )
        return self._cancel

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def windowed_success_ratio(self) -> float:
        """Success over the last ``success_window`` proxied queries.

        Returns 1.0 while the window holds too few samples to act on —
        an inconclusive signal must not trigger a tightening.
        """
        log = self.deployment.proxy.query_log
        if len(log) < self.spec.min_window_samples:
            return 1.0
        # The log may be a bounded deque, which does not slice.
        window = list(islice(reversed(log), self.spec.success_window))
        return sum(1 for e in window if e.succeeded) / len(window)

    def mean_utilization(self) -> float:
        """Mean storage utilization across all registered hosts."""
        total = 0.0
        hosts = 0
        for sm in self.deployment.sm_servers.values():
            sm.collect_metrics()
            for host_id in sm.registered_hosts():
                total += sm.metrics.utilization(host_id)
                hosts += 1
        return total / hosts if hosts else 0.0

    def queue_pressure(self) -> float:
        if self.queue_pressure_fn is None:
            return 0.0
        return self.queue_pressure_fn()

    def burn_rate(self) -> float:
        if self.burn_rate_fn is None:
            return 0.0
        return self.burn_rate_fn()

    @property
    def fanout_cap(self) -> int:
        return self._cap

    # ------------------------------------------------------------------
    # The control tick
    # ------------------------------------------------------------------

    def step(self) -> ControlDecision:
        deployment = self.deployment
        now = deployment.simulator.now
        success = self.windowed_success_ratio()
        utilization = self.mean_utilization()
        pressure = self.queue_pressure()
        burn = self.burn_rate()
        actions: list[str] = []

        # 1. Adapt the fan-out cap to the measured success signal. Cap
        #    moves are rate-limited by the cooldown: the sliding window
        #    is sticky, and reacting to it every tick would let one bad
        #    stretch walk the cap (and every table's fan-out) to 1.
        analytic = max(1, self.planner.max_safe_fanout)
        hot_burn = burn > self.spec.burn_rate_high
        if now - self._last_cap_change >= self.spec.cooldown:
            # Budget burn tightens like an SLA miss — it is the leading
            # indicator of one — and blocks relaxation while sustained.
            if (success < self.spec.sla or hot_burn) and self._cap > 1:
                self._cap -= 1
                self._last_cap_change = now
                actions.append(f"tighten fan-out cap to {self._cap}")
            elif success >= self.spec.sla and not hot_burn and self._cap < analytic:
                self._cap += 1
                self._last_cap_change = now
                actions.append(f"relax fan-out cap to {self._cap}")
        self._cap_gauge.set(self._cap)

        # 2. Enforce the cap: narrow any table wider than it, and let
        #    load-driven widening proceed up to (never past) it.
        for table in deployment.catalog.table_names():
            info = deployment.catalog.tables[table]
            if info.replicated or info.resharding:
                continue
            if info.num_partitions > self._cap:
                self.reshard.begin(table, self._cap)
                actions.append(
                    f"narrow {table}: {info.num_partitions} -> {self._cap} "
                    "(over cap)"
                )
            else:
                op = self.reshard.evaluate(table, max_count=self._cap)
                if op is not None:
                    direction = "widen" if op.widened else "narrow"
                    actions.append(
                        f"{direction} {table}: {op.from_count} -> {op.to_count}"
                    )

        # 3. Fleet size tracks load.
        overloaded = (
            utilization > self.spec.scale_out_utilization
            or pressure > self.spec.queue_pressure_high
            or hot_burn
        )
        idle = (
            utilization < self.spec.scale_in_utilization
            and pressure < self.spec.queue_pressure_high
            and not hot_burn
        )
        if overloaded and now - self._last_scale_out >= self.spec.cooldown:
            for region in deployment.region_names():
                self.fleet.provision(region, self.spec.hosts_per_step)
                actions.append(
                    f"provision {self.spec.hosts_per_step} host(s) in {region}"
                )
            self._last_scale_out = now
        elif idle and now - self._last_scale_in >= self.spec.cooldown:
            for region in deployment.region_names():
                victim = self._scale_in_victim(region)
                if victim is not None:
                    self.fleet.decommission(victim)
                    actions.append(f"decommission {victim}")
            if any(a.startswith("decommission") for a in actions):
                self._last_scale_in = now

        decision = ControlDecision(
            time=now,
            success_ratio=success,
            utilization=utilization,
            queue_pressure=pressure,
            fanout_cap=self._cap,
            actions=actions,
            burn_rate=burn,
        )
        self.decisions.append(decision)
        self._ticks_counter.inc()
        if actions:
            deployment.obs.events.emit(
                "autoscale.controller.actions",
                success=round(success, 6),
                utilization=round(utilization, 6),
                pressure=round(pressure, 6),
                burn=round(burn, 6),
                cap=self._cap,
                actions="; ".join(actions),
            )
        return decision

    def _scale_in_victim(self, region: str) -> Optional[str]:
        """Pick the emptiest healthy host, respecting the region floor."""
        sm = self.deployment.sm_servers[region]
        registered = sm.registered_hosts()
        if len(registered) <= self.spec.min_hosts_per_region:
            return None
        draining = {
            op.host_id for op in self.fleet.pending()
            if op.kind == "decommission"
        }
        if len(registered) - len(draining) <= self.spec.min_hosts_per_region:
            return None
        candidates = [
            host_id for host_id in registered
            if host_id not in draining
            and self.deployment.cluster.host(host_id).state is HostState.HEALTHY
        ]
        if not candidates:
            return None
        # Emptiest first (cheapest drain); host id breaks ties so runs
        # are deterministic.
        return min(
            candidates,
            key=lambda h: (len(sm.shards_on_host(h)), h),
        )
