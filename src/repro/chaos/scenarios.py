"""Named chaos scenarios and the seeded scenario harness.

``run_scenario(name, seed)`` builds a small three-region deployment,
loads a table, installs the scenario's :class:`FaultSchedule`, and
drives the DES clock through every fault. After each fault it probes
the system with a resilient-policy query and checks the safety
invariants; once the schedule clears and recovery settles it checks the
convergence invariants. The returned :class:`ChaosReport` renders to a
byte-identical string for identical ``(name, seed)`` pairs — the
property the CI determinism gate diffs.

All imports of the deployment layer are deferred into function bodies:
``repro.core.deployment`` imports the coordinator/proxy, which import
the chaos policy layer, so a module-level import here would close an
import cycle during package initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.chaos.faults import ChaosInjector, FaultSchedule
from repro.chaos.invariants import InvariantChecker, InvariantReport
from repro.chaos.policies import ResiliencePolicy
from repro.errors import (
    AdmissionControlError,
    ConfigurationError,
    QueryFailedError,
    RegionUnavailableError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deployment import CubrickDeployment

#: Virtual time the deployment settles before the first fault.
WARMUP = 30.0
#: First fault time.
FAULT_START = 40.0
#: Virtual time allowed after the last fault clears for failovers,
#: reconnects and unplaced-failover retries to converge.
SETTLE = 300.0


@dataclass(frozen=True)
class Scenario:
    """One named chaos scenario: a schedule builder plus metadata."""

    name: str
    description: str
    build: Callable[["CubrickDeployment", float], FaultSchedule]
    # Run on a consensus-replicated-metadata deployment (repro.consensus):
    # the consensus safety invariants activate and the faults may target
    # the metadata plane itself.
    replicated: bool = False


@dataclass
class ProbeRecord:
    """One resilient-policy query issued during (or around) the chaos."""

    time: float
    label: str
    outcome: str  # ok | degraded | failed:<ErrorType>
    attempts: int = 0
    completeness: float = 1.0
    total: float = 0.0
    expected_total: float = 0.0
    integrity_ok: bool = True

    def render(self) -> str:
        return (
            f"[t={self.time:10.3f}] {self.label}: {self.outcome} "
            f"attempts={self.attempts} "
            f"completeness={self.completeness:.4f} "
            f"total={self.total:.1f}/{self.expected_total:.1f} "
            f"integrity={'OK' if self.integrity_ok else 'VIOLATED'}"
        )


@dataclass
class ChaosReport:
    """The full outcome of one scenario run (deterministically renderable)."""

    scenario: str
    seed: int
    faults: list = field(default_factory=list)  # rendered FaultSpec strings
    probes: list = field(default_factory=list)  # ProbeRecord
    invariants: list = field(default_factory=list)  # InvariantReport
    sla: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.invariants)
            and all(p.integrity_ok for p in self.probes)
        )

    def render(self) -> str:
        lines = [f"chaos scenario: {self.scenario} (seed={self.seed})"]
        lines.append("faults:")
        for fault in self.faults:
            lines.append(f"  - {fault}")
        lines.append("probes:")
        for probe in self.probes:
            lines.append(f"  {probe.render()}")
        lines.append("invariants:")
        for report in self.invariants:
            for line in report.render().splitlines():
                lines.append(f"  {line}")
        lines.append("sla:")
        for key, value in self.sla.items():
            if isinstance(value, float):
                lines.append(f"  {key}={value:.4f}")
            else:
                lines.append(f"  {key}={value}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Scenario library
# ----------------------------------------------------------------------

def _owner_hosts(deployment: "CubrickDeployment", region: str) -> list[str]:
    """Hosts owning shards in a region (deterministic order)."""
    sm = deployment.sm_servers[region]
    owners: list[str] = []
    for shard_id in sm.shard_ids():
        owner = sm.discovery.resolve_authoritative(shard_id)
        if owner is not None and owner not in owners:
            owners.append(owner)
    return owners


def _build_host_crash(deployment, t0: float) -> FaultSchedule:
    owners = _owner_hosts(deployment, "region0")
    schedule = FaultSchedule()
    schedule.host_crash(t0, owners[0], duration=120.0)
    if len(owners) > 1:
        schedule.host_crash(t0 + 10.0, owners[1], duration=120.0)
    return schedule


def _build_crash_storm(deployment, t0: float) -> FaultSchedule:
    # One owner per region, each owning a *different* shard: with an
    # in-memory store, crashing every region's copy of the same shard
    # inside the failure-detection window destroys all replicas at once
    # and no failover can recover the data. Distinct shards keep a
    # healthy cross-region donor available for each failover while the
    # three failovers still overlap in time.
    schedule = FaultSchedule()
    for index, (offset, region) in enumerate(
        zip((0.0, 15.0, 30.0), sorted(deployment.sm_servers))
    ):
        owners = _owner_hosts(deployment, region)
        schedule.host_crash(
            t0 + offset, owners[index % len(owners)], duration=120.0
        )
    return schedule


def _build_host_hang(deployment, t0: float) -> FaultSchedule:
    owners = _owner_hosts(deployment, "region0")
    return FaultSchedule().host_hang(t0, owners[0], duration=90.0)


def _build_slow_disk(deployment, t0: float) -> FaultSchedule:
    owners = _owner_hosts(deployment, "region0")
    return FaultSchedule().slow_disk(
        t0, owners[0], factor=500.0, duration=120.0
    )


def _build_tail_amplify(deployment, t0: float) -> FaultSchedule:
    return FaultSchedule().tail_amplify(
        t0, "region0", factor=200.0, duration=120.0
    )


def _build_region_partition(deployment, t0: float) -> FaultSchedule:
    return FaultSchedule().network_partition(t0, "region0", duration=300.0)


def _build_session_expiry(deployment, t0: float) -> FaultSchedule:
    owners = _owner_hosts(deployment, "region0")
    return FaultSchedule().session_expiry(t0, owners[0], duration=60.0)


def _build_sm_failover(deployment, t0: float) -> FaultSchedule:
    owners = _owner_hosts(deployment, "region0")
    schedule = FaultSchedule()
    schedule.sm_failover(t0, "region0")
    schedule.host_crash(t0 + 5.0, owners[0], duration=90.0)
    return schedule


def _build_migration_interrupt(deployment, t0: float) -> FaultSchedule:
    return FaultSchedule().migration_interrupt(t0, "region0", duration=60.0)


def _build_scale_in_crash(deployment, t0: float) -> FaultSchedule:
    # Elastic control plane under fire: a shard-owning host is being
    # decommissioned (drained, deregistered, awaiting removal) and a
    # fresh host is warming up towards SM registration when BOTH crash.
    # The decommission and the provision must each abort cleanly, the
    # repair pipeline must return both hosts to service, and the
    # single-primary / replica-reconvergence invariants must hold
    # throughout — no shard may be lost to the interrupted drain.
    from repro.autoscale.fleet import FleetController, FleetSpec

    fleet = FleetController(
        deployment,
        # Long grace/warm-up windows so both staged operations are still
        # in flight when the crashes land.
        FleetSpec(warmup_delay=30.0, decommission_grace=30.0),
    )
    victim = _owner_hosts(deployment, "region0")[0]
    fleet.decommission(victim)
    warming = fleet.provision("region0", 1)[0]
    schedule = FaultSchedule()
    schedule.host_crash(t0, victim, duration=90.0)
    schedule.host_crash(t0 + 10.0, warming, duration=120.0)
    return schedule


def _build_metadata_leader_crash(deployment, t0: float) -> FaultSchedule:
    # Kill the bootstrap metadata leader, let a successor win, then kill
    # the successor's region too: two elections back to back, with the
    # consensus safety invariants (single leader per term, no committed
    # loss) checked after each.
    schedule = FaultSchedule()
    schedule.leader_crash(t0, "region0", duration=60.0)
    schedule.leader_crash(t0 + 90.0, "region1", duration=60.0)
    return schedule


def _build_asymmetric_partition(deployment, t0: float) -> FaultSchedule:
    # Half-open link: region0's messages to region1 vanish while
    # region1 → region0 still delivers. Queries keep flowing (no region
    # is down); the metadata plane must replicate around the cut and
    # catch region1 up after the heal event.
    return FaultSchedule().asymmetric_partition(
        t0, "region0", "region1", duration=120.0
    )


def _build_overload_storm(deployment, t0: float) -> FaultSchedule:
    # Overload is the fault: cap the admission window at a realistic
    # serving rate, then storm the front door at ~2.5x that rate. The
    # excess is rejected loudly (visible in the SLA stats and the
    # repro.obs counters); probes issued mid-storm may themselves be
    # rejected — a loud failure, never a silent wrong answer — and the
    # recovered probe shows the window draining back to normal.
    deployment.proxy.admission.max_qps = 60.0
    return FaultSchedule().query_storm(t0, "events", qps=150.0, duration=10.0)


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "host-crash",
            "two shard-owning hosts in region0 crash and recover",
            _build_host_crash,
        ),
        Scenario(
            "crash-storm",
            "one shard-owning host crashes in every region, staggered",
            _build_crash_storm,
        ),
        Scenario(
            "host-hang",
            "a shard-owning host hangs (up but unresponsive) for 90s",
            _build_host_hang,
        ),
        Scenario(
            "slow-disk",
            "one host's service times amplified 500x for two minutes",
            _build_slow_disk,
        ),
        Scenario(
            "tail-amplify",
            "all of region0's service times amplified 200x",
            _build_tail_amplify,
        ),
        Scenario(
            "region-partition",
            "region0 unreachable from the proxy tier for five minutes",
            _build_region_partition,
        ),
        Scenario(
            "session-expiry",
            "a healthy host loses its datastore session (false positive)",
            _build_session_expiry,
        ),
        Scenario(
            "sm-failover",
            "SM server instance replaced (republish storm), then a crash",
            _build_sm_failover,
        ),
        Scenario(
            "migration-interrupt",
            "a live migration's target dies mid-protocol",
            _build_migration_interrupt,
        ),
        Scenario(
            "scale-in-crash",
            "a decommissioning host and a warming-up host both crash "
            "mid-operation; both staged operations abort cleanly",
            _build_scale_in_crash,
        ),
        Scenario(
            "overload-storm",
            "a 2.5x-saturation query storm against a capped admission window",
            _build_overload_storm,
        ),
        Scenario(
            "metadata-leader-crash",
            "the consensus metadata leader crashes twice; elections re-form "
            "a quorum without losing a committed entry",
            _build_metadata_leader_crash,
            replicated=True,
        ),
        Scenario(
            "asymmetric-partition",
            "a one-way region0->region1 link cut; replication routes "
            "around it and catches up after the heal",
            _build_asymmetric_partition,
            replicated=True,
        ),
    )
}


def list_scenarios() -> list[tuple[str, str]]:
    """(name, description) pairs, in deterministic order."""
    return [(name, SCENARIOS[name].description) for name in sorted(SCENARIOS)]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def _make_rows(schema, count: int, seed: int) -> list[dict]:
    generator = np.random.default_rng(seed)
    rows = []
    for __ in range(count):
        row = {}
        for dim in schema.dimensions:
            row[dim.name] = int(generator.integers(dim.cardinality))
        for metric in schema.metrics:
            row[metric.name] = float(generator.integers(1, 100))
        rows.append(row)
    return rows


def build_chaos_deployment(seed: int, *, replicated: bool = False):
    """A small, loaded three-region deployment for chaos runs.

    Returns ``(deployment, expected_total)`` where ``expected_total`` is
    the ground-truth ``sum(clicks)`` computed from the loaded rows —
    independent of the query path being chaos-tested.
    ``replicated=True`` puts the shard maps in the consensus-replicated
    metadata store (home region region0).
    """
    from repro.core.deployment import CubrickDeployment, DeploymentConfig
    from repro.cubrick.schema import Dimension, Metric, TableSchema

    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=seed,
            regions=3,
            racks_per_region=2,
            hosts_per_rack=3,
            max_shards=10_000,
            replicated_metadata=replicated,
            home_region="region0" if replicated else None,
        )
    )
    schema = TableSchema.build(
        "events",
        dimensions=[Dimension("day", 30, range_size=7)],
        metrics=[Metric("clicks")],
    )
    deployment.create_table(schema, num_partitions=3)
    rows = _make_rows(schema, 300, seed)
    deployment.load("events", rows)
    expected_total = float(sum(row["clicks"] for row in rows))
    return deployment, expected_total


def _probe_query():
    from repro.cubrick.query import AggFunc, Aggregation, Query

    return Query.build("events", [Aggregation(AggFunc.SUM, "clicks")])


def _probe(
    deployment: "CubrickDeployment",
    checker: InvariantChecker,
    policy: ResiliencePolicy,
    expected_total: float,
    label: str,
) -> ProbeRecord:
    now = deployment.simulator.now
    query = _probe_query()
    try:
        result = deployment.proxy.submit(query, policy=policy)
    except (
        AdmissionControlError,
        QueryFailedError,
        RegionUnavailableError,
    ) as exc:
        # A *failed* query never returned rows, so it cannot violate the
        # no-silent-row-loss invariant; it only hurts the SLA stats.
        return ProbeRecord(
            time=now,
            label=label,
            outcome=f"failed:{type(exc).__name__}",
            expected_total=expected_total,
        )
    metadata = result.metadata
    total = float(result.rows[0][-1]) if result.rows else 0.0
    completeness = metadata.get(
        "completeness", metadata.get("coverage", 1.0)
    )
    integrity = checker.check_query_integrity(
        result, expected_total, total=total, label=f"integrity:{label}"
    )
    return ProbeRecord(
        time=now,
        label=label,
        outcome="degraded" if metadata.get("degraded") else "ok",
        attempts=int(metadata.get("attempts", 0)),
        completeness=float(completeness),
        total=total,
        expected_total=expected_total,
        integrity_ok=integrity.ok,
    )


def run_scenario(
    name: str,
    seed: int = 0,
    *,
    policy: ResiliencePolicy = ResiliencePolicy.resilient(),
) -> ChaosReport:
    """Run one named scenario end to end; returns its :class:`ChaosReport`."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown chaos scenario {name!r} (known: {known})"
        ) from None

    deployment, expected_total = build_chaos_deployment(
        seed, replicated=scenario.replicated
    )
    report = ChaosReport(scenario=name, seed=seed)
    checker = InvariantChecker(deployment)
    injector = ChaosInjector(deployment)

    horizon = FAULT_START + 24 * 3600.0
    deployment.start_background_maintenance(
        collect_interval=30.0, balance_interval=60.0, until=horizon
    )
    deployment.simulator.run_until(WARMUP)

    report.probes.append(
        _probe(deployment, checker, policy, expected_total, "baseline")
    )
    report.invariants.append(checker.check_safety(label="baseline"))

    schedule = scenario.build(deployment, FAULT_START)
    specs = schedule.sorted_specs()
    injector.install(schedule)

    for spec in specs:
        deployment.simulator.run_until(spec.at + 1.0)
        report.probes.append(
            _probe(
                deployment,
                checker,
                policy,
                expected_total,
                f"during:{spec.kind.value}",
            )
        )
        report.invariants.append(
            checker.check_safety(label=f"after:{spec.kind.value}")
        )

    deployment.simulator.run_until(schedule.end_time + SETTLE)
    report.probes.append(
        _probe(deployment, checker, policy, expected_total, "recovered")
    )
    report.invariants.append(checker.check_all(label="converged"))

    report.faults = [spec.render() for spec in specs]
    proxy = deployment.proxy
    report.sla = {
        "queries": len(proxy.query_log),
        "success_ratio": proxy.success_ratio(),
        "degraded_ratio": proxy.degraded_ratio(),
        "min_completeness": min(
            (p.completeness for p in report.probes), default=1.0
        ),
        "faults_injected": len(injector.applied),
    }
    deployment.obs.events.emit(
        "repro.chaos.scenario_finished",
        scenario=name,
        seed=seed,
        ok=report.ok,
        probes=len(report.probes),
    )
    return report
