"""The wall-breach control loop: signals in, actuations out.

Each test drives one control path in isolation by fabricating the
observability signal that should trigger it: SLA misses through the
proxy query log, load through the queue-pressure hook, idleness through
tiny datasets — then asserts the controller pulled the right actuator
(cap move, reshard, provision, decommission) and nothing else.
"""

import pytest

from repro.autoscale.controller import ControllerSpec, WallBreachController
from repro.autoscale.fleet import FleetController, FleetSpec
from repro.autoscale.reshard import ReshardPlanner, ReshardSpec
from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.core.wall import scalability_wall
from repro.cubrick.proxy import QueryLogEntry
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.errors import ConfigurationError
from repro.sched import WorkloadManager


def build_deployment(seed=0, *, regions=1, racks=2, hosts_per_rack=3,
                     partitions=2, rows=200):
    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=seed,
            regions=regions,
            racks_per_region=racks,
            hosts_per_rack=hosts_per_rack,
            max_shards=10_000,
        )
    )
    schema = TableSchema.build(
        "events",
        dimensions=[Dimension("day", 30, range_size=7)],
        metrics=[Metric("clicks")],
    )
    deployment.create_table(schema, num_partitions=partitions)
    deployment.load(
        "events",
        [{"day": i % 30, "clicks": 1.0} for i in range(rows)],
    )
    return deployment


def build_controller(deployment, spec=None, **kwargs):
    fleet = FleetController(deployment, FleetSpec())
    reshard = ReshardPlanner(deployment, ReshardSpec())
    # p=1e-3 puts the wall at 10 — small enough to exercise cap moves.
    spec = spec or ControllerSpec(failure_probability=1e-3)
    return WallBreachController(deployment, fleet, reshard, spec, **kwargs)


def log_queries(deployment, *, succeeded, failed):
    """Fabricate proxy log entries to shape the success window."""
    now = deployment.simulator.now
    log = deployment.proxy.query_log
    for __ in range(succeeded):
        log.append(QueryLogEntry(now, "events", True, 1))
    for __ in range(failed):
        log.append(QueryLogEntry(now, "events", False, 1))


def test_success_window_reads_a_bounded_query_log():
    deployment = build_deployment()
    controller = build_controller(deployment)
    WorkloadManager(deployment).retain_recent(150)
    log_queries(deployment, succeeded=90, failed=10)
    log_queries(deployment, succeeded=100, failed=0)
    # 200 entries logged, the last 150 kept: 40 + 100 ok, 10 failed.
    assert len(deployment.proxy.query_log) == 150
    assert controller.windowed_success_ratio() == pytest.approx(140 / 150)


class TestFanoutCap:
    def test_cap_starts_at_analytic_wall(self):
        deployment = build_deployment()
        controller = build_controller(deployment)
        assert controller.fanout_cap == scalability_wall(1e-3, 0.99) == 10

    def test_sla_miss_tightens_cap(self):
        deployment = build_deployment()
        controller = build_controller(deployment)
        log_queries(deployment, succeeded=90, failed=10)  # 0.90 < 0.99
        decision = controller.step()
        assert controller.fanout_cap == 9
        assert any("tighten" in a for a in decision.actions)
        assert decision.success_ratio == pytest.approx(0.90)

    def test_cap_moves_respect_cooldown(self):
        deployment = build_deployment()
        controller = build_controller(
            deployment,
            ControllerSpec(failure_probability=1e-3, cooldown=120.0),
        )
        log_queries(deployment, succeeded=90, failed=10)
        controller.step()
        assert controller.fanout_cap == 9
        # The window is sticky: without a cooldown every tick would keep
        # tightening on the same bad stretch. Same signal, no move.
        controller.step()
        assert controller.fanout_cap == 9
        deployment.simulator.run_until(deployment.simulator.now + 130.0)
        controller.step()
        assert controller.fanout_cap == 8

    def test_recovery_relaxes_cap_toward_analytic(self):
        deployment = build_deployment()
        controller = build_controller(deployment)
        log_queries(deployment, succeeded=90, failed=10)
        controller.step()
        assert controller.fanout_cap == 9
        # Flush the bad stretch out of the window with clean traffic.
        log_queries(deployment, succeeded=300, failed=0)
        deployment.simulator.run_until(deployment.simulator.now + 130.0)
        decision = controller.step()
        assert controller.fanout_cap == 10
        assert any("relax" in a for a in decision.actions)

    def test_cap_never_exceeds_analytic_wall(self):
        deployment = build_deployment()
        controller = build_controller(deployment)
        log_queries(deployment, succeeded=300, failed=0)
        deployment.simulator.run_until(deployment.simulator.now + 130.0)
        controller.step()
        assert controller.fanout_cap == 10  # already at the wall

    def test_short_window_is_inconclusive(self):
        deployment = build_deployment()
        controller = build_controller(deployment)
        log_queries(deployment, succeeded=0, failed=5)  # < min samples
        assert controller.windowed_success_ratio() == 1.0
        controller.step()
        assert controller.fanout_cap == 10

    def test_over_cap_table_is_narrowed(self):
        # A lossier network moves the wall to 2; the 4-wide table must
        # be narrowed to the cap via an online reshard.
        deployment = build_deployment(partitions=4, racks=2)
        controller = build_controller(
            deployment,
            ControllerSpec(failure_probability=0.005, sla=0.99),
        )
        assert controller.fanout_cap == scalability_wall(0.005, 0.99) == 2
        decision = controller.step()
        assert any("narrow events" in a for a in decision.actions)
        deployment.simulator.run_until(deployment.simulator.now + 300.0)
        assert deployment.catalog.get("events").num_partitions == 2


class TestFleetActuation:
    def test_queue_pressure_provisions_hosts(self):
        deployment = build_deployment()
        controller = build_controller(
            deployment,
            ControllerSpec(hosts_per_step=2),
            queue_pressure_fn=lambda: 1.0,
        )
        before = controller.fleet.registered_hosts("region0")
        decision = controller.step()
        assert any("provision" in a for a in decision.actions)
        assert decision.queue_pressure == 1.0
        deployment.simulator.run_until(deployment.simulator.now + 120.0)
        assert controller.fleet.registered_hosts("region0") == before + 2

    def test_scale_out_respects_cooldown(self):
        deployment = build_deployment()
        controller = build_controller(
            deployment,
            ControllerSpec(cooldown=300.0),
            queue_pressure_fn=lambda: 1.0,
        )
        controller.step()
        second = controller.step()
        assert not any("provision" in a for a in second.actions)

    def test_idle_cluster_scales_in_emptiest_host(self):
        deployment = build_deployment(racks=2, hosts_per_rack=3, rows=50)
        sm = deployment.sm_servers["region0"]
        controller = build_controller(
            deployment,
            ControllerSpec(
                scale_in_utilization=0.5,
                scale_out_utilization=0.9,
                min_hosts_per_region=4,
            ),
        )
        emptiest = min(
            sorted(sm.registered_hosts()),
            key=lambda h: (len(sm.shards_on_host(h)), h),
        )
        decision = controller.step()
        assert f"decommission {emptiest}" in decision.actions
        deployment.simulator.run_until(deployment.simulator.now + 300.0)
        assert emptiest not in sm.registered_hosts()
        assert len(sm.registered_hosts()) == 5

    def test_scale_in_respects_region_floor(self):
        deployment = build_deployment(racks=2, hosts_per_rack=2, rows=50)
        controller = build_controller(
            deployment,
            ControllerSpec(
                scale_in_utilization=0.5,
                scale_out_utilization=0.9,
                min_hosts_per_region=4,
            ),
        )
        decision = controller.step()
        assert not any("decommission" in a for a in decision.actions)
        assert len(
            deployment.sm_servers["region0"].registered_hosts()
        ) == 4

    def test_in_flight_drains_count_against_floor(self):
        deployment = build_deployment(racks=2, hosts_per_rack=3, rows=50)
        controller = build_controller(
            deployment,
            ControllerSpec(
                scale_in_utilization=0.5,
                scale_out_utilization=0.9,
                min_hosts_per_region=5,
                cooldown=0.001,
            ),
        )
        first = controller.step()
        assert any("decommission" in a for a in first.actions)
        # The first drain is still in flight; 6 registered - 1 draining
        # is already at the floor, so a second victim must not be taken.
        deployment.simulator.run_until(deployment.simulator.now + 0.5)
        second = controller.step()
        assert not any("decommission" in a for a in second.actions)


class TestLoop:
    def test_periodic_loop_records_decisions(self):
        deployment = build_deployment()
        controller = build_controller(
            deployment, ControllerSpec(interval=10.0)
        )
        controller.start(until=55.0)
        deployment.simulator.run_until(60.0)
        controller.stop()
        assert len(controller.decisions) == 5
        assert [d.time for d in controller.decisions] == \
            [10.0, 20.0, 30.0, 40.0, 50.0]
        ticks = deployment.obs.metrics.counter("autoscale.controller.ticks")
        assert ticks.value == 5

    def test_stop_halts_the_loop(self):
        deployment = build_deployment()
        controller = build_controller(
            deployment, ControllerSpec(interval=10.0)
        )
        controller.start()
        deployment.simulator.run_until(25.0)
        controller.stop()
        deployment.simulator.run_until(100.0)
        assert len(controller.decisions) == 2

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(sla=1.5)
        with pytest.raises(ConfigurationError):
            ControllerSpec(interval=0.0)
        with pytest.raises(ConfigurationError):
            ControllerSpec(hosts_per_step=0)
        with pytest.raises(ConfigurationError):
            ControllerSpec(
                scale_in_utilization=0.8, scale_out_utilization=0.7
            )
