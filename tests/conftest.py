"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.topology import Cluster
from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.shardmanager.app_server import InMemoryApplicationServer
from repro.shardmanager.server import SMServer
from repro.shardmanager.spec import ServiceSpec
from repro.sim.engine import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden snapshots (EXPLAINs, the seeded-report "
             "manifest) instead of comparing",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster.build(regions=1, racks_per_region=2, hosts_per_rack=5)


@pytest.fixture
def three_region_cluster() -> Cluster:
    return Cluster.build(regions=3, racks_per_region=2, hosts_per_rack=3)


@pytest.fixture
def sm_service(simulator, small_cluster):
    """An SM service with ten registered in-memory application servers."""
    spec = ServiceSpec(name="test", max_shards=10_000)
    server = SMServer(spec, simulator, small_cluster, region="region0")
    apps = {}
    for host in small_cluster.hosts():
        app = InMemoryApplicationServer(host.host_id, capacity=1000.0)
        apps[host.host_id] = app
        server.register_host(app)
    return server, apps


@pytest.fixture
def events_schema() -> TableSchema:
    return TableSchema.build(
        "events",
        dimensions=[
            Dimension("day", 30, range_size=7),
            Dimension("country", 100, range_size=25),
        ],
        metrics=[Metric("clicks"), Metric("cost")],
    )


def make_rows(schema: TableSchema, count: int, seed: int = 0) -> list[dict]:
    """Deterministic random rows matching a schema."""
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


def region_rows(deployment, sm, table: str) -> int:
    """Rows of a table's serving layout held in one region (``sm``)."""
    info = deployment.catalog.get(table)
    shards = deployment.directory.shards_for_table(info.physical_table)
    total = 0
    for index in range(info.num_partitions):
        owner = sm.discovery.resolve_authoritative(shards[index])
        total += sm.app_server(owner).partition(info.physical_table, index).rows
    return total


@pytest.fixture
def tiny_deployment(events_schema) -> CubrickDeployment:
    """A loaded 2-region deployment for end-to-end tests."""
    deployment = CubrickDeployment(
        DeploymentConfig(seed=99, regions=2, racks_per_region=2, hosts_per_rack=3)
    )
    deployment.create_table(events_schema)
    deployment.load("events", make_rows(events_schema, 500, seed=7))
    deployment.simulator.run_until(30.0)
    return deployment
