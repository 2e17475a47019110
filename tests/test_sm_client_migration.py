"""Tests for the SM migration engine."""

import pytest

from repro.errors import MigrationError
from repro.shardmanager.app_server import InMemoryApplicationServer
from repro.shardmanager.migration import MigrationEngine
from repro.sim.engine import DAY, Simulator
from repro.smc.registry import ServiceDiscovery


class TestMigrationEngine:
    def _engine(self):
        simulator = Simulator()
        discovery = ServiceDiscovery()
        engine = MigrationEngine(simulator, discovery)
        return simulator, discovery, engine

    def test_live_migrate_runs_graceful_protocol(self):
        simulator, discovery, engine = self._engine()
        source = InMemoryApplicationServer("a")
        target = InMemoryApplicationServer("b")
        source.add_shard(1, None)
        source.set_shard_size(1, 42.0)
        record = engine.live_migrate(1, source, target)
        assert record.graceful
        assert target.shard_metrics()[1] == 42.0  # data copied
        assert source.is_forwarding(1)
        assert discovery.resolve_authoritative(1) == "b"
        # Source still holds data until the grace period elapses.
        assert 1 in source.hosted_shards()
        simulator.run_until(engine.drop_grace_period + 1.0)
        assert 1 not in source.hosted_shards()

    def test_live_migrate_to_self_rejected(self):
        __, __d, engine = self._engine()
        app = InMemoryApplicationServer("a")
        app.add_shard(1, None)
        with pytest.raises(MigrationError):
            engine.live_migrate(1, app, app)

    def test_failover_is_single_add(self):
        __, discovery, engine = self._engine()
        target = InMemoryApplicationServer("b")
        record = engine.failover(1, target, failed_host="a")
        assert not record.graceful
        assert record.reason == "failover"
        assert 1 in target.hosted_shards()
        assert discovery.resolve_authoritative(1) == "b"

    def test_failover_with_recovery_source_copies_data(self):
        __, __d, engine = self._engine()
        healthy = InMemoryApplicationServer("c")
        healthy.add_shard(1, None)
        healthy.set_shard_size(1, 7.0)
        target = InMemoryApplicationServer("b")
        engine.failover(1, target, failed_host="a", recovery_source=healthy)
        assert target.shard_metrics()[1] == 7.0

    def test_migrations_per_day_buckets(self):
        simulator, __, engine = self._engine()
        target = InMemoryApplicationServer("b")
        engine.failover(1, target, failed_host="a")
        simulator.run_until(DAY + 10)
        target2 = InMemoryApplicationServer("c")
        engine.failover(2, target2, failed_host="a")
        assert engine.migrations_per_day(2) == [1, 1]

    def test_count_by_reason(self):
        __, __d, engine = self._engine()
        engine.failover(1, InMemoryApplicationServer("b"), failed_host="a")
        counts = engine.count_by_reason()
        assert counts == {"failover": 1}

    def test_invalid_horizon_rejected(self):
        __, __d, engine = self._engine()
        with pytest.raises(ValueError):
            engine.migrations_per_day(0)
