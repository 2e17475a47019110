"""Shard-map journaling through the replicated metadata store.

On a ``replicated_metadata`` deployment every shard-map mutation is
journaled into the consensus-backed datastore, so the assignment table
survives total SM amnesia (process loss, full region partition): a
replacement instance rebuilds from the journal instead of starting
blind.
"""

from __future__ import annotations

from repro.chaos.scenarios import build_chaos_deployment


def _journaled_shard_map(sm) -> dict[int, list[tuple[str, str]]]:
    """The shard map as a client reads it from the SM's datastore:
    shard id -> ``[(host_id, role), ...]``."""
    shard_map = {}
    for key in sm.datastore.keys_with_prefix(sm._shardmap_prefix):
        value = sm.datastore.get(key)
        if value:
            shard_map[int(key.rsplit("/", 1)[1])] = [tuple(p) for p in value]
    return shard_map


def _deployment():
    deployment, __ = build_chaos_deployment(0, replicated=True)
    deployment.simulator.run_until(30.0)
    return deployment


class TestJournaledShardMap:
    def test_every_shard_is_journaled(self):
        deployment = _deployment()
        for region, sm in deployment.sm_servers.items():
            keys = sm.datastore.keys_with_prefix(sm._shardmap_prefix)
            assert len(keys) == len(sm.shard_ids())
            for shard_id in sm.shard_ids():
                assert (
                    f"{sm._shardmap_prefix}{shard_id:06d}" in keys
                ), (region, shard_id)

    def test_client_shard_map_matches_server(self):
        deployment = _deployment()
        sm = deployment.sm_servers["region0"]
        # Read from the journal, not the SM's memory: this read survives
        # the loss of the SM server itself.
        shard_map = _journaled_shard_map(sm)
        assert sorted(shard_map) == sm.shard_ids()
        for shard_id, replicas in shard_map.items():
            entry = sm.shard_entry(shard_id)
            assert replicas == [
                (r.host_id, r.role.value) for r in entry.replicas
            ]

    def test_drop_shard_removes_journal_entry(self):
        deployment = _deployment()
        sm = deployment.sm_servers["region0"]
        shard_id = sm.shard_ids()[0]
        key = f"{sm._shardmap_prefix}{shard_id:06d}"
        assert sm.datastore.get(key) is not None
        sm.drop_shard(shard_id)
        # The journal delete is a replicated write: let the commit land.
        deployment.simulator.run_until(deployment.simulator.now + 10.0)
        assert sm.datastore.get(key) is None
        assert shard_id not in sm.shard_ids()


class TestAmnesiaRecovery:
    def test_rebuild_restores_wiped_assignment_table(self):
        deployment = _deployment()
        sm = deployment.sm_servers["region0"]
        before = {
            shard_id: [
                (r.host_id, r.role) for r in sm.shard_entry(shard_id).replicas
            ]
            for shard_id in sm.shard_ids()
        }
        assert before
        # Total amnesia: the in-memory table vanishes, the journal stays.
        sm._shards.clear()
        sm._host_shards.clear()
        assert sm.shard_ids() == []
        restored = sm.rebuild_shard_map()
        assert restored == len(before)
        after = {
            shard_id: [
                (r.host_id, r.role) for r in sm.shard_entry(shard_id).replicas
            ]
            for shard_id in sm.shard_ids()
        }
        assert after == before
        events = deployment.obs.events.of_kind(
            "shardmanager.server.shard_map_rebuilt"
        )
        assert events and events[-1]["restored"] == len(before)

    def test_rebuild_is_noop_when_memory_matches(self):
        deployment = _deployment()
        sm = deployment.sm_servers["region0"]
        assert sm.rebuild_shard_map() == 0
        assert not deployment.obs.events.of_kind(
            "shardmanager.server.shard_map_rebuilt"
        )
