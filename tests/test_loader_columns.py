"""The column-wise ingest path against scalar references.

* ``partitions_of_columns`` must route every row exactly where the
  scalar ``partition_of`` does (md5 of the same key).
* The streaming loader must build the same bricks, byte for byte, and
  emit the same flush events as the row-at-a-time loader it replaced,
  modelled here by :class:`ScalarLoader`.
* Batches are atomic, and a failed multi-region flush writes nowhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.bricks import DIMENSION_DTYPE, METRIC_DTYPE
from repro.cubrick.granular import GranularIndex
from repro.cubrick.partitioning import partition_of, partitions_of_columns
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.errors import HostUnavailableError, SchemaError
from repro.workloads.fanout_experiment import probe_schema
from tests.conftest import region_rows

# ----------------------------------------------------------------------
# Routing: partitions_of_columns == partition_of, row by row
# ----------------------------------------------------------------------

#: Names that stress the key format: its separators, a format
#: character and non-ASCII text.
DIMENSION_NAMES = ("day", "user_id", "a%d", "x=y", "p|q", "région", "k\nl")


@st.composite
def routed_batches(draw):
    names = draw(st.lists(
        st.sampled_from(DIMENSION_NAMES), min_size=1, max_size=4, unique=True
    ))
    cardinalities = [draw(st.integers(1, 10**9)) for __ in names]
    schema = TableSchema.build(
        "routed",
        dimensions=[Dimension(n, c) for n, c in zip(names, cardinalities)],
        metrics=[Metric("m")],
    )
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, c - 1) for c in cardinalities)),
        max_size=40,
    ))
    as_float = draw(st.booleans())
    as_list = draw(st.booleans())
    columns = {}
    for position, name in enumerate(names):
        values = [row[position] for row in rows]
        if as_float:  # integral floats route like the ints they equal
            values = [float(v) for v in values]
        columns[name] = values if as_list else np.array(
            values, dtype=np.float64 if as_float else np.int64
        )
    return schema, columns, draw(st.integers(1, 64))


@settings(max_examples=200, deadline=None)
@given(batch=routed_batches())
def test_partitions_of_columns_matches_partition_of(batch):
    schema, columns, n = batch
    names = schema.dimension_names
    rows = [dict(zip(names, values)) for values in zip(*columns.values())]
    routed = partitions_of_columns(schema, columns, n)
    assert routed.tolist() == [partition_of(schema, row, n) for row in rows]


def test_routing_across_key_blocks():
    """Keys are hashed in blocks; a batch spanning several routes every
    row, in order, like the scalar function."""
    schema = TableSchema.build(
        "blocks", [Dimension("a", 5000), Dimension("b", 7)], [Metric("m")]
    )
    rng = np.random.default_rng(4)
    columns = {"a": rng.integers(5000, size=9001), "b": rng.integers(7, size=9001)}
    rows = [{"a": a, "b": b} for a, b in zip(columns["a"], columns["b"])]
    assert partitions_of_columns(schema, columns, 13).tolist() == [
        partition_of(schema, row, 13) for row in rows
    ]


# ----------------------------------------------------------------------
# Loader differential against the scalar model
# ----------------------------------------------------------------------


class ScalarLoader:
    """The row-at-a-time loader, as the reference model: one
    ``partition_of`` per row, a list buffer per partition, and a flush of
    the whole buffer as soon as it holds ``batch_rows`` rows."""

    def __init__(self, schema, num_partitions, batch_rows):
        self.schema = schema
        self.num_partitions = num_partitions
        self.batch_rows = batch_rows
        self.buffers: dict[int, list[dict]] = {}
        #: Rows written to each partition, in write order.
        self.written = {index: [] for index in range(num_partitions)}
        #: (partition, rows) per flush, in flush order.
        self.flushes: list[tuple[int, int]] = []

    def append_many(self, rows):
        for row in rows:
            index = partition_of(self.schema, row, self.num_partitions)
            buffer = self.buffers.setdefault(index, [])
            buffer.append(row)
            if len(buffer) >= self.batch_rows:
                self._flush(index)

    def flush(self):
        for index in sorted(self.buffers):
            self._flush(index)

    def _flush(self, index):
        rows = self.buffers.get(index)
        if rows:
            self.written[index].extend(rows)
            self.flushes.append((index, len(rows)))
            self.buffers[index] = []

    def brick_columns(self, index):
        """brick id -> column -> bytes for one partition's written rows."""
        granular = GranularIndex(self.schema)
        by_brick: dict[int, list[dict]] = {}
        for row in self.written[index]:
            by_brick.setdefault(granular.brick_of(row), []).append(row)
        return {
            brick_id: {
                name: np.array(
                    [row[name] for row in rows],
                    dtype=DIMENSION_DTYPE
                    if self.schema.has_dimension(name) else METRIC_DTYPE,
                ).tobytes()
                for name in self.schema.column_names
            }
            for brick_id, rows in by_brick.items()
        }


EVENTS = TableSchema.build(
    "events",
    dimensions=[
        Dimension("day", 30, range_size=7),
        Dimension("country", 100, range_size=25),
        Dimension("user", 5000, range_size=1250),  # dictionary-encoded
    ],
    metrics=[Metric("clicks"), Metric("cost")],
)


def _event_rows(count, seed):
    rng = np.random.default_rng(seed)
    return [
        {
            "day": int(rng.integers(30)),
            "country": int(rng.integers(100)),
            "user": int(rng.integers(5000)),
            "clicks": float(rng.integers(1, 100)),
            "cost": float(rng.random() * 10),
        }
        for __ in range(count)
    ]


def _deployment(seed=5, hosts_per_rack=3):
    return CubrickDeployment(
        DeploymentConfig(seed=seed, regions=2, racks_per_region=2,
                         hosts_per_rack=hosts_per_rack)
    )


def _stored_brick_columns(sm, deployment, table, index):
    shard = deployment.directory.shards_for_table(table)[index]
    owner = sm.discovery.resolve_authoritative(shard)
    storage = sm.app_server(owner).partition(table, index)
    return {
        brick.brick_id: {
            name: values.tobytes() for name, values in brick.columns().items()
        }
        for brick in storage.bricks()
    }


@pytest.mark.parametrize("batch_rows", [1, 7, 1000, 10_000])
def test_loader_matches_scalar_model(batch_rows):
    deployment = _deployment()
    deployment.create_table(EVENTS, num_partitions=6)
    deployment.simulator.run_until(30.0)
    info = deployment.catalog.get("events")
    start_generation = info.ingest_generation
    loader = deployment.loader("events", batch_rows=batch_rows)
    model = ScalarLoader(EVENTS, info.num_partitions, batch_rows)

    rows = _event_rows(1500, seed=batch_rows)
    cuts = [0, 1, 500, 507, 1200, 1500]  # uneven append_many calls
    for lo, hi in zip(cuts, cuts[1:]):
        loader.append_many(rows[lo:hi])
        model.append_many(rows[lo:hi])
    loader.flush()
    model.flush()

    events = deployment.obs.events
    assert events.dropped == 0
    flushes = [
        (event["partition"], event["rows"], event["ingest_generation"])
        for event in events.of_kind("cubrick.loader.flush")
    ]
    assert flushes == [
        (index, count, start_generation + k + 1)
        for k, (index, count) in enumerate(model.flushes)
    ]
    for sm in deployment.sm_servers.values():
        for index in range(info.num_partitions):
            assert _stored_brick_columns(
                sm, deployment, "events", index
            ) == model.brick_columns(index)


# ----------------------------------------------------------------------
# Atomic batches
# ----------------------------------------------------------------------


@pytest.fixture
def stream():
    deployment = _deployment(seed=8)
    deployment.create_table(probe_schema("stream"), num_partitions=6)
    deployment.simulator.run_until(30.0)
    return deployment


def _stream_rows(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"bucket": int(rng.integers(64)), "value": float(rng.integers(1, 9))}
        for __ in range(count)
    ]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ({"bucket": 64, "value": 1.0}, r"'bucket'.*row 37 outside"),
        ({"bucket": 2.5, "value": 1.0}, r"'bucket'.*non-integer.*row 37"),
        ({"bucket": None, "value": 1.0}, r"'bucket'.*None at row 37"),
        ({"value": 1.0}, r"row 37 missing column 'bucket'"),
        ({"bucket": 3, "value": "many"}, r"'value'.*'many' at row 37"),
        ({"bucket": 3, "value": float("nan")}, r"'value'.*non-finite.*row 37"),
    ],
)
def test_invalid_row_rejects_the_whole_batch(stream, bad_row, message):
    loader = stream.loader("stream", batch_rows=5)
    rows = _stream_rows(80)
    rows[37] = bad_row
    with pytest.raises(SchemaError, match=message):
        loader.append_many(rows)
    assert loader.buffered_rows == 0
    assert loader.stats.rows_accepted == 0
    assert loader.stats.batches_flushed == 0
    assert stream.total_rows("stream") == 0


def test_deployment_load_is_atomic(stream):
    rows = _stream_rows(50)
    rows[49] = {"bucket": -1, "value": 1.0}
    with pytest.raises(SchemaError, match="row 49"):
        stream.load("stream", rows)
    assert stream.total_rows("stream") == 0


# ----------------------------------------------------------------------
# A failed multi-region flush writes nowhere
# ----------------------------------------------------------------------


def test_failed_flush_is_retried_exactly_once_in_every_region():
    """Region1 loses partition 0's owner while region0's is healthy: the
    flush must fail before region0 takes the rows, or the retry would
    write them to region0 twice."""
    deployment = _deployment(seed=3, hosts_per_rack=5)
    deployment.create_table(probe_schema("s"), num_partitions=4)
    deployment.simulator.run_until(30.0)
    loader = deployment.loader("s", batch_rows=10_000)
    loader.append_many(_stream_rows(100, seed=0))
    loader.flush()

    region0, region1 = deployment.sm_servers.values()
    shard = deployment.directory.shards_for_table("s")[0]
    donor = region0.discovery.resolve_authoritative(shard)
    victim = region1.discovery.resolve_authoritative(shard)
    # The donor is down, so region1's failover is deferred: no owner.
    deployment.automation.handle_host_failure(donor, permanent=False)
    assert region1.datastore.expire_session_of(victim)
    deployment.simulator.run_until(deployment.simulator.now + 1.0)

    loader.append_many(_stream_rows(100, seed=1))
    with pytest.raises(HostUnavailableError):
        loader.flush()
    assert loader.stats.failed_flushes == 1
    assert region_rows(deployment, region0, "s") == 100
    assert loader.buffered_rows == 100

    deployment.automation.handle_host_recovery(donor)
    deployment._on_host_return(victim)
    deployment.simulator.run_until(deployment.simulator.now + 1.0)
    assert loader.flush() == 100
    for sm in deployment.sm_servers.values():
        assert region_rows(deployment, sm, "s") == 200
    assert loader.stats.rows_flushed == loader.stats.rows_accepted == 200
