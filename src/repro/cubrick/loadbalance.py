"""The three generations of Cubrick's load-balancing metrics (paper §IV-F).

SM decouples measurement from management: Cubrick chooses *what* to
export, SM balances on it. Cubrick's choice evolved:

* **Generation 1** — shard size = actual memory footprint; host capacity
  = 90% of physical memory. Worked until adaptive compression arrived.

* **Generation 2** — adaptive compression makes the actual footprint
  depend on the host's current memory pressure, so a migrated shard can
  nondeterministically shrink/expand — unbalanceable. Fix: export the
  *decompressed* size per shard (deterministic, changes only with data),
  and export capacity as physical memory × the average compression ratio
  observed in production.

* **Generation 3** (in development in the paper) — data evicts to SSD
  under sustained pressure, so memory footprint can hit zero. Export SSD
  footprint per shard and SSD capacity per host; the open problem is
  that this ignores working-set size, so IOPS is being considered as an
  additional metric.
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING

from repro.shardmanager.metrics import MovingAverage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cubrick.node import CubrickNode


class LoadBalanceGeneration(enum.Enum):
    GEN1_FOOTPRINT = 1
    GEN2_DECOMPRESSED = 2
    GEN3_SSD = 3


class MetricExporter(abc.ABC):
    """Strategy exporting (capacity, per-shard sizes) for one node."""

    generation: LoadBalanceGeneration

    @abc.abstractmethod
    def capacity(self, node: "CubrickNode") -> float:
        """Host capacity in the generation's metric."""

    @abc.abstractmethod
    def shard_size(self, node: "CubrickNode", shard_id: int) -> float:
        """Size of one shard in the generation's metric."""

    def shard_metrics(self, node: "CubrickNode") -> dict[int, float]:
        return {
            shard_id: self.shard_size(node, shard_id)
            for shard_id in node.hosted_shards()
        }


class FootprintExporter(MetricExporter):
    """Generation 1: actual memory footprint / 90% of physical memory."""

    generation = LoadBalanceGeneration.GEN1_FOOTPRINT

    def __init__(self, memory_fraction: float = 0.9):
        if not 0.0 < memory_fraction <= 1.0:
            raise ValueError(f"memory_fraction must be in (0, 1]: {memory_fraction}")
        self.memory_fraction = memory_fraction

    def capacity(self, node: "CubrickNode") -> float:
        return node.memory_bytes * self.memory_fraction

    def shard_size(self, node: "CubrickNode", shard_id: int) -> float:
        return float(
            sum(p.footprint_bytes() for p in node.partitions_of_shard(shard_id))
        )


class DecompressedSizeExporter(MetricExporter):
    """Generation 2: decompressed size / memory × avg compression ratio."""

    generation = LoadBalanceGeneration.GEN2_DECOMPRESSED

    def __init__(self, average_compression_ratio: float = 2.5,
                 memory_fraction: float = 0.9):
        if average_compression_ratio < 1.0:
            raise ValueError(
                f"average_compression_ratio must be >= 1: "
                f"{average_compression_ratio}"
            )
        if not 0.0 < memory_fraction <= 1.0:
            raise ValueError(f"memory_fraction must be in (0, 1]: {memory_fraction}")
        self.average_compression_ratio = average_compression_ratio
        self.memory_fraction = memory_fraction

    def capacity(self, node: "CubrickNode") -> float:
        return (
            node.memory_bytes * self.memory_fraction
            * self.average_compression_ratio
        )

    def shard_size(self, node: "CubrickNode", shard_id: int) -> float:
        return float(
            sum(p.decompressed_bytes() for p in node.partitions_of_shard(shard_id))
        )


class SsdExporter(MetricExporter):
    """Generation 3: SSD footprint / SSD capacity.

    In this simulation a shard's SSD footprint equals its decompressed
    size (everything is assumed spillable); the known limitation — that
    working sets and IOPS are ignored — is exactly the open problem the
    paper describes.
    """

    generation = LoadBalanceGeneration.GEN3_SSD

    def capacity(self, node: "CubrickNode") -> float:
        return float(node.ssd_bytes)

    def shard_size(self, node: "CubrickNode", shard_id: int) -> float:
        return float(
            sum(p.decompressed_bytes() for p in node.partitions_of_shard(shard_id))
        )


class IopsAwareExporter(SsdExporter):
    """Generation 3 + the paper's proposed IOPS refinement (§IV-F3).

    The plain SSD metric ignores working sets: a host whose shards'
    *hot* data does not fit in memory pays IOs on every query, and its
    latency degrades even though its SSD footprint looks fine. The team
    was investigating adding IOPS as a load-balancing input; this
    exporter implements that: each shard's size is its spillable bytes
    plus a smoothed IO rate converted to a byte-equivalent penalty, so
    IO-hot shards look bigger and the balancer spreads them out.
    """

    def __init__(self, io_cost_bytes: float = 16 * 1024 * 1024,
                 smoothing_alpha: float = 0.3):
        if io_cost_bytes < 0:
            raise ValueError(f"io_cost_bytes must be non-negative: {io_cost_bytes}")
        self.io_cost_bytes = io_cost_bytes
        self.smoothing_alpha = smoothing_alpha
        self._last_reads: dict[int, int] = {}
        self._smoothed: dict[int, MovingAverage] = {}

    def shard_size(self, node: "CubrickNode", shard_id: int) -> float:
        spillable = super().shard_size(node, shard_id)
        reads = sum(
            brick.io_reads
            for partition in node.partitions_of_shard(shard_id)
            for brick in partition.bricks()
        )
        delta = reads - self._last_reads.get(shard_id, 0)
        self._last_reads[shard_id] = reads
        average = self._smoothed.get(shard_id)
        if average is None:
            average = MovingAverage(alpha=self.smoothing_alpha)
            self._smoothed[shard_id] = average
        smoothed = average.update(float(max(delta, 0)))
        return spillable + self.io_cost_bytes * smoothed


def make_exporter(generation: LoadBalanceGeneration) -> MetricExporter:
    """Factory for a generation's default exporter."""
    if generation is LoadBalanceGeneration.GEN1_FOOTPRINT:
        return FootprintExporter()
    if generation is LoadBalanceGeneration.GEN2_DECOMPRESSED:
        return DecompressedSizeExporter()
    return SsdExporter()
