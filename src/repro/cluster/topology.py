"""Cluster topology: regions contain racks, racks contain hosts.

Cubrick's production deployment spans three regions, each storing a full
copy of all tables (paper §IV-D); queries never cross regions. The
topology object is the shared source of truth for host lookup, available
capacity and failure-domain grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cluster.host import GIB, Host, HostState
from repro.errors import HostNotFoundError


@dataclass
class Rack:
    """A rack of hosts — one of SM's possible failure domains."""

    name: str
    region: str
    host_ids: list[str] = field(default_factory=list)


@dataclass
class Region:
    """A region/datacenter — Cubrick's replication and failure boundary."""

    name: str
    rack_names: list[str] = field(default_factory=list)
    available: bool = True  # regions can be drained wholesale (code pushes)


class Cluster:
    """The fleet: host registry plus region/rack grouping."""

    def __init__(self) -> None:
        self._hosts: dict[str, Host] = {}
        self._racks: dict[str, Rack] = {}
        self._regions: dict[str, Region] = {}
        # Directional inter-region links that are currently cut. A pair
        # (src, dst) here means traffic *from* src *to* dst is dropped;
        # the reverse direction is tracked independently, which is what
        # makes asymmetric partitions expressible.
        self._region_links_down: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_host(self, host: Host) -> Host:
        """Register a host, creating its rack/region entries as needed."""
        if host.host_id in self._hosts:
            raise ValueError(f"duplicate host id: {host.host_id}")
        self._hosts[host.host_id] = host
        region = self._regions.get(host.region)
        if region is None:
            region = Region(name=host.region)
            self._regions[host.region] = region
        rack_key = f"{host.region}/{host.rack}"
        rack = self._racks.get(rack_key)
        if rack is None:
            rack = Rack(name=host.rack, region=host.region)
            self._racks[rack_key] = rack
            region.rack_names.append(rack_key)
        rack.host_ids.append(host.host_id)
        return host

    @classmethod
    def build(
        cls,
        *,
        regions: int = 3,
        racks_per_region: int = 10,
        hosts_per_rack: int = 10,
        memory_bytes: int = 256 * GIB,
        ssd_bytes: int = 2048 * GIB,
    ) -> "Cluster":
        """Build a uniform cluster: ``regions × racks × hosts`` topology."""
        if regions <= 0 or racks_per_region <= 0 or hosts_per_rack <= 0:
            raise ValueError("cluster dimensions must be positive")
        cluster = cls()
        for r in range(regions):
            region_name = f"region{r}"
            for k in range(racks_per_region):
                rack_name = f"rack{k:03d}"
                for h in range(hosts_per_rack):
                    host_id = f"{region_name}-{rack_name}-host{h:03d}"
                    cluster.add_host(
                        Host(
                            host_id=host_id,
                            region=region_name,
                            rack=rack_name,
                            memory_bytes=memory_bytes,
                            ssd_bytes=ssd_bytes,
                        )
                    )
        return cluster

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def host(self, host_id: str) -> Host:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise HostNotFoundError(f"unknown host: {host_id}") from None

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    def hosts(self) -> Iterator[Host]:
        """All hosts, in insertion order (deterministic)."""
        return iter(self._hosts.values())

    def host_ids(self) -> list[str]:
        return list(self._hosts)

    def regions(self) -> list[Region]:
        return list(self._regions.values())

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise HostNotFoundError(f"unknown region: {name}") from None

    def region_names(self) -> list[str]:
        return list(self._regions)

    def hosts_in_region(self, region: str) -> list[Host]:
        return [h for h in self._hosts.values() if h.region == region]

    def hosts_in_rack(self, region: str, rack: str) -> list[Host]:
        key = f"{region}/{rack}"
        rack_obj = self._racks.get(key)
        if rack_obj is None:
            raise HostNotFoundError(f"unknown rack: {key}")
        return [self._hosts[hid] for hid in rack_obj.host_ids]

    def available_hosts(self, region: str | None = None) -> list[Host]:
        """Hosts that can serve traffic (optionally within one region)."""
        hosts: Iterable[Host] = self._hosts.values()
        if region is not None:
            hosts = (h for h in hosts if h.region == region)
        return [
            h
            for h in hosts
            if h.is_available and self._regions[h.region].available
        ]

    def placeable_hosts(self, region: str | None = None) -> list[Host]:
        """Hosts eligible to receive *new* shards."""
        return [h for h in self.available_hosts(region) if h.accepts_new_shards]

    # ------------------------------------------------------------------
    # Fleet statistics
    # ------------------------------------------------------------------

    def count_by_state(self) -> dict[HostState, int]:
        counts: dict[HostState, int] = {state: 0 for state in HostState}
        for host in self._hosts.values():
            counts[host.state] += 1
        return counts

    def set_region_available(self, region: str, available: bool) -> None:
        """Drain or restore an entire region (disaster exercise, code push)."""
        self.region(region).available = available

    # ------------------------------------------------------------------
    # Inter-region links (consensus / replication plane)
    # ------------------------------------------------------------------

    def set_region_link(self, src: str, dst: str, up: bool) -> None:
        """Cut or restore the directional link ``src → dst``."""
        self.region(src)
        self.region(dst)
        if up:
            self._region_links_down.discard((src, dst))
        else:
            self._region_links_down.add((src, dst))

    def region_link_up(self, src: str, dst: str) -> bool:
        """Can traffic currently flow from ``src`` to ``dst``?"""
        return (src, dst) not in self._region_links_down

    def isolate_region(self, region: str) -> None:
        """Cut both directions of every link touching ``region``."""
        for other in self._regions:
            if other != region:
                self.set_region_link(region, other, False)
                self.set_region_link(other, region, False)

    def rejoin_region(self, region: str) -> None:
        """Restore every link touching ``region``."""
        for other in self._regions:
            if other != region:
                self.set_region_link(region, other, True)
                self.set_region_link(other, region, True)
