"""Network cost model: converts transferred bytes into simulated seconds.

The paper's clusters use FDR InfiniBand (~56 Gb/s) and 10 Gb/s Ethernet
(Table I). Shuffles and broadcasts are the dominant network users
(Section II, Fig. 10: "most of the write time is dominated by shuffles").

Model: a transfer of ``n`` bytes between two *different* machines costs
``latency + n / bandwidth``; transfers within a machine cost
``n / memory_bandwidth`` (loopback / shared memory). Concurrent transfers
into one machine share its NIC, which the makespan computation approximates
by serializing per-machine ingress. The model counts nothing: shuffle and
broadcast bytes are counted in the metrics registry (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass

GBIT = 1e9 / 8  # bytes/second per Gbit/s


@dataclass
class NetworkModel:
    """Bandwidth/latency cost model.

    Attributes
    ----------
    bandwidth:
        Cross-machine bandwidth in bytes/second (default 10 Gb/s Ethernet).
    latency:
        Per-transfer setup latency in seconds (connection + framing).
    local_bandwidth:
        Same-machine "transfer" bandwidth (memory copy), bytes/second.
    """

    bandwidth: float = 10 * GBIT
    latency: float = 200e-6
    local_bandwidth: float = 8e9

    def transfer_time(self, nbytes: int, cross_machine: bool) -> float:
        """Simulated seconds to move ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if cross_machine:
            return self.latency + nbytes / self.bandwidth
        return nbytes / self.local_bandwidth

    def broadcast_time(self, nbytes: int, num_machines: int) -> float:
        """Simulated time to broadcast ``nbytes`` to ``num_machines`` peers.

        Spark uses a BitTorrent-style broadcast, which behaves like a
        pipelined tree: time grows with log2(machines), not linearly.
        """
        if num_machines <= 1:
            return 0.0
        hops = max(1, (num_machines - 1).bit_length())
        return hops * (self.latency + nbytes / self.bandwidth)


def infiniband_fdr() -> NetworkModel:
    """FDR InfiniBand (private cluster, Table I): ~56 Gb/s, ~1 us latency."""
    return NetworkModel(bandwidth=56 * GBIT, latency=2e-6)


def ethernet_10g() -> NetworkModel:
    """10 Gb/s Ethernet (EC2 i3 instances, Table I)."""
    return NetworkModel(bandwidth=10 * GBIT, latency=200e-6)
