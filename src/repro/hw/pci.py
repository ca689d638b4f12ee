"""I/O bus model: the 64 MHz / 66-bit PCI segment between host and NIC.

The testbed's PCI throughput was measured at 450 MB/s (Section 5). All DMA
between NIC and host memory serializes on this bus; descriptor fetches and
doorbell PIOs also cross it but their host-side CPU cost is charged by the
caller.
"""

from __future__ import annotations

from ..params import NicParams
from ..sim import BandwidthPipe, Event, Simulator


class PCIBus:
    """Shared DMA medium for one host's I/O bus."""

    def __init__(self, sim: Simulator, params: NicParams, name: str = "pci"):
        self.sim = sim
        self.params = params
        self.name = name
        self._pipe = BandwidthPipe(
            sim, params.pci_bw, name=name,
            per_transfer_us=params.pci_per_dma_us,
        )

    def dma(self, nbytes: int) -> Event:
        """Move ``nbytes`` between host memory and the NIC."""
        return self._pipe.transfer(nbytes)

    def descriptor_fetch(self) -> Event:
        """NIC-initiated fetch of one descriptor."""
        return self.sim.timeout(self.params.descriptor_fetch_us)
