"""SSD specs.

Table 4 lists Plextor 256 GB PCIe drives at 3000 MB/s peak read / 1000 MB/s
peak write; the SSD server (Section 4.1) uses 256 GB NVMe drives with the
same envelope.  Command overhead is ~80 us, three orders of magnitude below
an HDD seek -- which is why the paper finds transfer time becoming
irrelevant next to decompression.
"""

from __future__ import annotations

from repro.storage.device import DeviceSpec
from repro.storage.power import DevicePower
from repro.units import GB, mbps

__all__ = ["NVME_SSD_256GB", "PLEXTOR_SSD_256GB", "ssd_spec"]


def ssd_spec(
    name: str = "ssd",
    read_mbps: float = 3000.0,
    write_mbps: float = 1000.0,
    latency_us: float = 80.0,
    capacity: float = 256 * GB,
    active_w: float = 6.0,
    idle_w: float = 1.5,
) -> DeviceSpec:
    """Parameterized flash-device spec (defaults: the paper's PCIe drives)."""
    return DeviceSpec(
        name=name,
        read_bw=mbps(read_mbps),
        write_bw=mbps(write_mbps),
        seek_latency_s=latency_us / 1e6,
        capacity=capacity,
        power=DevicePower(active_w=active_w, idle_w=idle_w),
    )


#: The cluster's flash drive (Table 4): Plextor 256 GB PCIe.
PLEXTOR_SSD_256GB = ssd_spec(name="Plextor-256GB-SSD")

#: The SSD server's drive (Section 4.1): 256 GB NVMe.
NVME_SSD_256GB = ssd_spec(name="NVMe-256GB-SSD")
