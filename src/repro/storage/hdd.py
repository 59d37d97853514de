"""HDD specs.

Table 4: Western Digital 1 TB SATA drives, 126 MB/s max transfer rate.  A
~8 ms average seek is standard for 7200 rpm desktop drives; it is what makes
many-stripe HDD reads measurably slower than one sequential stream, the
effect PLFS's log-structured layout mitigates.
"""

from __future__ import annotations

from repro.storage.device import DeviceSpec
from repro.storage.power import DevicePower
from repro.units import TB, mbps

__all__ = ["WD_1TB_HDD", "hdd_spec"]


def hdd_spec(
    name: str = "hdd",
    read_mbps: float = 126.0,
    write_mbps: float = 120.0,
    seek_ms: float = 8.0,
    capacity: float = 1 * TB,
    active_w: float = 8.5,
    idle_w: float = 5.0,
) -> DeviceSpec:
    """Parameterized rotating-disk spec (defaults: the paper's WD 1 TB)."""
    return DeviceSpec(
        name=name,
        read_bw=mbps(read_mbps),
        write_bw=mbps(write_mbps),
        seek_latency_s=seek_ms / 1e3,
        capacity=capacity,
        power=DevicePower(active_w=active_w, idle_w=idle_w),
    )


#: The cluster's storage drive (Table 4): WD 1 TB SATA, 126 MB/s max.
WD_1TB_HDD = hdd_spec(name="WD-1TB-HDD")
