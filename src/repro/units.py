"""Unit helpers used throughout the ADA reproduction.

All sizes inside the library are plain ``int``/``float`` **bytes**, all times
are ``float`` **seconds**, all energies are ``float`` **joules**, and all
power figures are ``float`` **watts**.  These helpers exist so call sites can
say ``256 * GiB`` or ``100 * MB`` instead of sprinkling magic powers of ten.

The paper reports storage sizes in decimal megabytes/gigabytes (Table 2 and
Table 6 use MB/GB as marketing units), so the decimal constants are the ones
used when reproducing its tables.
"""

from __future__ import annotations

# Decimal (SI) byte units -- used for device bandwidth and the paper's tables.
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

# Binary byte units -- used for memory capacities (DRAM is binary-sized).
KiB = 2**10
MiB = 2**20
GiB = 2**30
TiB = 2**40

# Time units (seconds).
USEC = 1e-6
MSEC = 1e-3
MINUTE = 60.0
HOUR = 3600.0

# Energy units (joules).
KILOJOULE = 1e3
MEGAJOULE = 1e6


def to_mb(nbytes: float) -> float:
    """Bytes to decimal megabytes."""
    return nbytes / MB


def to_gb(nbytes: float) -> float:
    """Bytes to decimal gigabytes."""
    return nbytes / GB


def to_kj(joules: float) -> float:
    """Joules to kilojoules."""
    return joules / KILOJOULE


def mbps(n: float) -> float:
    """A bandwidth of ``n`` decimal megabytes per second, in bytes/second."""
    return n * MB


def gbps(n: float) -> float:
    """A bandwidth of ``n`` decimal gigabytes per second, in bytes/second."""
    return n * GB


def fmt_bytes(nbytes: float) -> str:
    """Human-readable decimal rendering of a byte count (``'1.31 GB'``)."""
    value = float(nbytes)
    for unit, scale in (("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)):
        if abs(value) >= scale:
            return f"{value / scale:.2f} {unit}"
    return f"{value:.0f} B"


def fmt_seconds(seconds: float) -> str:
    """Human-readable rendering of a duration (``'4.2 min'``, ``'13 ms'``)."""
    if seconds >= HOUR:
        return f"{seconds / HOUR:.2f} h"
    if seconds >= MINUTE:
        return f"{seconds / MINUTE:.2f} min"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= MSEC:
        return f"{seconds / MSEC:.1f} ms"
    return f"{seconds / USEC:.1f} us"
