"""Exact unit conversions and the integer simulation clock.

Simulation timestamps are integer picoseconds (``SimTime``).  An integer
clock keeps event ordering, and therefore whole runs, bit-deterministic
across platforms; at OC-3 speed one cell slot is about 2.7 us, so
picosecond rounding stays below one part per million.

Rates are carried in cells per second (``CellRate``).  An ATM cell is 53
bytes = 424 bits, which fixes the Mbps conversion exactly; no framing
overhead is modeled.
"""

from __future__ import annotations

import math

SimTime = int  # picoseconds
CellRate = float  # cells per second

CELL_BITS = 424  # 53-byte ATM cell

PS_PER_US = 10**6
PS_PER_MS = 10**9
PS_PER_SEC = 10**12


def mbps_to_cps(rate_mbps: float) -> CellRate:
    """Convert a line rate in Mbps to cells per second."""
    if rate_mbps < 0:
        raise ValueError(f"rate must be >= 0 Mbps, got {rate_mbps}")
    return rate_mbps * 1e6 / CELL_BITS


def cps_to_mbps(rate: CellRate) -> float:
    """Convert cells per second back to Mbps."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0 cells/s, got {rate}")
    return rate * CELL_BITS / 1e6


def cell_tx_time(link_rate: CellRate) -> SimTime:
    """Serialization time of one cell at ``link_rate``, in picoseconds."""
    if link_rate <= 0:
        raise ValueError(f"link rate must be > 0 cells/s, got {link_rate}")
    return round(PS_PER_SEC / link_rate)


def _to_ps(value: float, ps_per_unit: int, unit: str) -> SimTime:
    ps = value * ps_per_unit
    if not math.isfinite(ps):
        raise ValueError(f"must fit the picosecond clock, got {value:g} {unit}")
    return round(ps)


def us_to_ps(us: float) -> SimTime:
    return _to_ps(us, PS_PER_US, "us")


def ms_to_ps(ms: float) -> SimTime:
    return _to_ps(ms, PS_PER_MS, "ms")


def ps_to_ms(ps: SimTime) -> float:
    return ps / PS_PER_MS


def ps_to_s(ps: SimTime) -> float:
    return ps / PS_PER_SEC
