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
    """Convert a line rate in Mbps to cells per second, which must be finite."""
    if rate_mbps < 0:
        raise ValueError(f"rate must be >= 0 Mbps, got {rate_mbps}")
    rate = rate_mbps * 1e6 / CELL_BITS
    if rate == math.inf:
        raise ValueError(f"rate must be finite in cells/s, got {rate_mbps:g} Mbps")
    return rate


def cps_to_mbps(rate: CellRate) -> float:
    """Convert cells per second back to Mbps."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0 cells/s, got {rate}")
    return rate * CELL_BITS / 1e6


def cell_tx_time(rate: CellRate, key: str = "rate") -> SimTime:
    """Serialization time of one cell at ``rate`` cells/s, in picoseconds.

    The one rule for every rate: its cell time must be finite and, once
    rounded to the clock, at least 1 ps.  An error names ``key`` and
    quotes the rate in Mbps.
    """
    ps = PS_PER_SEC / rate if rate > 0 else 0.0
    if 0.5 < ps < math.inf:  # ``round`` gives at least 1
        return round(ps)
    rule = "give a cell time of at least 1 ps that fits the picosecond clock"
    if not rate > 0:
        rule = "be > 0"
    raise ValueError(f"{key} must {rule}, got {rate * CELL_BITS / 1e6:g} Mbps")


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
