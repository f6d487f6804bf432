"""Output-buffered switch port: FIFO service and explicit-rate feedback.

Each output port owns an unbounded FIFO served at link rate (work
conserving, no loss) and measures its own input over short intervals: an
interval ends after a fixed cell count or a fixed time, whichever comes
first.  Closing an interval that holds arrivals sets the port's two
terms: the fair share, the target rate split equally over the VCs seen,
and the load factor, the input rate over the target rate.  The port
offers each VC ``min(max(fair_share, ccr / load_factor), target)``, where
``ccr`` is the rate the VC last carried in a forward RM cell.  The
running minimum of those offers is stamped into backward RM cells.

An interval in which nothing arrived keeps the previous terms.  Before
the first such interval the fair share is the target rate and the load
factor is infinite, so the port offers the target rate.

Service is closed-form: a cell enqueued at ``now`` departs at
``max(now, last_departure) + tx_time``.  Departures in one busy period are
``tx_time`` apart, so the port keeps two integers, the period's first
departure (``busy_from``) and ``last_departure``.  The backlog at ``now``
is the cells departing ``>= now``; ``pop`` computes it without changing
the port.  The port holds no cells: the engine keeps the cells it has
served in per-VC delay lines.  Intervals close lazily: each arrival or
stamp first closes every interval whose deadline
``interval_start + interval_time_limit`` is ``< now``.  A deadline equal
to ``now`` is left open, so a cell arriving at that picosecond is counted
in the interval and closes it, and a stamp at that picosecond sees the
previous terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import RmFields
from .units import CellRate, SimTime, PS_PER_SEC, PS_PER_US, cell_tx_time


INTERVAL_RULE = "interval_us must be at least 1e-06 (1 ps)"


@dataclass(frozen=True)
class SwitchParams:
    """Per-switch port parameters; errors use the scenario key names."""

    target_utilization: float = 0.9
    interval_cell_limit: int = 30
    interval_time_limit: SimTime = 20 * PS_PER_US

    def __post_init__(self):
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1], got {self.target_utilization}"
            )
        if self.interval_cell_limit < 1:
            raise ValueError(f"interval_cells must be >= 1, got {self.interval_cell_limit}")
        if self.interval_time_limit < 1:
            raise ValueError(f"{INTERVAL_RULE}, got {self.interval_time_limit / PS_PER_US:g}")


class PortState:
    """One output port of a switch, including its attached link.

    The parameters are copied into plain attributes, which the per-cell
    path reads without going through ``params``.
    """

    def __init__(
        self,
        name: str,
        link_rate: CellRate,
        prop_delay: SimTime,
        params: SwitchParams,
    ):
        self.name = name
        self.prop_delay = prop_delay
        self.tx_time = cell_tx_time(link_rate)
        self.target_rate: CellRate = params.target_utilization * link_rate
        self.interval_cell_limit = params.interval_cell_limit
        self.interval_time_limit = params.interval_time_limit

        self.busy_from: SimTime = -1  # -1 before the first cell: an idle port
        self.last_departure: SimTime = -1

        self.accum_cells = 0
        self.interval_start: SimTime = 0
        self.active_vcs: set[str] = set()
        self.ccr_table: dict[str, CellRate] = {}
        self.fair_share: CellRate = self.target_rate
        self.load_factor = math.inf

        self.max_queue = 0

    def enqueue(self, vc_id: str, rm: RmFields | None, now: SimTime) -> SimTime:
        """Account for a forward cell of ``vc_id`` arriving with RM fields
        ``rm`` (None for a data cell), close the interval if due, and return
        the time the cell finishes transmission.  Backward cells are never
        queued, so every RM cell here is a forward one and its ``ccr`` is
        recorded."""
        if self.interval_start + self.interval_time_limit < now:
            self._close_due(now)
        tx = self.tx_time
        if self.last_departure < now:  # the port was idle: a busy period starts
            departure = self.busy_from = now + tx
            backlog = 1
        else:  # ``pop(now) + 1``, the arrival included
            departure = self.last_departure + tx
            busy_from = self.busy_from
            backlog = (departure - (now if now > busy_from else busy_from)) // tx + 1
        self.last_departure = departure
        if backlog > self.max_queue:
            self.max_queue = backlog
        self.accum_cells += 1
        self.active_vcs.add(vc_id)
        if rm is not None:
            self.ccr_table[vc_id] = rm.ccr
        if (
            self.accum_cells >= self.interval_cell_limit
            or now - self.interval_start >= self.interval_time_limit
        ):
            self.end_interval(now)
        return departure

    def _close_due(self, now: SimTime) -> None:
        """Close every interval whose deadline passed before ``now``.

        Callers check first that the current deadline is ``< now``.  Only
        the first interval can hold arrivals; the rest are empty, keep the
        terms, and are skipped arithmetically.
        """
        limit = self.interval_time_limit
        deadline = self.interval_start + limit
        self.end_interval(deadline)
        self.interval_start += (now - 1 - deadline) // limit * limit

    def end_interval(self, now: SimTime) -> None:
        """Close the measurement interval at ``now``.

        Empty and zero-length intervals keep the previous terms, so that a
        silent source does not wipe out the feedback basis.
        """
        duration = now - self.interval_start
        if duration > 0:
            if self.accum_cells > 0:
                self.fair_share = self.target_rate / len(self.active_vcs)
                self.load_factor = self.accum_cells * PS_PER_SEC / duration / self.target_rate
            self.interval_start = now
        self.accum_cells = 0
        self.active_vcs.clear()

    def compute_er(self, vc_id: str) -> CellRate:
        """Explicit rate offered to ``vc_id`` from the last non-empty interval."""
        vc_share = self.ccr_table.get(vc_id, 0.0) / self.load_factor
        return min(max(self.fair_share, vc_share), self.target_rate)

    def stamp_backward(self, rm: RmFields, vc_id: str, now: SimTime) -> None:
        """Lower (never raise) the explicit rate carried by a backward RM cell."""
        if self.interval_start + self.interval_time_limit < now:
            self._close_due(now)
        er = self.compute_er(vc_id)
        if er < rm.er:
            rm.er = er

    def pop(self, now: SimTime) -> int:
        """The backlog at ``now``: the busy period's cells departing ``>= now``."""
        if self.last_departure < now:
            return 0
        busy_from = self.busy_from
        return (self.last_departure - (now if now > busy_from else busy_from)) // self.tx_time + 1
