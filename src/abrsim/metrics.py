"""Run recording and derived measurements.

The recorder keeps, per VC, the allowed-cell-rate trajectory (sampled on
change) and the time of every cell delivered to the destination, in order
in an ``array("q")``; the n-th delivery brings the cumulative count to n,
so the count at ``t`` is the number of deliveries at or before ``t``.
Throughput over a window is the delivered cell count difference times the
cell size over the window length.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from .units import CELL_BITS, CellRate, SimTime, ps_to_s


class StepTrace:
    """Right-continuous step function recorded at its change points."""

    def __init__(self, initial: float):
        self.initial = initial
        self.times: list[SimTime] = []
        self.values: list[float] = []

    def add(self, t: SimTime, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("trace times must be non-decreasing")
        self.times.append(t)
        self.values.append(value)

    def value_at(self, t: SimTime) -> float:
        i = bisect_right(self.times, t)
        return self.values[i - 1] if i else self.initial


def throughput(times: array, t0: SimTime, t1: SimTime) -> float:
    """Average delivered rate over [t0, t1], in Mbps, from sorted delivery times."""
    if t1 <= t0:
        raise ValueError(f"need t0 < t1, got {t0} >= {t1}")
    cells = bisect_right(times, t1) - bisect_right(times, t0)
    return cells * CELL_BITS / ps_to_s(t1 - t0) / 1e6


def oscillation_count(
    trace: StepTrace, low: float, high: float, t0: SimTime, t1: SimTime
) -> int:
    """Completed low -> high -> low excursions of ``trace`` within [t0, t1]."""
    if not low < high:
        raise ValueError(f"need low < high, got {low} >= {high}")
    count = 0
    phase = 0  # 0: waiting for low, 1: saw low, 2: saw high after low
    values = [trace.value_at(t0)]
    i = bisect_right(trace.times, t0)
    while i < len(trace.times) and trace.times[i] <= t1:
        values.append(trace.values[i])
        i += 1
    for v in values:
        if v <= low:
            if phase == 2:
                count += 1
                phase = 1
            elif phase == 0:
                phase = 1
        elif v >= high and phase == 1:
            phase = 2
    return count


class Recorder:
    """Collects per-run traces through the engine's hooks."""

    def __init__(self):
        self.acr: dict[str, StepTrace] = {}
        self.recv: dict[str, array] = {}  # delivery times, "q" (int64) arrays
        self.queues: dict[str, list[tuple[SimTime, int]]] = {}
        self.first_backward: dict[str, SimTime] = {}
        self.deviations: list[str] = []
        self.audits_passed = 0

    def start_vc(self, vc_id: str, icr: CellRate) -> None:
        self.acr[vc_id] = StepTrace(icr)
        self.recv[vc_id] = array("q")

    def start_switch(self, name: str) -> None:
        self.queues[name] = []

    def acr_change(self, vc_id: str, t: SimTime, acr: CellRate) -> None:
        self.acr[vc_id].add(t, acr)

    def delivery(self, vc_id: str, t: SimTime) -> None:
        # The engine appends to ``recv`` itself; ``perfbench/child.py``
        # still wraps this hook by name.
        self.recv[vc_id].append(t)

    def queue_sample(self, switch: str, t: SimTime, total: int) -> None:
        self.queues[switch].append((t, total))

    def backward_rm(self, vc_id: str, t: SimTime) -> None:
        self.first_backward.setdefault(vc_id, t)

    def deviation(self, message: str) -> None:
        if message not in self.deviations:
            self.deviations.append(message)
