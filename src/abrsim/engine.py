"""Deterministic discrete-event core: topology, links, event loop.

Events are ordered by (timestamp, scheduling sequence number); the
sequence number is assigned at scheduling time from the counter of the
event's part (below), so simultaneous events of one part run in the
order they were scheduled and two runs of the same configuration produce
identical traces.  Both sit in one integer, the event's *key*
``time << 64 | seq << 1 | is_rm`` (``_key``), whose low bit marks an RM
cell.  While ``seq < 2**63`` the low 64 bits hold ``seq << 1 | is_rm``
whole, so keys order as ``(time, seq)`` does, and no two are equal, as
no two events share a sequence number.  The tie rule follows: equal-time
events of a part run in the order of the events that scheduled them,
since each takes its number when the event that schedules it runs (an
EMIT's cell before the EMIT it re-arms), and so on back to set-up, which
schedules the TICK before the EMITs.

Node model: end systems originate VCs (persistent greedy sources) and
turn forward RM cells around; switches queue forward-path cells on the
output port toward the next hop.  Backward RM cells are never queued:
each switch stamps them against the port that carries the VC's forward
data (that port's measurement is what the source's rate should track) and
re-emits them on the reverse link immediately.  That priority treatment
of feedback is a deliberate simplification and is reported in run
metadata.

Each VC's route is resolved once, when the engine is built, into a
chain of FIFO delay lines, one per hop and direction.  A ``DelayLine``
holds one VC's cells in one direction and knows where they go: ``vc``,
the ``port`` they reach (None at an end system), the line ``then`` that
they join there (None at the source), whether it runs ``back`` toward
the source and, for a line whose cells leave at once, its fixed hop
delay ``delay``.  A VC's forward lines (``VcRuntime.fwd``) are its *emit
line*, due at ``now + tx + prop`` from the source, then one *served
line* per switch port, due at ``departure + prop_delay`` (``delay`` is
None: the port sets the departure).  The destination turns RM cells
around onto its *backward lines* (``VcRuntime.bwd``), one per hop, each
due at the hop delay of the link back: the forward cell's ``RmFields``
object itself goes back.  A cell in flight is only its key: its line
holds every other fact about it, its direction included.  An RM cell's
``RmFields`` wait in the line's own FIFO ``rms``, since the RM cells of a
line leave it in the order they joined it.

A port's FIFO service is closed-form, so a cell entering a switch port is
scheduled straight to its delivery at the next hop.  Departures of one
port rise and a hop's delay is fixed, so the times in a line never
decrease and, taken from one counter, its sequence numbers rise: each
line is sorted by key.  Splitting a port's or a link's cells by VC keeps
that order, since a subsequence of a sorted line is still sorted.  The
event heap holds only the head of each non-empty line, as a DELIVER event
under the head's own key, beside one EMIT per VC and the TICK.  A VC has
one forward and one backward line per hop, so the heap never holds more
than VCs x 2 x hops line heads, plus the EMITs and the TICK.  A line
enters the heap when it goes from empty to non-empty, and re-enters with
its next head when its head is delivered.  Merging sorted lines by their heads yields
exactly the key order that one heap entry per cell would, so traces do
not depend on how cells are stored.
``Part.run_until`` dispatches all three event kinds (EMIT, DELIVER,
TICK) inline, and every cell it sends, whether emitted, queued at a port,
stamped or turned around, joins its line in one tail, whose branches for
an RM and a data cell differ only in the key's low bit and ``rms``.  A
queue sample at ``now`` counts every cell whose departure is ``>= now``.

The destination is a sink.  A data cell's arrival there changes nothing
that a later event reads, so a data cell bound for the destination line
takes no sequence number and no event: its delivery time joins the VC's
``sink``, a FIFO of times.  The destination line holds only RM cells,
which keep their events because turnaround has its place in key order.
Sequence numbers are only compared, so skipping some leaves every other
event in the same order; one VC's times on one hop are distinct, so no
data time ties an RM time.  Sink times move into the VC's ``recv``, the
recorder's own array, in order, before an RM cell's delivery at that
destination records its own time and when ``run_until`` returns, up to
the final ``now``.  The length of ``recv`` is the VC's ``delivered``
count; nothing else counts deliveries.  So ``events_processed`` counts no
data cell's arrival at its destination.

A run is made of *parts* (``Engine.parts``).  Two VCs fall in one part
when a chain of shared switch ports on their forward paths links them.
Backward RM cells are stamped only at their own VC's forward ports, so no
two parts share a port, a line, a source or a per-VC trace.  Each part
(``Part``, or ``OneVcPart`` below) owns its VCs, their lines, the ports
they use, its event heap, its sequence counter, its TICK and its
``Recorder``, and runs the event loop on them alone; its TICK samples
only the switches it crosses.  A part's events read and write only its
own state, so their order does not depend on the other parts:
``Engine.run_until`` runs the parts one after another, and
``Engine.run_parts`` cuts them into at most one group of
consecutive parts per CPU, runs the first group here and each other one
in a forked worker (``forked``) that sends its parts back whole; both
leave every part in the same state.  A split run fails with its first
failing part in part order once every worker has ended, or at once if
that part runs here.  The engine keeps no copy of their state:
``Engine.vcs``, ``Engine.switches`` and ``Engine.now`` are read from the
parts, and what the run reports is merged from them in one place
(``Engine.recorder``): per-VC traces in engine order, queue samples
summed per switch over the parts that cross it, the bypass deviation
above once, then the parts' deviations ordered by the time each was
first recorded, then by part order.
``events_processed`` and ``audits_passed`` count the TICKs and their
audits, which every part takes, once.

A part of one VC that no port slows runs from its RM cells
(``OneVcPart``; ``part_type`` picks it, with no setting to choose).  Its
precondition is that every port on the VC's path has ``tx_time <=
cell_tx_time(pcr)``.  The source sends cells ``cell_tx_time(acr) >=
cell_tx_time(pcr)`` apart, so each cell reaches a port no earlier than
the one before it departs: no cell waits, and every cell reaches path
position ``k`` a fixed delay ``arrive[k]`` after it was sent.  With one
VC, ``PortState.compute_er`` offers the port's target rate whatever the
port measured, so the measurement changes nothing either.  A data cell's
hops thus change nothing that another event reads, and take no event:
between two other events the EMIT emits data cells in one batch, each
taking the number of the EMIT it re-arms, and stops before the first
emission whose key is not below the heap's head.  RM cells keep one event
per hop, keyed as ``Part.run_until`` keys them, and switches stamp them
with ``PortState.stamp_backward``.  As with the sink, numbers that no
event takes leave every other event in its order, so each event runs as
in ``Part``.  Every cell's send time joins ``sent``, an ``array("q")``,
and what the part reports is derived from it, exactly:

- ``recv``: each send time plus ``arrive`` at the destination, up to
  ``now``, in order, as the sink's and the RM cells' deliveries are;
- a queue sample: ``PortState.pop``'s backlog, the cells that reached the
  port and depart at or after ``now``, found by bisecting ``sent``.  A
  cell due at the port at the TICK's own time counts only if its arrival
  runs first by the tie rule, which ``_ahead_of_tick`` decides from the
  times of the two events' schedulers, back to the first that differ;
- ``max_queue``: ``PortState.enqueue`` counts the arriving cell and those
  departing at or after its arrival, so 1, or 2 once a cell reaches the
  port at the picosecond its predecessor departs, as a cell sent exactly
  ``tx_time`` after the one before it does (ACR at a PCR equal to the
  link rate);
- the audit: the delivered, queued and in-flight cells counted from
  ``sent`` and the RM cells in the heap, checked against the source's
  count of cells sent, ``recv`` and the turnaround and feedback counts;
  the report is ``Part.audit``'s.

Its ``events_processed`` counts the TICKs and each RM cell's emission and
hops.  The per-cell ``Part`` stays the reference it is tested against.
"""

from __future__ import annotations

import copy
import heapq
import os
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter

from . import protocol
from .metrics import Recorder, StepTrace
from .protocol import SourceParams
from .switch import PortState, SwitchParams
from .units import CellRate, SimTime, PS_PER_MS, PS_PER_US, cell_tx_time


class ConfigError(Exception):
    """Topology or scenario that cannot be built."""


class SimulationError(Exception):
    """Internal invariant violated during a run."""


@dataclass(frozen=True)
class LinkSpec:
    """One link's parameters; errors use the scenario key names."""

    rate: CellRate  # cells/s
    prop_delay: SimTime  # one-way propagation, ps

    def __post_init__(self):
        cell_tx_time(self.rate, "rate_mbps")
        if self.prop_delay < 0:
            raise ValueError(f"delay_us must be >= 0, got {self.prop_delay / PS_PER_US:g}")


@dataclass(frozen=True)
class VcSpec:
    vc_id: str
    path: tuple[str, ...]  # path[0] sends, path[-1] receives


@dataclass
class Topology:
    """Nodes, links and VCs; the forward and backward directions of every
    VC traverse the same links in reverse."""

    source_params: dict[str, SourceParams] = field(default_factory=dict)
    switch_params: dict[str, SwitchParams] = field(default_factory=dict)
    links: dict[tuple[str, str], LinkSpec] = field(default_factory=dict)
    vcs: tuple[VcSpec, ...] = ()

    def add_duplex_link(self, a: str, b: str, spec: LinkSpec) -> None:
        if (a, b) in self.links or (b, a) in self.links:
            raise ConfigError(f"duplicate link between {a} and {b}")
        self.links[(a, b)] = spec
        self.links[(b, a)] = spec

    def validate(self) -> None:
        """Check that every VC path runs source -> switches -> end system."""
        if not self.vcs:
            raise ConfigError("topology has no VCs")
        for spec in self.vcs:
            path = spec.path
            if len(path) < 2:
                raise ConfigError(f"vc {spec.vc_id}: path needs at least two nodes")
            if len(set(path)) != len(path):
                raise ConfigError(f"vc {spec.vc_id}: path must be acyclic")
            if path[0] not in self.source_params:
                raise ConfigError(f"vc {spec.vc_id}: no source parameters for {path[0]}")
            for end in (path[0], path[-1]):
                if end in self.switch_params:
                    raise ConfigError(f"vc {spec.vc_id}: endpoint {end} is a switch")
            for node in path[1:-1]:
                if node not in self.switch_params:
                    raise ConfigError(f"vc {spec.vc_id}: intermediate node {node} is not a switch")
            for a, b in zip(path, path[1:]):
                if (a, b) not in self.links or (b, a) not in self.links:
                    raise ConfigError(f"vc {spec.vc_id}: no link between {a} and {b}")


class DelayLine(deque):
    """A FIFO of cell keys: one VC's cells on one hop in one direction,
    sorted by key.  ``rms`` holds the ``RmFields`` of its RM cells, in the
    same order.  Unpickling builds a line with no arguments, then sets its
    slots and cells."""

    __slots__ = ("vc", "port", "then", "delay", "back", "rms")

    def __init__(self, vc: VcRuntime | None = None, port: PortState | None = None,
                 then: DelayLine | None = None, delay: SimTime | None = None,
                 back: bool = False):
        super().__init__()
        self.vc, self.port, self.then, self.delay, self.back = vc, port, then, delay, back
        self.rms: deque = deque()


class VcRuntime:
    """One VC's state in its part.  In a ``OneVcPart`` its lines and sink
    stay empty: that part keeps send times instead."""

    __slots__ = (
        "vc_id", "params", "fwd", "bwd", "sink", "recv", "state", "turned", "bwd_delivered"
    )

    def __init__(self, vc_id: str, params: SourceParams, recv: array):
        self.vc_id = vc_id
        self.params = params
        self.fwd: tuple[DelayLine, ...] = ()  # the emit line, then each port's served line
        self.bwd: tuple[DelayLine, ...] = ()  # bwd[k] runs from path position k + 1 back to k
        # delivery times of the data cells on the destination line, not yet in ``recv``
        self.sink: deque[SimTime] = deque()
        self.recv = recv  # the recorder's delivery times for this VC
        self.state = protocol.new_state(params)
        self.turned = 0
        self.bwd_delivered = 0

    @property
    def delivered(self) -> int:
        """Cells recorded as delivered to the destination."""
        return len(self.recv)

    def drain(self, t: SimTime) -> None:
        """Record the sink's deliveries at or before ``t`` in ``recv``, in order."""
        sink, recv = self.sink, self.recv
        while sink and sink[0] <= t:
            recv.append(sink.popleft())


class SwitchRuntime:
    __slots__ = ("name", "ports")

    def __init__(self, name: str):
        self.name = name
        self.ports: dict[str, PortState] = {}  # keyed by next-hop node


# Event kinds; payloads are never compared because keys are unique.
# A DELIVER payload is the delay line whose head is due.
_EMIT = 0
_DELIVER = 1
_TICK = 2


def _key(time: SimTime, seq: int, rm: bool = False) -> int:
    """The key of the event or cell due at ``time`` with sequence number
    ``seq``; ``rm`` marks an RM cell.  ``run_until`` builds and reads keys
    inline, with the counter kept shifted (``seq << 1``)."""
    return time << 64 | seq << 1 | rm


_TICK_INTERVAL = PS_PER_MS  # queue sampling cadence
_AUDIT_EVERY_TICKS = 100  # conservation audit cadence


class Part:
    """One part of a run, simulated on its own, cell by cell: its VCs, their
    delay lines, the ports they use (``ports``, by switch and next hop, in
    first use), its event heap, sequence counter and TICK, and the
    ``recorder`` of its traces, which samples only the switches this part
    crosses."""

    def __init__(self, topology: Topology, specs: list[VcSpec]):
        self.recorder = recorder = Recorder()
        self.now: SimTime = 0
        self.heap: list = []
        self.seq = 0
        self.events = 0  # processed, the TICKs included

        def hop(a: str, b: str) -> SimTime:
            """The fixed hop delay of the directed link a -> b."""
            link = topology.links[(a, b)]
            return cell_tx_time(link.rate) + link.prop_delay

        self.ports: dict[tuple[str, str], PortState] = {}
        self.vcs: dict[str, VcRuntime] = {}
        for spec in specs:
            path = spec.path
            params = topology.source_params[path[0]]
            recorder.start_vc(spec.vc_id, params.icr)
            vc = self.vcs[spec.vc_id] = VcRuntime(spec.vc_id, params, recorder.recv[spec.vc_id])
            # ports[k] serves path position k toward k + 1; None at both ends
            ports: list[PortState | None] = [None]
            for node, nxt in zip(path[1:-1], path[2:]):
                if (node, nxt) not in self.ports:
                    link = topology.links[(node, nxt)]
                    self.ports[node, nxt] = PortState(
                        name=f"{node}->{nxt}",
                        link_rate=link.rate,
                        prop_delay=link.prop_delay,
                        params=topology.switch_params[node],
                    )
                ports.append(self.ports[node, nxt])
            ports.append(None)
            then = None  # backward lines, from the source out
            bwd = []
            for k, (a, b) in enumerate(zip(path, path[1:])):
                then = DelayLine(vc, ports[k], then, hop(b, a), True)
                bwd.append(then)
            fwd = []  # forward lines, from the destination back; RM cells turn onto bwd[-1]
            for k in range(len(path) - 1, 0, -1):
                delay = hop(path[0], path[1]) if k == 1 else None
                then = DelayLine(vc, ports[k], then, delay, False)
                fwd.append(then)
            vc.fwd, vc.bwd = tuple(reversed(fwd)), tuple(bwd)
        for name in dict.fromkeys(node for node, _ in self.ports):
            recorder.start_switch(name)
        self._push(_TICK_INTERVAL, _TICK, None)

        for vc in self.vcs.values():
            self._push(0, _EMIT, vc)

    # -- scheduling ---------------------------------------------------

    def _push(self, time: SimTime, kind: int, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (_key(time, self.seq), kind, payload))

    def run_until(self, t_end: SimTime) -> None:
        """Process every event with timestamp <= t_end, in order.

        All three kinds are handled here.  Every cell sent ends in one
        tail: it takes the next sequence number and joins its delay line
        as its key, and the line enters the heap if it was empty, except a
        data cell bound for its destination, which only adds its delivery
        time to the VC's sink.  EMIT and TICK re-arm in place, as their
        entry is still the heap's first.  On return every sink's times up
        to ``now`` are in the recorder.
        """
        now = self.now
        if t_end < now:
            raise SimulationError(f"cannot run backwards: now={now}, t_end={t_end}")
        heap = self.heap
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        recorder = self.recorder
        next_cell = protocol.next_cell
        seq = self.seq << 1  # shifted into place in a key
        events = self.events
        limit = _key(t_end + 1, 0)  # every key due at or before t_end is lower
        try:
            while True:  # the heap is never empty: the TICK is always pending
                key, kind, payload = heap[0]
                if key >= limit:
                    break
                time = key >> 64
                if time < now:
                    raise SimulationError(f"event scheduled in the past: {time} < {now}")
                now = time
                events += 1
                if kind == _DELIVER:  # the head of delay line ``payload`` is due
                    payload.popleft()
                    if payload:  # the line's next head takes its place
                        heapreplace(heap, (payload[0], _DELIVER, payload))
                    else:
                        heappop(heap)
                    rm = payload.rms.popleft() if key & 1 else None
                    vc, port, line = payload.vc, payload.port, payload.then
                    if rm is not None and payload.back:
                        if line is None:  # feedback reaches the source
                            vc.bwd_delivered += 1
                            state = vc.state
                            prev_acr = state.acr
                            protocol.on_backward_rm(state, vc.params, rm)
                            recorder.backward_rm(vc.vc_id, now)
                            if state.acr != prev_acr:
                                recorder.acr_change(vc.vc_id, now, state.acr)
                            continue
                        port.stamp_backward(rm, vc.vc_id, now)
                        due = now + line.delay
                    elif port is None:  # a forward RM cell reaches the destination
                        vc.drain(now)  # the data cells before it
                        vc.recv.append(now)
                        vc.turned += 1  # and goes back on ``line``, fields intact
                        due = now + line.delay
                    else:  # queued at ``port``; its served line is ``line``
                        due = port.enqueue(vc.vc_id, rm, now) + port.prop_delay
                elif kind == _EMIT:
                    vc = payload
                    state = vc.state
                    prev_acr = state.acr
                    rm = next_cell(state, vc.params, now)
                    if state.acr != prev_acr:
                        recorder.acr_change(vc.vc_id, now, state.acr)
                    if state.acr == 0:  # recorded once: ``Recorder.deviation`` dedupes
                        recorder.deviation(
                            f"vc {vc.vc_id}: rate decayed to zero; keep-alive RM probing engaged",
                            now,
                        )
                    line = vc.fwd[0]
                    due = now + line.delay
                else:  # TICK: sample the switches crossed, audit now and then
                    backlog = dict.fromkeys(recorder.queues, 0)
                    for (name, _), port in self.ports.items():
                        backlog[name] += port.pop(now)
                    for name, cells in backlog.items():
                        recorder.queue_sample(name, now, cells)
                    if now // _TICK_INTERVAL % _AUDIT_EVERY_TICKS == 0:  # TICKs fall on the grid
                        self.now = now
                        self.audit()
                    seq += 2
                    heapreplace(heap, ((now + _TICK_INTERVAL) << 64 | seq, _TICK, None))
                    continue
                if rm is not None:  # the tail: the cell joins ``line``
                    seq += 2
                    key = due << 64 | seq | 1
                    if not line:
                        heappush(heap, (key, _DELIVER, line))
                    line.append(key)
                    line.rms.append(rm)
                elif line.port is not None:
                    seq += 2
                    key = due << 64 | seq
                    if not line:
                        heappush(heap, (key, _DELIVER, line))
                    line.append(key)
                else:  # a data cell bound for the destination: no event
                    vc.sink.append(due)
                if kind == _EMIT:  # the new head is due later: this entry is still first
                    seq += 2
                    heapreplace(heap, (state.next_departure << 64 | seq, _EMIT, vc))
            if t_end > now:
                now = t_end
        finally:
            self.now, self.seq, self.events = now, seq >> 1, events
        for vc in self.vcs.values():
            vc.drain(now)

    # -- accounting -------------------------------------------------------

    def audit(self) -> dict[str, dict[str, int]]:
        """Check per-VC cell conservation; raises SimulationError on a leak.

        Forward direction: cells emitted == delivered + queued at ports +
        in flight on links.  Backward direction: RM cells turned around ==
        delivered back to the source + in flight.  Both sides come from
        counting the entries of the VC's delay lines and sink, independently
        of the counters kept by the protocol handlers.  A served line splits at one
        bisect on its keys: a cell is still queued at the port that serves
        it (the port the VC's line before it reaches) while its departure
        (delivery time minus the port's propagation delay) is after now;
        over a zero-delay link the cell departing at now may already be
        delivered.  A VC's sink splits at two bisects: a time at or before
        now is delivered (the loop may not have recorded it yet), a time
        after now plus the last port's propagation delay is still queued
        there, and the rest are in flight.  Each port's own backlog after
        now, which ``PortState.pop`` reads in closed form from two integers
        and not from the lines, must match the sum of those splits over the
        VCs it serves.  Cells are not checked one by one: each non-empty line's
        key must be in the event heap, as the only entry of its line, and a
        backward line's head must be an RM cell.  The audit changes no state
        it checks.
        """
        now = self.now
        heads = [entry for entry in self.heap if entry[1] == _DELIVER]
        in_heap = {id(entry[2]): entry[0] for entry in heads}
        nonempty = [line for vc in self.vcs.values() for line in (*vc.fwd, *vc.bwd) if line]
        if len(heads) != len(nonempty) or any(
            in_heap.get(id(line)) != line[0] for line in nonempty
        ):
            raise SimulationError(
                f"event heap holds {len(heads)} delay-line heads for "
                f"{len(nonempty)} non-empty lines, or a stale head, at t={now}"
            )
        backlog: dict[PortState, int] = {}
        report = {}
        for vc_id, vc in self.vcs.items():
            fwd, bwd = vc.fwd, vc.bwd
            if any(line and not line[0] & 1 for line in bwd):
                raise SimulationError(
                    f"vc {vc_id}: the head of a backward delay line is a data cell at t={now}"
                )
            queued = 0
            for served_by, line in zip(fwd, fwd[1:]):
                port = served_by.port
                waiting = len(line) - bisect_left(line, _key(now + port.prop_delay + 1, 0))
                queued += waiting
                backlog[port] = backlog.get(port, 0) + waiting
            sink = vc.sink
            arrived = bisect_right(sink, now)  # delivered, not yet recorded
            if len(fwd) > 1:  # the last port serves the sink's cells too
                port = fwd[-2].port
                waiting = len(sink) - bisect_right(sink, now + port.prop_delay)
                queued += waiting
                backlog[port] = backlog.get(port, 0) + waiting
            delivered = vc.delivered + arrived
            in_flight = sum(map(len, fwd)) + len(sink) - arrived - queued
            emitted = vc.state.cells_sent_total
            if emitted != delivered + queued + in_flight:
                raise SimulationError(
                    f"vc {vc_id}: forward cell conservation violated at t={now}: "
                    f"emitted {emitted} != delivered {delivered} + queued "
                    f"{queued} + in-flight {in_flight}"
                )
            in_flight_bwd = sum(map(len, bwd))
            if vc.turned != vc.bwd_delivered + in_flight_bwd:
                raise SimulationError(
                    f"vc {vc_id}: backward RM conservation violated at t={now}: "
                    f"turned {vc.turned} != delivered {vc.bwd_delivered} + "
                    f"in-flight {in_flight_bwd}"
                )
            report[vc_id] = {
                "emitted": emitted,
                "delivered": delivered,
                "queued": queued,
                "in_flight": in_flight,
            }
        for port in self.ports.values():
            pending = port.pop(now + 1)
            if pending != backlog.get(port, 0):
                raise SimulationError(
                    f"port {port.name}: backlog {pending} != {backlog.get(port, 0)} "
                    f"cells awaiting departure at t={now}"
                )
        self.recorder.audits_passed += 1
        return report


def part_type(topology: Topology, specs: list[VcSpec]) -> type:
    """The part that runs the VCs ``specs``: ``OneVcPart`` for one VC with
    no port on its path slower than its PCR, ``Part`` for any other."""
    if len(specs) != 1:
        return Part
    path = specs[0].path
    gap = cell_tx_time(topology.source_params[path[0]].pcr)
    ports = zip(path[1:-1], path[2:])
    if all(cell_tx_time(topology.links[port].rate) <= gap for port in ports):
        return OneVcPart
    return Part


class OneVcPart:
    """A part of one VC that no port slows, run from its RM cells (see the
    module docstring).  ``sent`` holds every cell's send time, in order;
    the heap holds the EMIT, the TICK and one ``(key, _DELIVER, (hop,
    rm))`` per RM cell in flight.  Over a path of ``n`` links, hop ``j <
    n`` is the cell's arrival at path position ``j + 1`` (``n - 1`` is the
    turnaround), and hop ``j >= n`` its arrival back at ``2n - 1 - j``."""

    def __init__(self, topology: Topology, specs: list[VcSpec]):
        (spec,) = specs
        vc_id, path = spec.vc_id, spec.path
        params = topology.source_params[path[0]]
        self.recorder = recorder = Recorder()
        self.now: SimTime = 0
        self.heap: list = []
        self.seq = 0
        self.events = 0  # processed: the TICKs, the RM cells' emissions and hops
        self.sent = array("q")
        recorder.start_vc(vc_id, params.icr)
        self.vcs = {vc_id: VcRuntime(vc_id, params, recorder.recv[vc_id])}
        self.ports: dict[tuple[str, str], PortState] = {}
        for node, nxt in zip(path[1:-1], path[2:]):
            link = topology.links[node, nxt]
            self.ports[node, nxt] = PortState(
                f"{node}->{nxt}", link.rate, link.prop_delay, topology.switch_params[node]
            )
            recorder.start_switch(node)
        ports = list(self.ports.values())
        first = topology.links[path[0], path[1]]
        # arrive[k]: the fixed delay from a cell's send time to its arrival at path position k
        arrive = [0, cell_tx_time(first.rate) + first.prop_delay]
        for port in ports:
            arrive.append(arrive[-1] + port.tx_time + port.prop_delay)
        back = [topology.links[b, a] for a, b in zip(path, path[1:])]  # back[k]: k + 1 to k
        self.arrive = tuple(arrive)
        # delay[j]: from hop j to hop j + 1; stamp[j]: the port hop j stamps at
        self.delay = tuple(b - a for a, b in zip(arrive[1:], arrive[2:])) + tuple(
            cell_tx_time(link.rate) + link.prop_delay for link in reversed(back)
        )
        self.stamp = (None,) * len(back) + tuple(reversed(ports))
        # By port cell time, the first send at that gap after the cell before
        # it: at such a port that cell arrives at the picosecond its
        # predecessor departs, which ``PortState.enqueue`` counts as a
        # backlog of 2.  None until a cell is sent so.
        self.paired: dict[SimTime, SimTime | None] = dict.fromkeys(port.tx_time for port in ports)
        self._push(_TICK_INTERVAL, _TICK, None)
        self._push(0, _EMIT, None)

    _push = Part._push

    def run_until(self, t_end: SimTime) -> None:
        """Process every event with timestamp <= t_end, in order, as
        ``Part.run_until`` does; an EMIT goes on emitting data cells, in
        one batch, up to the next other event.  On return ``recv`` and
        each port's ``max_queue`` are derived up to ``now``."""
        now = self.now
        if t_end < now:
            raise SimulationError(f"cannot run backwards: now={now}, t_end={t_end}")
        heap, sent, recorder = self.heap, self.sent, self.recorder
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        ((vc_id, vc),) = self.vcs.items()
        params, state = vc.params, vc.state
        next_cell, append, paired = protocol.next_cell, sent.append, self.paired
        delay, stamp, first_hop = self.delay, self.stamp, self.arrive[1]
        turn, home = len(self.arrive) - 2, len(delay)  # the turnaround's hop and the source's
        seq = self.seq << 1  # shifted into place in a key
        events = self.events
        limit = _key(t_end + 1, 0)
        try:
            while True:  # the heap is never empty: the TICK is always pending
                key, kind, payload = heap[0]
                if key >= limit:
                    break
                now = key >> 64
                if kind == _DELIVER:  # an RM cell's hop
                    events += 1
                    hop, rm = payload
                    if hop == home:  # feedback reaches the source
                        heappop(heap)
                        vc.bwd_delivered += 1
                        prev_acr = state.acr
                        protocol.on_backward_rm(state, params, rm)
                        recorder.backward_rm(vc_id, now)
                        if state.acr != prev_acr:
                            recorder.acr_change(vc_id, now, state.acr)
                        continue
                    if hop == turn:
                        vc.turned += 1
                    elif stamp[hop] is not None:
                        stamp[hop].stamp_backward(rm, vc_id, now)
                    seq += 2
                    heapreplace(heap, ((now + delay[hop]) << 64 | seq | 1, _DELIVER, (hop + 1, rm)))
                elif kind == _EMIT:
                    # A re-armed EMIT's number is above every pending one, so
                    # its key is below the next other event's exactly when its
                    # time is earlier.  The EMIT is first: that event is the
                    # lower of heap[1] and heap[2].
                    stop = min(heap[1][0], heap[2][0] if len(heap) > 2 else limit, limit) >> 64
                    while True:
                        if sent and paired.get(now - sent[-1], 0) is None:  # see ``paired``
                            paired[now - sent[-1]] = now
                        prev_acr = state.acr
                        rm = next_cell(state, params, now)
                        append(now)
                        if state.acr != prev_acr:
                            recorder.acr_change(vc_id, now, state.acr)
                        if state.acr == 0:  # recorded once: ``Recorder.deviation`` dedupes
                            recorder.deviation(
                                f"vc {vc_id}: rate decayed to zero; keep-alive RM probing engaged",
                                now,
                            )
                        if rm is not None:  # it takes its own events
                            events += 1
                            seq += 2
                            heappush(heap, ((now + first_hop) << 64 | seq | 1, _DELIVER, (0, rm)))
                        seq += 2  # the next EMIT's number
                        following = state.next_departure
                        if rm is not None or not following < stop:
                            break
                        now = following
                    heapreplace(heap, (state.next_departure << 64 | seq, _EMIT, None))
                else:  # TICK: sample the switches crossed, audit now and then
                    events += 1
                    self.now = now
                    for k, ((name, _), port) in enumerate(self.ports.items(), 1):
                        recorder.queue_sample(name, now, self._departing(k, port))
                    if now // _TICK_INTERVAL % _AUDIT_EVERY_TICKS == 0:  # TICKs fall on the grid
                        self.audit()
                    seq += 2
                    heapreplace(heap, ((now + _TICK_INTERVAL) << 64 | seq, _TICK, None))
            if t_end > now:
                now = t_end
        finally:
            self.now, self.seq, self.events = now, seq >> 1, events
        recv, arrive = vc.recv, self.arrive
        recv.extend(map(arrive[-1].__add__, sent[len(recv):bisect_right(sent, now - arrive[-1])]))
        for port, at in zip(self.ports.values(), arrive[1:]):
            first_paired = paired[port.tx_time]
            if first_paired is not None and first_paired + at <= now:
                port.max_queue = 2
            elif sent and sent[0] + at <= now:
                port.max_queue = 1

    # -- derived counts ----------------------------------------------------

    def _reached(self, k: int, ticking: bool) -> int:
        """The cells whose arrival at path position ``k`` has run: each one
        due before ``now``, and the one due at ``now`` unless the TICK being
        processed (``ticking``) runs first."""
        sent, due = self.sent, self.now - self.arrive[k]
        if not ticking:
            return bisect_right(sent, due)
        i = bisect_left(sent, due)
        return i + (i < len(sent) and sent[i] == due and self._ahead_of_tick(i, k))

    def _ahead_of_tick(self, i: int, k: int) -> bool:
        """Whether cell ``i``'s arrival at path position ``k``, due at the
        time of the TICK at ``now``, runs first.  Equal-time events run in
        the order of the events that scheduled them: the cell's arrival
        before, back to its EMIT, then each EMIT before it, against the
        TICK one ms before, and so on, each TICK since the first, which
        set-up schedules before the first EMIT."""
        sent, now = self.sent, self.now
        schedulers = chain(
            (sent[i] + at for at in reversed(self.arrive[:k])),
            map(sent.__getitem__, range(i - 1, -1, -1)),
        )
        m = 0
        for m, t in enumerate(schedulers, 1):
            tick = now - m * _TICK_INTERVAL
            if tick <= 0:  # set-up scheduled the TICK's chain first
                return False
            if t != tick:
                return t < tick
        return now - (m + 1) * _TICK_INTERVAL > 0  # set-up scheduled the cell's chain first

    def _departing(self, k: int, port: PortState) -> int:
        """``PortState.pop``'s backlog at ``port``, at path position ``k``,
        during the TICK at ``now``: the cells that reached it and depart at
        or after ``now``, each ``tx_time`` after its arrival."""
        return self._reached(k, True) - bisect_left(
            self.sent, self.now - self.arrive[k] - port.tx_time
        )

    def audit(self) -> dict[str, dict[str, int]]:
        """Check cell conservation, as ``Part.audit`` does, from the send
        times, ``recv`` and the RM cells in flight; the report is
        ``Part.audit``'s.  Inside a TICK the heap's first entry is that
        TICK, and the events due at ``now`` after it have not run."""
        now, heap, sent = self.now, self.heap, self.sent
        ((vc_id, vc),) = self.vcs.items()
        ticking = heap[0][1] == _TICK and heap[0][0] >> 64 == now
        turn = len(self.arrive) - 2
        hops = [(key >> 64, payload[0]) for key, kind, payload in heap if kind == _DELIVER]
        emitted = vc.state.cells_sent_total
        if emitted != len(sent):
            raise SimulationError(
                f"vc {vc_id}: forward cell conservation violated at t={now}: "
                f"emitted {emitted} != {len(sent)} send times"
            )
        # an RM cell due at the destination at ``now`` that the TICK runs first is still in flight
        late = sum(time == now and hop == turn for time, hop in hops)
        delivered = bisect_right(sent, now - self.arrive[-1]) - late
        queued = sum(
            self._reached(k, ticking) - bisect_right(sent, now - self.arrive[k] - port.tx_time)
            for k, port in enumerate(self.ports.values(), 1)
        )
        in_flight = emitted - delivered - queued
        if len(vc.recv) > delivered or in_flight < 0:
            raise SimulationError(
                f"vc {vc_id}: forward cell conservation violated at t={now}: "
                f"{len(vc.recv)} recorded, {delivered} delivered and {queued} queued "
                f"of {emitted} emitted"
            )
        in_flight_bwd = sum(hop > turn for _, hop in hops)
        if vc.turned != vc.bwd_delivered + in_flight_bwd:
            raise SimulationError(
                f"vc {vc_id}: backward RM conservation violated at t={now}: "
                f"turned {vc.turned} != delivered {vc.bwd_delivered} + "
                f"in-flight {in_flight_bwd}"
            )
        self.recorder.audits_passed += 1
        counts = {"emitted": emitted, "delivered": delivered, "queued": queued,
                  "in_flight": in_flight}
        return {vc_id: counts}


def _outcome(job, *args) -> tuple:
    """``(None, job(*args))``, or ``(the exception it raised, None)``."""
    try:
        return None, job(*args)
    except Exception as exc:
        return exc, None


def forked(jobs, here=lambda: None) -> list:
    """Run each job ``(function, *args)`` in a forked worker, at most one
    per CPU (``os.cpu_count()``) at once, and ``here()`` in this process
    once the first have started; return each job's ``_outcome``, in job
    order, once every worker is reaped.  A worker pickles its outcome
    through its own pipe; one that will not pickle, or none at all, comes
    as a ``SimulationError``.  Every worker runs to its end, unless
    ``here`` or this process raises: the rest are then killed.  Without
    ``os.fork`` the jobs run in this process, after ``here``."""
    if not hasattr(os, "fork"):
        here()
        return [_outcome(*job) for job in jobs]
    outcomes: list = [None] * len(jobs)
    workers: dict[int, tuple] = {}  # job index: (pid, the read end of its pipe)

    def start(i: int) -> None:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:  # the worker: run the job, send its outcome, exit
            try:
                os.close(read_end)
                for _, fh in workers.values():
                    fh.close()
                sent = _outcome(*jobs[i])
                import pickle  # imported after the job, so that the job does not wait for it

                try:
                    data = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # what the job returned or raised will not pickle
                    data = pickle.dumps((SimulationError(f"{sent[0] or exc!r}"), None))
                with open(write_end, "wb") as fh:
                    fh.write(data)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write_end)
        workers[i] = pid, open(read_end, "rb")

    started = min(os.cpu_count() or 1, len(jobs))
    try:
        for i in range(started):
            start(i)
        here()
        while workers:
            import pickle  # only a process that forks pays for these imports
            import select

            readable = select.select([fh for _, fh in workers.values()], [], [])[0]
            i = next(i for i, (_, fh) in workers.items() if fh in readable)
            pid, fh = workers[i]
            with fh:
                try:
                    outcomes[i] = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):  # it exited without sending one
                    outcomes[i] = SimulationError(f"worker process {pid} sent no result"), None
            os.waitpid(workers.pop(i)[0], 0)
            if started < len(jobs):
                start(started)
                started += 1
    except BaseException:
        import signal

        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fh in workers.values():
            fh.close()
            os.waitpid(pid, 0)
    return outcomes


class Engine:
    """A run over one topology: its parts (``Part``), each running its own
    event loop, and what they report together.

    ``parts`` come in the order of their first VC, each with its VCs in
    engine order.  The parts own every VC, port and clock, and the engine
    holds only its ``topology`` and ``parts``: ``vcs``, ``switches`` and
    ``now`` are read from the parts, in engine order (the ``topology``'s,
    and for ports, first use).
    """

    def __init__(self, topology: Topology):
        topology.validate()  # hand-built topologies skip ``to_topology``
        self.topology = topology
        specs = topology.vcs
        root = list(range(len(specs)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        # two VCs share a part when a chain of shared ports links them;
        # a port is its switch and next hop, first used in engine order
        first_user: dict[tuple[str, str], int] = {}
        for i, spec in enumerate(specs):
            for port in zip(spec.path[1:-1], spec.path[2:]):
                root[find(i)] = find(first_user.setdefault(port, i))
        parts: dict[int, list[VcSpec]] = {}
        for i, spec in enumerate(specs):
            parts.setdefault(find(i), []).append(spec)
        self.parts = [part_type(topology, group)(topology, group) for group in parts.values()]

    @property
    def vcs(self) -> dict[str, VcRuntime]:
        """Every part's VCs, read from the parts, in topology order."""
        vcs = {vc_id: vc for part in self.parts for vc_id, vc in part.vcs.items()}
        return {spec.vc_id: vcs[spec.vc_id] for spec in self.topology.vcs}

    @property
    def switches(self) -> dict[str, SwitchRuntime]:
        """Every switch of the topology, with the parts' ports on it in first use."""
        ports = {key: port for part in self.parts for key, port in part.ports.items()}
        switches = {name: SwitchRuntime(name) for name in self.topology.switch_params}
        for spec in self.topology.vcs:
            for node, nxt in zip(spec.path[1:-1], spec.path[2:]):
                switches[node].ports.setdefault(nxt, ports[node, nxt])
        return switches

    @property
    def now(self) -> SimTime:
        """The time every part has run to."""
        return min(part.now for part in self.parts)

    def run_until(self, t_end: SimTime) -> None:
        """Run every part to ``t_end``, one after another, in this process."""
        for part in self.parts:
            part.run_until(t_end)

    def run_parts(self, t_end: SimTime) -> None:
        """``run_until(t_end)``, with the parts cut into at most one group
        of consecutive parts per CPU, each run in its own process
        (``forked``) by ``_run_group``; no output depends on the CPU count.
        """
        parts = self.parts
        n = min(os.cpu_count() or 1, len(parts))
        cuts = [k * len(parts) // n for k in range(n + 1)]
        jobs = [(self._run_group, parts[a:b], t_end) for a, b in zip(cuts[1:], cuts[2:])]
        outcomes = forked(jobs, lambda: self._run_group(parts[:cuts[1]], t_end))
        for start, (exc, group) in zip(cuts[1:], outcomes):
            if exc is not None:
                raise exc
            parts[start:start + len(group)] = group

    def _run_group(self, group: list[Part], t_end: SimTime) -> list[Part]:
        """Run ``group`` with ``run_until`` on a copy of this engine that holds
        only it, so that a wrapper of ``run_until`` (``perfbench/child.py``'s
        trace mode) still times the loop; returns it."""
        alone = copy.copy(self)  # a shallow copy: ``Engine.__init__`` would build new parts
        alone.parts = group
        alone.run_until(t_end)
        return group

    # -- what the parts report together ------------------------------------

    def audit(self) -> dict[str, dict[str, int]]:
        """Every part's ``Part.audit``; the report lists the VCs in engine order."""
        report = {vc_id: counts for part in self.parts for vc_id, counts in part.audit().items()}
        return {vc_id: report[vc_id] for vc_id in self.vcs}

    @property
    def recorder(self) -> Recorder:
        """The run's traces, merged from the parts' recorders when read.

        Each VC's ACR trace and delivery times are its part's own objects;
        the rest are copies, so read this again after running on.  Per-VC
        traces come in engine order.  Each switch's queue samples are summed
        over the parts that cross it on the TICK grid up to ``now`` (0 where
        no VC crosses it).  The deviation of every run, that backward RM
        cells bypass the ports, comes first at time 0; the parts' follow by
        the time each was first recorded, then by part order.  An audit of
        the run audits every part, so ``audits_passed`` is the count that
        every part passed.
        """
        recs = [part.recorder for part in self.parts]
        rec_of = {vc_id: part.recorder for part in self.parts for vc_id in part.vcs}
        rec = Recorder()
        for vc_id in self.vcs:
            part_rec = rec_of[vc_id]
            rec.acr[vc_id] = part_rec.acr[vc_id]
            rec.recv[vc_id] = part_rec.recv[vc_id]
            if vc_id in part_rec.first_backward:
                rec.first_backward[vc_id] = part_rec.first_backward[vc_id]
        ticks = range(_TICK_INTERVAL, self.now + 1, _TICK_INTERVAL)
        for name in self.topology.switch_params:
            counts = [map(itemgetter(1), r.queues[name]) for r in recs if name in r.queues]
            rec.queues[name] = list(zip(ticks, map(sum, zip(repeat(0), *counts))))
        rec.deviation("backward RM cells bypass port queues (stamped and re-emitted "
                      "immediately, ahead of reverse-direction data)", 0)
        firsts = chain.from_iterable(r.deviations.items() for r in recs)
        for message, t in sorted(firsts, key=itemgetter(1)):
            rec.deviations.setdefault(message, t)
        rec.audits_passed = min(r.audits_passed for r in recs)
        return rec

    @property
    def events_processed(self) -> int:
        """Events processed by every part, each shared TICK counted once."""
        ticks = self.now // _TICK_INTERVAL  # every part has processed each of them
        return sum(part.events for part in self.parts) - (len(self.parts) - 1) * ticks

    @property
    def _heap(self) -> list:
        """Every part's pending entries; ``perfbench/child.py`` reads its length."""
        return [entry for part in self.parts for entry in part.heap]
