"""Deterministic discrete-event core: topology, links, event loop.

Events are ordered by (timestamp, scheduling sequence number); the
sequence number is assigned globally at scheduling time, so simultaneous
events run in the order they were scheduled and two runs of the same
configuration produce identical traces.

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
they join there (None at the source) and, for a line whose cells leave
at once, its fixed hop delay ``delay``.  A VC's forward lines
(``VcRuntime.fwd``) are its *emit line*, due at ``now + tx + prop`` from
the source, then one *served line* per switch port, due at ``departure +
prop_delay`` (``delay`` is None: the port sets the departure).  The
destination turns RM cells around onto its *backward lines*
(``VcRuntime.bwd``), one per hop, each due at the hop delay of the link
back.  A cell in flight is only its entry ``(time, seq, rm)``, where
``rm`` is its RM fields, None for a data cell: its line holds every
other fact about it.

A port's FIFO service is closed-form, so a cell entering a switch port is
scheduled straight to its delivery at the next hop.  Departures of one
port rise and a hop's delay is fixed, so the times in a line never
decrease and, taken from one counter, its sequence numbers rise: each
line is sorted by ``(time, seq)``.  Splitting a port's or a link's cells
by VC keeps that order, since a subsequence of a sorted line is still
sorted.  The event heap holds only the head of each non-empty line as a
DELIVER event, beside one EMIT per VC and the TICK.  A VC has one forward
and one backward line per hop, so the heap never holds more than VCs x 2
x hops line heads, plus the EMITs and the TICK.  A line enters the heap
when it goes from empty to non-empty, and re-enters with its next head
when its head is delivered.  Merging sorted lines by their heads yields
exactly the ``(time, seq)`` order that one heap entry per cell would, so
traces and event counts do not depend on how cells are stored.
``Engine.run_until`` dispatches all three event kinds (EMIT, DELIVER,
TICK) inline, and every cell it sends, whether emitted, queued at a port,
stamped or turned around, joins its line through one append tail.  A
queue sample at ``now`` counts every cell whose departure is ``>= now``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from . import protocol
from .metrics import Recorder
from .protocol import Direction, SourceParams
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
    """A FIFO of ``(time, seq, rm)`` entries: one VC's cells on one hop
    in one direction, sorted by ``(time, seq)``.

    Unpickling calls ``DelayLine()`` with no arguments, so ``_delay_line``
    sets the slots after construction.
    """

    __slots__ = ("vc", "port", "then", "delay")


def _delay_line(
    vc: VcRuntime, port: PortState | None, then: DelayLine | None, delay: SimTime | None
) -> DelayLine:
    line = DelayLine()
    line.vc, line.port, line.then, line.delay = vc, port, then, delay
    return line


class VcRuntime:
    __slots__ = ("vc_id", "params", "fwd", "bwd", "state", "delivered", "turned", "bwd_delivered")

    def __init__(self, vc_id: str, params: SourceParams):
        self.vc_id = vc_id
        self.params = params
        self.fwd: tuple[DelayLine, ...] = ()  # the emit line, then each port's served line
        self.bwd: tuple[DelayLine, ...] = ()  # bwd[k] runs from path position k + 1 back to k
        self.state = protocol.new_state(params)
        self.delivered = 0
        self.turned = 0
        self.bwd_delivered = 0


class SwitchRuntime:
    __slots__ = ("name", "ports")

    def __init__(self, name: str):
        self.name = name
        self.ports: dict[str, PortState] = {}  # keyed by next-hop node


# Event kinds; payloads are never compared because sequence numbers are unique.
# A DELIVER payload is the delay line whose head is due.
_EMIT = 0
_DELIVER = 1
_TICK = 2

_TIME = itemgetter(0)  # a delay-line entry's delivery time

_TICK_INTERVAL = PS_PER_MS  # queue sampling cadence
_AUDIT_EVERY_TICKS = 100  # conservation audit cadence


class Engine:
    """Single-threaded event loop over one topology, recording into ``recorder``."""

    def __init__(self, topology: Topology):
        self.recorder = recorder = Recorder()
        self.now: SimTime = 0
        self._heap: list = []
        self._seq = 0
        self.events_processed = 0

        topology.validate()  # hand-built topologies skip ``to_topology``

        def hop(a: str, b: str) -> SimTime:
            """The fixed hop delay of the directed link a -> b."""
            link = topology.links[(a, b)]
            return cell_tx_time(link.rate) + link.prop_delay

        self.switches = {name: SwitchRuntime(name) for name in topology.switch_params}
        self.vcs: dict[str, VcRuntime] = {}
        for spec in topology.vcs:
            path = spec.path
            vc = self.vcs[spec.vc_id] = VcRuntime(spec.vc_id, topology.source_params[path[0]])
            # ports[k] serves path position k toward k + 1; None at both ends
            ports: list[PortState | None] = [None]
            for node, nxt in zip(path[1:-1], path[2:]):
                sw_ports = self.switches[node].ports
                if nxt not in sw_ports:
                    link = topology.links[(node, nxt)]
                    sw_ports[nxt] = PortState(
                        name=f"{node}->{nxt}",
                        link_rate=link.rate,
                        prop_delay=link.prop_delay,
                        params=topology.switch_params[node],
                    )
                ports.append(sw_ports[nxt])
            ports.append(None)
            then = None  # backward lines, from the source out
            bwd = []
            for k, (a, b) in enumerate(zip(path, path[1:])):
                then = _delay_line(vc, ports[k], then, hop(b, a))
                bwd.append(then)
            fwd = []  # forward lines, from the destination back; RM cells turn onto bwd[-1]
            for k in range(len(path) - 1, 0, -1):
                then = _delay_line(vc, ports[k], then, hop(path[0], path[1]) if k == 1 else None)
                fwd.append(then)
            vc.fwd, vc.bwd = tuple(reversed(fwd)), tuple(bwd)
            recorder.start_vc(vc.vc_id, vc.params.icr)
        for name in self.switches:
            recorder.start_switch(name)
        self.lines: tuple[DelayLine, ...] = tuple(
            line for vc in self.vcs.values() for line in (*vc.fwd, *vc.bwd)
        )
        recorder.deviation(
            "backward RM cells bypass port queues (stamped and re-emitted "
            "immediately, ahead of reverse-direction data)"
        )
        self._push(_TICK_INTERVAL, _TICK, None)

        for vc in self.vcs.values():
            self._push(0, _EMIT, vc)

    # -- scheduling ---------------------------------------------------

    def _push(self, time: SimTime, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def run_until(self, t_end: SimTime) -> None:
        """Process every event with timestamp <= t_end, in order.

        All three kinds are handled here.  Every cell sent ends in one
        tail: it takes the next sequence number and joins its delay line,
        which enters the heap if it was empty.  EMIT and TICK re-arm in
        place, as their entry is still the heap's first.
        """
        now = self.now
        if t_end < now:
            raise SimulationError(f"cannot run backwards: now={now}, t_end={t_end}")
        heap = self._heap
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        recorder = self.recorder
        backward = Direction.BACKWARD
        next_cell = protocol.next_cell
        while heap and heap[0][0] <= t_end:
            time, _seq, kind, payload = heap[0]
            if time < now:
                raise SimulationError(f"event scheduled in the past: {time} < {now}")
            self.now = now = time  # before any handler: the TICK's audit reads it
            self.events_processed += 1
            if kind == _DELIVER:  # the head of delay line ``payload`` is due
                _time, _seq, rm = payload.popleft()
                if payload:  # the line's next head takes its place
                    head = payload[0]
                    heapreplace(heap, (head[0], head[1], _DELIVER, payload))
                else:
                    heappop(heap)
                vc, port, line = payload.vc, payload.port, payload.then
                if rm is not None and rm.direction is backward:
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
                elif port is None:  # the destination
                    vc.delivered += 1
                    recorder.delivery(vc.vc_id, now)
                    if rm is None:
                        continue
                    vc.turned += 1
                    rm = protocol.turnaround(rm)
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
                        f"vc {vc.vc_id}: rate decayed to zero; keep-alive RM probing engaged"
                    )
                line = vc.fwd[0]
                due = now + line.delay
            else:  # TICK: sample every switch's backlog, audit now and then
                for sw in self.switches.values():
                    recorder.queue_sample(sw.name, now, sum(p.pop(now) for p in sw.ports.values()))
                if now // _TICK_INTERVAL % _AUDIT_EVERY_TICKS == 0:  # TICKs fall on the grid
                    self.audit()
                self._seq += 1
                heapreplace(heap, (now + _TICK_INTERVAL, self._seq, _TICK, None))
                continue
            self._seq = seq = self._seq + 1  # the tail: the cell joins ``line``
            if not line:
                heappush(heap, (due, seq, _DELIVER, line))
            line.append((due, seq, rm))
            if kind == _EMIT:  # the new head is due later: this entry is still first
                self._seq = seq + 1
                heapreplace(heap, (state.next_departure, seq + 1, _EMIT, vc))
        if t_end > now:
            self.now = t_end

    # -- accounting -------------------------------------------------------

    def audit(self) -> dict[str, dict[str, int]]:
        """Check per-VC cell conservation; raises SimulationError on a leak.

        Forward direction: cells emitted == delivered + queued at ports +
        in flight on links.  Backward direction: RM cells turned around ==
        delivered back to the source + in flight.  Both sides come from
        counting the entries of the VC's delay lines, independently of the
        counters kept by the protocol handlers.  A served line splits at one
        bisect on its times: a cell is still queued at the port that serves
        it (the port the VC's line before it reaches) while its departure
        (delivery time minus the port's propagation delay) is after now;
        over a zero-delay link the cell departing at now may already be
        delivered.  Each port's own backlog after now, which
        ``PortState.pop`` reads in closed form from two integers and not
        from the lines, must match the sum of those splits over the VCs it
        serves.  Cells are not checked one by one: each non-empty line's
        head must be a cell of that line's direction, and must be in the
        event heap, as the only entry of its line.  The audit changes no
        state it checks.
        """
        now = self.now
        heads = [entry for entry in self._heap if entry[2] == _DELIVER]
        in_heap = {id(entry[3]): entry[:2] for entry in heads}
        nonempty = [line for line in self.lines if line]
        if len(heads) != len(nonempty) or any(
            in_heap.get(id(line)) != line[0][:2] for line in nonempty
        ):
            raise SimulationError(
                f"event heap holds {len(heads)} delay-line heads for "
                f"{len(nonempty)} non-empty lines, or a stale head, at t={now}"
            )
        backward = Direction.BACKWARD
        backlog: dict[PortState, int] = {}
        report = {}
        for vc_id, vc in self.vcs.items():
            fwd, bwd = vc.fwd, vc.bwd
            for lines, is_bwd in ((fwd, False), (bwd, True)):
                for line in lines:
                    if not line:
                        continue
                    rm = line[0][2]
                    if (rm is not None and rm.direction is backward) != is_bwd:
                        raise SimulationError(
                            f"vc {vc_id}: the head of a {'backward' if is_bwd else 'forward'} "
                            f"delay line is {'a data cell' if rm is None else rm} at t={now}"
                        )
            queued = 0
            for served_by, line in zip(fwd, fwd[1:]):
                port = served_by.port
                waiting = len(line) - bisect_right(line, now + port.prop_delay, key=_TIME)
                queued += waiting
                backlog[port] = backlog.get(port, 0) + waiting
            in_flight = sum(map(len, fwd)) - queued
            emitted = vc.state.cells_sent_total
            if emitted != vc.delivered + queued + in_flight:
                raise SimulationError(
                    f"vc {vc_id}: forward cell conservation violated at t={now}: "
                    f"emitted {emitted} != delivered {vc.delivered} + queued "
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
                "delivered": vc.delivered,
                "queued": queued,
                "in_flight": in_flight,
            }
        for sw in self.switches.values():
            for port in sw.ports.values():
                pending = port.pop(now + 1)
                if pending != backlog.get(port, 0):
                    raise SimulationError(
                        f"port {port.name}: backlog {pending} != {backlog.get(port, 0)} "
                        f"cells awaiting departure at t={now}"
                    )
        self.recorder.audits_passed += 1
        return report
