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

Each VC's route is resolved once, when the engine is built, and indexed
by path position: 0 is the source, ``last`` the destination, and
``VcRuntime.ports[i]`` the switch port serving position ``i`` (None at
both ends).  A cell in flight is an entry ``(time, seq, cell, i)``: it
reaches position ``i`` at ``time``; forward cells move on to ``i + 1``,
backward RM cells to ``i - 1``.

A port's FIFO service is closed-form, so a cell entering a switch port is
scheduled straight to its delivery at the next hop.  Cells in flight wait
in FIFO delay lines, and each line holds the cells of one VC in one
direction.  A VC has three kinds:

* its *emit line* (``VcRuntime.emit_hop``) holds the cells the source has
  sent, due at ``now + tx + prop``, the first link's fixed hop delay;
* a *served line* per port position (``VcRuntime.served[i]``) holds the
  cells ``ports[i]`` has served, due at ``departure + prop_delay``;
* a *backward line* per hop (``VcRuntime.bwd_hops[i]``) holds the RM
  cells stamped or turned around at position ``i``, due at the hop delay
  of the link back to ``i - 1``.

Departures of one port rise and a hop's delay is fixed, so the times in a
line never decrease and, taken from one counter, its sequence numbers
rise: each line is sorted by ``(time, seq)``.  Splitting a port's or a
link's cells by VC keeps that order, since a subsequence of a sorted line
is still sorted.  The event heap holds only the head of each non-empty
line as a DELIVER event, beside one EMIT per VC and the TICK.  A VC has
one forward and one backward line per hop, so the heap never holds more
than VCs x 2 x hops line heads, plus the EMITs and the TICK.  A line
enters the heap when it goes from empty to non-empty, and re-enters with
its next head when its head is delivered.  Merging sorted lines by their
heads yields exactly the ``(time, seq)`` order that one heap entry per
cell would, so traces and event counts do not depend on how cells are
stored.  ``Engine.run_until`` dispatches all three event kinds (EMIT,
DELIVER, TICK) inline, and every cell it sends, whether emitted, queued
at a port, stamped or turned around, joins its line through one append
tail.  A queue sample at ``now`` counts every cell whose departure is
``>= now``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from . import protocol
from .metrics import Recorder
from .protocol import Cell, Direction, SourceParams
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


class VcRuntime:
    __slots__ = (
        "vc_id",
        "params",
        "ports",
        "last",
        "emit_hop",
        "served",
        "bwd_hops",
        "state",
        "delivered",
        "turned",
        "bwd_delivered",
    )

    def __init__(
        self,
        vc_id: str,
        params: SourceParams,
        ports: tuple,
        emit_delay: SimTime,
        bwd_delays: list[SimTime],
    ):
        self.vc_id = vc_id
        self.params = params
        self.ports = ports
        self.last = len(ports) - 1
        self.emit_hop = (emit_delay, deque())  # (hop delay, emit line) from the source
        # the line of cells served by ports[i]; None at both ends
        self.served = tuple(None if port is None else deque() for port in ports)
        # (hop delay, backward line) from position i back to i - 1; None at 0
        self.bwd_hops = (None, *((delay, deque()) for delay in bwd_delays))
        self.state = protocol.new_state(params)
        self.delivered = 0
        self.turned = 0
        self.bwd_delivered = 0

    def lines(self) -> tuple[tuple[deque, ...], tuple[deque, ...]]:
        """The VC's forward lines (emit, then served) and its backward lines."""
        fwd = (self.emit_hop[1], *self.served[1:-1])
        return fwd, tuple(line for _delay, line in self.bwd_hops[1:])


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
            vc = self.vcs[spec.vc_id] = VcRuntime(
                spec.vc_id,
                topology.source_params[path[0]],
                tuple(ports),
                hop(path[0], path[1]),
                [hop(b, a) for a, b in zip(path, path[1:])],
            )
            recorder.start_vc(vc.vc_id, vc.params.icr)
        for name in self.switches:
            recorder.start_switch(name)
        self.lines: tuple[deque, ...] = tuple(
            line for vc in self.vcs.values() for lines in vc.lines() for line in lines
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
        vcs = self.vcs
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
                _time, _seq, cell, i = payload.popleft()
                if payload:  # the line's next head takes its place
                    head = payload[0]
                    heapreplace(heap, (head[0], head[1], _DELIVER, payload))
                else:
                    heappop(heap)
                vc = vcs[cell.vc_id]
                rm = cell.rm
                if rm is not None and rm.direction is backward:
                    if i == 0:  # feedback reaches the source
                        vc.bwd_delivered += 1
                        state = vc.state
                        prev_acr = state.acr
                        protocol.on_backward_rm(state, vc.params, rm)
                        recorder.backward_rm(vc.vc_id, now)
                        if state.acr != prev_acr:
                            recorder.acr_change(vc.vc_id, now, state.acr)
                        continue
                    vc.ports[i].stamp_backward(rm, cell.vc_id, now)
                    delay, line = vc.bwd_hops[i]
                    due, i = now + delay, i - 1
                elif i == vc.last:
                    vc.delivered += 1
                    recorder.delivery(vc.vc_id, now)
                    if rm is None:
                        continue
                    vc.turned += 1
                    cell = Cell(cell.vc_id, protocol.turnaround(rm))
                    delay, line = vc.bwd_hops[i]
                    due, i = now + delay, i - 1
                else:  # queued at the port toward position i + 1
                    port = vc.ports[i]
                    line = vc.served[i]
                    due, i = port.enqueue(cell, now) + port.prop_delay, i + 1
            elif kind == _EMIT:
                vc = payload
                state = vc.state
                prev_acr = state.acr
                cell = next_cell(state, vc.params, vc.vc_id, now)
                if state.acr != prev_acr:
                    recorder.acr_change(vc.vc_id, now, state.acr)
                if state.acr == 0:  # recorded once: ``Recorder.deviation`` dedupes
                    recorder.deviation(
                        f"vc {vc.vc_id}: rate decayed to zero; keep-alive RM probing engaged"
                    )
                delay, line = vc.emit_hop
                due, i = now + delay, 1
            else:  # TICK: sample every switch's backlog, audit now and then
                for sw in self.switches.values():
                    recorder.queue_sample(sw.name, now, sum(p.pop(now) for p in sw.ports.values()))
                if now // _TICK_INTERVAL % _AUDIT_EVERY_TICKS == 0:  # TICKs fall on the grid
                    self.audit()
                self._seq += 1
                heapreplace(heap, (now + _TICK_INTERVAL, self._seq, _TICK, None))
                continue
            self._seq = seq = self._seq + 1  # the tail: ``cell`` joins ``line``
            if not line:
                heappush(heap, (due, seq, _DELIVER, line))
            line.append((due, seq, cell, i))
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
        counters kept by the protocol handlers.  A served line of
        ``vc.ports[i]`` splits at one bisect on its times: a cell is still
        queued at the port while its departure (delivery time minus the
        port's propagation delay) is after now; over a zero-delay link the
        cell departing at now may already be delivered.  Each port's own
        backlog after now, which ``PortState.pop`` reads in closed form
        from two integers and not from the lines, must match the sum of
        those splits over the VCs it serves.  Cells are not checked one by
        one: each non-empty line's head must be a cell of that line's VC
        and direction, and must be in the event heap, as the only entry of
        its line.  The audit changes no state it checks.
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
            fwd, bwd = vc.lines()
            for lines, is_bwd in ((fwd, False), (bwd, True)):
                for line in lines:
                    if not line:
                        continue
                    cell = line[0][2]
                    rm = cell.rm
                    head_bwd = rm is not None and rm.direction is backward
                    if cell.vc_id != vc_id or head_bwd != is_bwd:
                        raise SimulationError(
                            f"vc {vc_id}: the head of a {'backward' if is_bwd else 'forward'} "
                            f"delay line is {cell} at t={now}"
                        )
            queued = 0
            for port, line in zip(vc.ports[1:-1], vc.served[1:-1]):
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
