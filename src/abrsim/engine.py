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
they join there (None at the source), whether it runs ``back`` toward
the source and, for a line whose cells leave at once, its fixed hop
delay ``delay``.  A VC's forward lines (``VcRuntime.fwd``) are its *emit
line*, due at ``now + tx + prop`` from the source, then one *served
line* per switch port, due at ``departure + prop_delay`` (``delay`` is
None: the port sets the departure).  The destination turns RM cells
around onto its *backward lines* (``VcRuntime.bwd``), one per hop, each
due at the hop delay of the link back: the forward cell's ``RmFields``
object itself goes back.  A cell in flight is only its entry ``(time,
seq, rm)``, where ``rm`` is its RM fields, None for a data cell: its
line holds every other fact about it, its direction included.

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
traces do not depend on how cells are stored.
``Engine.run_until`` dispatches all three event kinds (EMIT, DELIVER,
TICK) inline, and every cell it sends, whether emitted, queued at a port,
stamped or turned around, joins its line through one append tail.  A
queue sample at ``now`` counts every cell whose departure is ``>= now``.

The destination is a sink.  A data cell's arrival there changes nothing
that a later event reads, so a data cell bound for the destination line
takes no sequence number and no event: its delivery time joins the VC's
``sink``, a FIFO of times.  The destination line holds only RM cells,
which keep their events because turnaround has its place in ``(time,
seq)`` order.  Sequence numbers are only compared, so skipping some
leaves every other event in the same order; one VC's times on one hop
are distinct, so no data time ties an RM time.  Sink times move into
the VC's ``recv``, the recorder's own array, in order, before an RM
cell's delivery at that destination records its own time and when
``run_until`` returns, up to the final ``now``.  The length of ``recv``
is the VC's ``delivered`` count; nothing else counts deliveries.  So
``events_processed`` counts no data cell's arrival at its destination.

A run splits into *parts* (``Engine.parts``).  Two VCs fall in one part
when a chain of shared switch ports on their forward paths links them.
Backward RM cells are stamped only at their own VC's forward ports, so no
two parts share a port, a line, a source or a per-VC trace; they meet
only at the TICK, which samples every switch.  ``run_parts`` cuts the
parts into groups of consecutive parts, runs the first group here and
each other one in a forked worker, each with ``run_until`` on this engine
restricted to its group: its VCs, their lines and heap entries, the TICK,
and in each switch only its ports.  Each group keeps its order: its events
read and write only its own state, and they take sequence numbers in the
order they are scheduled, as in the whole run.  So its events and the TICK
keep the relative ``(time, seq)`` order that they have in the whole run,
whatever the other groups' events are.  Group k takes its sequence
numbers from a range of 2**48 that begins k ranges above the run's
counter, so no two groups share one.  Each worker pickles its group's state
back and the parent splices it in: VCs, ports and per-VC traces by name.
Queue samples are summed per switch, ``events_processed`` counts the
shared TICKs once, and ``audits_passed`` counts each TICK audit once (each
group audits its own part at the same TICKs).  Deviations are ordered by
the time each was first recorded, then by group order.  Pending entries
due at the next TICK's time are renumbered so that, in each group's own
order, those before its TICK stay before the TICK and the rest after it;
the spliced engine passes ``audit`` and runs on with ``run_until``.
"""

from __future__ import annotations

import heapq
import os
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

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
    """A FIFO of ``(time, seq, rm)`` entries: one VC's cells on one hop
    in one direction, sorted by ``(time, seq)``.

    Unpickling calls ``DelayLine()`` with no arguments, so ``_delay_line``
    sets the slots after construction.
    """

    __slots__ = ("vc", "port", "then", "delay", "back")


def _delay_line(
    vc: VcRuntime,
    port: PortState | None,
    then: DelayLine | None,
    delay: SimTime | None,
    back: bool,
) -> DelayLine:
    line = DelayLine()
    line.vc, line.port, line.then, line.delay, line.back = vc, port, then, delay, back
    return line


class VcRuntime:
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


# Event kinds; payloads are never compared because sequence numbers are unique.
# A DELIVER payload is the delay line whose head is due.
_EMIT = 0
_DELIVER = 1
_TICK = 2

_TIME = itemgetter(0)  # a delay-line entry's delivery time

_TICK_INTERVAL = PS_PER_MS  # queue sampling cadence
_AUDIT_EVERY_TICKS = 100  # conservation audit cadence

_SEQ_RANGE = 1 << 48  # the sequence numbers of one part group in a split run


class _GroupState(NamedTuple):
    """What a part group's process hands back after a split run."""

    vcs: dict[str, VcRuntime]
    ports: dict[tuple[str, str], PortState]  # by switch name and next hop
    acr: dict[str, StepTrace]
    first_backward: dict[str, SimTime]
    samples: dict[str, list[tuple[SimTime, int]]]  # queue samples taken in the run, per switch
    deviations: list[tuple[str, SimTime]]  # recorded in the run, with their first times
    heap: list
    seq: int
    events: int  # processed in the run, the TICKs included


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
            params = topology.source_params[path[0]]
            recorder.start_vc(spec.vc_id, params.icr)
            vc = self.vcs[spec.vc_id] = VcRuntime(spec.vc_id, params, recorder.recv[spec.vc_id])
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
                then = _delay_line(vc, ports[k], then, hop(b, a), True)
                bwd.append(then)
            fwd = []  # forward lines, from the destination back; RM cells turn onto bwd[-1]
            for k in range(len(path) - 1, 0, -1):
                delay = hop(path[0], path[1]) if k == 1 else None
                then = _delay_line(vc, ports[k], then, delay, False)
                fwd.append(then)
            vc.fwd, vc.bwd = tuple(reversed(fwd)), tuple(bwd)
        for name in self.switches:
            recorder.start_switch(name)
        self.lines: tuple[DelayLine, ...] = tuple(
            line for vc in self.vcs.values() for line in (*vc.fwd, *vc.bwd)
        )
        recorder.deviation(
            "backward RM cells bypass port queues (stamped and re-emitted "
            "immediately, ahead of reverse-direction data)",
            0,
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
        which enters the heap if it was empty, except a data cell bound
        for its destination, which only adds its delivery time to the VC's
        sink.  EMIT and TICK re-arm in place, as their entry is still the
        heap's first.  On return every sink's times up to ``now`` are in
        the recorder.
        """
        now = self.now
        if t_end < now:
            raise SimulationError(f"cannot run backwards: now={now}, t_end={t_end}")
        heap = self._heap
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        recorder = self.recorder
        next_cell = protocol.next_cell
        seq = self._seq
        events = self.events_processed
        try:
            while heap and heap[0][0] <= t_end:
                time, _, kind, payload = heap[0]
                if time < now:
                    raise SimulationError(f"event scheduled in the past: {time} < {now}")
                now = time
                events += 1
                if kind == _DELIVER:  # the head of delay line ``payload`` is due
                    rm = payload.popleft()[2]
                    if payload:  # the line's next head takes its place
                        head = payload[0]
                        heapreplace(heap, (head[0], head[1], _DELIVER, payload))
                    else:
                        heappop(heap)
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
                else:  # TICK: sample every switch's backlog, audit now and then
                    for sw in self.switches.values():
                        backlog = sum(p.pop(now) for p in sw.ports.values())
                        recorder.queue_sample(sw.name, now, backlog)
                    if now // _TICK_INTERVAL % _AUDIT_EVERY_TICKS == 0:  # TICKs fall on the grid
                        self.now = now
                        self.audit()
                    seq += 1
                    heapreplace(heap, (now + _TICK_INTERVAL, seq, _TICK, None))
                    continue
                if rm is not None or line.port is not None:  # the tail: the cell joins ``line``
                    seq += 1
                    if not line:
                        heappush(heap, (due, seq, _DELIVER, line))
                    line.append((due, seq, rm))
                else:  # a data cell bound for the destination: no event
                    vc.sink.append(due)
                if kind == _EMIT:  # the new head is due later: this entry is still first
                    seq += 1
                    heapreplace(heap, (state.next_departure, seq, _EMIT, vc))
            if t_end > now:
                now = t_end
        finally:
            self.now, self._seq, self.events_processed = now, seq, events
        for vc in self.vcs.values():
            vc.drain(now)

    # -- parts ---------------------------------------------------------------

    def parts(self) -> list[list[str]]:
        """The VC ids in parts: two VCs share a part when a chain of shared
        switch ports on their forward paths links them.  Each part lists
        its VCs in engine order, and the parts come in the order of their
        first VC."""
        root = list(range(len(self.vcs)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        first_user: dict[PortState, int] = {}
        for i, vc in enumerate(self.vcs.values()):
            for line in vc.fwd:
                if line.port is not None:
                    root[find(i)] = find(first_user.setdefault(line.port, i))
        parts: dict[int, list[str]] = {}
        for i, vc_id in enumerate(self.vcs):
            parts.setdefault(find(i), []).append(vc_id)
        return list(parts.values())

    def run_parts(self, t_end: SimTime, processes: int) -> None:
        """``run_until(t_end)``, with the parts in up to ``processes`` processes.

        The parts are cut into that many groups of consecutive parts.  The
        first group runs in this process and each other one in a forked
        worker; their states are then spliced back into this engine.  With
        one group, or without ``os.fork``, this is ``run_until``.
        """
        parts = self.parts()
        n = min(processes, len(parts))
        if n < 2 or not hasattr(os, "fork"):
            self.run_until(t_end)
            return
        groups = [
            list(chain.from_iterable(parts[k * len(parts) // n:(k + 1) * len(parts) // n]))
            for k in range(n)
        ]
        import pickle  # only a split run pays for these imports
        import signal

        rec = self.recorder
        start = (
            self.events_processed,
            {name: len(samples) for name, samples in rec.queues.items()},
            len(rec.deviations),
        )
        whole = self.vcs, self.switches
        seq = self._seq
        tick_from = next(entry[0] for entry in self._heap if entry[2] == _TICK)
        workers = []  # (pid, the read end of its pipe)
        try:
            for k, group in enumerate(groups[1:], 1):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:  # the worker: run group k, send its state back, exit
                    code = 1
                    try:
                        os.close(read_end)
                        for _, fh in workers:
                            fh.close()
                        try:
                            self._restrict(group, seq + k * _SEQ_RANGE)
                            self.run_until(t_end)
                            reply = (None, self._group_state(*start))
                            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                        except Exception as exc:
                            try:
                                data = pickle.dumps((exc, None))
                            except Exception:
                                data = pickle.dumps((SimulationError(f"{exc!r}"), None))
                        with open(write_end, "wb") as fh:
                            fh.write(data)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_end)
                workers.append((pid, open(read_end, "rb")))
            self._restrict(groups[0], seq)
            self.run_until(t_end)
            states = [self._group_state(*start)]
            for pid, fh in workers:
                try:
                    exc, state = pickle.load(fh)
                except EOFError:
                    raise SimulationError(
                        f"the worker of a part group (pid {pid}) sent no result"
                    ) from None
                if exc is not None:
                    raise exc
                states.append(state)
        except BaseException:
            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, fh in workers:
                fh.close()
                os.waitpid(pid, 0)
        for k, state in enumerate(states):
            if state.seq >= seq + (k + 1) * _SEQ_RANGE:
                raise SimulationError(f"part group {k} ran out of sequence numbers")
        self._splice(whole, states, start, tick_from)

    def _restrict(self, vc_ids: list[str], seq: int) -> None:
        """Narrow this engine to the VCs ``vc_ids``: their lines, their heap
        entries and the TICK, and in each switch only their ports.  The
        next sequence number taken is ``seq + 1``."""
        self.vcs = vcs = {vc_id: self.vcs[vc_id] for vc_id in vc_ids}
        self.lines = tuple(line for vc in vcs.values() for line in (*vc.fwd, *vc.bwd))
        ports = {line.port for line in self.lines}
        switches = {}
        for name, sw in self.switches.items():
            switches[name] = kept = SwitchRuntime(name)
            kept.ports = {key: port for key, port in sw.ports.items() if port in ports}
        self.switches = switches
        mine = set(vcs.values())
        self._heap = [
            entry for entry in self._heap
            if entry[2] == _TICK or (entry[3] if entry[2] == _EMIT else entry[3].vc) in mine
        ]
        heapq.heapify(self._heap)
        self._seq = seq

    def _group_state(self, events: int, samples: dict[str, int], deviations: int) -> _GroupState:
        """This restricted engine's state, for a run that started with
        ``events`` processed, ``samples`` queue samples per switch and
        ``deviations`` deviations recorded."""
        rec = self.recorder
        vcs = self.vcs
        return _GroupState(
            vcs=vcs,
            ports={
                (name, key): port
                for name, sw in self.switches.items()
                for key, port in sw.ports.items()
            },
            acr={vc_id: rec.acr[vc_id] for vc_id in vcs},
            first_backward={v: t for v, t in rec.first_backward.items() if v in vcs},
            samples={name: q[samples[name]:] for name, q in rec.queues.items()},
            deviations=list(rec.deviations.items())[deviations:],
            heap=self._heap,
            seq=self._seq,
            events=self.events_processed - events,
        )

    def _splice(self, whole, states: list[_GroupState], start, tick_from: SimTime) -> None:
        """Make this engine whole again from its groups' states after a split run.

        Pending entries due at the TICK's time are renumbered, each group's
        in its own order, so that those each group held before its TICK
        come before the TICK and the others after it.
        """
        events, samples, deviations = start
        self.vcs, self.switches = vcs, switches = whole
        rec = self.recorder
        for state in states:
            for vc_id, vc in state.vcs.items():
                vcs[vc_id] = vc
                rec.recv[vc_id] = vc.recv
            rec.acr.update(state.acr)
            rec.first_backward.update(state.first_backward)
            for (name, key), port in state.ports.items():
                switches[name].ports[key] = port
        self.lines = tuple(line for vc in vcs.values() for line in (*vc.fwd, *vc.bwd))
        for name, q in rec.queues.items():
            rows = zip(*(state.samples[name] for state in states))
            q[samples[name]:] = [(row[0][0], sum(n for _, n in row)) for row in rows]
        new = sorted(chain.from_iterable(state.deviations for state in states), key=itemgetter(1))
        rec.deviations = dict([*rec.deviations.items()][:deviations] + new)

        tick = next(entry[0] for entry in states[0].heap if entry[2] == _TICK)
        ticks = (tick - tick_from) // _TICK_INTERVAL
        shared = (len(states) - 1) * ticks  # each group processed every TICK
        self.events_processed = events + sum(state.events for state in states) - shared
        heap = []
        before, after = [], []
        for state in states:
            due = []  # (seq, kind, where) of each pending entry due at ``tick``
            for entry in state.heap:
                if entry[2] == _EMIT:
                    if entry[0] == tick:
                        due.append((entry[1], _EMIT, entry[3]))
                    else:
                        heap.append(entry)
                elif entry[2] == _TICK:
                    tick_seq = entry[1]
            for vc in state.vcs.values():
                for line in (*vc.fwd, *vc.bwd):
                    i = bisect_left(line, tick, key=_TIME)
                    while i < len(line) and line[i][0] == tick:
                        due.append((line[i][1], _DELIVER, (line, i)))
                        i += 1
            due.sort(key=itemgetter(0))
            before += [d for d in due if d[0] < tick_seq]
            after += [d for d in due if d[0] > tick_seq]
        seq = max(state.seq for state in states)
        for _, kind, where in [*before, (0, _TICK, None), *after]:
            seq += 1
            if kind == _DELIVER:
                line, i = where
                line[i] = (tick, seq, line[i][2])
            else:
                heap.append((tick, seq, kind, where))
        heap += [(line[0][0], line[0][1], _DELIVER, line) for line in self.lines if line]
        heapq.heapify(heap)
        self._heap, self._seq = heap, seq

    # -- accounting -------------------------------------------------------

    def audit(self) -> dict[str, dict[str, int]]:
        """Check per-VC cell conservation; raises SimulationError on a leak.

        Forward direction: cells emitted == delivered + queued at ports +
        in flight on links.  Backward direction: RM cells turned around ==
        delivered back to the source + in flight.  Both sides come from
        counting the entries of the VC's delay lines and sink, independently
        of the counters kept by the protocol handlers.  A served line splits at one
        bisect on its times: a cell is still queued at the port that serves
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
        head must be in the event heap, as the only entry of its line, and a
        backward line's head must be an RM cell.  The audit changes no state
        it checks.
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
        backlog: dict[PortState, int] = {}
        report = {}
        for vc_id, vc in self.vcs.items():
            fwd, bwd = vc.fwd, vc.bwd
            if any(line and line[0][2] is None for line in bwd):
                raise SimulationError(
                    f"vc {vc_id}: the head of a backward delay line is a data cell at t={now}"
                )
            queued = 0
            for served_by, line in zip(fwd, fwd[1:]):
                port = served_by.port
                waiting = len(line) - bisect_right(line, now + port.prop_delay, key=_TIME)
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
