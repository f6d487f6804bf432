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
both ends).  A DELIVER event carries ``(cell, i)``, the position the cell
reaches; forward cells move on to ``i + 1``, backward RM cells to ``i - 1``.
A cell that bypasses port queues reaches the next position after the hop
delay ``vc.emit_delay`` from the source, ``vc.bwd_delays[i]`` from ``i``.

A port's FIFO service is closed-form, so a cell entering a switch port is
scheduled straight to its DELIVER at the next hop; the loop has only three
event kinds (EMIT, DELIVER, TICK).  A queue sample at ``now`` counts every
cell whose departure is ``>= now``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import protocol
from .metrics import Recorder
from .protocol import Cell, Direction, SourceParams
from .switch import PortState, SwitchParams
from .units import CELL_BITS, CellRate, SimTime, PS_PER_MS, PS_PER_US, cell_tx_time


class ConfigError(Exception):
    """Topology or scenario that cannot be built."""


class SimulationError(Exception):
    """Internal invariant violated during a run."""


@dataclass(frozen=True)
class LinkSpec:
    """One link's parameters; errors use the scenario key names."""

    name: str
    rate: CellRate  # cells/s
    prop_delay: SimTime  # one-way propagation, ps

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate_mbps must be > 0, got {self.rate * CELL_BITS / 1e6:g}")
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
        "emit_delay",
        "bwd_delays",
        "state",
        "delivered",
        "turned",
        "bwd_delivered",
    )

    def __init__(
        self, vc_id: str, params: SourceParams, ports: tuple, emit_delay: SimTime, bwd_delays: tuple
    ):
        self.vc_id = vc_id
        self.params = params
        self.ports = ports
        self.last = len(ports) - 1
        self.emit_delay = emit_delay
        self.bwd_delays = bwd_delays
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
_EMIT = 0
_DELIVER = 1
_TICK = 2

_TICK_INTERVAL = PS_PER_MS  # queue sampling cadence
_AUDIT_EVERY_TICKS = 100  # conservation audit cadence


class Engine:
    """Single-threaded event loop over one topology, recording into ``recorder``."""

    def __init__(self, topology: Topology):
        self.recorder = recorder = Recorder()
        self.now: SimTime = 0
        self._heap: list = []
        self._seq = 0
        self._ticks = 0
        self.events_processed = 0

        topology.validate()  # hand-built topologies skip ``to_topology``

        def hop_delay(a: str, b: str) -> SimTime:
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
                hop_delay(path[0], path[1]),
                (None, *(hop_delay(b, a) for a, b in zip(path, path[1:]))),
            )
            recorder.start_vc(vc.vc_id, vc.params.icr)
        for name in self.switches:
            recorder.start_switch(name)
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
        """Process every event with timestamp <= t_end, in order."""
        if t_end < self.now:
            raise SimulationError(f"cannot run backwards: now={self.now}, t_end={t_end}")
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time, _seq, kind, payload = heapq.heappop(heap)
            if time < self.now:
                raise SimulationError(f"event scheduled in the past: {time} < {self.now}")
            self.now = time
            self.events_processed += 1
            if kind == _EMIT:
                self._on_emit(payload)
            elif kind == _DELIVER:
                self._on_deliver(payload[0], payload[1])
            else:
                self._on_tick()
        if t_end > self.now:
            self.now = t_end

    # -- event handlers -------------------------------------------------

    def _on_emit(self, vc: VcRuntime) -> None:
        state = vc.state
        prev_acr = state.acr
        cell = protocol.next_cell(state, vc.params, vc.vc_id, self.now)
        if state.acr != prev_acr:
            self.recorder.acr_change(vc.vc_id, self.now, state.acr)
        if state.acr == 0:  # recorded once: ``Recorder.deviation`` dedupes
            self.recorder.deviation(
                f"vc {vc.vc_id}: rate decayed to zero; keep-alive RM probing engaged"
            )
        self._push(self.now + vc.emit_delay, _DELIVER, (cell, 1))
        self._push(state.next_departure, _EMIT, vc)

    def _on_deliver(self, cell: Cell, i: int) -> None:
        vc = self.vcs[cell.vc_id]
        rm = cell.rm
        if rm is not None and rm.direction is Direction.BACKWARD:
            if i == 0:
                vc.bwd_delivered += 1
                state = vc.state
                prev_acr = state.acr
                protocol.on_backward_rm(state, vc.params, rm)
                self.recorder.backward_rm(vc.vc_id, self.now)
                if state.acr != prev_acr:
                    self.recorder.acr_change(vc.vc_id, self.now, state.acr)
            else:
                vc.ports[i].stamp_backward(rm, cell.vc_id, self.now)
                self._push(self.now + vc.bwd_delays[i], _DELIVER, (cell, i - 1))
        elif i == vc.last:
            vc.delivered += 1
            self.recorder.delivery(vc.vc_id, self.now)
            if rm is not None:
                back = protocol.turnaround(rm)
                vc.turned += 1
                self._push(self.now + vc.bwd_delays[i], _DELIVER, (Cell(cell.vc_id, back), i - 1))
        else:
            port = vc.ports[i]
            departure = port.enqueue(cell, self.now)
            self._push(departure + port.prop_delay, _DELIVER, (cell, i + 1))

    def _on_tick(self) -> None:
        now = self.now
        for sw in self.switches.values():
            self.recorder.queue_sample(sw.name, now, sum(p.pop(now) for p in sw.ports.values()))
        self._ticks += 1
        if self._ticks % _AUDIT_EVERY_TICKS == 0:
            self.audit()
        self._push(self.now + _TICK_INTERVAL, _TICK, None)

    # -- accounting -------------------------------------------------------

    def audit(self) -> dict[str, dict[str, int]]:
        """Check per-VC cell conservation; raises SimulationError on a leak.

        Forward direction: cells emitted == delivered + queued at ports +
        in flight on links.  Backward direction: RM cells turned around ==
        delivered back to the source + in flight.  Both sides come from
        scanning pending ``(cell, i)`` delivery events, independently of
        the counters kept by the protocol handlers.  A forward cell bound
        for position ``i`` was sent by ``vc.ports[i - 1]`` (None for the
        source's link) and is still queued there while its departure
        (delivery time minus the port's propagation delay) is >= now.  Each
        port's own backlog must match that scan.
        """
        now = self.now
        inflight_fwd: dict[str, int] = {vc_id: 0 for vc_id in self.vcs}
        inflight_bwd: dict[str, int] = {vc_id: 0 for vc_id in self.vcs}
        queued: dict[str, int] = {vc_id: 0 for vc_id in self.vcs}
        backlog: dict[PortState, int] = {}
        for time, _seq, kind, payload in self._heap:
            if kind != _DELIVER:
                continue
            cell, i = payload
            vc = self.vcs[cell.vc_id]
            rm = cell.rm
            if rm is not None and rm.direction is Direction.BACKWARD:
                inflight_bwd[vc.vc_id] += 1
                continue
            port = vc.ports[i - 1]
            if port is not None and time - port.prop_delay >= now:
                queued[vc.vc_id] += 1
                backlog[port] = backlog.get(port, 0) + 1
            else:
                inflight_fwd[vc.vc_id] += 1
        for sw in self.switches.values():
            for port in sw.ports.values():
                pending = port.pop(now)
                if pending != backlog.get(port, 0):
                    raise SimulationError(
                        f"port {port.name}: backlog {pending} != {backlog.get(port, 0)} "
                        f"cells awaiting departure at t={now}"
                    )
        report = {}
        for vc_id, vc in self.vcs.items():
            emitted = vc.state.cells_sent_total
            fwd_rhs = vc.delivered + queued[vc_id] + inflight_fwd[vc_id]
            if emitted != fwd_rhs:
                raise SimulationError(
                    f"vc {vc_id}: forward cell conservation violated at t={now}: "
                    f"emitted {emitted} != delivered {vc.delivered} + queued "
                    f"{queued[vc_id]} + in-flight {inflight_fwd[vc_id]}"
                )
            bwd_rhs = vc.bwd_delivered + inflight_bwd[vc_id]
            if vc.turned != bwd_rhs:
                raise SimulationError(
                    f"vc {vc_id}: backward RM conservation violated at t={now}: "
                    f"turned {vc.turned} != delivered {vc.bwd_delivered} + "
                    f"in-flight {inflight_bwd[vc_id]}"
                )
            report[vc_id] = {
                "emitted": emitted,
                "delivered": vc.delivered,
                "queued": queued[vc_id],
                "in_flight": inflight_fwd[vc_id],
            }
        self.recorder.audits_passed += 1
        return report
