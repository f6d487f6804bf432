import contextlib
import hashlib
import itertools
import pickle
import random
import tracemalloc

import pytest

from abrsim.cli import apply_override, execute_run
from abrsim.engine import (
    ConfigError,
    Engine,
    LinkSpec,
    Part,
    SimulationError,
    SwitchParams,
    Topology,
    VcSpec,
    _key,
)
from abrsim.protocol import SourceParams
from abrsim.scenario import bundled_config_text, parse_scenario, to_topology
from abrsim.units import PS_PER_MS, cell_tx_time, mbps_to_cps, ms_to_ps, ps_to_ms, us_to_ps
from conftest import cpus, delay_lines, per_cell, snapshot
from test_random_scenarios import HORIZON_MS, SEEDS, scenario_text

OC3 = mbps_to_cps(155.52)


def table_params(**kw):
    defaults = dict(
        pcr=OC3, mcr=0.0, icr=0.9 * OC3, nrm=32, rif=1.0, cdf=1 / 16, crm=32
    )
    defaults.update(kw)
    return SourceParams(**defaults)


LAN = LinkSpec(rate=OC3, prop_delay=us_to_ps(5))
SATELLITE = LinkSpec(rate=OC3, prop_delay=ms_to_ps(275))


def one_source_topology(**source_kw):
    """s1 -- sw1 -- (satellite) -- sw2 -- d1, single direction."""
    topo = Topology()
    topo.source_params["s1"] = table_params(**source_kw)
    topo.switch_params["sw1"] = SwitchParams()
    topo.switch_params["sw2"] = SwitchParams()
    topo.add_duplex_link("s1", "sw1", LAN)
    topo.add_duplex_link("sw1", "sw2", SATELLITE)
    topo.add_duplex_link("sw2", "d1", LAN)
    topo.vcs = (VcSpec("fwd", ("s1", "sw1", "sw2", "d1")),)
    return topo


# -- construction and validation -------------------------------------------


def test_fig3_scenario_builds_two_vcs_and_four_ports():
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    eng = Engine(topo)
    assert set(eng.vcs) == {"fwd", "rev"}
    ports = {p.name for sw in eng.switches.values() for p in sw.ports.values()}
    assert ports == {"sw1->sw2", "sw1->s1", "sw2->d1", "sw2->sw1"}


def test_topology_without_vcs_is_rejected():
    topo = Topology()
    topo.source_params["s1"] = table_params()
    with pytest.raises(ConfigError):
        Engine(topo)


def test_missing_link_is_rejected():
    topo = one_source_topology()
    del topo.links[("sw2", "d1")]
    del topo.links[("d1", "sw2")]
    with pytest.raises(ConfigError):
        Engine(topo)


def test_cyclic_path_is_rejected():
    topo = one_source_topology()
    topo.vcs = (VcSpec("fwd", ("s1", "sw1", "s1")),)
    with pytest.raises(ConfigError):
        Engine(topo)


def test_switch_endpoint_is_rejected():
    topo = one_source_topology()
    topo.source_params["sw1"] = table_params()
    topo.vcs = (VcSpec("fwd", ("sw1", "sw2", "d1")),)
    with pytest.raises(ConfigError):
        Engine(topo)


def test_intermediate_node_must_be_a_switch():
    topo = one_source_topology()
    topo.add_duplex_link("sw1", "d9", LAN)
    topo.add_duplex_link("d9", "sw2", LAN)
    topo.vcs = (VcSpec("fwd", ("s1", "sw1", "d9", "sw2", "d1")),)
    with pytest.raises(ConfigError):
        Engine(topo)


def test_a_sender_without_source_parameters_is_rejected():
    topo = one_source_topology()
    del topo.source_params["s1"]
    with pytest.raises(ConfigError) as exc:
        Engine(topo)
    assert str(exc.value) == "vc fwd: no source parameters for s1"


def test_duplicate_link_is_rejected():
    topo = one_source_topology()
    with pytest.raises(ConfigError):
        topo.add_duplex_link("sw1", "s1", LAN)


# -- timing ------------------------------------------------------------------


def test_sources_start_at_icr_with_first_emission_at_time_zero():
    topo = one_source_topology()
    eng = Engine(topo)
    assert eng.vcs["fwd"].state.acr == topo.source_params["s1"].icr
    eng.run_until(0)
    assert eng.audit()["fwd"]["emitted"] == 1


def test_first_delivery_time_is_propagation_plus_three_serializations():
    topo = one_source_topology()
    eng = Engine(topo)
    rec = eng.recorder
    eng.run_until(ms_to_ps(276))
    tx = cell_tx_time(OC3)
    expected = 3 * tx + us_to_ps(5) + ms_to_ps(275) + us_to_ps(5)
    assert rec.recv["fwd"][0] == expected


def test_first_feedback_arrives_after_one_round_trip():
    topo = one_source_topology()
    eng = Engine(topo)
    eng.run_until(ms_to_ps(560))
    rec = eng.recorder  # merged from the parts when read
    first = ps_to_ms(rec.first_backward["fwd"])
    assert 549.0 <= first <= 551.0
    # microsecond-scale terms only, on top of 2 x 275 ms
    assert first == pytest.approx(550.036, abs=0.01)


def test_two_satellite_hops_double_the_delay():
    topo = Topology()
    topo.source_params["s1"] = table_params()
    for name in ("sw1", "sw2", "sw3"):
        topo.switch_params[name] = SwitchParams()
    topo.add_duplex_link("s1", "sw1", LAN)
    topo.add_duplex_link("sw1", "sw2", SATELLITE)
    topo.add_duplex_link("sw2", "sw3", SATELLITE)
    topo.add_duplex_link("sw3", "d1", LAN)
    topo.vcs = (VcSpec("fwd", ("s1", "sw1", "sw2", "sw3", "d1")),)
    eng = Engine(topo)
    rec = eng.recorder
    eng.run_until(ms_to_ps(551))
    tx = cell_tx_time(OC3)
    expected = 4 * tx + 2 * us_to_ps(5) + 2 * ms_to_ps(275)
    assert rec.recv["fwd"][0] == expected


def test_run_until_rejects_going_backwards():
    eng = Engine(one_source_topology())
    eng.run_until(ms_to_ps(1))
    with pytest.raises(SimulationError):
        eng.run_until(0)


# -- feedback through the switches ---------------------------------------------


def test_er_feedback_is_min_of_port_offers_along_the_path():
    # second switch runs a lower utilization target; the source must end
    # up at the smaller offer
    topo = one_source_topology(crm=100_000)
    topo.switch_params["sw2"] = SwitchParams(target_utilization=0.7)
    eng = Engine(topo)
    eng.run_until(ms_to_ps(600))
    acr = eng.vcs["fwd"].state.acr
    assert acr == pytest.approx(0.7 * OC3, rel=1e-9)
    assert acr <= 0.7 * OC3 + 1e-9


def test_single_vc_feedback_sits_at_the_target_rate():
    topo = one_source_topology(crm=100_000)
    eng = Engine(topo)
    eng.run_until(ms_to_ps(700))
    assert eng.vcs["fwd"].state.acr == pytest.approx(0.9 * OC3, rel=1e-9)


# -- cell keys ------------------------------------------------------------------


def test_keys_sort_as_time_then_sequence_number_and_decode():
    rng = random.Random(18)
    top = 2**63 - 1  # the highest sequence number that keeps the order
    cells = [
        (rng.randrange(2**52), rng.randrange(2**63), rng.random() < 0.5) for _ in range(5000)
    ]
    # equal times, the lowest and highest sequence numbers, either RM bit
    cells += [
        (time, seq, rm)
        for time in (0, 1, 2, 10**15)
        for seq in (0, 1, 2, top - 1, top)
        for rm in (False, True)
    ]
    cells = list(dict.fromkeys(cells))
    keys = [_key(*cell) for cell in cells]
    assert len(set(keys)) == len(cells)
    by_key = [cell for _, cell in sorted(zip(keys, cells))]
    # cells with equal (time, seq) differ only in the RM bit and are listed
    # data cell first, which the stable sort keeps
    assert by_key == sorted(cells, key=lambda cell: cell[:2])
    for (time, _seq, rm), key in zip(cells, keys):
        assert key >> 64 == time and key & 1 == rm


@pytest.mark.parametrize("text, times_ms", [
    (bundled_config_text("fig3.cfg"), (1, 23, 150, 280, 290)),  # RM cells go back from 275 ms
    (scenario_text(0), [k / 10 for k in range(1, 10 * HORIZON_MS + 1)]),
], ids=["fig3", "seed-0"])
def test_a_line_holds_keys_and_its_rm_fields_in_step(text, times_ms):
    # Lines hold plain keys; an RM cell's fields wait in its line's
    # ``rms``, one for each key with the RM bit, and a backward line
    # carries only RM cells.
    with per_cell():
        eng = Engine(to_topology(parse_scenario(text)))
    forward_rm = backward = 0
    for t_ms in times_ms:
        eng.run_until(ms_to_ps(t_ms))
        for vc in eng.vcs.values():
            for line in vc.fwd:
                assert all(type(key) is int for key in line)
                assert len(line.rms) == sum(key & 1 for key in line)
                forward_rm += len(line.rms)
            for line in vc.bwd:
                assert all(type(key) is int and key & 1 for key in line)
                assert len(line.rms) == len(line)
                backward += len(line)
    assert forward_rm and backward


def test_a_cell_in_flight_costs_at_most_64_traced_bytes():
    # fig3's forward part at full rate, before any delivery: nearly all
    # the memory a run adds is its cells in flight.  A cell held as a
    # ``(time, seq, rm)`` tuple cost about 144 bytes here.
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    apply_override(sc, "crm", 6144)
    tracemalloc.start()
    try:
        with per_cell():
            part = Engine(to_topology(sc)).parts[0]
        before = tracemalloc.get_traced_memory()[0]
        part.run_until(ms_to_ps(20))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = sum(map(len, delay_lines(part))) + sum(len(vc.sink) for vc in part.vcs.values())
    assert cells > 5000
    assert grown / cells <= 64


# -- conservation and determinism ------------------------------------------------


def test_cell_conservation_holds_during_and_after_a_run():
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    eng = Engine(topo)
    eng.run_until(ms_to_ps(30))
    report = eng.audit()
    for vc_id, counts in report.items():
        assert counts["emitted"] == (
            counts["delivered"] + counts["queued"] + counts["in_flight"]
        )
    assert eng.recorder.audits_passed > 0


def test_a_hand_built_engine_samples_queues_and_audits():
    eng = Engine(one_source_topology())
    eng.run_until(ms_to_ps(100))
    assert [t for t, _n in eng.recorder.queues["sw1"]] == [
        k * PS_PER_MS for k in range(1, 101)
    ]
    assert eng.recorder.audits_passed >= 1


def test_tampered_port_backlog_fails_the_audit():
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    with per_cell():
        eng = Engine(topo)
    eng.run_until(ms_to_ps(23))  # sw1->sw2 is busy: a cell is in service
    eng.audit()
    port = eng.switches["sw1"].ports["sw2"]
    assert port.pop(eng.now) == 1
    port.last_departure += port.tx_time  # a departure no pending delivery carries
    assert port.pop(eng.now) == 2
    with pytest.raises(SimulationError, match="sw1->sw2"):
        eng.audit()


def test_cell_missing_from_a_delay_line_fails_the_audit():
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    with per_cell():
        eng = Engine(topo)
    eng.run_until(ms_to_ps(30))
    eng.audit()
    line = eng.vcs["fwd"].fwd[1]  # the cells sw1->sw2 has served
    del line[1]  # a cell of vc fwd already out on the satellite hop
    with pytest.raises(SimulationError, match="vc fwd"):
        eng.audit()


def test_line_head_out_of_step_with_the_heap_fails_the_audit():
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    with per_cell():
        eng = Engine(topo)
    eng.run_until(ms_to_ps(30))
    eng.vcs["fwd"].fwd[1].popleft()  # the heap still holds this head
    with pytest.raises(SimulationError, match="stale head"):
        eng.audit()


@pytest.mark.parametrize("rm_bit", [0], ids=["data cell"])
def test_wrong_cell_at_a_line_head_fails_the_audit(rm_bit):
    # The audit counts lines and checks only their heads: a data cell
    # heading a backward line must fail it although every count and the
    # heap still match.  A cell's direction is its line's, so an RM cell
    # heads any line rightly.
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    with per_cell():
        eng = Engine(topo)
    eng.run_until(ms_to_ps(290))  # the satellite hop back carries RM cells from 275 ms
    eng.audit()
    line = max(eng.vcs["fwd"].bwd, key=len)
    line[0] = line[0] >> 1 << 1 | rm_bit
    (part,) = [part for part in eng.parts if "fwd" in part.vcs]
    (i,) = [i for i, entry in enumerate(part.heap) if entry[2] is line]
    part.heap[i] = (line[0], *part.heap[i][1:])  # keys stay unique: the heap order holds
    with pytest.raises(SimulationError, match="vc fwd: the head of a backward delay line"):
        eng.audit()


def test_rm_cell_missing_from_a_backward_line_fails_the_audit():
    # The tail goes, so the line's head, and the heap entry that holds it,
    # still match: only the backward count can catch it.
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    with per_cell():
        eng = Engine(topo)
    eng.run_until(ms_to_ps(290))  # the satellite hop back carries RM cells from 275 ms
    eng.audit()
    line = max(eng.vcs["fwd"].bwd, key=len)
    assert len(line) >= 2
    line.pop()
    line.rms.pop()
    with pytest.raises(SimulationError, match="^vc fwd: backward RM conservation violated"):
        eng.audit()


def scan_lines(eng):
    """``Engine.audit``'s report, by walking every delay-line and sink entry.

    The per-cell oracle for the audit, which counts lines: each cell is
    charged to its line's VC and to the direction of the tuple that holds
    its line (``vc.bwd`` or ``vc.fwd``, by identity, not by the ``back``
    flag the engine reads), and a forward cell is queued at the port that
    served it (the port whose cells join its line ``then``) while its
    departure (delivery time minus the port's propagation delay) is after
    now.  A sink entry is delivered once its time is at or before now, and
    before that is queued or in flight like a cell of the VC's destination
    line.  The backward counts and the backlogs of the ports that the
    lines reach must hold too.
    """
    now = eng.now
    delivered = {vc_id: vc.delivered for vc_id, vc in eng.vcs.items()}
    queued = dict.fromkeys(eng.vcs, 0)
    in_flight = dict.fromkeys(eng.vcs, 0)
    in_flight_bwd = dict.fromkeys(eng.vcs, 0)
    backlog = {}
    served_by = {
        id(line.then): line.port
        for vc in eng.vcs.values()
        for line in vc.fwd
        if line.port is not None
    }
    backward = {id(line) for vc in eng.vcs.values() for line in vc.bwd}
    for line in delay_lines(eng):
        vc_id = line.vc.vc_id
        if id(line) in backward:
            in_flight_bwd[vc_id] += len(line)
            continue
        port = served_by.get(id(line))
        for key in line:
            time = key >> 64
            if port is not None and time - port.prop_delay > now:
                queued[vc_id] += 1
                backlog[port] = backlog.get(port, 0) + 1
            else:
                in_flight[vc_id] += 1
    for vc_id, vc in eng.vcs.items():
        port = served_by.get(id(vc.fwd[-1]))
        for time in vc.sink:
            if time <= now:
                delivered[vc_id] += 1
            elif port is not None and time - port.prop_delay > now:
                queued[vc_id] += 1
                backlog[port] = backlog.get(port, 0) + 1
            else:
                in_flight[vc_id] += 1
    for port in {line.port for line in delay_lines(eng)} - {None}:
        assert port.pop(now + 1) == backlog.get(port, 0)
    for vc_id, vc in eng.vcs.items():
        assert vc.turned == vc.bwd_delivered + in_flight_bwd[vc_id]
    return {
        vc_id: {
            "emitted": vc.state.cells_sent_total,
            "delivered": delivered[vc_id],
            "queued": queued[vc_id],
            "in_flight": in_flight[vc_id],
        }
        for vc_id, vc in eng.vcs.items()
    }


def test_audit_by_counting_matches_a_per_cell_scan_on_fig3_at_full_rate():
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    apply_override(sc, "crm", 6144)
    with per_cell():
        eng = Engine(to_topology(sc))
    reports = []
    for t_ms in (1, 23, 150, 275.5, 290):  # deliveries at d1 start at 275.018 ms
        eng.run_until(ms_to_ps(t_ms))
        reports.append(eng.audit())
        assert reports[-1] == scan_lines(eng)
    assert any(r["fwd"]["queued"] for r in reports)
    assert reports[-1]["fwd"]["in_flight"] > 50_000
    assert eng.vcs["fwd"].turned > eng.vcs["fwd"].bwd_delivered


@pytest.mark.parametrize("seed", [0, 6, 19, 20])  # each has zero-delay links
def test_audit_by_counting_matches_a_per_cell_scan_at_every_event(seed):
    text = scenario_text(seed)
    assert "delay_us = 0\n" in text
    with per_cell():
        eng = Engine(to_topology(parse_scenario(text)))
    t_end = ms_to_ps(HORIZON_MS)
    checks = 0
    while next_pending_time(eng) <= t_end:
        eng.run_until(next_pending_time(eng))
        assert eng.audit() == scan_lines(eng)
        checks += 1
    assert checks > 500


@pytest.mark.parametrize("seed", [0, 6, 19, 20])
def test_audits_inside_the_loop_match_a_per_cell_scan(monkeypatch, seed):
    # Sink times at or before now wait for the VC's next RM cell at the
    # destination, or for ``run_until`` to return: only the TICK's audit
    # sees them.  Each part audits itself at its own TICK.
    audit = Part.audit
    unrecorded = {}  # by TICK, summed over the parts

    def checked_audit(part):
        report = audit(part)
        assert report == scan_lines(part)
        waiting = sum(t <= part.now for vc in part.vcs.values() for t in vc.sink)
        unrecorded[part.now] = unrecorded.get(part.now, 0) + waiting
        return report

    monkeypatch.setattr(Part, "audit", checked_audit)
    monkeypatch.setattr("abrsim.engine._AUDIT_EVERY_TICKS", 1)
    with per_cell():
        eng = Engine(to_topology(parse_scenario(scenario_text(seed))))
    assert len(eng.parts) > 1
    eng.run_until(ms_to_ps(HORIZON_MS))
    assert len(unrecorded) == HORIZON_MS and all(unrecorded.values())


def test_heap_holds_line_heads_not_every_cell_in_flight():
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    apply_override(sc, "crm", 6144)
    with per_cell():
        eng = Engine(to_topology(sc))
    busy = 0
    for step in range(1, 301):
        eng.run_until(step * PS_PER_MS // 10)
        if sum(map(len, delay_lines(eng))) > 1000:
            busy += 1
            for part in eng.parts:  # one head per line, one EMIT per VC, the TICK
                assert len(part.heap) <= len(delay_lines(part)) + len(part.vcs) + 1
    assert busy > 200
    # the count with one heap entry per cell in flight: merging the lines
    # by their heads runs the same events
    assert eng.events_processed == 39640


def test_data_cells_reaching_a_destination_are_not_events():
    # fig3 at crm 32 to 300 ms: the engine that ran one DELIVER event per
    # cell at the destination processed 24,462 events here.  A data cell
    # bound for its destination now only adds its time to the VC's sink;
    # RM cells there keep their events, since turnaround is ordered.
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    apply_override(sc, "crm", 32)
    with per_cell():
        eng = Engine(to_topology(sc))
    eng.run_until(ms_to_ps(300))
    data_delivered = sum(vc.delivered - vc.turned for vc in eng.vcs.values())
    assert data_delivered > 4000
    assert eng.events_processed + data_delivered == 24462
    for vc_id, vc in eng.vcs.items():
        assert vc.delivered == len(eng.recorder.recv[vc_id])


def test_identical_runs_produce_identical_traces():
    def run_once():
        topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
        eng = Engine(topo)
        eng.run_until(ms_to_ps(40))
        return eng.recorder, eng

    rec_a, eng_a = run_once()
    rec_b, eng_b = run_once()
    assert eng_a.events_processed == eng_b.events_processed
    for vc in rec_a.acr:
        assert rec_a.acr[vc].times == rec_b.acr[vc].times
        assert rec_a.acr[vc].values == rec_b.acr[vc].values
        assert rec_a.recv[vc] == rec_b.recv[vc]
    assert rec_a.queues == rec_b.queues


def test_work_conserving_service_keeps_up_with_a_single_source():
    # arrival rate is 90% of service rate, so queues stay tiny
    topo = one_source_topology(crm=100_000)
    eng = Engine(topo)
    eng.run_until(ms_to_ps(100))
    for sw in eng.switches.values():
        for port in sw.ports.values():
            assert port.max_queue <= 2


# -- interval-deadline tie rule, end to end ------------------------------------


def tie_scenario() -> str:
    """Two sources into sw1 -> sw2 -> d1, every link and source at 84.8 Mbps.

    A cell takes 5 us on every link and each delay is a multiple of 5 us,
    so arrivals and stamps land exactly on the 20 us interval deadlines.
    """
    lines = []
    for src in ("s1", "s2"):
        lines += [f"[source.{src}]", "pcr_mbps = 84.8", "icr_mbps = 84.8"]
    for sw in ("sw1", "sw2"):
        lines += [f"[switch.{sw}]", "interval_us = 20"]
    for name, a, b, delay_us in (
        ("a1", "s1", "sw1", 5),
        ("a2", "s2", "sw1", 5),
        ("core", "sw1", "sw2", 20),
        ("egress", "sw2", "d1", 5),
    ):
        lines += [f"[link.{name}]", f"from = {a}", f"to = {b}", "rate_mbps = 84.8"]
        lines += [f"delay_us = {delay_us}"]
    for vc in ("1", "2"):
        lines += [f"[vc.v{vc}]", f"path = s{vc}, sw1, sw2, d1"]
    lines += ["[run]", "until_ms = 3"]
    return "\n".join(lines) + "\n"


def test_interval_deadline_tie_rule_holds_end_to_end(tmp_path):
    # A deadline equal to ``now`` stays open (``PortState._close_due``).
    # Flipping only its ``<`` to ``<=`` changes every one of these files
    # but queues_sw2.  Closing it at ``now`` with ``_close_due``'s skip
    # moved to match leaves them unchanged, as the arrivals here are
    # periodic; the seeded scenarios and ``test_switch.py`` catch that flip.
    execute_run(parse_scenario(tie_scenario()), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert digests == {
        "acr_v1.csv": "1c02fa7d9984f1b3f8948276968a89a044558c926902fd945010648dc83b74ed",
        "acr_v2.csv": "b0546726ab6e85a7974446b59f746140ed7a19a55fcfda54e20b88a860508cfd",
        "queues_sw1.csv": "3d45028fb0f07fc0fbb37840c0daddffd1d1ef7f016010133daaba5e40412ba8",
        "queues_sw2.csv": "634410cad5b60ffe81d186106ebfcf4324f0c81e365e33e318bb23165ec7b353",
        "recv_v1.csv": "ae4d4ef8195c84fc88e251d5e9941c33218e08e7f16424fa6a6d135d1f76a90d",
        "recv_v2.csv": "8352766d2e734b831bc8d2f65d0e94ab742891b36061ad673bad0368ceaf5c02",
        "summary.csv": "076e26f0007f01cce97bac51a8ff73f31bdf49d7f53b466280d0f5c8986038ad",
    }


# -- slicing the loop --------------------------------------------------------


def run_whole(eng, t_end):
    eng.run_until(t_end)


def run_in_ms_slices(eng, t_end):
    # as ``perfbench/child.py`` drives the loop in trace mode
    while True:
        t = min(t_end, (eng.now // PS_PER_MS + 1) * PS_PER_MS)
        eng.run_until(t)
        if t >= t_end:
            return


def next_pending_time(eng):
    """The time of the earliest event pending in any part."""
    return min(part.heap[0][0] for part in eng.parts) >> 64  # each part's TICK is pending


def run_to_each_pending_time(eng, t_end):
    # every slice ends exactly at the time of the next pending event
    while next_pending_time(eng) <= t_end:
        eng.run_until(next_pending_time(eng))
    eng.run_until(t_end)


@pytest.mark.parametrize("text, until_ms", [
    (bundled_config_text("fig3.cfg"), 40),  # d1's first delivery is at 275.018 ms
    (tie_scenario(), 3),
    (scenario_text(0), HORIZON_MS),  # its destinations receive: sinks drain at slice ends
], ids=["fig3", "tie-rule", "seed-0"])
def test_slicing_run_until_changes_nothing(text, until_ms):
    t_end = ms_to_ps(until_ms)
    results = []
    for drive in (run_whole, run_in_ms_slices, run_to_each_pending_time):
        with per_cell():
            eng = Engine(to_topology(parse_scenario(text)))
        drive(eng, t_end)
        results.append(snapshot(eng))
    whole, *sliced = results
    assert whole["events"] > 1000 and whole["audit"]
    for other in sliced:
        assert other == whole


FIG3 = bundled_config_text("fig3.cfg")  # crm = 32, cdf = 1/16


@pytest.mark.parametrize("text, short_ms, long_ms, traced", [
    (FIG3, 20, 40, ("acr",)),  # rule-6 cuts from the start
    # past the first delivery at 275 ms; ACR is constant until feedback
    (FIG3.replace("crm = 32", "crm = 6144"), 280, 300, ("recv",)),
    (FIG3.replace("cdf = 1/16", "cdf = 1"), 280, 300, ("acr", "recv")),  # ACR has hit zero
    *((scenario_text(seed), HORIZON_MS / 2, HORIZON_MS, ("recv",)) for seed in SEEDS),
], ids=["fig3", "fig3-crm6144", "fig3-cdf1", *(f"seed-{seed}" for seed in SEEDS)])
def test_a_shorter_horizon_writes_a_prefix_of_each_trace(
    tmp_path, text, short_ms, long_ms, traced
):
    # Nothing a run does before its horizon depends on where that horizon is.
    outs = []
    for until_ms in (short_ms, long_ms):
        sc = parse_scenario(text)
        sc.run.until_ms = until_ms
        outs.append(tmp_path / f"{until_ms}ms")
        with cpus(1):
            execute_run(sc, outs[-1])
    traces = [sorted(p.name for p in out.glob("*.csv") if p.name != "summary.csv") for out in outs]
    assert traces[0] == traces[1] and traces[0]
    for trace in traced:  # the shorter run has rows of its own to keep
        assert all((outs[0] / name).read_bytes().count(b"\n") > 1
                   for name in traces[0] if name.startswith(f"{trace}_")), trace
    grown = 0
    for name in traces[0]:
        short, long = ((out / name).read_bytes() for out in outs)
        assert long.startswith(short), name
        grown += len(long) > len(short)
    assert grown >= 2  # the ACR and queue traces, at least, go on


@pytest.mark.parametrize(
    "text",
    [bundled_config_text("fig3.cfg")] + [scenario_text(seed) for seed in SEEDS],
    ids=["fig3"] + [f"seed-{seed}" for seed in SEEDS],
)
def test_each_delay_line_runs_one_way_along_its_route(text):
    # A cell's direction is its line's ``back`` flag.  The port that
    # stamps a VC's feedback at a node must be the port that queues its
    # data there, since its offer is what the source's rate should track.
    with per_cell():
        eng = Engine(to_topology(parse_scenario(text)))
    for vc in eng.vcs.values():
        fwd, bwd = vc.fwd, vc.bwd
        assert len(fwd) == len(bwd)
        assert not any(line.back for line in fwd)
        assert all(line.back for line in bwd)
        assert all(a.then is b for a, b in zip(fwd, fwd[1:]))
        assert fwd[-1].then is bwd[-1]
        assert all(bwd[k].then is bwd[k - 1] for k in range(1, len(bwd)))
        assert bwd[0].then is None
        assert all(bwd[k].port is fwd[k - 1].port for k in range(1, len(bwd)))


def test_a_run_result_pickles_and_both_copies_run_on_alike(tmp_path):
    # Delay lines subclass ``deque``: unpickling must rebuild them, their
    # routes and the heap entries that point at them.  Each VC records its
    # deliveries straight into its part's recorder's array, which must
    # stay one object in the copy: fig3 delivers nothing before 275 ms, so
    # the default LAN, which delivers from its first millisecond, checks
    # that.  With two processes fig3's ``rev`` part comes back from a
    # worker already pickled once.  Both scenarios are one-VC parts, which
    # hold no lines; the same runs on per-cell parts check the lines.
    for n, (name, text, until_ms, on_ms), (way, build) in itertools.product(
        (1, 2),
        (("fig3", bundled_config_text("fig3.cfg"), 20, 30), ("lan", "", 3, 5)),
        (("per-cell", per_cell), ("one-vc", contextlib.nullcontext)),
    ):
        sc = parse_scenario(text)
        sc.run.until_ms = until_ms
        with build(), cpus(n):
            result = execute_run(sc, tmp_path / f"{name}-{n}-{way}")
        copy = pickle.loads(pickle.dumps(result))
        assert copy.summary == result.summary
        vcs = copy.engine.vcs
        assert all(line.vc is vcs[line.vc.vc_id] for line in delay_lines(copy.engine))
        for part in copy.engine.parts:
            for vc_id, vc in part.vcs.items():
                assert vc.recv is part.recorder.recv[vc_id] is copy.recorder.recv[vc_id]
                assert vc is copy.engine.vcs[vc_id]
        for eng in (result.engine, copy.engine):
            eng.run_until(ms_to_ps(on_ms))
        assert copy.engine.events_processed == result.engine.events_processed > 0
        for vc_id, vc in copy.engine.vcs.items():
            assert vc.delivered == result.engine.vcs[vc_id].delivered
        assert snapshot(copy.engine) == snapshot(result.engine)  # the audits included
