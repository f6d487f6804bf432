"""A run split into its parts: one process per part group, outputs unchanged.

``Engine.parts`` groups the VCs that share switch ports; ``execute_run``
runs the groups in forked workers and splices their states back into one
engine.  These tests compare the split path (``processes=2``) with the
serial one (``processes=1``) file by file, and a spliced engine run on
with ``run_until`` against a serial engine.
"""

import os

import pytest

from abrsim import engine
from abrsim.cli import apply_override, execute_run, main
from abrsim.engine import Engine, SimulationError
from abrsim.scenario import bundled_config_text, parse_scenario, to_topology
from abrsim.units import ms_to_ps
from test_random_scenarios import HORIZON_MS, PINNED, scenario_text

SEEDS = range(len(PINNED))


def fig3(until_ms, **overrides):
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    for param, value in overrides.items():
        apply_override(sc, param, value)
    sc.run.until_ms = until_ms
    return sc


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fig3_has_one_part_per_direction_and_the_default_lan_one():
    assert Engine(to_topology(fig3(40))).parts() == [["fwd"], ["rev"]]
    assert len(Engine(to_topology(parse_scenario(""))).parts()) == 1


def test_parts_of_the_seeded_scenarios_share_no_port():
    split = 0
    for seed in SEEDS:
        eng = Engine(to_topology(parse_scenario(scenario_text(seed))))
        parts = eng.parts()
        assert sorted(v for part in parts for v in part) == sorted(eng.vcs)
        ports = [
            {line.port for v in part for line in eng.vcs[v].fwd if line.port is not None}
            for part in parts
        ]
        for i, mine in enumerate(ports):
            assert not any(mine & other for other in ports[i + 1:])
        split += len(parts) > 1
    assert split == 16


@pytest.mark.parametrize("overrides", [{"crm": 32}, {"crm": 6144}, {"cdf": 1}],
                         ids=["crm32", "crm6144", "cdf1"])
def test_fig3_split_and_serial_write_the_same_bytes(tmp_path, overrides):
    results = {}
    for processes in (2, 1):
        out = tmp_path / str(processes)
        result = execute_run(fig3(40, **overrides), out, processes=processes)
        results[processes] = outputs(out), result
    (split, result), (serial, _) = results[2], results[1]
    assert split == serial
    assert result.engine.events_processed > 1000
    if overrides == {"cdf": 1}:  # both VCs collapse at one picosecond; fwd is listed first
        collapsed = {m: t for m, t in result.recorder.deviations.items() if "zero" in m}
        assert list(collapsed) == [
            f"vc {v}: rate decayed to zero; keep-alive RM probing engaged" for v in ("fwd", "rev")
        ]
        assert set(collapsed.values()) == {3_101_966_336}


def three_part_scenario():
    """Three VCs through one switch, each to its own destination: three
    parts whose ports all belong to sw1, so its queue samples are sums."""
    lines = ["[switch.sw1]", "interval_us = 20"]
    for k, icr in ((1, "84.8"), (2, "42.4"), (3, "21.2")):
        lines += [f"[source.s{k}]", "pcr_mbps = 84.8", f"icr_mbps = {icr}"]
        for name, a, b in ((f"in{k}", f"s{k}", "sw1"), (f"out{k}", "sw1", f"d{k}")):
            lines += [f"[link.{name}]", f"from = {a}", f"to = {b}", "rate_mbps = 42.4"]
            lines += [f"delay_us = {100 * k}"]
        lines += [f"[vc.v{k}]", f"path = s{k}, sw1, d{k}"]
    lines += ["[run]", "until_ms = 5"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("processes", [2, 3])
def test_a_group_of_parts_runs_in_one_process(tmp_path, processes):
    text = three_part_scenario()
    assert Engine(to_topology(parse_scenario(text))).parts() == [["v1"], ["v2"], ["v3"]]
    split, serial = tmp_path / "split", tmp_path / "serial"
    execute_run(parse_scenario(text), split, processes=processes)
    execute_run(parse_scenario(text), serial, processes=1)
    assert outputs(split) == outputs(serial)
    samples = outputs(serial)["queues_sw1.csv"].splitlines()[1:]
    assert any(not row.endswith(b",0.000000") for row in samples)  # the ports queue


def pending_order(eng, part):
    """The TICK and the part's EMITs and cells in flight in ``(time, seq)``
    order, by what they are rather than by their sequence numbers."""
    entries = []
    for time, seq, kind, payload in eng._heap:
        if kind == engine._TICK:
            entries.append((time, seq, "tick"))
        elif kind == engine._EMIT and payload.vc_id in part:
            entries.append((time, seq, payload.vc_id, "emit"))
    for vc_id in part:
        vc = eng.vcs[vc_id]
        for i, line in enumerate((*vc.fwd, *vc.bwd)):
            entries += [(time, seq, vc_id, i) for time, seq, _ in line]
    return [(time, *label) for time, _, *label in sorted(entries, key=lambda e: e[:2])]


def state(eng):
    """Everything a run leaves behind except the values of sequence numbers."""
    rec = eng.recorder
    ports = {
        p.name: (p.busy_from, p.last_departure, p.accum_cells, p.interval_start,
                 sorted(p.active_vcs), p.ccr_table, p.fair_share, p.load_factor, p.max_queue)
        for sw in eng.switches.values()
        for p in sw.ports.values()
    }
    return {
        "events": eng.events_processed,
        "now": eng.now,
        "acr": {vc: (tr.times, tr.values) for vc, tr in rec.acr.items()},
        "recv": {vc: list(times) for vc, times in rec.recv.items()},
        "queues": rec.queues,
        "first_backward": rec.first_backward,
        "deviations": list(rec.deviations.items()),
        "audits_passed": rec.audits_passed,
        "lines": [[(t, rm) for t, _, rm in line] for line in eng.lines],
        "sinks": {vc_id: list(vc.sink) for vc_id, vc in eng.vcs.items()},
        "vcs": {vc_id: (vc.state, vc.turned, vc.bwd_delivered) for vc_id, vc in eng.vcs.items()},
        "ports": ports,
        "audit": eng.audit(),
    }


def long_hop_scenario():
    """fig3's two VCs over a 2 ms hop, with every time on a 5 us grid: a
    cell emitted at a whole millisecond is due two milliseconds later,
    at a TICK whose entry was scheduled after the cell's."""
    lines = []
    for end in ("s1", "d1"):
        lines += [f"[source.{end}]", "pcr_mbps = 84.8", "icr_mbps = 84.8"]
    lines += ["[switch.sw1]", "[switch.sw2]"]
    for name, a, b, delay_us in (("a", "s1", "sw1", 0), ("sat", "sw1", "sw2", 1990),
                                 ("b", "sw2", "d1", 0)):
        lines += [f"[link.{name}]", f"from = {a}", f"to = {b}", "rate_mbps = 84.8"]
        lines += [f"delay_us = {delay_us}"]
    lines += ["[vc.fwd]", "path = s1, sw1, sw2, d1", "[vc.rev]", "path = d1, sw2, sw1, s1"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, split_ms, until_ms", [
    (long_hop_scenario(), 2.5, 9),
    (scenario_text(0), 0.99, HORIZON_MS),
    (scenario_text(20), 1.98, HORIZON_MS),
], ids=["long-hop", "seed-0", "seed-20"])
def test_a_spliced_engine_runs_on_as_a_serial_one(tmp_path, text, split_ms, until_ms):
    sc = parse_scenario(text)
    sc.run.until_ms = split_ms
    split = execute_run(sc, tmp_path, processes=2).engine
    serial = Engine(to_topology(parse_scenario(text)))
    serial.run_until(ms_to_ps(split_ms))
    parts = serial.parts()
    assert len(parts) > 1
    # Some entries of a part other than the first are due at the next
    # TICK's time; on the long hop some of them come before it.
    tick = next(label for label in pending_order(serial, []) if label[1] == "tick")
    due = [label for label in pending_order(serial, parts[1]) if label[0] == tick[0]]
    assert len(due) > 1
    if split_ms == 2.5:
        assert due[0] != tick
    for part in parts:
        assert pending_order(split, part) == pending_order(serial, part)
    serial.audit()  # as ``execute_run`` did
    for eng in (split, serial):
        eng.run_until(ms_to_ps(until_ms))
    assert state(split) == state(serial)
    for part in parts:
        assert pending_order(split, part) == pending_order(serial, part)


@pytest.mark.parametrize("raised, code, message", [
    (SimulationError, 1, "internal invariant failure: injected"),
    (ValueError, 2, "error: injected"),
])
@pytest.mark.parametrize("holder", ["rev", "fwd"], ids=["worker", "parent"])
def test_a_failing_part_fails_the_run_and_leaves_no_process(
    tmp_path, monkeypatch, capsys, raised, code, message, holder
):
    # ``rev`` runs in the forked worker and ``fwd`` in the parent.
    audit = Engine.audit

    def failing_audit(self):
        if list(self.vcs) == [holder]:
            raise raised("injected")
        return audit(self)

    monkeypatch.setattr(Engine, "audit", failing_audit)
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # split on any host
    argv = ["run", "fig3.cfg", "--until-ms", "3", "--out", str(tmp_path)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert_no_child_left()


def test_a_split_run_leaves_no_process(tmp_path):
    execute_run(fig3(3), tmp_path, processes=2)
    assert_no_child_left()
