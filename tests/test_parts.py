"""A run is its parts: one process per part group, outputs unchanged.

``Engine.parts`` holds one ``Part`` per group of VCs that share switch
ports, each with its own event loop.  ``execute_run`` runs groups of
parts in forked workers, which send their parts back whole.  These tests
compare the split path (``processes=2``) with the serial one
(``processes=1``) file by file, and an engine whose parts came back from
a worker, run on with ``run_until``, against a serial engine.
"""

import os
import re
import time

import pytest

from abrsim import engine
from abrsim.cli import apply_override, execute_run, main
from abrsim.engine import Engine, Part, SimulationError, forked
from abrsim.scenario import bundled_config_text, parse_scenario, to_topology
from abrsim.units import ms_to_ps
from conftest import delay_lines, snapshot
from test_random_scenarios import HORIZON_MS, PINNED, scenario_text

SEEDS = range(len(PINNED))


def fig3(until_ms, **overrides):
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    for param, value in overrides.items():
        apply_override(sc, param, value)
    sc.run.until_ms = until_ms
    return sc


def part_ids(eng):
    """The VC ids of each part, in part order."""
    return [list(part.vcs) for part in eng.parts]


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fig3_has_one_part_per_direction_and_the_default_lan_one():
    assert part_ids(Engine(to_topology(fig3(40)))) == [["fwd"], ["rev"]]
    assert len(Engine(to_topology(parse_scenario(""))).parts) == 1


def test_parts_of_the_seeded_scenarios_share_no_port():
    split = 0
    for seed in SEEDS:
        eng = Engine(to_topology(parse_scenario(scenario_text(seed))))
        parts = eng.parts
        assert sorted(v for part in parts for v in part.vcs) == sorted(eng.vcs)
        ports = []
        for part in parts:
            # a part holds exactly the ports its lines use, in first use
            used = list(dict.fromkeys(line.port for line in delay_lines(part) if line.port))
            assert used == list(part.ports.values())
            assert all(p.name == "->".join(key) for key, p in part.ports.items())
            ports.append(set(used))
        for i, mine in enumerate(ports):
            assert not any(mine & other for other in ports[i + 1:])
        split += len(parts) > 1
    assert split == 16


def two_collapsing_parts(b_nrm):
    """Two VCs, each over its own switch, whose rates decay to zero after
    their first ``nrm`` cells: ``va`` at 320 us, 32 cells 10 us apart, and
    ``vb`` after ``b_nrm`` cells 20 us apart (at 320 us for 16, a tie)."""
    lines = []
    for src, icr, nrm in (("a", "42.4", 32), ("b", "21.2", b_nrm)):
        lines += [f"[source.{src}]", "pcr_mbps = 42.4", f"icr_mbps = {icr}", f"nrm = {nrm}"]
        lines += ["cdf = 1", "crm = 1"]
    lines += ["[switch.swa]", "[switch.swb]"]
    for name, a, b in (("a1", "a", "swa"), ("a2", "swa", "da"),
                       ("b1", "b", "swb"), ("b2", "swb", "db")):
        lines += [f"[link.{name}]", f"from = {a}", f"to = {b}", "rate_mbps = 155.52"]
        lines += ["delay_ms = 50"]
    lines += ["[vc.va]", "path = a, swa, da", "[vc.vb]", "path = b, swb, db"]
    lines += ["[run]", "until_ms = 20"]
    return parse_scenario("\n".join(lines) + "\n")


# scenario, fewest events, and the VCs whose rates collapse, in the order
# the deviations list them (by first time, then by part order), with
# their times
SPLIT_CASES = {
    "crm32": (lambda: fig3(40, crm=32), 1000, None),
    "crm6144": (lambda: fig3(40, crm=6144), 1000, None),
    "cdf1": (lambda: fig3(40, cdf=1), 1000, (["fwd", "rev"], [3_101_966_336] * 2)),
    "tie-across-parts": (
        lambda: two_collapsing_parts(16), 50, (["va", "vb"], [320_000_000] * 2)
    ),
    "first-across-parts": (
        lambda: two_collapsing_parts(8), 50, (["vb", "va"], [160_000_000, 320_000_000])
    ),
}


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_fig3_split_and_serial_write_the_same_bytes(tmp_path, case):
    scenario, events, collapse = SPLIT_CASES[case]
    results = {}
    for processes in (2, 1):
        out = tmp_path / str(processes)
        result = execute_run(scenario(), out, processes=processes)
        results[processes] = outputs(out), result
    (split, result), (serial, _) = results[2], results[1]
    assert split == serial
    assert len(result.engine.parts) == 2
    assert result.engine.events_processed > events
    if collapse is not None:
        vcs, times = collapse
        collapsed = {m: t for m, t in result.recorder.deviations.items() if "zero" in m}
        assert list(collapsed) == [
            f"vc {v}: rate decayed to zero; keep-alive RM probing engaged" for v in vcs
        ]
        assert list(collapsed.values()) == times


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
    assert part_ids(Engine(to_topology(parse_scenario(text)))) == [["v1"], ["v2"], ["v3"]]
    split, serial = tmp_path / "split", tmp_path / "serial"
    execute_run(parse_scenario(text), split, processes=processes)
    execute_run(parse_scenario(text), serial, processes=1)
    assert outputs(split) == outputs(serial)
    samples = outputs(serial)["queues_sw1.csv"].splitlines()[1:]
    assert any(not row.endswith(b",0.000000") for row in samples)  # the ports queue


def idle_switch_scenario():
    """A switch that no VC crosses, a VC whose path has no switch (a part
    that samples no switch), and a VC through a switch."""
    lines = ["[source.s1]", "[source.s2]", "[switch.sw1]", "[switch.idle]"]
    for name, a, b in (("a", "s1", "d1"), ("b", "s2", "sw1"), ("c", "sw1", "d2")):
        lines += [f"[link.{name}]", f"from = {a}", f"to = {b}"]
    lines += ["[vc.direct]", "path = s1, d1", "[vc.via]", "path = s2, sw1, d2"]
    lines += ["[run]", "until_ms = 20"]
    return "\n".join(lines) + "\n"


def test_a_switch_that_no_vc_crosses_samples_zero_with_any_cpu_count_or_no_fork(
    tmp_path, monkeypatch
):
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(idle_switch_scenario(), encoding="utf-8")
    assert part_ids(Engine(to_topology(parse_scenario(cfg.read_text())))) == [["direct"], ["via"]]
    runs = {}
    for way in ("1", "2", "no-fork"):
        with monkeypatch.context() as patch:
            if way == "no-fork":
                patch.delattr(os, "fork")
            else:
                patch.setattr(os, "cpu_count", lambda: int(way))
            assert main(["run", str(cfg), "--out", str(tmp_path / way)]) == 0
        runs[way] = outputs(tmp_path / way)
    assert runs["1"] == runs["2"] == runs["no-fork"]
    zeros = "".join(f"{ms}.000000,0.000000\n" for ms in range(1, 21))
    assert runs["1"]["queues_idle.csv"] == f"time_ms,value\n{zeros}".encode()
    assert runs["1"]["queues_sw1.csv"] != runs["1"]["queues_idle.csv"]  # via queues at sw1


# fig3 runs that part independence and equal parts are checked on: crm 32
# past the first feedback (at about 550 ms), crm 6144 past the first
# delivery (at 275 ms; before it, neither trace has a row) and cdf = 1 to
# 40 ms, by when its rate has decayed to zero
FIG3_PROPERTY_RUNS = {"crm32": (600, {"crm": 32}), "crm6144": (300, {"crm": 6144}),
                      "cdf1": (40, {"cdf": 1})}


@pytest.fixture(scope="module")
def fig3_runs(tmp_path_factory):
    """Each fig3 property run's outputs, in full and with ``[vc.rev]`` deleted."""
    root = tmp_path_factory.mktemp("fig3-properties")
    runs = {}
    for case, (until_ms, overrides) in FIG3_PROPERTY_RUNS.items():
        for label, dropped in (("full", ()), ("fwd-alone", ("rev",))):
            sc = fig3(until_ms, **overrides)
            for vc_id in dropped:
                del sc.vcs[vc_id]
            execute_run(sc, root / case / label, processes=2)
            runs[case, label] = outputs(root / case / label)
    return runs


@pytest.mark.parametrize("case", list(FIG3_PROPERTY_RUNS))
def test_deleting_fig3s_rev_part_leaves_fwds_traces_byte_identical(fig3_runs, case):
    full, alone = fig3_runs[case, "full"], fig3_runs[case, "fwd-alone"]
    assert "acr_rev.csv" not in alone
    for name in ("acr_fwd.csv", "recv_fwd.csv"):
        assert alone[name] == full[name], name
    assert any(full[name].count(b"\n") > 1 for name in ("acr_fwd.csv", "recv_fwd.csv"))
    if case == "crm32":  # feedback has reached the source
        assert b"vc.fwd.first_backward_rm_ms = -" not in full["meta.txt"]


@pytest.mark.parametrize("case", list(FIG3_PROPERTY_RUNS))
def test_fig3s_mirror_image_parts_write_equal_bytes(fig3_runs, case):
    full = fig3_runs[case, "full"]
    for trace in ("acr", "recv"):
        assert full[f"{trace}_fwd.csv"] == full[f"{trace}_rev.csv"], trace


@pytest.mark.parametrize("seed", [3, 4, 20])
def test_deleting_a_part_leaves_every_other_vcs_traces_byte_identical(tmp_path, seed):
    sc = parse_scenario(scenario_text(seed))
    dropped, *kept = part_ids(Engine(to_topology(sc)))
    full = outputs(execute_run(sc, tmp_path / "full", processes=1).out_dir)
    for vc_id in dropped:
        del sc.vcs[vc_id]
    rest = outputs(execute_run(sc, tmp_path / "rest", processes=1).out_dir)
    names = [f"{trace}_{vc_id}.csv" for part in kept for vc_id in part
             for trace in ("acr", "recv")]
    assert kept and all(rest[name] == full[name] for name in names)
    assert not any(f"recv_{vc_id}.csv" in rest for vc_id in dropped)


def pending_order(part):
    """The part's TICK, EMITs and cells in flight in ``(time, seq)`` order,
    which is key order, by their times and what they are rather than by
    their sequence numbers."""
    entries = []
    for key, kind, payload in part.heap:
        if kind == engine._TICK:
            entries.append((key, "tick"))
        elif kind == engine._EMIT:
            entries.append((key, payload.vc_id, "emit"))
    for vc_id, vc in part.vcs.items():
        for i, line in enumerate((*vc.fwd, *vc.bwd)):
            entries += [(key, vc_id, i) for key in line]
    return [(key >> 64, *label) for key, *label in sorted(entries, key=lambda e: e[0])]


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
    # A part that comes back from a worker takes the place of the
    # parent's copy, and the engine then runs on serially.
    sc = parse_scenario(text)
    sc.run.until_ms = split_ms
    split = execute_run(sc, tmp_path, processes=2).engine
    serial = Engine(to_topology(parse_scenario(text)))
    serial.run_until(ms_to_ps(split_ms))
    assert len(serial.parts) > 1
    # Some entries of a part other than the first are due at its next
    # TICK's time; on the long hop some of them come before that TICK,
    # which each part schedules from its own counter.
    order = pending_order(serial.parts[1])
    tick = next(label for label in order if label[1] == "tick")
    due = [label for label in order if label[0] == tick[0]]
    assert len(due) > 1
    if split_ms == 2.5:
        assert due[0] != tick
    for mine, theirs in zip(split.parts, serial.parts, strict=True):
        assert pending_order(mine) == pending_order(theirs)
    serial.audit()  # as ``execute_run`` did
    for eng in (split, serial):
        eng.run_until(ms_to_ps(until_ms))
    assert snapshot(split) == snapshot(serial)
    for mine, theirs in zip(split.parts, serial.parts, strict=True):
        assert pending_order(mine) == pending_order(theirs)


@pytest.mark.parametrize("scenario", [
    lambda: fig3(40, crm=6144),
    lambda: parse_scenario(scenario_text(0)),
    lambda: parse_scenario(scenario_text(3)),  # its sinks hold times at 5 ms
], ids=["fig3-crm6144", "seed-0", "seed-3"])
def test_a_split_after_a_serial_prefix_runs_as_a_serial_one(scenario):
    # The workers start from parts that already hold cells in flight,
    # sink times and open measurement intervals.
    split, serial = (Engine(to_topology(scenario())) for _ in range(2))
    split.run_until(ms_to_ps(5))
    assert any(any(vc.fwd) for vc in split.vcs.values())
    assert any(p.accum_cells for sw in split.switches.values() for p in sw.ports.values())
    split.run_parts(ms_to_ps(40), 2)
    serial.run_until(ms_to_ps(40))
    assert len(serial.parts) > 1
    assert snapshot(split) == snapshot(serial)
    assert_no_child_left()


@pytest.mark.parametrize("raised, code, message", [
    (SimulationError, 1, "internal invariant failure: injected"),
    (ValueError, 2, "error: injected"),
])
@pytest.mark.parametrize("holder", ["rev", "fwd"], ids=["worker", "parent"])
def test_a_failing_part_fails_the_run_and_leaves_no_process(
    tmp_path, monkeypatch, capsys, raised, code, message, holder
):
    # ``rev`` runs in the forked worker and ``fwd`` in the parent; each
    # part audits itself at its TICKs.
    audit = Part.audit

    def failing_audit(self):
        if list(self.vcs) == [holder]:
            raise raised("injected")
        return audit(self)

    monkeypatch.setattr(Part, "audit", failing_audit)
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # split on any host
    argv = ["run", "fig3.cfg", "--until-ms", "3", "--out", str(tmp_path)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert_no_child_left()


def test_a_worker_that_sends_no_result_fails_the_run(tmp_path, monkeypatch, capsys):
    audit, parent = Part.audit, os.getpid()

    def dying_audit(self):
        if list(self.vcs) == ["rev"] and os.getpid() != parent:
            os._exit(3)  # the worker ends before it sends its parts
        return audit(self)

    monkeypatch.setattr(Part, "audit", dying_audit)
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(["run", "fig3.cfg", "--until-ms", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"internal invariant failure: worker process \d+ sent no result\n", err)
    assert_no_child_left()


def test_of_two_failing_workers_the_earlier_part_is_reported(tmp_path, monkeypatch):
    # v2 fails after v3 has: the run reports v2's failure, not the first to arrive.
    audit, parent = Part.audit, os.getpid()

    def failing_audit(self):
        if os.getpid() != parent:
            (vc,) = self.vcs
            if vc == "v2":
                time.sleep(0.3)
            raise SimulationError(f"injected in {vc}")
        return audit(self)

    monkeypatch.setattr(Part, "audit", failing_audit)
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)
    with pytest.raises(SimulationError, match="^injected in v2$"):
        execute_run(parse_scenario(three_part_scenario()), tmp_path, processes=3)
    assert_no_child_left()


def test_without_fork_a_run_writes_what_a_split_run_writes(tmp_path, monkeypatch):
    argv = ["run", "fig3.cfg", "--until-ms", "40", "--out"]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main([*argv, str(tmp_path / "split")]) == 0
    monkeypatch.delattr(os, "fork")
    assert main([*argv, str(tmp_path / "here")]) == 0
    assert outputs(tmp_path / "here") == outputs(tmp_path / "split")


def test_a_split_run_leaves_no_process(tmp_path):
    execute_run(fig3(3), tmp_path, processes=2)
    assert_no_child_left()


def test_a_failed_fork_kills_the_started_workers_and_closes_every_pipe(monkeypatch):
    fork, pipe, pipes = os.fork, os.pipe, []

    def fork_once():
        if len(pipes) > 1:  # the second worker's fork fails
            raise BlockingIOError("injected")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    start = time.monotonic()
    with pytest.raises(BlockingIOError, match="injected"):
        forked([(time.sleep, 30), (time.sleep, 30)], 2)
    assert time.monotonic() - start < 10  # the first worker was killed, not waited for
    assert len(pipes) == 2
    for fd in (fd for ends in pipes for fd in ends):
        with pytest.raises(OSError):
            os.fstat(fd)
    assert_no_child_left()


def test_a_worker_sends_what_will_not_pickle_as_a_simulation_error():
    def raise_unpicklable():
        raise ValueError(lambda: 0)

    jobs = {"raised": (raise_unpicklable,), "returned": (lambda: lambda: 0,),
            "sent": (lambda: [7] * 3,)}
    outcomes = dict(zip(jobs, forked(list(jobs.values()), 3)))
    assert outcomes["sent"] == (None, [7, 7, 7])
    raised, returned = outcomes["raised"], outcomes["returned"]
    assert isinstance(raised[0], SimulationError) and raised[1] is None
    assert str(raised[0]).startswith("ValueError(<function")
    assert isinstance(returned[0], SimulationError) and returned[1] is None
    assert "pickle" in str(returned[0])
    assert_no_child_left()
