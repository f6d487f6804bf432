"""A one-VC part runs from its RM cells and reports what the per-cell part does.

``engine.part_type`` builds a part of one VC with no port slower than the
VC's PCR as a ``OneVcPart``, whose data cells take no event.  The
per-cell ``Part`` is its reference: each test here builds the same
engine both ways (``conftest.per_cell``) and asks for the same traces,
source states, counts, port maxima, audit reports and final ``now``,
whether ``run_until`` runs whole, in 1 ms slices or to each pending event.

The one-VC part rests on a fact of the per-cell path, tested here too:
with one VC a port offers its target rate whatever it has measured, so a
one-VC part's traces do not depend on its switches' interval parameters.
"""

from dataclasses import replace

import pytest

from abrsim import engine
from abrsim.cli import apply_override
from abrsim.engine import Engine, OneVcPart, Part, part_type
from abrsim.scenario import bundled_config_text, parse_scenario, to_topology
from abrsim.units import ms_to_ps, us_to_ps
from conftest import per_cell
from test_engine import run_in_ms_slices, run_to_each_pending_time, run_whole
from test_parts import long_hop_scenario, two_collapsing_parts
from test_random_scenarios import HORIZON_MS, SEEDS, scenario_text

DRIVES = [run_whole, run_in_ms_slices, run_to_each_pending_time]


def each_event_for_40_ms_then_whole(eng, t_end):
    # Stepping to each pending event steps to each cell's EMIT: about 5 us
    # a step, or 2 s for fig3 at full rate to 600 ms.
    run_to_each_pending_time(eng, ms_to_ps(40))
    eng.run_until(t_end)


def fig3_fwd(**overrides):
    """fig3's ``fwd`` part alone, with source overrides."""
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    del sc.vcs["rev"]
    for param, value in overrides.items():
        apply_override(sc, param, value)
    return to_topology(sc)


def one_vc_parts_of(seed):
    """Seed ``seed``'s scenario with only the VCs of its one-VC parts, or None."""
    topology = to_topology(parse_scenario(scenario_text(seed)))
    kept = [vc for part in Engine(topology).parts if type(part) is OneVcPart for vc in part.vcs]
    if not kept:
        return None
    topology.vcs = tuple(spec for spec in topology.vcs if spec.vc_id in kept)
    return topology


ONE_VC_SEEDS = [seed for seed in SEEDS if one_vc_parts_of(seed) is not None]


def observed(eng):
    """What a run reports, read the same way from either kind of part."""
    rec = eng.recorder
    return {
        "now": eng.now,
        "acr": {vc: (trace.times, trace.values) for vc, trace in rec.acr.items()},
        "recv": {vc: list(times) for vc, times in rec.recv.items()},
        "queues": rec.queues,
        "first_backward": rec.first_backward,
        "deviations": list(rec.deviations.items()),
        "audits_passed": rec.audits_passed,
        "vcs": {vc_id: (vc.state, vc.delivered, vc.turned, vc.bwd_delivered)
                for vc_id, vc in eng.vcs.items()},
        "max_queue": {port.name: port.max_queue
                      for sw in eng.switches.values() for port in sw.ports.values()},
        "audit": eng.audit(),
    }


def run_both_ways(topology, t_end, drives, monkeypatch):
    """The per-cell engine run whole, then a default engine under each of
    ``drives``: for each, what it reports, what its audits reported inside
    the loop, by part and time, and the engine."""
    audits = []
    for cls in (Part, OneVcPart):
        def recorded(part, audit=cls.audit):
            report = audit(part)
            audits.append((tuple(part.vcs), part.now, report))
            return report

        monkeypatch.setattr(cls, "audit", recorded)
    with per_cell():
        engines = [Engine(topology)]
    engines += [Engine(topology) for _ in drives]
    runs = []
    for eng, drive in zip(engines, (run_whole, *drives)):
        audits.clear()
        drive(eng, t_end)
        runs.append((observed(eng), sorted(audits, key=lambda audit: audit[:2]), eng))
    return runs


def assert_same_as_per_cell(topology, t_end, drives, monkeypatch):
    (reference, reference_audits, per_cell_engine), *runs = run_both_ways(
        topology, t_end, drives, monkeypatch
    )
    assert {type(part) for part in per_cell_engine.parts} == {Part}
    for (seen, audits, eng), drive in zip(runs, drives):
        assert {type(part) for part in eng.parts} == {OneVcPart}, drive.__name__
        assert seen == reference, drive.__name__
        assert audits == reference_audits, drive.__name__
        assert eng.events_processed < per_cell_engine.events_processed
    return reference


@pytest.mark.parametrize("until_ms", [HORIZON_MS, 40])
@pytest.mark.parametrize("seed", ONE_VC_SEEDS)
def test_every_seeded_one_vc_part_runs_as_the_per_cell_part(monkeypatch, seed, until_ms):
    # A TICK audits at every ms, so that the audits that see events due
    # at the TICK's own time after it are compared too.
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)
    reference = assert_same_as_per_cell(
        one_vc_parts_of(seed), ms_to_ps(until_ms), DRIVES, monkeypatch
    )
    assert sum(map(len, reference["recv"].values()))


@pytest.mark.parametrize("scenario, until_ms", [
    # fig3 over a 2 ms hop: a cell reaches sw2's port at a TICK's time and,
    # scheduled before that TICK, counts in its sample
    (lambda: parse_scenario(long_hop_scenario()), 9),
    # two parts whose rates fall to zero at one picosecond
    (lambda: two_collapsing_parts(16), 20),
], ids=["long-hop", "tie-across-parts"])
def test_one_vc_parts_at_a_tick_or_at_zero_rate_run_as_per_cell_parts(
    monkeypatch, scenario, until_ms
):
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)
    assert_same_as_per_cell(to_topology(scenario()), ms_to_ps(until_ms), DRIVES, monkeypatch)


def test_the_seeds_reach_the_rules_a_one_vc_part_derives():
    # A cell that reaches a port at a TICK's time counts in its sample only
    # if its arrival runs first (``OneVcPart._ahead_of_tick``), and one that
    # reaches it as its predecessor departs makes a backlog of 2.
    ties = paired = 0
    for seed in ONE_VC_SEEDS:
        eng = Engine(one_vc_parts_of(seed))
        eng.run_until(ms_to_ps(HORIZON_MS))
        for part in eng.parts:
            sent = set(part.sent)
            ties += sum(ms_to_ps(t) - at in sent
                        for t in range(1, HORIZON_MS + 1) for at in part.arrive[1:-1])
            paired += max(port.max_queue for port in part.ports.values()) == 2
    assert ties
    assert paired == 9


FIG3_RUNS = {
    "crm32": (1200, {"crm": 32}),  # rule-6 cuts, then feedback at 550 ms
    "crm6144": (600, {"crm": 6144}),  # full rate, about 100,000 cells on the satellite hop
    "cdf1": (1200, {"cdf": 1}),  # ACR falls to 0: only RM cells
}


@pytest.mark.parametrize("case", list(FIG3_RUNS))
def test_fig3s_part_runs_as_the_per_cell_part_to_the_full_horizon(monkeypatch, case):
    until_ms, overrides = FIG3_RUNS[case]
    reference = assert_same_as_per_cell(
        fig3_fwd(**overrides), ms_to_ps(until_ms),
        [run_whole, run_in_ms_slices, each_event_for_40_ms_then_whole], monkeypatch
    )
    assert reference["first_backward"]  # feedback reached the source


def test_a_one_vc_parts_traces_do_not_depend_on_its_interval_parameters():
    # On the per-cell path: fig3's part past the first feedback, then
    # every seeded one-VC part, with a count and a time limit that close
    # intervals at other moments.
    cases = [(fig3_fwd(crm=32), 700)]
    cases += [(one_vc_parts_of(seed), HORIZON_MS) for seed in ONE_VC_SEEDS]
    for topology, until_ms in cases:
        runs = []
        for limits in ({}, {"interval_cell_limit": 3, "interval_time_limit": us_to_ps(977)}):
            topology.switch_params = {
                name: replace(params, **limits) for name, params in topology.switch_params.items()
            }
            with per_cell():
                eng = Engine(topology)
            eng.run_until(ms_to_ps(until_ms))
            runs.append(observed(eng))
        assert runs[0] == runs[1]
        assert runs[0]["first_backward"] or until_ms == HORIZON_MS  # fig3's feedback came


def slow_port_scenario():
    """One VC at 155.52 Mbps whose last hop runs at 42.4 Mbps: cells queue."""
    return to_topology(parse_scenario(
        "[switch.sw1]\n[link.a]\nfrom = s1\nto = sw1\n"
        "[link.b]\nfrom = sw1\nto = d1\nrate_mbps = 42.4\n"
        "[vc.main]\npath = s1, sw1, d1\n"
    ))


def test_the_chooser_takes_one_vc_parts_that_no_port_slows():
    fig3 = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    assert [type(part) for part in Engine(fig3).parts] == [OneVcPart, OneVcPart]
    kinds = [type(part) for seed in SEEDS
             for part in Engine(to_topology(parse_scenario(scenario_text(seed)))).parts]
    assert (kinds.count(OneVcPart), len(kinds)) == (24, 40)
    # a port slower than the VC's PCR: its cells wait, so the part is per-cell
    slow = slow_port_scenario()
    assert part_type(slow, list(slow.vcs)) is Part
    eng = Engine(slow)
    assert [type(part) for part in eng.parts] == [Part]
    eng.run_until(ms_to_ps(1))
    assert eng.switches["sw1"].ports["d1"].max_queue > 2
