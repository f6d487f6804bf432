"""Seeded random scenarios: pinned outputs and run-wide properties.

Each seed draws 1-3 switches in a chain and 1-4 VCs, each VC from its own
source along the chain, in either direction, to the destination at that
end, so that VCs bound for one end share its egress port; with
crm, cdf, nrm, rif, MCR and the switch parameters drawn from their valid
sets.  Every link runs at 84.8 Mbps, so a cell takes exactly 5 us on any
link; sources start at pcr = icr with a 5, 10 or 20 us cell gap, hop
delays lie on the 20 us grid and measurement intervals last 10, 20 or
40 us.  Arrivals, stamps and interval deadlines therefore share
picoseconds, which reaches the switch's tie rule (a deadline equal to
``now`` stays open) and the engine's (equal times run in scheduling order).

Each seed runs split into its parts (``Engine.parts``) and serially; the
two must write the same bytes.  One sha256 over the CSV files pins the
outputs.  A run with every part built as the per-cell ``Part`` must
write them too, but for ``events_processed``; the properties are checked
on it.
"""

import hashlib
import random

import pytest

from abrsim import engine
from abrsim.analysis import VALID_CDF
from abrsim.cli import execute_run
from abrsim.scenario import parse_scenario
from abrsim.switch import PortState
from abrsim.units import PS_PER_US, cell_tx_time, ms_to_ps
from conftest import cpus, per_cell, without_events

HORIZON_MS = 3
CELL_US = 5  # one cell at LINK_MBPS
LINK_MBPS = "84.8"
PCR_MBPS = {5: "84.8", 10: "42.4", 20: "21.2"}  # by cell gap in us


def scenario_text(seed: int) -> str:
    rng = random.Random(seed)
    n_sw = rng.randint(1, 3)
    lines = []
    for k in range(1, n_sw + 1):
        lines += [
            f"[switch.sw{k}]",
            f"target_utilization = {rng.choice((0.5, 0.9, 1))}",
            f"interval_cells = {rng.choice((5, 30))}",
            f"interval_us = {rng.choice((10, 20, 40))}",
        ]
    # d1 hangs off sw1 and d2 off the last switch: VCs bound for one of
    # them share its egress port.
    links = [(f"core{k}", f"sw{k}", f"sw{k + 1}") for k in range(1, n_sw)]
    links += [("out1", "sw1", "d1"), ("out2", f"sw{n_sw}", "d2")]
    for j in range(1, rng.randint(1, 4) + 1):
        pcr = PCR_MBPS[rng.choice(sorted(PCR_MBPS))]
        lines += [
            f"[source.s{j}]",
            f"pcr_mbps = {pcr}",
            f"icr_mbps = {pcr}",
            f"mcr_mbps = {rng.choice(('0', '2.12'))}",
            f"nrm = {rng.choice((4, 8, 32))}",
            f"rif = {rng.choice(('1', '1/16'))}",
            f"cdf = {rng.choice(sorted(VALID_CDF))}",
            f"crm = {rng.choice((1, 2, 8, 32))}",
        ]
        entry, dest = rng.randint(1, n_sw), rng.choice((1, 2))
        hops = range(entry, 0, -1) if dest == 1 else range(entry, n_sw + 1)
        lines += [f"[vc.v{j}]", f"path = s{j}, {', '.join(f'sw{k}' for k in hops)}, d{dest}"]
        links.append((f"in{j}", f"s{j}", f"sw{entry}"))
    for name, a, b in links:
        lines += [f"[link.{name}]", f"from = {a}", f"to = {b}", f"rate_mbps = {LINK_MBPS}"]
        lines += [f"delay_us = {rng.choice((0, 20, 40, 100))}"]
    lines += ["[run]", f"until_ms = {HORIZON_MS}"]
    return "\n".join(lines) + "\n"


# sha256 over the sorted CSV names and bytes of each seed's run
PINNED = [
    "33827fd71d9ebcd7925799f90936e826e47b94aa6c9d8624456b5af27d82e3f5",
    "74a898d26660fa53fdc34608bf7ca7131fb045e7dac592941a303688d89833e3",
    "3b2d4800a534e59bf06303656b68a4649d9700a0e57dd15119c8bec7e5fb9f39",
    "726373b79c77da879a67613af02181de2b435c05b640d82887bf908a9cfa9792",
    "2ca9c0c309756292e94bd5d10bec34471ddda43edbb1383598f87bc3eac0de21",
    "5d44db0fb29721c29350f94d977a5ec9fbaa757fc1a72b1995e62b7d21222544",
    "185b4246e379e3c1e69e9696a9457c576ca36564a13d0e5c17746f7422e56c02",
    "bc2f6507192e166363c875fd2fb2f02cfa53a49f01211d6f4362df0372b5058a",
    "d325169b3d8df5fe63db2064ff6ddca8c1a4ea11b6e4e32006c95977cbfaadee",
    "67e02d2e421edae4e712c333a774352607642ab36aa9b8f79f5c06f8e3e09060",
    "8661c6c81177fc853587ae156d5638c20351b4454d5c72cdb8590bd9962837c3",
    "352a6107e28e0dfa48ed6572b274fe47de545d34ecac3c2aace490c8f168077d",
    "4726c65e308f1dfc19edc0283e62b15926593cc33fb2f4a8aaaf872a35f6e0f5",
    "63e4433aeb48207d02e4a08d7acaaa495f313deef748a0512894ff7193b4c13c",
    "1be4774561403da18e911650d140bfe439b3043886eb2bcdeebe3ae27409f6cb",
    "2ba7ac86b47b27a5b42f9d678932805db3d3f4758058961f1cf4731d554837b3",
    "f59a2e412087383fd100aa3d6e1f128f30bf9ca6eda4868aab32496c16d79142",
    "f44ef6d49b85f548e6621c1ee83fdf16b4eb1ae60870261c1a8bd16f72d10c4c",
    "94c9b999763b8198576e040b511929e40f5416ac009bd0294a43fda459456599",
    "e7d5cb1000a71f0ea0a3f3f57c574283267f7f8406ec6c60e9cddda8f0e5264e",
    "71f63d784cb53dd1c374185e7c7d6cac85aff0447c98c0b29b3e9c1969538957",
    "836e9ba3b865d0b5fd25749ce1c05423e5b1755f6ead8ff48c0f73f85661315d",
    "a7ed77441a9311bdd7dc06449f595b8182e5ec5d1d51d2365b2dfe1f7dca30fa",
    "5f5c646c082598e67f4769d608bc09ed82ae4131141558d30cb7f041ce27658b",
]
SEEDS = range(len(PINNED))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scenario(tmp_path, monkeypatch, seed):
    text = scenario_text(seed)
    stamps = []
    stamp = PortState.stamp_backward

    def checked_stamp(port, rm, vc_id, now):
        stamp(port, rm, vc_id, now)
        stamps.append((rm.er, port.target_rate))

    monkeypatch.setattr(PortState, "stamp_backward", checked_stamp)
    monkeypatch.setattr(engine, "_AUDIT_EVERY_TICKS", 1)  # audit at every ms
    runs = []
    # The run split into its parts, then the serial one.  A forked part's
    # stamps never reach ``stamps``, so only the serial run, which holds
    # every part in this process, is observed.
    for n in (2, 1):
        out = tmp_path / str(n)
        stamps.clear()
        with cpus(n):
            result = execute_run(parse_scenario(text), out)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append(files)
    assert runs[0] == runs[1]  # byte-identical, meta.txt included
    # The per-cell parts write the same, but for the events they count.
    # They hold delay lines, which the properties below read; their stamps
    # join the serial run's.
    with per_cell(), cpus(1):
        result = execute_run(parse_scenario(text), tmp_path / "per-cell")
    per_cell_files = {p.name: p.read_bytes() for p in sorted(result.out_dir.iterdir())}
    assert without_events(per_cell_files) == without_events(runs[0])

    digest = hashlib.sha256()
    for name, data in runs[0].items():
        if name.endswith(".csv"):
            digest.update(name.encode() + b"\0" + data)
    assert digest.hexdigest() == PINNED[seed]

    eng = result.engine
    assert eng.recorder.audits_passed == HORIZON_MS + 1  # every tick, then the end
    horizon = ms_to_ps(HORIZON_MS)
    for vc_id, vc in eng.vcs.items():
        params = vc.params
        assert all(params.mcr <= acr <= params.pcr for acr in eng.recorder.acr[vc_id].values)
        # one cell per PCR gap from t = 0 at most, and no more than were sent
        bound = horizon // cell_tx_time(params.pcr) + 1
        assert vc.delivered <= min(vc.state.cells_sent_total, bound)
    for sw in eng.switches.values():
        for port in sw.ports.values():
            served = [v for v in eng.vcs.values() if any(line.port is port for line in v.fwd)]
            carried = sum(v.delivered for v in served)
            assert carried <= horizon // (CELL_US * PS_PER_US)  # first departs at one cell
    assert stamps and all(er <= target for er, target in stamps)
