"""Acceptance suite: every contract criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Two checks are known to fail and are kept failing on purpose: the
small-threshold regime's reference window throughputs (32 and 45 Mbps,
check 1c) and its cdf-insensitive steady state below 60 Mbps (check 3).
The per-RM-cell decay law that checks 5 and 1d pin down (and that this
package implements) sends roughly a tenth as many cells before feedback
arrives and oscillates harder afterwards (3.03 and 81.68 Mbps in the 1c
windows).  A cutoff that clears its counter each time it fires does not
reach them either: at cdf=1/16 it gives 31.20 Mbps early but 139.95 Mbps
late, and steady states of 95.64, 74.17 and 1.99 Mbps at cdf 1/64, 1/16
and 1.  The README carries the full numbers.
"""

import hashlib
import math
import random
import time
from pathlib import Path

import pytest

from abrsim.analysis import (
    PathSpec,
    crm_from_tbe,
    decay_after,
    decay_closed_form,
    flight_capacity,
    min_crm,
    trigger_predicate,
)
from abrsim.cli import apply_override, execute_run, steady_state_mbps
from abrsim.metrics import oscillation_count, throughput
from abrsim.scenario import bundled_config_text, parse_scenario
from abrsim.units import mbps_to_cps, ms_to_ps, ps_to_ms

OC3 = mbps_to_cps(155.52)


def check(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


class RunBundle:
    def __init__(self, result, elapsed):
        self.result = result
        self.elapsed = elapsed
        self.recorder = result.recorder
        self.engine = result.engine


def run_bundled(out_dir, crm=None, cdf=None, until_ms=None):
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    if crm is not None:
        apply_override(sc, "crm", crm)
    if cdf is not None:
        apply_override(sc, "cdf", cdf)
    if until_ms is not None:
        sc.run.until_ms = until_ms
    start = time.perf_counter()
    result = execute_run(sc, out_dir)
    return RunBundle(result, time.perf_counter() - start)


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    """Small-threshold regime: crm=32 on the satellite path, 1200 ms."""
    return run_bundled(tmp_path_factory.mktemp("fig4"))


@pytest.fixture(scope="module")
def fig5(tmp_path_factory):
    """Properly sized threshold: crm=6144, 1200 ms."""
    return run_bundled(tmp_path_factory.mktemp("fig5"), crm=6144)


@pytest.fixture(scope="module")
def cdf_sweep(fig4, tmp_path_factory):
    """crm=32 runs at cdf 1/64, 1/16 and 1; fig3.cfg's own cdf is 1/16, so
    that member is the ``fig4`` run."""
    runs = {}
    for text, value in (("1/64", 1 / 64), ("1/16", 1 / 16), ("1", 1.0)):
        if value == 1 / 16:
            runs[text] = fig4
            continue
        out = tmp_path_factory.mktemp(f"cdf_{text.replace('/', '_')}")
        runs[text] = run_bundled(out, cdf=value)
    return runs


# -- criterion 1: small-threshold regime ------------------------------------


def test_1a_first_cut_after_exactly_1024_cells(fig4):
    firsts = {vc_id: vc.state.first_rule6_cells for vc_id, vc in fig4.engine.vcs.items()}
    check(
        "1a (cutoff first fires after crm*nrm cells)",
        all(v == 1024 for v in firsts.values()),
        f"cells at first cut: {firsts} (expected 1024; run took {fig4.elapsed:.1f}s)",
    )


def test_1b_first_feedback_after_one_round_trip(fig4):
    first_ms = {v: ps_to_ms(t) for v, t in fig4.recorder.first_backward.items()}
    check(
        "1b (first backward RM at 550 ms +/- 1 ms)",
        all(549.0 <= t <= 551.0 for t in first_ms.values()),
        f"first backward RM: { {v: round(t, 3) for v, t in first_ms.items()} } ms",
    )


def test_1c_window_throughputs_match_reference_values(fig4):
    trace = fig4.recorder.recv["fwd"]
    w1 = throughput(trace, ms_to_ps(275), ms_to_ps(825))
    w2 = throughput(trace, ms_to_ps(825), ms_to_ps(1200))
    ok = (abs(w1 - 32.0) <= 0.3 * 32.0) and (abs(w2 - 45.0) <= 0.3 * 45.0)
    check(
        "1c (window throughputs 32 / 45 Mbps +/- 30%)",
        ok,
        f"[275,825] = {w1:.2f} Mbps (need 22.4..41.6), "
        f"[825,1200] = {w2:.2f} Mbps (need 31.5..58.5)",
    )


def test_1d_rate_oscillates_between_extremes_after_feedback(fig4):
    counts = {
        vc: oscillation_count(
            fig4.recorder.acr[vc],
            mbps_to_cps(10),
            mbps_to_cps(130),
            ms_to_ps(825),
            ms_to_ps(1200),
        )
        for vc in fig4.recorder.acr
    }
    check(
        "1d (>= 3 low/high rate oscillations in [825, 1200] ms)",
        all(c >= 3 for c in counts.values()),
        f"oscillation counts: {counts}",
    )


# -- criterion 2: properly sized threshold -----------------------------------


def test_2_large_crm_restores_full_rate(fig5):
    floor = mbps_to_cps(130.0)
    acr_ok = True
    mins = {}
    for vc, trace in fig5.recorder.acr.items():
        lowest = min([trace.initial] + list(trace.values))
        mins[vc] = lowest
        acr_ok = acr_ok and lowest >= floor
    thr = throughput(fig5.recorder.recv["fwd"], ms_to_ps(550), ms_to_ps(1200))
    check(
        "2 (crm=6144: ACR >= 130 Mbps throughout, throughput >= 126 Mbps)",
        acr_ok and thr >= 126.0,
        f"min ACR = { {v: round(m * 424 / 1e6, 3) for v, m in mins.items()} } Mbps, "
        f"throughput[550,1200] = {thr:.2f} Mbps (run took {fig5.elapsed:.1f}s)",
    )


# -- criterion 3: cdf insensitivity -------------------------------------------


def test_3_steady_throughput_insensitive_to_cdf(cdf_sweep):
    steady = {
        text: steady_state_mbps(bundle.result)["fwd"] for text, bundle in cdf_sweep.items()
    }
    values = list(steady.values())
    ok = all(v < 60.0 for v in values) and max(values) <= 2 * min(values)
    check(
        "3 (cdf sweep at crm=32: all steady-state < 60 Mbps, within 2x)",
        ok,
        f"steady-state Mbps: { {k: round(v, 2) for k, v in steady.items()} }",
    )


# -- criterion 4: sizing formulas ---------------------------------------------


def test_4_sizing_formulas():
    oc3_crm = min_crm(PathSpec(rtt=ms_to_ps(550), link_rate=OC3, nrm=32))
    within_5pct = abs(oc3_crm - 6144) / 6144 <= 0.05
    oc12_crm = min_crm(PathSpec(rtt=ms_to_ps(550), link_rate=mbps_to_cps(622.08), nrm=32))
    slack_ok = 0 <= 4 * oc3_crm - oc12_crm <= 3
    hops_ok = all(
        min_crm(PathSpec(rtt=ms_to_ps(550), link_rate=mbps_to_cps(622.08), nrm=32, hops=n))
        == n * oc12_crm
        for n in (1, 2, 3, 5, 8)
    )
    check(
        "4 (sizing: ~6144 for OC-3, 4x for OC-12, exact hop multiplier)",
        within_5pct and slack_ok and hops_ok,
        f"OC-3 -> {oc3_crm} (|{oc3_crm}-6144|/6144 = {abs(oc3_crm - 6144) / 6144:.2%}), "
        f"OC-12 -> {oc12_crm}, hops multiplier exact: {hops_ok}",
    )


# -- criterion 5: decay oracle equivalence --------------------------------------


def test_5_decay_closed_form_and_simulated_trace_agree(fig4):
    rng = random.Random(5150)
    worst = 0.0
    for _ in range(10**4):
        icr = rng.uniform(1.0, 4e5)
        cdf = rng.choice((0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0))
        mcr = rng.choice((0.0, icr * rng.random()))
        k = rng.randint(0, 400)
        iterated = decay_after(icr, cdf, mcr, k)
        closed = decay_closed_form(icr, cdf, mcr, k)
        if closed != 0.0:
            worst = max(worst, abs(iterated - closed) / closed)
        else:
            worst = max(worst, abs(iterated))
    forms_ok = worst <= 1e-9

    # During [0, 550 ms] no feedback reaches the source, so every ACR
    # change in the trace is one cutoff decrement; the trace must equal
    # the iterated-decrement calculator value for value, bit for bit.
    trace = fig4.recorder.acr["fwd"]
    params = fig4.engine.vcs["fwd"].params
    first_feedback = fig4.recorder.first_backward["fwd"]
    sim_values = [v for t, v in zip(trace.times, trace.values) if t < first_feedback]
    expected = [decay_after(params.icr, params.cdf, params.mcr, k) for k in range(len(sim_values))]
    trace_ok = len(sim_values) > 50 and sim_values == expected
    check(
        "5 (decay: closed form within 1e-9; simulated trace exact)",
        forms_ok and trace_ok,
        f"worst closed-vs-iterated deviation = {worst:.2e}; "
        f"{len(sim_values)} no-feedback cuts matched exactly: {trace_ok}",
    )


# -- criterion 6: trigger predicate boundary -------------------------------------


def test_6_trigger_boundary_and_scale_invariance():
    rng = random.Random(66)
    boundary_ok = True
    below_ok = True
    scale_ok = True
    for _ in range(5000):
        r = rng.uniform(1e-3, 1e6)
        crm = rng.randint(1, 2**19)
        boundary = crm * r
        boundary_ok = boundary_ok and trigger_predicate(boundary, r, crm)
        below_ok = below_ok and not trigger_predicate(math.nextafter(boundary, 0.0), r, crm)
        # exact scaling by powers of two, including at the boundary
        for alpha in (0.5, 2.0, 64.0):
            scale_ok = scale_ok and trigger_predicate(alpha * boundary, alpha * r, crm)
        # arbitrary positive scale away from the boundary
        fwd = rng.uniform(1e-3, 1e6)
        bwd = rng.uniform(0.0, 1e6)
        if not math.isclose(fwd, crm * bwd, rel_tol=1e-9):
            base = trigger_predicate(fwd, bwd, crm)
            for alpha in (rng.uniform(1e-6, 1e6), 3.7):
                scale_ok = scale_ok and trigger_predicate(alpha * fwd, alpha * bwd, crm) is base
    check(
        "6 (trigger: inclusive boundary, epsilon-below false, scale invariant)",
        boundary_ok and below_ok and scale_ok,
        f"boundary {boundary_ok}, below {below_ok}, scaling {scale_ok}",
    )


# -- criterion 7: crm/tbe relation ------------------------------------------------


def test_7_crm_tbe_ceiling_relation():
    rng = random.Random(77)
    props_ok = True
    for _ in range(10**5):
        tbe = rng.randint(1, 2**24)
        nrm = rng.randint(1, 256)
        crm = crm_from_tbe(tbe, nrm)
        props_ok = props_ok and crm * nrm >= tbe and (crm - 1) * nrm < tbe
    bits_ok = crm_from_tbe(2**24 - 1, 32) == 2**19
    check(
        "7 (crm = ceil(tbe/nrm); 24-bit tbe -> 19-bit crm)",
        props_ok and bits_ok,
        f"ceiling properties over 1e5 pairs: {props_ok}; "
        f"crm_from_tbe(2^24-1, 32) = {crm_from_tbe(2**24 - 1, 32)} (= 2^19: {bits_ok})",
    )


# -- criterion 8: determinism ------------------------------------------------------


def test_8_reruns_are_byte_identical(fig4, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("fig4_again")
    again = run_bundled(out2)
    first_dir = fig4.result.out_dir
    names = sorted(p.name for p in first_dir.glob("*.csv"))
    identical = bool(names)
    for name in names:
        a = (first_dir / name).read_bytes()
        b = (out2 / name).read_bytes()
        identical = identical and a == b
    check(
        "8 (two runs of a bundled scenario are byte-identical)",
        identical,
        f"compared {len(names)} CSV files: {names}",
    )


# -- golden outputs: CSVs stay byte-identical across code versions -------------

# sha256 of every CSV the module fixtures write.  Engine refactors must
# leave these untouched; meta.txt is not pinned because its
# events_processed line is expected to fall as the event set shrinks.
GOLDEN_CSV_SHA256 = {
    "fig4": {
        "acr_fwd.csv": "c2c3143521e4aa9bdbbcbd3344c9db7d45ae4d390fecb93a6cd1b33273d8f089",
        "acr_rev.csv": "c2c3143521e4aa9bdbbcbd3344c9db7d45ae4d390fecb93a6cd1b33273d8f089",
        "queues_sw1.csv": "5904a36305821d4ca94934f5e82f0d5ead4a3ff99240aa5bd36f1e8abe657091",
        "queues_sw2.csv": "5904a36305821d4ca94934f5e82f0d5ead4a3ff99240aa5bd36f1e8abe657091",
        "recv_fwd.csv": "d3bed7385d68a252387dfaa4feeed5d93a8da13075feb44f60b12a9319d6162d",
        "recv_rev.csv": "d3bed7385d68a252387dfaa4feeed5d93a8da13075feb44f60b12a9319d6162d",
        "summary.csv": "fed46bee660636364d5a40c4516a9d957cc89f759bf3f506b3af1c10b0dadde6",
    },
    "fig5": {
        "acr_fwd.csv": "2995b51d1b1fc73dbcc0ac4ff2039ac23a8ba01561561be57fd2091955330784",
        "acr_rev.csv": "2995b51d1b1fc73dbcc0ac4ff2039ac23a8ba01561561be57fd2091955330784",
        "queues_sw1.csv": "a80d9aef45d1de60a933e27d165d1ea5d125a7da59b6af4a4e1df8f2535c1912",
        "queues_sw2.csv": "a80d9aef45d1de60a933e27d165d1ea5d125a7da59b6af4a4e1df8f2535c1912",
        "recv_fwd.csv": "92bab00591cc1b83b147c572f4a8c42d8a6c9dd8f9fb11cc47ee5411e79ac175",
        "recv_rev.csv": "92bab00591cc1b83b147c572f4a8c42d8a6c9dd8f9fb11cc47ee5411e79ac175",
        "summary.csv": "7ecd9cc8bab6727bfa5968bd614124e0a447505e7f53e157dfeb18d1583b2898",
    },
    "cdf=1/64": {
        "acr_fwd.csv": "5240178a5c3a657c0d08a72dec53e569afc4d841797930bad93700f600042d83",
        "acr_rev.csv": "5240178a5c3a657c0d08a72dec53e569afc4d841797930bad93700f600042d83",
        "queues_sw1.csv": "902b5c0a663e29dc24c15dfa304534d7fe103f6732b26ec2a1a6ef3e66f2ee89",
        "queues_sw2.csv": "902b5c0a663e29dc24c15dfa304534d7fe103f6732b26ec2a1a6ef3e66f2ee89",
        "recv_fwd.csv": "17f00710ba17a2a4c7274cd1d7400ea0638926e9b5400f5258f5308e5465bf35",
        "recv_rev.csv": "17f00710ba17a2a4c7274cd1d7400ea0638926e9b5400f5258f5308e5465bf35",
        "summary.csv": "4b98e4567695f49d91eb95c01520b623d1f1c406dfdcabd189466d3a000605e9",
    },
    "cdf=1/16": {
        "acr_fwd.csv": "c2c3143521e4aa9bdbbcbd3344c9db7d45ae4d390fecb93a6cd1b33273d8f089",
        "acr_rev.csv": "c2c3143521e4aa9bdbbcbd3344c9db7d45ae4d390fecb93a6cd1b33273d8f089",
        "queues_sw1.csv": "5904a36305821d4ca94934f5e82f0d5ead4a3ff99240aa5bd36f1e8abe657091",
        "queues_sw2.csv": "5904a36305821d4ca94934f5e82f0d5ead4a3ff99240aa5bd36f1e8abe657091",
        "recv_fwd.csv": "d3bed7385d68a252387dfaa4feeed5d93a8da13075feb44f60b12a9319d6162d",
        "recv_rev.csv": "d3bed7385d68a252387dfaa4feeed5d93a8da13075feb44f60b12a9319d6162d",
        "summary.csv": "fed46bee660636364d5a40c4516a9d957cc89f759bf3f506b3af1c10b0dadde6",
    },
    "cdf=1": {
        "acr_fwd.csv": "d9f47d6195dd6bd7d7fca1864fa6356d8a0a2cb7097093de46cfd2dc5b1350cf",
        "acr_rev.csv": "d9f47d6195dd6bd7d7fca1864fa6356d8a0a2cb7097093de46cfd2dc5b1350cf",
        "queues_sw1.csv": "ab9b878b9430c92ba92a3f27238e568a2acd149839d82bf16304147969bbf148",
        "queues_sw2.csv": "ab9b878b9430c92ba92a3f27238e568a2acd149839d82bf16304147969bbf148",
        "recv_fwd.csv": "482c2d6661951f4e1f8e2e407b881994be717aed1f754697d5ef1468d503118e",
        "recv_rev.csv": "482c2d6661951f4e1f8e2e407b881994be717aed1f754697d5ef1468d503118e",
        "summary.csv": "a165df8950e7f897a0c9fd09ebd8bb847c0ec6a395ba5d3632ce1fa06b7420e0",
    },
}


def test_golden_csv_digests_are_unchanged(fig4, fig5, cdf_sweep):
    bundles = {"fig4": fig4, "fig5": fig5}
    bundles.update({f"cdf={k}": v for k, v in cdf_sweep.items()})
    actual = {
        name: {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(b.result.out_dir.glob("*.csv"))
        }
        for name, b in bundles.items()
    }
    changed = sorted(
        f"{name}/{csv}"
        for name in GOLDEN_CSV_SHA256
        for csv in GOLDEN_CSV_SHA256[name].keys() | actual[name].keys()
        if GOLDEN_CSV_SHA256[name].get(csv) != actual[name].get(csv)
    )
    check(
        "golden (fixture CSVs match the pinned sha256 digests)",
        not changed,
        f"changed or missing: {changed}",
    )


# -- criterion 9: conservation ------------------------------------------------------


def test_9_cell_conservation_at_every_sampled_instant(fig4, fig5, cdf_sweep):
    bundles = {"crm=32": fig4, "crm=6144": fig5}
    bundles.update({f"cdf={k}": v for k, v in cdf_sweep.items()})
    audits = {name: b.recorder.audits_passed for name, b in bundles.items()}
    # audits run every 100 ms during each 1200 ms run (plus one at the
    # end) and raise on any leak, so reaching here means they all held
    ok = all(n >= 12 for n in audits.values())
    final_ok = True
    for name, b in bundles.items():
        report = b.engine.audit()
        for counts in report.values():
            final_ok = final_ok and counts["emitted"] == (
                counts["delivered"] + counts["queued"] + counts["in_flight"]
            )
    check(
        "9 (per-VC emitted == delivered + queued + in-flight, every sample)",
        ok and final_ok,
        f"audit counts per run: {audits}; final audits hold: {final_ok}",
    )


# -- supporting sanity checks (not numbered criteria) --------------------------------


def test_throughput_never_exceeds_the_bottleneck(fig4, fig5):
    for bundle in (fig4, fig5):
        for trace in bundle.recorder.recv.values():
            assert throughput(trace, 0, ms_to_ps(1200)) <= 155.52 + 1e-9


def test_large_crm_keeps_queues_bounded(fig5):
    for sw in fig5.engine.switches.values():
        for port in sw.ports.values():
            assert port.max_queue <= 100


def test_flight_capacity_matches_min_crm_scale():
    path = PathSpec(rtt=ms_to_ps(550), link_rate=OC3, nrm=32)
    assert flight_capacity(path) == 201_736
    assert abs(-(-flight_capacity(path) // 32) - min_crm(path)) <= 1


def test_throughput_rises_with_crm_and_saturates(fig4, fig5, tmp_path_factory):
    # sweeping the cutoff threshold upward recovers throughput, with
    # nothing left to gain beyond the round-trip sizing value
    mid = run_bundled(tmp_path_factory.mktemp("crm_1024"), crm=1024)
    above = run_bundled(tmp_path_factory.mktemp("crm_8192"), crm=8192)
    full = {
        bundle_crm: throughput(bundle.recorder.recv["fwd"], 0, ms_to_ps(1200))
        for bundle_crm, bundle in (
            (32, fig4),
            (1024, mid),
            (6144, fig5),
            (8192, above),
        )
    }
    print(f"throughput vs crm over the whole run: "
          f"{ {k: round(v, 2) for k, v in full.items()} } Mbps")
    assert full[32] < full[1024] < full[6144]
    assert full[8192] == pytest.approx(full[6144], rel=0.02)
