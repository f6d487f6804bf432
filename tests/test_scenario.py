from dataclasses import fields

import pytest

from abrsim.cli import main
from abrsim.scenario import (
    LinkCfg,
    RunCfg,
    Scenario,
    ScenarioError,
    SourceCfg,
    SwitchCfg,
    VcCfg,
    bundled_config_text,
    default_scenario,
    parse_number,
    parse_scenario,
    render_scenario,
    to_topology,
)
from abrsim.units import mbps_to_cps, ms_to_ps, us_to_ps


def test_bundled_satellite_scenario_parses():
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    assert set(sc.sources) == {"s1", "d1"}
    assert set(sc.switches) == {"sw1", "sw2"}
    assert set(sc.vcs) == {"fwd", "rev"}
    s1 = sc.sources["s1"]
    assert s1.pcr_mbps == 155.52
    assert s1.icr_mbps == pytest.approx(0.9 * 155.52)
    assert s1.cdf == 1 / 16
    assert s1.crm == 32 and s1.tbe == 1024
    assert sc.links["sat"].delay_us == 275_000.0
    assert sc.run.until_ms == 1200.0
    assert sc.run.windows_ms == ((275.0, 825.0), (825.0, 1200.0))


def test_bundled_scenario_converts_to_expected_topology():
    topo = to_topology(parse_scenario(bundled_config_text("fig3.cfg")))
    assert topo.links[("sw1", "sw2")].prop_delay == ms_to_ps(275)
    assert topo.links[("s1", "sw1")].prop_delay == us_to_ps(5)
    assert topo.links[("sw1", "s1")] is topo.links[("s1", "sw1")]
    assert topo.source_params["s1"].icr == pytest.approx(mbps_to_cps(0.9 * 155.52))
    assert {v.vc_id for v in topo.vcs} == {"fwd", "rev"}
    assert topo.switch_params["sw1"].interval_time_limit == us_to_ps(20)


def test_unknown_bundled_name_is_an_error():
    with pytest.raises(ScenarioError):
        bundled_config_text("nope.cfg")


def test_empty_file_gives_the_default_lan_scenario():
    sc = parse_scenario("")
    assert set(sc.sources) == {"s1"}
    assert set(sc.switches) == {"sw1"}
    assert sc.vcs["main"].path == ("s1", "sw1", "d1")
    assert sc.sources["s1"].crm == 32
    # comments and blank lines alone still count as empty
    assert parse_scenario("# nothing here\n\n") == default_scenario()


def test_source_defaults_fill_missing_keys():
    sc = parse_scenario("[source.s1]\ncrm = 256\n[vc.v]\npath = s1, d1\n")
    s1 = sc.sources["s1"]
    assert s1.pcr_mbps == 155.52
    assert s1.nrm == 32
    assert s1.rif == 1.0
    assert s1.cdf == 1 / 16
    assert s1.crm == 256
    assert s1.tbe == 256 * 32


def test_tbe_alone_derives_crm():
    sc = parse_scenario("[source.s1]\ntbe = 1025\n")
    assert sc.sources["s1"].crm == 33


def test_inconsistent_crm_and_tbe_rejected():
    with pytest.raises(ScenarioError, match="inconsistent"):
        parse_scenario("[source.s1]\ncrm = 32\ntbe = 1025\n")


def test_params_reject_inconsistent_crm_tbe():
    with pytest.raises(ValueError):
        SourceCfg(crm=33, tbe=1024).resolved()
    SourceCfg(crm=33, tbe=1025).resolved()  # ceil(1025/32) == 33


def test_params_allow_large_crm():
    # far beyond 8 bits; a 24-bit tbe implies a 19-bit crm
    SourceCfg(crm=2**19, tbe=(2**19) * 32).resolved()


def test_non_power_of_two_cdf_rejected():
    with pytest.raises(ScenarioError, match="cdf"):
        parse_scenario("[source.s1]\ncdf = 0.05\n")


def test_fraction_values_parse():
    sc = parse_scenario("[source.s1]\ncdf = 1/64\n")
    assert sc.sources["s1"].cdf == 1 / 64
    assert parse_number("3/4") == 0.75


def test_mcr_above_pcr_rejected():
    with pytest.raises(ScenarioError, match="mcr"):
        parse_scenario("[source.s1]\nmcr_mbps = 200\n")


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("[source.s1]\nbogus = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("[unknown.x]\n")


def test_duplicate_section_rejected():
    with pytest.raises(ScenarioError, match="duplicate section"):
        parse_scenario("[source.s1]\n[source.s1]\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario("[source.s1]\nnrm = 32\nnrm = 64\n")


def test_key_outside_section_rejected():
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario("nrm = 32\n")


def test_link_delay_units_are_exclusive():
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario("[link.l]\nfrom = a\nto = b\ndelay_us = 5\ndelay_ms = 1\n")


@pytest.mark.parametrize(
    "value, message",
    [
        ("-1", "link sat: delay_ms: must be >= 0, got -1 ms\n"),
        ("1e300", "link sat: delay_ms: must fit the picosecond clock, got 1e+300 ms\n"),
    ],
    ids=["negative", "huge"],
)
def test_a_delay_given_in_ms_is_reported_in_ms(tmp_path, capsys, value, message):
    # stored as delay_us; an error must still quote the key and value given
    cfg = tmp_path / "bad.cfg"
    text = bundled_config_text("fig3.cfg")
    cfg.write_text(text.replace("delay_ms = 275", f"delay_ms = {value}"), encoding="utf-8")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(cfg.read_text(encoding="utf-8"))
    assert f"{exc.value}\n" == message
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}"
    assert not (tmp_path / "o").exists()


def test_link_requires_endpoints():
    with pytest.raises(ScenarioError, match="from"):
        parse_scenario("[link.l]\nrate_mbps = 155.52\n")


def test_malformed_lines_are_reported():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("just some words\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("[run]\nuntil_ms = fast\n")


def test_bad_window_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[run]\nwindows_ms = 100:50\n")


@pytest.mark.parametrize("text, message", [
    ("[source.s1\n", "line 1: malformed section header '[source.s1'"),
    ("[run]\nwindows_ms = 5\n", "line 2: window must be 'start:end', got '5'"),
    ("[run]\nuntil_ms = -1\n", "run: until_ms: must be >= 0, got -1 ms"),
], ids=["unclosed-header", "window-without-colon", "negative-horizon"])
def test_malformed_values_are_reported_exactly(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


def test_an_empty_window_piece_is_skipped():
    assert parse_scenario("[run]\nwindows_ms = 1:2,\n").run.windows_ms == ((1.0, 2.0),)


@pytest.mark.parametrize(
    "body, message",
    [
        ("windows_ms = -10:3", "windows_ms needs 0 <= start < end, got -10.0:3.0"),
        ("steady_from_ms = -5", "steady_from_ms must be >= 0 and below until_ms, got -5.0 and 5.0"),
        ("steady_from_ms = 5", "steady_from_ms must be >= 0 and below until_ms, got 5.0 and 5.0"),
        ("steady_from_ms = 6", "steady_from_ms must be >= 0 and below until_ms, got 6.0 and 5.0"),
        (
            "windows_ms = 0.0000000001:0.0000000002",
            "windows_ms: the window 1e-10:2e-10 ms is empty on the picosecond clock",
        ),
        (
            "steady_from_ms = 4.9999999999",
            "steady_from_ms: the window 4.9999999999:5.0 ms is empty on the picosecond clock",
        ),
        (
            "osc_high_mbps = 1e308",
            "osc_high_mbps: rate must be finite in cells/s, got 1e+308 Mbps",
        ),
    ],
    ids=["window-before-zero", "steady-before-zero", "steady-at-horizon", "steady-past-horizon",
         "window-below-1-ps", "steady-below-1-ps", "osc-high-beyond-cells-per-s"],
)
def test_run_windows_lie_in_the_run(body, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(f"[run]\nuntil_ms = 5\n{body}\n")
    assert str(exc.value) == f"run: {message}"


def test_a_horizon_below_1_ps_is_rejected():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[run]\nuntil_ms = 1e-10\n")
    message = "run: until_ms: the window 0.0:1e-10 ms is empty on the picosecond clock"
    assert str(exc.value) == message


def test_run_windows_may_start_at_zero_and_end_past_the_horizon():
    run = parse_scenario("[run]\nuntil_ms = 5\nwindows_ms = 0:9\nsteady_from_ms = 0\n").run
    assert run.windows_ms == ((0.0, 9.0),)
    assert run.steady_window() == (0.0, 5.0)


def test_render_parse_round_trip_for_bundled_scenario():
    sc = parse_scenario(bundled_config_text("fig3.cfg"))
    assert parse_scenario(render_scenario(sc)) == sc


def test_render_parse_round_trip_for_default_scenario():
    sc = default_scenario()
    assert parse_scenario(render_scenario(sc)) == sc


def test_render_parse_round_trip_with_unusual_values():
    text = (
        "[source.src]\n"
        "pcr_mbps = 622.08\nmcr_mbps = 1.5\nicr_mbps = 100\n"
        "nrm = 64\nrif = 1/4\ncdf = 1/2\ntbe = 100000\n"
        "[switch.sw]\n"
        "target_utilization = 0.85\ninterval_cells = 100\ninterval_us = 50\n"
        "[link.a]\nfrom = src\nto = sw\nrate_mbps = 622.08\ndelay_ms = 10\n"
        "[link.b]\nfrom = sw\nto = dst\nrate_mbps = 622.08\ndelay_us = 7\n"
        "[vc.v]\npath = src, sw, dst\n"
        "[run]\nuntil_ms = 500\nwindows_ms = 10:20, 20:500\nsteady_from_ms = 250\n"
    )
    sc = parse_scenario(text)
    assert sc.sources["src"].crm == -(-100000 // 64)
    assert parse_scenario(render_scenario(sc)) == sc


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("mcr_mbps = 200", r"source s1: .*mcr=200 icr=139\.968 pcr=155\.52 Mbps"),
        ("pcr_mbps = -5", r"source s1: pcr_mbps: .*>= 0 Mbps, got -5"),
        ("tbe = 0", r"source s1: tbe must be >= 1, got 0"),
        ("nrm = 0\ntbe = 5", r"source s1: nrm must be >= 1, got 0"),
        ("crm = 32\ntbe = 1025", r"source s1: crm \(32\) inconsistent .* = 33 \(tbe=1025,"),
    ],
)
def test_source_errors_name_the_source_and_the_key(body, pattern):
    with pytest.raises(ScenarioError, match=pattern):
        parse_scenario(f"[source.s1]\n{body}\n")


@pytest.mark.parametrize("body, message", [
    ("crm = 0", "crm must be >= 1, got 0"),
    ("crm = 32\ntbe = 0", "tbe must be >= 1, got 0"),
    ("crm = -3\ntbe = 7", "crm must be >= 1, got -3"),
    ("nrm = 0\ncrm = 4", "nrm must be >= 1, got 0"),  # not the tbe = 4 * 0 it implies
    # of two wrong values the first checked is named: rif, cdf, crm, then nrm and tbe
    ("crm = 0\nrif = 2", "rif must be in (0, 1], got 2.0"),
    ("crm = 0\ncdf = 3", "cdf must be 0 or a power of two in [1/64, 1], got 3.0"),
    ("nrm = 0\nrif = 2", "rif must be in (0, 1], got 2.0"),
    ("nrm = 0\ncdf = 3", "cdf must be 0 or a power of two in [1/64, 1], got 3.0"),
    ("nrm = 0\ncrm = 0", "crm must be >= 1, got 0"),
    ("nrm = 0\ntbe = 0", "nrm must be >= 1, got 0"),
    ("crm = 0\ntbe = 0", "crm must be >= 1, got 0"),
], ids=["crm-0", "tbe-0-beside-crm", "crm-negative", "nrm-0-beside-crm",
        "crm-rif", "crm-cdf", "nrm-rif", "nrm-cdf", "nrm-crm", "nrm-tbe", "crm-tbe"])
def test_crm_tbe_and_nrm_each_name_their_own_bound(body, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(f"[source.s1]\n{body}\n")
    assert str(exc.value) == f"source s1: {message}"


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("target_utilization = 2", r"switch sw1: target_utilization must be in \(0, 1\], got 2"),
        ("interval_cells = 0", r"switch sw1: interval_cells must be >= 1, got 0"),
        ("interval_us = -1", r"switch sw1: interval_us: must be >= 0, got -1 us$"),
        ("interval_us = 1e-7", r"switch sw1: interval_us must be at least 1e-06 \(1 ps\), got 1e-07$"),
        ("interval_us = 1e303", r"switch sw1: interval_us: must fit the picosecond clock"),
    ],
)
def test_switch_errors_name_the_switch_and_the_key(body, pattern):
    sc = parse_scenario(f"[switch.sw1]\n{body}\n[vc.v]\npath = s1, sw1, d1\n")
    with pytest.raises(ScenarioError, match=pattern):
        to_topology(sc)


def test_switch_that_no_vc_crosses_is_still_checked():
    sc = parse_scenario("[switch.idle]\ntarget_utilization = 0\n[vc.v]\npath = s1, d1\n")
    with pytest.raises(ScenarioError, match="switch idle: target_utilization"):
        to_topology(sc)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1/0", "0/0", "1/inf", "1e308/1e-308"])
def test_parse_number_rejects_non_finite_values(text):
    with pytest.raises(ValueError, match="finite"):
        parse_number(text)


@pytest.mark.parametrize("value", ["inf", "nan", "1/0"])
def test_non_finite_scenario_values_name_the_line(value):
    with pytest.raises(ScenarioError, match=f"line 2: expected a finite number, got '{value}'"):
        parse_scenario(f"[run]\nuntil_ms = {value}\n")


def test_render_writes_cdf_as_a_fraction():
    for cdf, text in ((0.0, "0"), (1 / 64, "1/64"), (1 / 2, "1/2"), (1.0, "1")):
        sc = parse_scenario(f"[source.s1]\ncdf = {text}\n")
        assert sc.sources["s1"].cdf == cdf
        assert f"cdf = {text}\n" in render_scenario(sc)


# One value, different from the default, for every field of every section.
NON_DEFAULT = {
    SourceCfg: dict(
        pcr_mbps=622.08, mcr_mbps=1.5, icr_mbps=100.0, nrm=64, rif=0.25, cdf=0.5, crm=2, tbe=100
    ),
    SwitchCfg: dict(target_utilization=0.85, interval_cells=100, interval_us=50.5),
    LinkCfg: dict(from_node="src", to_node="dst", rate_mbps=622.08, delay_us=7.5),
    VcCfg: dict(path=("src", "sw", "dst")),
    RunCfg: dict(
        until_ms=500.0,
        windows_ms=((10.0, 20.0), (20.0, 500.0)),
        osc_low_mbps=5.0,
        osc_high_mbps=100.0,
        steady_from_ms=250.0,
    ),
}


def test_every_key_of_every_section_round_trips():
    for cfg_type, values in NON_DEFAULT.items():
        for f in fields(cfg_type):
            assert values[f.name] != getattr(cfg_type(), f.name), f"{cfg_type.__name__}.{f.name}"
    sc = Scenario(
        sources={"src": SourceCfg(**NON_DEFAULT[SourceCfg])},
        switches={"sw": SwitchCfg(**NON_DEFAULT[SwitchCfg])},
        links={"l": LinkCfg(**NON_DEFAULT[LinkCfg])},
        vcs={"v": VcCfg(**NON_DEFAULT[VcCfg])},
        run=RunCfg(**NON_DEFAULT[RunCfg]),
    )
    assert parse_scenario(render_scenario(sc)) == sc
