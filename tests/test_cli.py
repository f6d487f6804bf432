import functools
import os
import pickle
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from abrsim import cli, engine
from abrsim.analysis import PathSpec, crm_from_tbe
from abrsim.cli import apply_override, main
from abrsim.engine import Engine, Part, SimulationError
from abrsim.scenario import ScenarioError, SourceCfg, parse_scenario, bundled_config_text
from abrsim.switch import SwitchParams
from conftest import cpus, per_cell_part
from test_parts import assert_no_child_left

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = """
[source.s1]
crm = 32

[switch.sw1]

[link.a]
from = s1
to = sw1
delay_us = 5

[link.b]
from = sw1
to = d1
delay_us = 5

[vc.main]
path = s1, sw1, d1

[run]
until_ms = 5
windows_ms = 1:5
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def read(path):
    return Path(path).read_text(encoding="utf-8")


def no_events(self, t_end):
    """Stands in for ``Engine.run_until`` where a check must stop the run before it starts."""
    raise AssertionError("the simulation ran")


def test_run_writes_all_outputs(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(tiny_cfg), "--out", str(out)]) == 0
    for name in ("acr_main.csv", "recv_main.csv", "queues_sw1.csv", "summary.csv", "meta.txt"):
        assert (out / name).is_file(), name
    assert read(out / "recv_main.csv").startswith("time_ms,value\n")
    assert "run complete" in capsys.readouterr().out


@pytest.mark.parametrize("until_ms, bounds", [
    ("5", ["[0, 5]", "[1, 5]", "[1.25, 5]"]),  # the whole run, windows_ms, the steady window
    ("1/2", ["[0, 0.5]", "[0.125, 0.5]"]),  # 1:5 ends past the horizon
])
def test_run_prints_each_window_with_its_bounds(tiny_cfg, tmp_path, capsys, until_ms, bounds):
    out = tmp_path / "out"
    assert main(["run", str(tiny_cfg), "--until-ms", until_ms, "--out", str(out)]) == 0
    printed = [line.split(" ms -> ")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert printed == [f"  main: {b}" for b in bounds]


def test_zero_horizon_gives_header_only_csvs(tiny_cfg, tmp_path):
    out = tmp_path / "out0"
    assert main(["run", str(tiny_cfg), "--until-ms", "0", "--out", str(out)]) == 0
    assert read(out / "acr_main.csv") == "time_ms,value\n"
    assert read(out / "recv_main.csv") == "time_ms,value\n"
    assert read(out / "queues_sw1.csv") == "time_ms,value\n"
    assert read(out / "summary.csv") == "vc,metric,t0_ms,t1_ms,value\n"


def test_a_zero_horizon_sweep_writes_rows_of_zero_mbps(tiny_cfg, tmp_path):
    # ``steady_state_mbps`` has no steady-state row to read at a zero horizon
    out = tmp_path / "sweep0"
    argv = ["sweep", str(tiny_cfg), "--param", "crm", "--values", "32,64", "--until-ms", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    assert read(out / "sweep_summary.csv").splitlines()[1:] == [
        f"crm,{crm},main,0.000000,0.000000,0.000000" for crm in (32, 64)
    ]


def test_overrides_apply_and_echo_into_meta(tiny_cfg, tmp_path):
    out = tmp_path / "out_ovr"
    assert main(
        ["run", str(tiny_cfg), "--crm", "64", "--cdf", "1/8", "--out", str(out)]
    ) == 0
    meta = read(out / "meta.txt")
    assert "[overrides]" in meta
    assert "crm = 64" in meta
    assert "cdf = 1/8" in meta
    assert "tbe = 2048" in meta  # rederived from the override


def test_overrides_reach_a_sender_without_a_source_section(tmp_path):
    # s1 sends on vc main but has no [source.s1]: it runs on the defaults,
    # takes the overrides and is listed, exactly as with an empty section.
    outputs = []
    for name, text in [
        ("bare", TINY.replace("[source.s1]\ncrm = 32\n", "")),
        ("empty", TINY.replace("crm = 32\n", "")),
    ]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / name
        assert main(["run", str(cfg), "--crm", "1", "--cdf", "1/2", "--out", str(out)]) == 0
        outputs.append({p.name: read(p) for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    source = outputs[0]["meta.txt"].split("[source.s1]\n", 1)[1].split("\n\n", 1)[0]
    assert "crm = 1\n" in source and "cdf = 1/2\n" in source


def test_bundled_scenario_resolves_by_bare_name(tmp_path):
    out = tmp_path / "out_fig3"
    assert main(["run", "fig3.cfg", "--until-ms", "2", "--out", str(out)]) == 0
    assert (out / "acr_fwd.csv").is_file()
    assert (out / "acr_rev.csv").is_file()


def test_missing_scenario_file_fails_cleanly(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_override_fails_cleanly(tiny_cfg, capsys):
    assert main(["run", str(tiny_cfg), "--cdf", "0.05"]) == 2
    assert "cdf" in capsys.readouterr().err


def test_abrsim_out_env_is_the_default_root(tiny_cfg, tmp_path, monkeypatch):
    root = tmp_path / "env_root"
    monkeypatch.setenv("ABRSIM_OUT", str(root))
    assert main(["run", str(tiny_cfg), "--until-ms", "1"]) == 0
    assert (root / "summary.csv").is_file()


def test_apply_override_validates_parameter_name():
    sc = parse_scenario(TINY)
    with pytest.raises(ScenarioError):
        apply_override(sc, "nrm", 64)


def test_invariant_failure_exits_nonzero(tiny_cfg, monkeypatch, tmp_path, capsys):
    def broken_audit(self):
        raise SimulationError("injected conservation failure")

    monkeypatch.setattr(Engine, "audit", broken_audit)
    code = main(["run", str(tiny_cfg), "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "invariant" in capsys.readouterr().err


def test_sweep_single_value_matches_plain_run(tiny_cfg, tmp_path):
    run_out = tmp_path / "plain"
    sweep_out = tmp_path / "swept"
    assert main(["run", str(tiny_cfg), "--crm", "32", "--out", str(run_out)]) == 0
    assert main(
        [
            "sweep",
            str(tiny_cfg),
            "--param",
            "crm",
            "--values",
            "32",
            "--out",
            str(sweep_out),
        ]
    ) == 0
    sub = sweep_out / "crm=32"
    for name in ("acr_main.csv", "recv_main.csv", "queues_sw1.csv", "summary.csv"):
        assert read(sub / name) == read(run_out / name), name
    assert (sweep_out / "sweep_summary.csv").is_file()


def test_sweep_summary_holds_each_members_steady_row(tmp_path):
    cfg = tmp_path / "slow_start.cfg"  # rif = 1/64 keeps the steady rate near icr
    cfg.write_text(TINY.replace("crm = 32\n", "crm = 32\nicr_mbps = 10\n"), encoding="utf-8")
    out = tmp_path / "sweep_rif"
    argv = ["sweep", str(cfg), "--param", "rif", "--values", "1/64,1", "--out", str(out)]
    assert main(argv) == 0
    rows = [row.split(",") for row in read(out / "sweep_summary.csv").splitlines()[1:]]
    assert len({mbps for *_, mbps in rows}) == 2
    for param, value, vc, t0, t1, mbps in rows:
        member = read(out / f"{param}={value.replace('/', '_')}" / "summary.csv")
        assert f"{vc},throughput_mbps,{t0},{t1},{mbps}" in member.splitlines()


def test_sweep_rejects_empty_value_list(tiny_cfg, capsys):
    assert main(
        ["sweep", str(tiny_cfg), "--param", "crm", "--values", " , ", "--out", "x"]
    ) == 2


def test_sweep_writes_one_directory_per_value(tiny_cfg, tmp_path):
    out = tmp_path / "sweep_cdf"
    assert main(
        [
            "sweep",
            str(tiny_cfg),
            "--param",
            "cdf",
            "--values",
            "1/64,1/16",
            "--out",
            str(out),
        ]
    ) == 0
    assert (out / "cdf=1_64" / "summary.csv").is_file()
    assert (out / "cdf=1_16" / "summary.csv").is_file()
    summary = read(out / "sweep_summary.csv")
    assert summary.splitlines()[0] == "param,value,vc,steady_t0_ms,steady_t1_ms,steady_throughput_mbps"
    assert len(summary.splitlines()) == 3  # header + one row per value per vc


def test_a_failed_sweep_member_keeps_the_others_results(tiny_cfg, tmp_path, capsys, monkeypatch):
    worker = cli._sweep_worker

    @functools.wraps(worker)  # the sweep's forked workers call the worker by this name
    def fail_at_64(sc, overrides, out_dir):
        if overrides == {"crm": "64"}:
            raise SimulationError("injected member failure")
        return worker(sc, overrides, out_dir)

    monkeypatch.setattr(cli, "_sweep_worker", fail_at_64)
    out = tmp_path / "sweep_crm"
    argv = ["sweep", str(tiny_cfg), "--param", "crm", "--values", "32,64,128"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: crm=64: injected member failure\n"
    assert "sweep complete: 2 of 3 runs" in captured.out
    rows = read(out / "sweep_summary.csv").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["32", "128"]
    assert (out / "crm=128" / "summary.csv").is_file()


def wrap_sweep_worker(monkeypatch, member):
    """Make ``member(worker, sc, overrides, out_dir)`` run each sweep member."""
    worker = cli._sweep_worker

    @functools.wraps(worker)  # the sweep's forked workers call the worker by this name
    def wrapped(sc, overrides, out_dir):
        return member(worker, sc, overrides, out_dir)

    monkeypatch.setattr(cli, "_sweep_worker", wrapped)


def tree(out):
    """Every file under ``out``, by its path relative to ``out``."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_a_sweep_member_that_sends_no_result_fails_alone(tiny_cfg, tmp_path, capsys, monkeypatch):
    def die_at_64(worker, sc, overrides, out_dir):
        if overrides == {"crm": "64"}:
            os._exit(3)  # the worker process ends before it sends anything
        return worker(sc, overrides, out_dir)

    wrap_sweep_worker(monkeypatch, die_at_64)
    out = tmp_path / "sweep_crm"
    argv = ["sweep", str(tiny_cfg), "--param", "crm", "--values", "32,64,128"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: crm=64: worker process \d+ sent no result\n", captured.err)
    assert "sweep complete: 2 of 3 runs" in captured.out
    rows = read(out / "sweep_summary.csv").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["32", "128"]
    assert (out / "crm=32" / "summary.csv").is_file()
    assert (out / "crm=128" / "summary.csv").is_file()
    assert not (out / "crm=64").exists()
    assert_no_child_left()


class MemberInterrupt(Exception):
    """Not a run error, as perfbench's ``ProbeDone`` is not: a sweep raises it."""


def test_a_non_run_exception_is_raised_once_every_member_is_reaped(tiny_cfg, tmp_path, monkeypatch):
    def interrupt_at_32(worker, sc, overrides, out_dir):
        if overrides == {"crm": "32"}:
            raise MemberInterrupt("stop")
        time.sleep(0.2)  # still running when crm=32 has sent its exception
        return worker(sc, overrides, out_dir)

    wrap_sweep_worker(monkeypatch, interrupt_at_32)
    out = tmp_path / "sweep_crm"
    argv = ["sweep", str(tiny_cfg), "--param", "crm", "--values", "32,64,128"]
    with pytest.raises(MemberInterrupt, match="stop"), cpus(3):  # every member starts at once
        main([*argv, "--out", str(out)])
    # the other members ran to their end rather than being killed
    assert (out / "crm=64" / "summary.csv").is_file()
    assert (out / "crm=128" / "summary.csv").is_file()
    assert not (out / "sweep_summary.csv").exists()
    assert_no_child_left()


def test_one_cpu_runs_one_member_at_a_time_with_the_same_outputs(tiny_cfg, tmp_path, monkeypatch):
    stamps = tmp_path / "stamps"
    stamps.mkdir()

    def stamped(worker, sc, overrides, out_dir):
        start = time.monotonic()  # CLOCK_MONOTONIC: comparable across processes
        time.sleep(0.05)  # long enough that members started together would overlap
        result = worker(sc, overrides, out_dir)
        name = f"{Path(out_dir).parent.name} {Path(out_dir).name}"
        (stamps / name).write_text(f"{start} {time.monotonic()}", encoding="utf-8")
        return result

    wrap_sweep_worker(monkeypatch, stamped)
    argv = ["sweep", str(tiny_cfg), "--param", "cdf", "--values", "1/64,1/16,1"]
    for n in (1, 2):
        with cpus(n):
            assert main([*argv, "--out", str(tmp_path / f"cpus{n}")]) == 0
    spans = sorted(
        tuple(map(float, read(p).split())) for p in stamps.iterdir() if p.name.startswith("cpus1 ")
    )
    assert len(spans) == 3
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start
    one, two = tree(tmp_path / "cpus1"), tree(tmp_path / "cpus2")
    assert len(one) == 1 + 3 * 5  # the sweep summary and each member's five files
    assert one == two
    assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_a_sweep_member_runs_its_parts_in_its_own_worker(tmp_path, monkeypatch, n):
    # fig3's two parts, with one CPU or two: both in the member's worker,
    # not in the sweep's process
    stamps = tmp_path / "stamps"
    stamps.mkdir()
    run_until = Part.run_until

    def stamped(part, t_end):
        (stamps / ",".join(part.vcs)).write_text(str(os.getpid()), encoding="utf-8")
        return run_until(part, t_end)

    monkeypatch.setattr(Part, "run_until", stamped)
    monkeypatch.setattr(engine, "part_type", per_cell_part)
    argv = ["sweep", "fig3.cfg", "--param", "crm", "--values", "32", "--until-ms", "3"]
    with cpus(n):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    pids = {p.name: int(read(p)) for p in stamps.iterdir()}
    assert sorted(pids) == ["fwd", "rev"]
    assert len(set(pids.values())) == 1 and os.getpid() not in pids.values()
    assert_no_child_left()


def test_without_fork_a_sweep_runs_its_members_here_alike(tiny_cfg, tmp_path, capsys, monkeypatch):
    def fail_at_1_16(worker, sc, overrides, out_dir):
        if overrides == {"cdf": "1/16"}:
            raise SimulationError("injected member failure")
        return worker(sc, overrides, out_dir)

    wrap_sweep_worker(monkeypatch, fail_at_1_16)
    argv = ["sweep", str(tiny_cfg), "--param", "cdf", "--values", "1/64,1/16,1"]
    assert main([*argv, "--out", str(tmp_path / "forked")]) == 1
    forked = capsys.readouterr()
    monkeypatch.delattr(os, "fork")
    assert main([*argv, "--out", str(tmp_path / "here")]) == 1
    here = capsys.readouterr()
    assert here.out == forked.out.replace("forked", "here")
    assert here.err == forked.err == "error: cdf=1/16: injected member failure\n"
    assert tree(tmp_path / "here") == tree(tmp_path / "forked")
    assert len(tree(tmp_path / "here")) == 1 + 2 * 5


def run_python(tmp_path, code):
    """Run ``code`` in a fresh interpreter that imports abrsim from ``src``."""
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )


BIG = 20_000  # VCs in each member's result: its pickle is far larger than a pipe's buffer


def test_members_sending_results_larger_than_a_pipe_buffer_both_finish(tiny_cfg, tmp_path):
    assert len(pickle.dumps({f"vc{i}": float(i) for i in range(BIG)})) > 64 * 1024
    proc = run_python(tmp_path, f"""
import os
from abrsim import cli
os.cpu_count = lambda: 2  # both members run at once
def big(sc, overrides, out_dir):
    return {{f"vc{{i}}": float(i) for i in range({BIG})}}
cli._sweep_worker = big
argv = ["sweep", {str(tiny_cfg)!r}, "--param", "crm", "--values", "32,64", "--out", "out"]
sys.exit(cli.main(argv))
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = read(tmp_path / "out" / "sweep_summary.csv").splitlines()
    assert len(rows) == 1 + 2 * BIG


def test_a_sweep_imports_no_process_pool_and_starts_no_thread(tiny_cfg, tmp_path):
    proc = run_python(tmp_path, f"""
import threading
from abrsim import cli
argv = ["sweep", {str(tiny_cfg)!r}, "--param", "crm", "--values", "32,64,128", "--out", "out"]
code = cli.main(argv)
pools = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
print(code, pools, threading.active_count())
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] 1"


def test_a_run_imports_nothing_that_only_forking_needs_until_it_forks(tmp_path):
    proc = run_python(tmp_path, """
import os
from abrsim import cli
from abrsim.scenario import bundled_config_text, parse_scenario, to_topology
engine = cli.Engine(to_topology(parse_scenario(bundled_config_text("fig3.cfg"))))
print([m for m in ("pickle", "select", "signal") if m in sys.modules])
os.cpu_count = lambda: 1
engine.run_parts(10**9)  # 1 ms in one process
print([m for m in ("pickle", "select", "signal") if m in sys.modules])
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_output_path_that_is_a_file_fails_before_any_run(
    tiny_cfg, tmp_path, capsys, monkeypatch, command
):
    built = []
    monkeypatch.setattr(cli, "Engine", lambda *args: built.append(args))
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    argv = [command, str(tiny_cfg), "--out", str(blocker)]
    if command == "sweep":
        argv += ["--param", "crm", "--values", "32,64"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(blocker) in err and "Traceback" not in err
    assert built == []


def test_a_sweep_member_whose_directory_cannot_be_made_fails_alone(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "sweep_crm"
    out.mkdir()
    (out / "crm=64").write_text("", encoding="utf-8")
    argv = ["sweep", str(tiny_cfg), "--param", "crm", "--values", "32,64", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: crm=64: \[Errno \d+\] .*crm=64'\n", captured.err)
    assert "sweep complete: 1 of 2 runs" in captured.out
    rows = read(out / "sweep_summary.csv").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["32"]
    assert_no_child_left()


def test_sweep_rejects_a_value_given_twice(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "sweep_twice"
    argv = ["sweep", str(tiny_cfg), "--param", "cdf", "--values", "1/64,1/16,1/64"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "error: --values: 1/64 is given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cdf, listed", [("1", True), ("1/16", False)])
def test_keep_alive_deviation_is_listed_once_per_vc(tmp_path, cdf, listed):
    out = tmp_path / "o"
    assert main(["run", "fig3.cfg", "--cdf", cdf, "--until-ms", "20", "--out", str(out)]) == 0
    meta = read(out / "meta.txt").splitlines()
    for vc in ("fwd", "rev"):
        line = f"- vc {vc}: rate decayed to zero; keep-alive RM probing engaged"
        assert meta.count(line) == (1 if listed else 0)


def test_analyze_min_crm_prints_cells_and_units(capsys):
    assert main(
        ["analyze", "min-crm", "--rtt-ms", "550", "--mbps", "155.52", "--nrm", "32"]
    ) == 0
    out = capsys.readouterr().out
    assert "6305" in out
    assert "cells" in out


def test_analyze_min_crm_hops_multiplier(capsys):
    main(["analyze", "min-crm", "--rtt-ms", "550", "--mbps", "622.08", "--hops", "3"])
    three_hop = capsys.readouterr().out
    main(["analyze", "min-crm", "--rtt-ms", "550", "--mbps", "622.08", "--hops", "1"])
    one_hop = capsys.readouterr().out
    get = lambda text: int(text.split("minimum crm: ")[1].split()[0])
    assert get(three_hop) == 3 * get(one_hop)


@pytest.mark.parametrize("rtt, shown, crm", [("0", "0.0", 1), ("1/2", "0.5", 6)])
def test_analyze_min_crm_reads_the_rtt_as_a_file_does_and_gives_at_least_one(
    capsys, rtt, shown, crm
):
    assert main(["analyze", "min-crm", "--rtt-ms", rtt, "--mbps", "155"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"rtt = {shown} ms, link = 155.0 Mbps")
    assert f"minimum crm: {crm} RM cells  (tbe >= {crm * 32} cells)\n" in out


def test_analyze_decay(capsys):
    assert main(
        ["analyze", "decay", "--icr-mbps", "140", "--cdf", "1/16", "--k", "0"]
    ) == 0
    assert "131.25" in capsys.readouterr().out


def test_analyze_trigger(capsys):
    main(["analyze", "trigger", "--fwd-mbps", "100", "--bwd-mbps", "1", "--crm", "32"])
    assert "yes" in capsys.readouterr().out
    main(["analyze", "trigger", "--fwd-mbps", "100", "--bwd-mbps", "100", "--crm", "32"])
    assert "no" in capsys.readouterr().out


def test_analyze_flight(capsys):
    main(["analyze", "flight", "--rtt-ms", "550", "--mbps", "155.52"])
    assert "201736" in capsys.readouterr().out


@pytest.mark.parametrize("param, values", [("rif", "0.5,2"), ("icr", "100,200")])
def test_sweep_checks_every_value_before_any_run(tiny_cfg, tmp_path, capsys, param, values):
    out = tmp_path / "sweep_bad"
    code = main(["sweep", str(tiny_cfg), "--param", param, "--values", values, "--out", str(out)])
    assert code == 2
    assert "source s1" in capsys.readouterr().err
    assert not out.exists()


def test_non_integer_crm_is_rejected(tiny_cfg, tmp_path, capsys):
    with pytest.raises(ScenarioError, match="crm must be an integer, got 2.7"):
        apply_override(parse_scenario(TINY), "crm", 2.7)
    out = tmp_path / "sweep_crm"
    argv = ["sweep", str(tiny_cfg), "--param", "crm", "--values", "2.7", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --values: expected an integer, got '2.7'\n"
    assert not out.exists()


@pytest.mark.parametrize("param, text, message", [
    ("crm", "32.0", "expected an integer, got '32.0'"),
    ("crm", "1e3", "expected an integer, got '1e3'"),
    ("crm", "2.7", "expected an integer, got '2.7'"),
    ("crm", "abc", "expected an integer, got 'abc'"),
    ("crm", "9" * 5000,
     f"expected an integer of at most {sys.get_int_max_str_digits()} digits, got 5000 characters"),
    ("cdf", "abc", "expected a finite number, got 'abc'"),
    ("cdf", "1/0", "expected a finite number, got '1/0'"),
    ("cdf", "1" * 5000, "expected a finite number, got 5000 characters"),
    ("cdf", "0.05", "source s1: cdf must be 0 or a power of two in [1/64, 1], got 0.05"),
], ids=["crm-32.0", "crm-1e3", "crm-2.7", "crm-abc", "crm-5000-digits", "cdf-abc", "cdf-1_0",
        "cdf-5000-digits", "cdf-0.05"])
def test_a_bad_source_value_fails_alike_in_a_file_a_run_flag_and_a_sweep(
    tiny_cfg, tmp_path, capsys, monkeypatch, param, text, message
):
    # One parser per key: the three ways differ only in their first label.
    # A value the parser takes but the source rule rejects names its source.
    built = []
    monkeypatch.setattr(cli, "Engine", lambda *args: built.append(args))
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(TINY.replace("crm = 32", f"{param} = {text}"), encoding="utf-8")
    out = tmp_path / "o"
    ways = {
        "line 3": ["run", str(bad_cfg)],
        f"--{param}": ["run", str(tiny_cfg), f"--{param}", text],
        "--values": ["sweep", str(tiny_cfg), "--param", param, "--values", text],
    }
    for label, argv in ways.items():
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        labelled = not message.startswith("source ")
        assert err == f"error: {label + ': ' if labelled else ''}{message}\n", argv
        assert not out.exists()
    assert built == []


def test_analyze_decay_rejects_a_malformed_cdf_as_a_run_does(capsys):
    assert main(["analyze", "decay", "--icr-mbps", "140", "--cdf", "abc"]) == 2
    assert capsys.readouterr().err == "error: --cdf: expected a finite number, got 'abc'\n"


@pytest.mark.parametrize(
    "name", ["a/b", "a\\b", "a\0b", "v" * 247, "\u00e9" * 124],
    ids=["slash", "backslash", "nul", "too-long", "too-long-in-utf-8"],
)
@pytest.mark.parametrize("kind", ["vc", "switch"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_vc_or_switch_name_that_cannot_be_in_a_file_name_is_rejected_when_parsed(
    tmp_path, capsys, monkeypatch, command, kind, name
):
    # Its traces would be written to ``acr_<vc>.csv``, ``recv_<vc>.csv`` and
    # ``queues_<switch>.csv``; the longest must fit in 255 bytes of UTF-8,
    # and the run must not be simulated only to fail on writing them.
    built = []
    monkeypatch.setattr(cli, "Engine", lambda *args: built.append(args))
    text = TINY.replace("main", name) if kind == "vc" else TINY.replace("sw1", name)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    line = text[:text.index(f"[{kind}.")].count("\n") + 1
    out = tmp_path / "o"
    argv = [command, str(cfg), "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "crm", "--values", "32,64"]
    assert main(argv) == 2
    rule = f"{kind} name {name!r} must not contain '/', '\\' or NUL"
    if len(name) > 3:  # at least one byte too many for the longest file name
        longest = "recv_" if kind == "vc" else "queues_"
        rule = f"{kind} name is too long: {longest}<name>.csv must fit in 255 bytes of UTF-8"
    assert capsys.readouterr().err == f"error: line {line}: {rule}\n"
    assert not out.exists()
    assert built == []


def test_the_longest_vc_and_switch_names_that_fit_are_written(tmp_path):
    vc, switch = "v" * 246, "s" * 244
    cfg = tmp_path / "longest.cfg"
    cfg.write_text(TINY.replace("main", vc).replace("sw1", switch), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--until-ms", "3", "--out", str(out)]) == 0
    for file in (f"acr_{vc}.csv", f"recv_{vc}.csv", f"queues_{switch}.csv"):
        assert (out / file).stat().st_size > 0


def test_a_sweep_member_lists_its_overrides_as_a_run_does(tiny_cfg, tmp_path):
    # Each flag's text as given, then the horizon.
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", str(tiny_cfg), "--crm", "064", "--until-ms", "3",
                 "--out", str(run_out)]) == 0
    assert main(["sweep", str(tiny_cfg), "--param", "crm", "--values", "064", "--until-ms", "3",
                 "--out", str(sweep_out)]) == 0
    meta = read(run_out / "meta.txt")
    assert "\n[overrides]\ncrm = 064\nuntil_ms = 3.0\n\n" in meta
    assert read(sweep_out / "crm=064" / "meta.txt") == meta


def test_crm_override_rederives_an_explicit_tbe():
    sc = parse_scenario(TINY.replace("crm = 32", "tbe = 1025\nnrm = 16"))
    assert (sc.sources["s1"].crm, sc.sources["s1"].tbe) == (65, 1025)
    apply_override(sc, "crm", 7)
    assert (sc.sources["s1"].crm, sc.sources["s1"].tbe) == (7, 7 * 16)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "{cfg}", "--cdf", "1/0", "--out", "{out}"], "--cdf"),
        (["sweep", "{cfg}", "--param", "cdf", "--values", "1,1/0", "--out", "{out}"], "--values"),
        (["analyze", "decay", "--icr-mbps", "140", "--cdf", "1/0"], "--cdf"),
    ],
)
def test_zero_denominator_names_the_flag(tiny_cfg, tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert main([a.format(cfg=tiny_cfg, out=out) for a in argv]) == 2
    assert f"error: {flag}: expected a finite number, got '1/0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "horizon, message",
    [
        ("1/2", None),
        ("-1", "run: until_ms: must be >= 0, got -1 ms"),
        ("inf", "{label}: expected a finite number, got 'inf'"),
        ("nan", "{label}: expected a finite number, got 'nan'"),
        ("abc", "{label}: expected a finite number, got 'abc'"),
        ("1e300", "run: until_ms: must fit the picosecond clock, got 1e+300 ms"),
    ],
    ids=["1_2", "-1", "inf", "nan", "abc", "1e300"],
)
def test_until_ms_must_be_finite_and_non_negative(
    tiny_cfg, tmp_path, capsys, monkeypatch, horizon, message
):
    # One rule per horizon: a file's until_ms, run --until-ms and sweep
    # --until-ms are read as one key and checked by one rule, and differ
    # only in the label of an error in reading it.
    cfg = tmp_path / "horizon.cfg"
    cfg.write_text(TINY.replace("until_ms = 5", f"until_ms = {horizon}"), encoding="utf-8")
    line = TINY[:TINY.index("until_ms = 5")].count("\n") + 1
    sweep = ["--param", "crm", "--values", "32"]
    ways = [
        (f"line {line}", ["run", str(cfg)], ""),
        ("--until-ms", ["run", str(tiny_cfg), "--until-ms", horizon], ""),
        ("--until-ms", ["sweep", str(tiny_cfg), *sweep, "--until-ms", horizon], "crm=32"),
    ]
    built = []
    if message is not None:
        monkeypatch.setattr(cli, "Engine", lambda *args: built.append(args))
    for k, (label, argv, member) in enumerate(ways):
        out = tmp_path / str(k)
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, ""), argv
            assert "\n[run]\nuntil_ms = 0.5\n" in read(out / member / "meta.txt")
        else:
            assert code == 2
            assert err == f"error: {message.format(label=label)}\n", argv
            assert not out.exists()
    assert built == []


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("to = sw1\n", "to = sw1\nrate_mbps = 0\n", "link a: rate_mbps must be > 0, got 0"),
        ("to = sw1\n", "to = sw1\nrate_mbps = -5\n", "link a: rate_mbps: rate must be >= 0"),
        ("delay_us = 5", "delay_us = -1", "link a: delay_us: must be >= 0, got -1 us"),
        ("path = s1, sw1, d1", "path = s1", "vc main: path needs at least two nodes"),
        ("[switch.sw1]\n", "[switch.sw1]\ntarget_utilization = 2\n", "switch sw1: target_utilization"),
        (
            "delay_us = 5",
            "delay_ms = 1e300",
            "link a: delay_ms: must fit the picosecond clock, got 1e+300 ms",
        ),
        (
            "[switch.sw1]\n",
            "[switch.sw1]\ninterval_us = 1e303\n",
            "switch sw1: interval_us: must fit the picosecond clock, got 1e+303 us",
        ),
        ("until_ms = 5", "until_ms = 1e300", "run: until_ms: must fit the picosecond clock"),
        (
            "[vc.main]",
            "[link.a2]\nfrom = sw1\nto = s1\n\n[vc.main]",
            "link a2: duplicate link between sw1 and s1",
        ),
    ],
    ids=["zero-rate", "negative-rate", "negative-delay", "one-node-path", "bad-switch",
         "huge-delay", "huge-interval", "huge-horizon", "duplicate-link"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_topology_errors_name_the_link_vc_or_switch(tmp_path, capsys, command, old, new, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY.replace(old, new, 1), encoding="utf-8")
    out = tmp_path / "o"
    argv = [command, str(cfg), "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "crm", "--values", "32,64"]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


STEADY = "steady_from_ms must be >= 0 and below until_ms, got "
EMPTY = " is empty on the picosecond clock"


@pytest.mark.parametrize(
    "run_keys, flags, message",
    [
        ("windows_ms = -10:3", [], "windows_ms needs 0 <= start < end, got -10.0:3.0"),
        ("steady_from_ms = -5", [], STEADY + "-5.0 and 5.0"),
        ("steady_from_ms = 5", [], STEADY + "5.0 and 5.0"),
        ("steady_from_ms = 3", ["--until-ms", "3"], STEADY + "3.0 and 3.0"),
        ("steady_from_ms = 3", ["--until-ms", "2"], STEADY + "3.0 and 2.0"),
        ("windows_ms = 1:5", ["--until-ms", "1e-10"], "until_ms: the window 0.0:1e-10 ms" + EMPTY),
        (
            "windows_ms = 0.0000000001:0.0000000002",
            [],
            "windows_ms: the window 1e-10:2e-10 ms" + EMPTY,
        ),
        (
            "steady_from_ms = 1.9999999999",
            ["--until-ms", "2"],
            "steady_from_ms: the window 1.9999999999:2.0 ms" + EMPTY,
        ),
        ("osc_high_mbps = 1e308", [], "osc_high_mbps: rate must be finite in cells/s, got 1e+308"),
    ],
    ids=["window-before-zero", "steady-before-zero", "steady-at-horizon", "flag-at-steady",
         "flag-before-steady", "flag-below-1-ps", "window-below-1-ps", "steady-below-1-ps",
         "osc-high-beyond-cells-per-s"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_rule_holds_for_the_file_and_the_until_ms_flag(
    tmp_path, capsys, monkeypatch, command, run_keys, flags, message
):
    monkeypatch.setattr(Engine, "run_until", no_events)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY.replace("windows_ms = 1:5", run_keys), encoding="utf-8")
    out = tmp_path / "o"
    argv = [command, str(cfg), "--out", str(out), *flags]
    if command == "sweep":
        argv += ["--param", "crm", "--values", "32,64"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: run: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("low, high", [("200", "130"), ("-1", "130"), ("10", "10")])
def test_bad_oscillation_band_fails_before_any_event(tmp_path, capsys, monkeypatch, low, high):
    monkeypatch.setattr(Engine, "run_until", no_events)
    cfg = tmp_path / "osc.cfg"
    cfg.write_text(TINY + f"osc_low_mbps = {low}\nosc_high_mbps = {high}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: run: osc_low_mbps must be >= 0 and below osc_high_mbps, got {float(low)}" in err
    assert not out.exists()


CELL_TIME = "must give a cell time of at least 1 ps that fits the picosecond clock"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["flight", "--rtt-ms", "inf", "--mbps", "155.52"],
            "error: --rtt-ms: expected a finite number, got 'inf'\n",
        ),
        (
            ["flight", "--rtt-ms", "1e300", "--mbps", "155.52"],
            "error: --rtt-ms: must fit the picosecond clock, got 1e+300 ms\n",
        ),
        (
            ["min-crm", "--rtt-ms", "1e300", "--mbps", "155.52"],
            "error: --rtt-ms: must fit the picosecond clock, got 1e+300 ms\n",
        ),
        (["decay", "--icr-mbps", "140", "--cdf", "0.05"], "error: cdf must be 0 or a power of two"),
        (
            ["trigger", "--fwd-mbps", "100", "--bwd-mbps", "1", "--crm", "0"],
            "error: crm must be >= 1, got 0\n",
        ),
        (["min-crm", "--rtt-ms", "550", "--mbps", "0"], "error: --mbps must be > 0, got 0 Mbps\n"),
        (["flight", "--rtt-ms", "550", "--mbps", "0.0"], "error: --mbps must be > 0, got 0 Mbps\n"),
        (
            ["decay", "--icr-mbps", "100", "--mcr-mbps", "200", "--cdf", "1/16"],
            "error: mcr must be <= icr, got mcr=200 icr=100 Mbps\n",
        ),
        (
            ["trigger", "--fwd-mbps", "0", "--bwd-mbps", "1", "--crm", "32"],
            "error: --fwd-mbps must be > 0, got 0 Mbps\n",
        ),
        (
            ["decay", "--icr-mbps", "140", "--cdf", "1/16", "--k", "-1"],
            "error: k must be >= 0, got -1\n",
        ),
        (
            ["min-crm", "--rtt-ms", "550", "--mbps", "155.52", "--nrm", "0"],
            "error: nrm must be >= 1, got 0\n",
        ),
        (
            ["min-crm", "--rtt-ms", "550", "--mbps", "155.52", "--hops", "0"],
            "error: hops must be >= 1, got 0\n",
        ),
        (
            ["min-crm", "--rtt-ms", "550", "--mbps", "155", "--nrm", "1" + "0" * 400],
            f"error: nrm must be at most {sys.float_info.max:g}\n",
        ),
        (
            ["trigger", "--fwd-mbps", "140", "--bwd-mbps", "0", "--crm", "1" + "0" * 400],
            f"error: crm must be at most {sys.float_info.max:g}\n",
        ),
        (
            ["min-crm", "--rtt-ms", "-1", "--mbps", "155.52"],
            "error: --rtt-ms: must be >= 0, got -1 ms\n",
        ),
        (
            ["decay", "--icr-mbps", "-1", "--cdf", "1/16"],
            "error: --icr-mbps: rate must be >= 0 Mbps, got -1.0\n",
        ),
        (
            ["min-crm", "--rtt-ms", "550", "--mbps", "155.52", "--hops", "2.5"],
            "error: --hops: expected an integer, got '2.5'\n",
        ),
        (
            ["decay", "--icr-mbps", "1e9", "--cdf", "1/16"],
            f"error: icr {CELL_TIME}, got 1e+09 Mbps\n",
        ),
        (
            ["decay", "--icr-mbps", "1e-300", "--cdf", "1/16"],
            f"error: icr {CELL_TIME}, got 1e-300 Mbps\n",
        ),
        (
            ["decay", "--icr-mbps", "140", "--mcr-mbps", "1e-300", "--cdf", "1/16"],
            f"error: mcr {CELL_TIME}, got 1e-300 Mbps\n",
        ),
    ],
    ids=[
        "flight-rtt-inf",
        "flight-rtt-huge",
        "min-crm-rtt-huge",
        "decay-cdf",
        "trigger-crm",
        "min-crm-mbps-0",
        "flight-mbps-0",
        "decay-mcr-above-icr",
        "trigger-fwd-mbps-0",
        "decay-k-negative",
        "min-crm-nrm-0",
        "min-crm-hops-0",
        "min-crm-nrm-beyond-float",
        "trigger-crm-beyond-float",
        "min-crm-rtt-negative",
        "decay-icr-negative",
        "min-crm-hops-not-an-integer",
        "decay-icr-beyond-the-clock",
        "decay-icr-below-the-clock",
        "decay-mcr-below-the-clock",
    ],
)
def test_analyze_rejects_what_a_run_rejects(capsys, argv, message):
    # Each flag is read as a file reads its value and checked by the rule the
    # value meets in a run: an error names the flag, or the count's key.
    assert main(["analyze", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert message in captured.err


def test_a_crm_whose_tbe_has_too_many_digits_to_print_fails_before_the_run(
    tmp_path, capsys, monkeypatch
):
    # tbe = crm * nrm would have 4,302 digits, more than meta.txt can print;
    # the count rule stops crm before any engine is built or output written
    monkeypatch.setattr(Engine, "run_until", no_events)
    cfg = tmp_path / "huge.cfg"
    text = TINY.replace("crm = 32", "crm = " + "9" * 4300).replace("until_ms = 5", "until_ms = 2")
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: source s1: crm must be at most {sys.float_info.max:g}\n"
    assert not out.exists()


def _in_tiny(tmp_path, old="", new=""):
    """The path of TINY, with ``old`` replaced by ``new``, written to a file."""
    cfg = tmp_path / "count.cfg"
    cfg.write_text(TINY.replace(old, new, 1), encoding="utf-8")
    return str(cfg)


MIN_CRM = ["analyze", "min-crm", "--rtt-ms", "550", "--mbps", "155.52"]
DECAY = ["analyze", "decay", "--icr-mbps", "140", "--cdf", "1/16"]
TRIGGER = ["analyze", "trigger", "--fwd-mbps", "140", "--bwd-mbps", "1"]
# Each way to give a count: the argv that gives it the text ``v``, the count
# as its errors name it, and its floor.
COUNTS = {
    "file-crm": (lambda t, v: ["run", _in_tiny(t, "crm = 32", f"crm = {v}")], "source s1: crm", 1),
    "file-nrm": (lambda t, v: ["run", _in_tiny(t, "crm = 32", f"nrm = {v}")], "source s1: nrm", 1),
    "file-tbe": (lambda t, v: ["run", _in_tiny(t, "crm = 32", f"tbe = {v}")], "source s1: tbe", 1),
    "file-interval-cells": (
        lambda t, v: ["run", _in_tiny(t, "[switch.sw1]", f"[switch.sw1]\ninterval_cells = {v}")],
        "switch sw1: interval_cells",
        1,
    ),
    "run-crm": (lambda t, v: ["run", _in_tiny(t), "--crm", v], "source s1: crm", 1),
    "sweep-crm": (
        lambda t, v: ["sweep", _in_tiny(t), "--param", "crm", "--values", v], "source s1: crm", 1
    ),
    "analyze-nrm": (lambda t, v: [*MIN_CRM, "--nrm", v], "nrm", 1),
    "analyze-hops": (lambda t, v: [*MIN_CRM, "--hops", v], "hops", 1),
    "analyze-k": (lambda t, v: [*DECAY, "--k", v], "k", 0),
    "analyze-crm": (lambda t, v: [*TRIGGER, "--crm", v], "crm", 1),
}
# Each library entry point that takes a count, given one that is not an integer.
NOT_AN_INTEGER = {
    "SourceParams": (
        lambda: replace(SourceCfg().resolved().to_params(), crm=32.0),
        "crm must be an integer, got 32.0",
    ),
    "SwitchParams": (
        lambda: SwitchParams(interval_cell_limit=30.0),
        "interval_cells must be an integer, got 30.0",
    ),
    "PathSpec": (
        lambda: PathSpec(rtt=0, link_rate=1e5, hops=1.0), "hops must be an integer, got 1.0"
    ),
    "crm_from_tbe": (lambda: crm_from_tbe(1024.0, 32), "tbe must be an integer, got 1024.0"),
}
AT_MOST = f"must be at most {sys.float_info.max:g}"
# Each library entry point that takes a count, given one below its floor
# with more digits than Python prints an integer with.
UNPRINTABLE = -(10**5000)
BELOW_THE_FLOOR_UNPRINTABLE = {
    "SourceParams": (lambda: replace(SourceCfg().resolved().to_params(), nrm=UNPRINTABLE), "nrm"),
    "SwitchParams": (lambda: SwitchParams(interval_cell_limit=UNPRINTABLE), "interval_cells"),
    "PathSpec": (lambda: PathSpec(rtt=0, link_rate=1e5, nrm=UNPRINTABLE), "nrm"),
    "crm_from_tbe": (lambda: crm_from_tbe(UNPRINTABLE, 32), "tbe"),
}


@pytest.mark.parametrize("where", list(BELOW_THE_FLOOR_UNPRINTABLE))
def test_a_count_too_long_to_print_is_named_with_its_digit_count(where):
    build, key = BELOW_THE_FLOOR_UNPRINTABLE[where]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == f"{key} must be >= 1, got a negative integer of 5001 digits"


@pytest.mark.parametrize("where, text, message", [
    *(pytest.param(where, str(low - 1), f"{key} must be >= {low}, got {low - 1}",
                   id=f"{where}-below-the-floor") for where, (_, key, low) in COUNTS.items()),
    *(pytest.param(where, "1" + "0" * 400, f"{key} {AT_MOST}", id=f"{where}-beyond-the-floats")
      for where, (_, key, _) in COUNTS.items()),
    *(pytest.param(where, None, message, id=f"{where}-not-an-integer")
      for where, (_, message) in NOT_AN_INTEGER.items()),
])
def test_every_count_meets_the_one_count_rule(tmp_path, capsys, monkeypatch, where, text, message):
    # A count is an integer from its floor up to the largest float wherever it
    # is given: every way checks it with ``analysis.check_count``, before any run.
    if where in NOT_AN_INTEGER:
        with pytest.raises(ValueError) as exc:
            NOT_AN_INTEGER[where][0]()
        assert str(exc.value) == message
        return
    monkeypatch.setattr(Engine, "run_until", no_events)
    argv = COUNTS[where][0](tmp_path, text)
    out = tmp_path / "o"
    assert main(argv if argv[0] == "analyze" else [*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# A second source shares sw1's egress link b with s1.
SHARED = TINY.replace("[run]", "[link.c]\nfrom = s2\nto = sw1\n\n[vc.second]\npath = s2, sw1, d1\n\n[run]")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("delay_us = 5\n", "delay_us = 5\nrate_mbps = 1e-300\n", f"link a: rate_mbps {CELL_TIME}"),
        ("crm = 32\n", "crm = 32\npcr_mbps = 1e-300\n", f"source s1: pcr_mbps {CELL_TIME}"),
        ("to = d1\n", "to = d1\nrate_mbps = 1e9\n", f"link b: rate_mbps {CELL_TIME}, got 1e+09"),
        ("crm = 32\n", "crm = 32\npcr_mbps = 1e9\ncdf = 0\n", f"source s1: pcr_mbps {CELL_TIME}"),
        ("crm = 32\n", "crm = 32\nicr_mbps = 1e-300\n", f"source s1: icr_mbps {CELL_TIME}"),
        ("crm = 32\n", "crm = 32\nmcr_mbps = 1e-300\n", f"source s1: mcr_mbps {CELL_TIME}"),
    ],
    ids=["link-rate-tiny", "pcr-tiny", "shared-link-rate-huge", "pcr-huge-cdf-0", "icr-tiny",
         "mcr-tiny"],
)
def test_a_rate_must_give_a_cell_time_on_the_clock(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(SHARED.replace(old, new, 1), encoding="utf-8")
    assert main(["run", str(cfg), "--until-ms", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: {message}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["flight", "--rtt-ms", "1e299", "--mbps", "8e8"],
            "error: the cell count overflows: the round trip is too long at this rate, "
            "got rtt = 1e+299 ms at 8e+08 Mbps\n",
        ),
        (
            ["min-crm", "--rtt-ms", "550", "--mbps", "1e308"],
            "error: --mbps: rate must be finite in cells/s, got 1e+308 Mbps\n",
        ),
        (
            ["flight", "--rtt-ms", "1e290", "--mbps", "1e100"],
            f"error: --mbps {CELL_TIME}, got 1e+100 Mbps\n",
        ),
    ],
    ids=["flight-cells-overflow", "min-crm-rate-overflow", "flight-rate-beyond-the-clock"],
)
def test_analyze_rejects_what_is_not_finite(capsys, argv, message):
    assert main(["analyze", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert message in captured.err


README = (SRC.parent / "README.md").read_text(encoding="utf-8")


def test_the_readme_examples_run(tmp_path):
    # The five ``abrsim analyze`` lines, then the Library block, run from
    # tmp_path so that its out/demo is written there.
    lines = [line for line in README.splitlines() if line.startswith("abrsim analyze ")]
    assert len(lines) == 5
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    library = README.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(tmp_path, library)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "out" / "demo" / "meta.txt").is_file()
