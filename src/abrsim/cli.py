"""Command-line front end: run scenarios, sweep parameters, closed-form tools.

Outputs of a run, written under the output directory:

* ``acr_<vc>.csv``     allowed cell rate, one row per change (ms, Mbps)
* ``recv_<vc>.csv``    cumulative cells delivered, one row per delivery
* ``queues_<switch>.csv``  total queued cells, sampled once per ms
* ``summary.csv``      interval throughputs and oscillation counts
* ``meta.txt``         resolved parameters, overrides, deviations, totals

All CSV files use a ``time_ms,value`` header row, six decimal places and
LF line endings, and are byte-identical between runs of the same
configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from itertools import chain, count, islice, repeat
from operator import itemgetter, truediv
from pathlib import Path

from . import analysis, metrics
from .engine import ConfigError, Engine, SimulationError, forked
from .metrics import Recorder
from .scenario import (
    RunCfg,
    Scenario,
    ScenarioError,
    SourceCfg,
    bundled_config_text,
    error_context,
    parse_integer,
    parse_key,
    parse_number,
    parse_scenario,
    render_scenario,
    to_topology,
)
from .units import PS_PER_MS, cell_tx_time, cps_to_mbps, mbps_to_cps, ms_to_ps, ps_to_ms

SWEEPABLE = {"crm": "crm", "cdf": "cdf", "icr": "icr_mbps", "rif": "rif"}  # the key each sets
_RUN_ERRORS = (ScenarioError, ConfigError, ValueError, OSError, SimulationError)


@dataclass
class RunResult:
    out_dir: Path
    scenario: Scenario
    engine: Engine
    summary: list[tuple[str, str, float, float, float]]  # vc, metric, t0, t1, value

    @property
    def recorder(self) -> Recorder:
        return self.engine.recorder


def load_scenario_text(path_arg: str) -> str:
    """Read a scenario file from disk, falling back to the bundled ones."""
    path = Path(path_arg)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    if "/" not in path_arg and "\\" not in path_arg:
        return bundled_config_text(path_arg)
    raise ScenarioError(f"no such scenario file: {path_arg}")


def apply_override(sc: Scenario, param: str, value: float) -> None:
    """Set one source parameter on every source; ``SourceParams`` is the rule.

    A crm override clears tbe, so that resolving rederives it as crm * nrm.
    """
    if param not in SWEEPABLE:
        raise ScenarioError(f"cannot override {param!r}; choose one of {tuple(SWEEPABLE)}")
    changes = {SWEEPABLE[param]: value}
    if param == "crm":
        changes["tbe"] = None
    for name, cfg in sc.sources.items():
        with error_context(f"source {name}"):
            sc.sources[name] = replace(cfg, **changes).resolved()


# -- output writing ------------------------------------------------------


_COUNT_ROW = "%.6f,%d.000000\n"  # an integer value, printed as "%.6f" would print it
_CSV_CHUNK = 512  # rows formatted by one ``%``; more only raises peak memory


def _write_csv(path: Path, times, values, row: str = "%.6f,%.6f\n") -> None:
    """Write ``time_ms,value`` lines formatted by ``row``, from times in ps
    and their values; rows are formatted a chunk at a time."""
    pairs = zip(map(truediv, times, repeat(PS_PER_MS)), values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_ms,value\n")
        while args := tuple(chain.from_iterable(islice(pairs, _CSV_CHUNK))):
            fh.write(row * (len(args) // 2) % args)


def _write_outputs(result: RunResult, overrides: dict[str, str]) -> None:
    out = result.out_dir
    rec = result.recorder
    for vc_id, trace in rec.acr.items():
        _write_csv(out / f"acr_{vc_id}.csv", trace.times, map(cps_to_mbps, trace.values))
    for vc_id, times in rec.recv.items():  # the n-th delivery brings the count to n
        _write_csv(out / f"recv_{vc_id}.csv", times, count(1), _COUNT_ROW)
    for sw, samples in rec.queues.items():
        times, totals = map(itemgetter(0), samples), map(itemgetter(1), samples)
        _write_csv(out / f"queues_{sw}.csv", times, totals, _COUNT_ROW)

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vc,metric,t0_ms,t1_ms,value\n")
        for vc, metric, t0, t1, value in result.summary:
            fh.write(f"{vc},{metric},{t0:.6f},{t1:.6f},{value:.6f}\n")

    lines = ["# resolved run parameters", ""]
    if overrides:
        lines.append("[overrides]")
        for key, value in overrides.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    lines.append(render_scenario(result.scenario))
    lines.append("[report]")
    lines.append(f"events_processed = {result.engine.events_processed}")
    lines.append(f"final_time_ms = {ps_to_ms(result.engine.now):.6f}")
    lines.append(f"conservation_audits_passed = {rec.audits_passed}")
    for vc_id, vc in result.engine.vcs.items():
        lines.append(f"vc.{vc_id}.cells_emitted = {vc.state.cells_sent_total}")
        lines.append(f"vc.{vc_id}.cells_delivered = {vc.delivered}")
        lines.append(f"vc.{vc_id}.rm_turned_around = {vc.turned}")
        lines.append(f"vc.{vc_id}.initial_acr_mbps = {cps_to_mbps(vc.params.icr):.6f}")
        state = vc.state
        first = state.first_rule6_cells
        lines.append(f"vc.{vc_id}.rate_cut_count = {state.rule6_count}")
        lines.append(f"vc.{vc_id}.first_rate_cut_after_cells = {'-' if first is None else first}")
        fb = rec.first_backward.get(vc_id)
        lines.append(
            f"vc.{vc_id}.first_backward_rm_ms = "
            f"{'-' if fb is None else format(ps_to_ms(fb), '.6f')}"
        )
    for sw_name, sw in result.engine.switches.items():
        for port in sw.ports.values():
            lines.append(f"switch.{sw_name}.port.{port.name}.max_queue_cells = {port.max_queue}")
    lines.append("")
    lines.append("[deviations]")
    for dev in rec.deviations:
        lines.append(f"- {dev}")
    lines.append("")
    (out / "meta.txt").write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _summarize(sc: Scenario, recorder: Recorder) -> list[tuple[str, str, float, float, float]]:
    """Per-VC throughput, then oscillation, rows over the whole run, the
    windows that end by the horizon and the steady-state window."""
    run = sc.run
    # each window is non-empty on the clock: ``RunCfg.check``
    edges = [(t0, t1, ms_to_ps(t0), ms_to_ps(t1)) for t0, t1 in run.summary_windows()]
    low = mbps_to_cps(run.osc_low_mbps)
    high = mbps_to_cps(run.osc_high_mbps)
    rows = []
    for vc_id, recv in recorder.recv.items():
        for t0, t1, p0, p1 in edges:
            rows.append((vc_id, "throughput_mbps", t0, t1, metrics.throughput(recv, p0, p1)))
        acr = recorder.acr[vc_id]
        for t0, t1, p0, p1 in edges:
            count = metrics.oscillation_count(acr, low, high, p0, p1)
            rows.append((vc_id, "oscillations", t0, t1, float(count)))
    return rows


def execute_run(sc: Scenario, out_dir: Path, overrides: dict[str, str] | None = None) -> RunResult:
    """Build, run and persist one scenario, its parts in up to one process
    per CPU (no output depends on that); raises on invariant failures."""
    return _run_and_write(sc, out_dir, overrides or {}, lambda engine, t: engine.run_parts(t))


def _run_and_write(sc: Scenario, out_dir: Path, overrides: dict[str, str], run) -> RunResult:
    """Build ``sc``, run it to its horizon by ``run(engine, t_end)``, audit it, write it."""
    topology = to_topology(sc)  # checked before the output directory is made
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = Engine(topology)
    run(engine, ms_to_ps(sc.run.until_ms))
    engine.audit()
    result = RunResult(out_dir, sc, engine, _summarize(sc, engine.recorder))
    _write_outputs(result, overrides)
    return result


def steady_state_mbps(result: RunResult) -> dict[str, float]:
    """Each VC's steady-state throughput row of the summary; 0.0 for a zero horizon."""
    run = result.scenario.run
    if run.until_ms == 0:
        return dict.fromkeys(result.recorder.recv, 0.0)
    steady = run.steady_window()
    return {
        vc: value
        for vc, metric, t0, t1, value in result.summary
        if metric == "throughput_mbps" and (t0, t1) == steady
    }


# -- commands ------------------------------------------------------------


def _out_root(arg_out: str | None) -> Path:
    if arg_out:
        return Path(arg_out)
    return Path(os.environ.get("ABRSIM_OUT", "out"))


def _scenario_with(cfg_text: str, flags: list) -> tuple[Scenario, dict]:
    """``cfg_text``'s scenario with each ``(flag, param, text)`` override, read and checked
    as a file reads and checks the key it sets (a reading error names the flag); returns
    it and its overrides, a source value's text as given and the horizon as read."""
    sc = parse_scenario(cfg_text)
    overrides = {}
    for flag, param, text in flags:
        overrides[param] = text = text.strip()
        if param == "until_ms":
            with error_context(flag):
                sc.run.until_ms = parse_key(RunCfg, param, text)
            overrides[param] = repr(sc.run.until_ms)
            sc.run.check()
        else:
            with error_context(flag):
                value = parse_key(SourceCfg, SWEEPABLE[param], text)
            apply_override(sc, param, value)
    return sc, overrides


def cmd_run(args) -> int:
    flags = [(f"--{p.replace('_', '-')}", p, text) for p in ("crm", "cdf", "until_ms")
             if (text := getattr(args, p)) is not None]
    sc, overrides = _scenario_with(load_scenario_text(args.config), flags)
    out_dir = _out_root(args.out)
    result = execute_run(sc, out_dir, overrides)
    print(f"run complete: {result.engine.events_processed} events, output in {out_dir}")
    for vc, metric, t0, t1, value in result.summary:
        if metric == "throughput_mbps":  # a whole-ms bound prints as an integer
            print(f"  {vc}: [{t0:.15g}, {t1:.15g}] ms -> {value:.2f} Mbps")
    return 0


def _sweep_worker(sc: Scenario, overrides: dict[str, str], out_dir: str) -> dict[str, float]:
    """Run one checked sweep member, its parts one after another; returns each VC's steady Mbps."""
    return steady_state_mbps(_run_and_write(sc, Path(out_dir), overrides, Engine.run_until))


def cmd_sweep(args) -> int:
    cfg_text = load_scenario_text(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ScenarioError("sweep needs at least one value")
    # Build and check every member's scenario with the runs' own rules
    # before any run starts; the members run exactly these scenarios.
    members: dict[str, tuple[str, Scenario, dict[str, str]]] = {}  # by output directory name
    horizon = [] if args.until_ms is None else [("--until-ms", "until_ms", args.until_ms)]
    for text in values:
        name = f"{args.param}={text.replace('/', '_')}"
        if name in members:
            raise ScenarioError(f"--values: {text} is given twice (both would write {name})")
        sc, overrides = _scenario_with(cfg_text, [("--values", args.param, text), *horizon])
        to_topology(sc)
        members[name] = (text, sc, overrides)
    out_root = _out_root(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    # Members run in forked workers, at most one per CPU at a time.  A run
    # error fails only its member; any other is raised once all have run.
    jobs = [(_sweep_worker, sc, overrides, str(out_root / name))
            for name, (_, sc, overrides) in members.items()]
    outcomes = forked(jobs)
    results, failures = [], []
    for (value_text, sc, _), (exc, steady) in zip(members.values(), outcomes):
        if exc is None:
            results.append((value_text, sc.run.steady_window(), steady))
        elif isinstance(exc, _RUN_ERRORS):
            failures.append((value_text, exc))
        else:
            raise exc

    summary_path = out_root / "sweep_summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("param,value,vc,steady_t0_ms,steady_t1_ms,steady_throughput_mbps\n")
        for value_text, (t0, t1), steady in results:
            for vc, mbps in steady.items():
                fh.write(f"{args.param},{value_text},{vc},{t0:.6f},{t1:.6f},{mbps:.6f}\n")
    runs = f"{len(results)} of {len(members)}" if failures else f"{len(results)}"
    print(f"sweep complete: {runs} runs, summary in {summary_path}")
    for value_text, _window, steady in results:
        pretty = ", ".join(f"{vc}={mbps:.2f} Mbps" for vc, mbps in steady.items())
        print(f"  {args.param}={value_text}: {pretty}")
    for value_text, exc in failures:
        print(f"error: {args.param}={value_text}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    def read(flag, convert=None, parse=parse_number):
        """``flag``'s text read as a file reads a value of its kind, then, with
        ``convert``, the value and its engine units; an error names the flag."""
        with error_context(flag):
            value = parse(getattr(args, flag[2:].replace("-", "_")).strip())
            return (value, convert(value)) if convert else value

    if args.tool == "decay":
        icr_mbps, icr = read("--icr-mbps", mbps_to_cps)
        mcr_mbps, mcr = read("--mcr-mbps", mbps_to_cps)
        k = read("--k", parse=parse_integer)
        rate = analysis.decay_after(icr, read("--cdf"), mcr, k)
        print(f"icr = {icr_mbps} Mbps, cdf = {args.cdf}, mcr = {mcr_mbps} Mbps")
        print(f"rate after {k + 1} consecutive cuts: "
              f"{cps_to_mbps(rate):.6g} Mbps ({rate:.2f} cells/s)")
    elif args.tool == "trigger":
        fwd_mbps, fwd = read("--fwd-mbps", mbps_to_cps)
        cell_tx_time(fwd, "--fwd-mbps")
        bwd_mbps, bwd = read("--bwd-mbps", mbps_to_cps)
        crm = read("--crm", parse=parse_integer)
        fires = analysis.trigger_predicate(fwd, bwd, crm)
        print(f"forward rate = {fwd_mbps} Mbps ({fwd:.2f} cells/s), "
              f"backward rate = {bwd_mbps} Mbps ({bwd:.2f} cells/s), crm = {crm}")
        print(f"cutoff triggers: {'yes' if fires else 'no'}")
    else:  # min-crm and flight, over one path
        rtt_ms, rtt = read("--rtt-ms", ms_to_ps)
        mbps, rate = read("--mbps", mbps_to_cps)
        cell_tx_time(rate, "--mbps")
        path_line = f"rtt = {rtt_ms} ms, link = {mbps} Mbps ({rate:.2f} cells/s)"
        if args.tool == "flight":
            path = analysis.PathSpec(rtt, rate)
            print(path_line)
        else:
            nrm, hops = read("--nrm", parse=parse_integer), read("--hops", parse=parse_integer)
            path = analysis.PathSpec(rtt, rate, nrm, hops)
            print(f"{path_line}, nrm = {nrm}, hops = {hops}")
        print(f"cells in flight over the round trip: {analysis.flight_capacity(path)}")
        if args.tool == "min-crm":
            crm = analysis.min_crm(path)
            print(f"minimum crm: {crm} RM cells  (tbe >= {crm * nrm} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abrsim",
        description="Simulate and size ABR explicit-rate flow control on long-delay links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write CSV traces")
    run_p.add_argument("config", help="scenario file (bundled name or path)")
    run_p.add_argument("--crm", help="override crm on every source")
    run_p.add_argument("--cdf", help="override cdf on every source (e.g. 1/16)")
    run_p.add_argument("--until-ms", help="simulation horizon in ms (e.g. 1200 or 1/2)")
    run_p.add_argument("--out", help="output directory (default $ABRSIM_OUT or ./out)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the scenario once per parameter value")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=SWEEPABLE)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--until-ms")
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(func=cmd_sweep)

    # Every number is read, and checked, by the rule its value meets in a run.
    analyze_p = sub.add_parser("analyze", help="closed-form calculators")
    tool = analyze_p.add_subparsers(dest="tool", required=True)
    mc = tool.add_parser("min-crm", help="smallest safe cutoff threshold for a path")
    mc.add_argument("--rtt-ms", required=True)
    mc.add_argument("--mbps", required=True)
    mc.add_argument("--nrm", default="32")
    mc.add_argument("--hops", default="1")
    dec = tool.add_parser("decay", help="rate left after consecutive cutoff cuts")
    dec.add_argument("--icr-mbps", required=True)
    dec.add_argument("--cdf", required=True)
    dec.add_argument("--mcr-mbps", default="0")
    dec.add_argument("--k", default="0")
    trig = tool.add_parser("trigger", help="does the cutoff trigger at these RM rates")
    trig.add_argument("--fwd-mbps", required=True)
    trig.add_argument("--bwd-mbps", required=True)
    trig.add_argument("--crm", required=True)
    fl = tool.add_parser("flight", help="cells in flight over a round trip")
    fl.add_argument("--rtt-ms", required=True)
    fl.add_argument("--mbps", required=True)
    analyze_p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
