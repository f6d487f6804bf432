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
    Scenario,
    ScenarioError,
    bundled_config_text,
    error_context,
    parse_number,
    parse_scenario,
    parse_source_value,
    render_scenario,
    to_topology,
)
from .units import PS_PER_MS, cps_to_mbps, mbps_to_cps, ms_to_ps, ps_to_ms

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


def execute_run(
    sc: Scenario,
    out_dir: Path,
    overrides: dict[str, str] | None = None,
    processes: int | None = None,
) -> RunResult:
    """Build, run and persist one scenario; raises on invariant failures.

    The run's parts (``Engine.parts``) run in up to ``processes``
    processes, by default as many as there are CPUs; the outputs do not
    depend on it.
    """
    topology = to_topology(sc)  # checked before the output directory is made
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = Engine(topology)
    if processes is None:
        processes = os.cpu_count() or 1
    engine.run_parts(ms_to_ps(sc.run.until_ms), processes)
    engine.audit()
    result = RunResult(
        out_dir=out_dir, scenario=sc, engine=engine, summary=_summarize(sc, engine.recorder)
    )
    _write_outputs(result, overrides or {})
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


def _scenario_with(cfg_text: str, flags: list, until_ms: float | None) -> tuple[Scenario, dict]:
    """``cfg_text``'s scenario with each ``(flag, param, text)`` override, read as a file
    reads its key (errors name the flag), then ``until_ms``; returns it and its overrides."""
    sc = parse_scenario(cfg_text)
    overrides = {}
    for flag, param, text in flags:
        overrides[param] = text = text.strip()
        with error_context(flag):
            value = parse_source_value(SWEEPABLE[param], text)
        apply_override(sc, param, value)
    if until_ms is not None:
        overrides["until_ms"] = repr(until_ms)
        sc.run.until_ms = until_ms
        sc.run.check()
    return sc, overrides


def cmd_run(args) -> int:
    flags = [(f"--{p}", p, text) for p in ("crm", "cdf") if (text := getattr(args, p)) is not None]
    sc, overrides = _scenario_with(load_scenario_text(args.config), flags, args.until_ms)
    out_dir = _out_root(args.out)
    result = execute_run(sc, out_dir, overrides)
    print(f"run complete: {result.engine.events_processed} events, output in {out_dir}")
    for vc, metric, t0, t1, value in result.summary:
        if metric == "throughput_mbps":
            print(f"  {vc}: [{t0:.0f}, {t1:.0f}] ms -> {value:.2f} Mbps")
    return 0


def _sweep_worker(sc: Scenario, overrides: dict[str, str], out_dir: str) -> dict[str, float]:
    """Run one checked sweep member in this process, as the sweep's workers
    hold the CPUs; returns its steady-state Mbps per VC."""
    return steady_state_mbps(execute_run(sc, Path(out_dir), overrides, processes=1))


def cmd_sweep(args) -> int:
    cfg_text = load_scenario_text(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ScenarioError("sweep needs at least one value")
    # Build and check every member's scenario with the runs' own rules
    # before any run starts; the members run exactly these scenarios.
    members: dict[str, tuple[str, Scenario, dict[str, str]]] = {}  # by output directory name
    for text in values:
        name = f"{args.param}={text.replace('/', '_')}"
        if name in members:
            raise ScenarioError(f"--values: {text} is given twice (both would write {name})")
        sc, overrides = _scenario_with(cfg_text, [("--values", args.param, text)], args.until_ms)
        to_topology(sc)
        members[name] = (text, sc, overrides)
    out_root = _out_root(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    # Members run in forked workers, at most one per CPU at a time.  A run
    # error fails only its member; any other is raised once all have run.
    jobs = [(_sweep_worker, sc, overrides, str(out_root / name))
            for name, (_, sc, overrides) in members.items()]
    outcomes = forked(jobs, os.cpu_count() or 1)
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
    if args.tool == "min-crm":
        path = analysis.PathSpec(
            rtt=ms_to_ps(args.rtt_ms),
            link_rate=mbps_to_cps(args.mbps),
            nrm=args.nrm,
            hops=args.hops,
        )
        flight = analysis.flight_capacity(path)
        crm = analysis.min_crm(path)
        print(f"rtt = {args.rtt_ms} ms, link = {args.mbps} Mbps "
              f"({path.link_rate:.2f} cells/s), nrm = {args.nrm}, hops = {args.hops}")
        print(f"cells in flight over the round trip: {flight}")
        print(f"minimum crm: {crm} RM cells  (tbe >= {crm * args.nrm} cells)")
    elif args.tool == "decay":
        if args.mcr_mbps > args.icr_mbps:  # ``decay_after`` says it in cells/s
            raise ScenarioError(f"--mcr-mbps: must be <= --icr-mbps, got {args.mcr_mbps}")
        icr = mbps_to_cps(args.icr_mbps)
        mcr = mbps_to_cps(args.mcr_mbps)
        with error_context("--cdf"):
            cdf = parse_number(args.cdf)
        rate = analysis.decay_after(icr, cdf, mcr, args.k)
        print(f"icr = {args.icr_mbps} Mbps, cdf = {args.cdf}, mcr = {args.mcr_mbps} Mbps")
        print(f"rate after {args.k + 1} consecutive cuts: "
              f"{cps_to_mbps(rate):.6g} Mbps ({rate:.2f} cells/s)")
    elif args.tool == "trigger":
        fwd = mbps_to_cps(args.fwd_mbps)
        bwd = mbps_to_cps(args.bwd_mbps)
        fires = analysis.trigger_predicate(fwd, bwd, args.crm)
        print(f"forward rate = {args.fwd_mbps} Mbps ({fwd:.2f} cells/s), "
              f"backward rate = {args.bwd_mbps} Mbps ({bwd:.2f} cells/s), crm = {args.crm}")
        print(f"cutoff triggers: {'yes' if fires else 'no'}")
    else:  # flight
        path = analysis.PathSpec(rtt=ms_to_ps(args.rtt_ms), link_rate=mbps_to_cps(args.mbps))
        print(f"rtt = {args.rtt_ms} ms, link = {args.mbps} Mbps ({path.link_rate:.2f} cells/s)")
        print(f"cells in flight over the round trip: {analysis.flight_capacity(path)}")
    return 0


def non_negative(text: str) -> float:
    """Type of a float flag: a finite number, at least 0."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _converts(convert, text: str) -> float:
    """``non_negative``, and a value the unit conversion ``convert`` accepts."""
    value = non_negative(text)
    try:
        convert(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def milliseconds(text: str) -> float:
    """Type of a time flag: ``non_negative`` and within the picosecond clock."""
    return _converts(ms_to_ps, text)


def mbps(text: str) -> float:
    """Type of a rate flag: ``non_negative`` and finite in cells/s."""
    return _converts(mbps_to_cps, text)


def positive(text: str) -> float:
    """Type of a link-rate or forward-rate flag: ``mbps`` and not 0."""
    value = mbps(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _int_at_least(text: str, low: int) -> int:
    """An integer from ``low`` to the largest float: the calculators mix counts with rates."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
    if value > sys.float_info.max:
        limit = sys.float_info.max
        raise argparse.ArgumentTypeError(f"must be at most {limit:g}, got {len(text)} digits")
    return value


def non_negative_int(text: str) -> int:
    """Type of a count flag that may be 0."""
    return _int_at_least(text, 0)


def positive_int(text: str) -> int:
    """Type of a count flag that must be at least 1."""
    return _int_at_least(text, 1)


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
    run_p.add_argument("--until-ms", type=milliseconds, dest="until_ms", help="simulation horizon")
    run_p.add_argument("--out", help="output directory (default $ABRSIM_OUT or ./out)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the scenario once per parameter value")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=SWEEPABLE)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--until-ms", type=milliseconds, dest="until_ms")
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(func=cmd_sweep)

    analyze_p = sub.add_parser("analyze", help="closed-form calculators")
    tool = analyze_p.add_subparsers(dest="tool", required=True)
    mc = tool.add_parser("min-crm", help="smallest safe cutoff threshold for a path")
    mc.add_argument("--rtt-ms", type=milliseconds, required=True, dest="rtt_ms")
    mc.add_argument("--mbps", type=positive, required=True)
    mc.add_argument("--nrm", type=positive_int, default=32)
    mc.add_argument("--hops", type=positive_int, default=1)
    dec = tool.add_parser("decay", help="rate left after consecutive cutoff cuts")
    dec.add_argument("--icr-mbps", type=mbps, required=True, dest="icr_mbps")
    dec.add_argument("--cdf", required=True)
    dec.add_argument("--mcr-mbps", type=mbps, default=0.0, dest="mcr_mbps")
    dec.add_argument("--k", type=non_negative_int, default=0)
    trig = tool.add_parser("trigger", help="does the cutoff trigger at these RM rates")
    trig.add_argument("--fwd-mbps", type=positive, required=True, dest="fwd_mbps")
    trig.add_argument("--bwd-mbps", type=mbps, required=True, dest="bwd_mbps")
    trig.add_argument("--crm", type=positive_int, required=True)
    fl = tool.add_parser("flight", help="cells in flight over a round trip")
    fl.add_argument("--rtt-ms", type=milliseconds, required=True, dest="rtt_ms")
    fl.add_argument("--mbps", type=positive, required=True)
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
