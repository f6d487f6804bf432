"""abrsim benchmark: host time end to end and per module, with an output gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Every measured run of the simulator is a fresh child process
(``perfbench/child.py``) that drives ``abrsim.cli.main`` with the same
command line a user would type, so interpreter start-up, imports, scenario
parsing, the event loop and CSV writing are all inside the timing.

Workloads (metric names, units and workload reasons live in BENCHMARK.json):

* ``sat-crm32``   ``abrsim run fig3.cfg --crm 32 --until-ms 1200``
* ``sat-crm6144`` ``abrsim run fig3.cfg --crm 6144 --until-ms 600``
* ``lan-fanin``   ``abrsim run`` on an 8-source LAN fan-in scenario
  generated from ``--seed``; the program receives only the scenario text.
* ``sweep-cdf``   ``abrsim sweep fig3.cfg --param cdf --values 1/64,1/16,1
  --until-ms 700`` (crm 32 from fig3.cfg), on ``min(3, nproc)`` workers.

``--trace 0`` times set-up in nine probe children, then repeats full
runs until ``--seconds`` have passed (at least three) and reports medians
of the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
runs and reports the per-module metrics of the traced ones.

End-to-end host times are calibrated.  On a shared 2-vCPU Xeon guest
the speed of the same code drifts by tens of percent over seconds to
minutes.  So a fixed reference workload (``perfbench/reference.py``, which
imports nothing from abrsim) is timed before the first run and after every
run, as many copies at once as the workload keeps processes busy, and the
times of each run and of the probes before it are multiplied by
``REFERENCE_NOMINAL_S`` over the mean of the two reference times around
them: they read as seconds on a host where the reference takes
``REFERENCE_NOMINAL_S``.  Raw medians are
printed beside them, and raw samples and reference times are saved with
the result.  ``peak_rss_mb`` and the traced run's times are not scaled.

Correctness: every run must exit 0 (the simulator's conservation audits
raise otherwise), its deterministic counts (events, cells delivered,
rule-6 cuts, maximum queue) must equal those of the first run, the last
row of each ``recv_*.csv`` must add up to the cells delivered, and the
sha256 of every CSV must match ``perfbench/pins.json``.  ``meta.txt`` is
not digested: its ``events_processed`` is meant to fall.  The fig3
workloads do not depend on the seed and are pinned at every seed;
``lan-fanin`` is pinned at seed 0 and, at other seeds, checked for
identical digests between runs.  The digests are printed and saved with
the result, so that two commits can be compared on any seed; after an
intended change of the outputs, re-pin by copying ``digests`` from a seed-0
result file into ``pins.json``.  Once per invocation the gate is also
shown a corrupted copy of one CSV and must reject it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result
(samples, digests, spans, environment) is written under
``.perfbench_work/results/``.  Method limits: host time from
``CLOCK_MONOTONIC`` in the parent and its children, peak memory from
``wait4``'s ``ru_maxrss``; no machine-wide tracing or counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

clock = time.monotonic

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
PINS = HERE / "pins.json"

DEFAULT_SEED = 0
MIN_RUNS = 3
PROBES_PER_RUN = 3  # set-up probes before each of the first MIN_RUNS runs
RUN_LIMIT_S = 150.0  # no child starts after this, so an invocation ends within three minutes
# Calibrated times are scaled to a host on which perfbench/reference.py
# takes this long (about its median on a 2-vCPU 2.1 GHz Xeon guest, Python 3.11).
REFERENCE_NOMINAL_S = 1.0
METHOD = (
    "host time: CLOCK_MONOTONIC (time.monotonic) in the benchmark and its children; "
    "peak RSS: wait4 ru_maxrss of the child, including its waited-for workers; "
    "per-module time: wrappers installed by perfbench/child.py; "
    "no machine-wide tracing, no hardware counters"
)

LAN_SOURCES = 8


def lan_fanin_scenario(seed: int) -> str:
    """Eight greedy sources with seeded ICRs and access delays share one OC-3 hop.

    The round trip stays near 1 ms, so feedback answers every RM cell long
    before the rule-6 cutoff (32 unanswered RM cells) can fire, and only a
    few hundred events are ever pending.
    """
    rng = random.Random(seed)
    icr = [rng.uniform(40.0, 140.0) for _ in range(LAN_SOURCES)]
    delay = [rng.uniform(200.0, 400.0) for _ in range(LAN_SOURCES)]
    out = [f"# lan-fanin, seed {seed}: s1..s{LAN_SOURCES} -> sw1 -> sw2 -> d1, OC-3 LAN links", ""]
    for i in range(LAN_SOURCES):
        out += [f"[source.s{i + 1}]", f"icr_mbps = {icr[i]:.3f}", ""]
    out += ["[switch.sw1]", "", "[switch.sw2]", ""]
    for i in range(LAN_SOURCES):
        out += [f"[link.access{i + 1}]", f"from = s{i + 1}", "to = sw1", f"delay_us = {delay[i]:.1f}", ""]
    out += ["[link.core]", "from = sw1", "to = sw2", "delay_us = 5", ""]
    out += ["[link.egress]", "from = sw2", "to = d1", "delay_us = 5", ""]
    for i in range(LAN_SOURCES):
        out += [f"[vc.v{i + 1}]", f"path = s{i + 1}, sw1, sw2, d1", ""]
    out += ["[run]", "until_ms = 800", ""]
    return "\n".join(out)


# name -> (abrsim command line without --out, True if the input depends on the seed)
WORKLOADS = {
    "sat-crm32": (["run", "fig3.cfg", "--crm", "32", "--until-ms", "1200"], False),
    "sat-crm6144": (["run", "fig3.cfg", "--crm", "6144", "--until-ms", "600"], False),
    "lan-fanin": (["run", "lan-fanin.cfg"], True),
    "sweep-cdf": (
        ["sweep", "fig3.cfg", "--param", "cdf", "--values", "1/64,1/16,1", "--until-ms", "700"],
        False,
    ),
}


@dataclass
class Child:
    """One finished child process and what it left behind."""

    mode: str
    start: float
    wall_s: float
    rss_mb: float
    out: Path
    records: list[dict]
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0  # REFERENCE_NOMINAL_S / reference time around this child
    layers: dict[str, float] | None = None  # traced runs only

    def counts(self) -> dict[str, int]:
        engines = [e for r in self.records for e in r["engines"]]
        return {
            "engines": len(engines),
            "events": sum(e["events"] for e in engines),
            "cells": sum(e["cells"] for e in engines),
            "rule6_cuts": sum(e["rule6_cuts"] for e in engines),
            "max_queue": max((e["max_queue"] for e in engines), default=0),
        }

    def setup_s(self) -> float:
        return min(t for r in self.records for t in r["ready"]) - self.start


class Bench:
    """One invocation: its work directory, its children and the gate's state."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.trace = trace
        self.base = root / ".perfbench_work"
        self.work = self.base / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.work.mkdir(parents=True)
        argv, seeded = WORKLOADS[workload]
        if workload == "lan-fanin":
            (self.work / "lan-fanin.cfg").write_text(lan_fanin_scenario(seed), encoding="utf-8")
        self.argv = argv
        self.sweep_members = len(argv[argv.index("--values") + 1].split(",")) if argv[0] == "sweep" else 1
        self.parallel = min(self.sweep_members, os.cpu_count() or 1)  # as ``abrsim sweep`` sizes its pool
        # Bytecode is cached under the work directory, as an installed
        # package's would be, so set-up time does not include compiling.
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(self.base / "pycache"),
        )
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        pinned = not seeded or seed == DEFAULT_SEED
        self.expected: dict[str, str] | None = pins.get(workload) if pinned else None
        self.pinned = self.expected is not None
        self.observed: dict[str, str] | None = None  # digests of the first run
        self.reference_counts: dict[str, int] | None = None
        self.negative_checked = False
        self.problems: list[str] = []  # failures outside any simulator run
        self.started = clock()
        self.launched = 0

    # -- children ---------------------------------------------------------

    def remaining(self) -> float:
        return RUN_LIMIT_S - (clock() - self.started)

    def launch(self, mode: str) -> Child:
        self.launched += 1
        run_dir = self.work / f"{self.launched:03d}-{mode}"
        records_dir = run_dir / "records"
        records_dir.mkdir(parents=True)
        out = run_dir / "out"
        spec = {
            "src": str(self.root / "src"),
            "argv": self.argv + ["--out", str(out)],
            "mode": mode,
            "records": str(records_dir),
        }
        log = run_dir / "log.txt"
        timeout = max(self.remaining(), 5.0)
        with open(log, "wb") as fh:
            start = clock()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), json.dumps(spec)],
                cwd=self.work,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=fh,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the child's process group down with us
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(records_dir.glob("*.json"))]
        child = Child(mode, start, end - start, usage.ru_maxrss / 1024.0, out, records)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            child.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
        return child

    def reference(self) -> float:
        """Time the reference workload, one copy per process the workload keeps busy."""
        start = clock()
        procs = [
            subprocess.Popen([sys.executable, str(REFERENCE)], cwd=self.work, env=self.env,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(self.parallel)
        ]
        try:
            codes = [proc.wait() for proc in procs]  # a timeout would poll in 50 ms steps
        except BaseException:
            for proc in procs:
                proc.kill()
                proc.wait()
            raise
        if any(codes):
            self.problems.append(f"reference workload exit codes {codes}")
        return clock() - start

    def probe(self) -> Child:
        child = self.launch("probe")
        if not child.problems and len(child.records) != self.sweep_members:
            child.problems.append(f"{len(child.records)} set-up records, want {self.sweep_members}")
        return child

    def full_run(self, mode: str) -> Child:
        """Launch one full run, gate its outputs, then delete them."""
        child = self.launch(mode)
        if not child.problems:
            self.gate(child)
        if not child.problems and not self.negative_checked:
            self.negative_checked = True
            negative = self.negative_check(child)
            if negative:
                child.problems.append(negative)
        if mode == "trace" and not child.problems:
            child.layers = layer_metrics(child)
        shutil.rmtree(child.out, ignore_errors=True)
        return child

    # -- correctness gate ---------------------------------------------------

    def gate(self, child: Child) -> None:
        counts = child.counts()
        if counts["engines"] != self.sweep_members:
            child.problems.append(f"{counts['engines']} engines reported, want {self.sweep_members}")
            return
        if self.reference_counts is None:
            self.reference_counts = counts
        elif counts != self.reference_counts:
            child.problems.append(f"counts {counts} differ from the first run's {self.reference_counts}")
        delivered = sum(_last_value(p) for p in child.out.rglob("recv_*.csv"))
        if delivered != counts["cells"]:
            child.problems.append(f"recv CSVs end at {delivered} cells, engines delivered {counts['cells']}")
        got = digest_csvs(child.out)
        if self.observed is None:
            self.observed = got
        if self.expected is None:
            self.expected = got
        child.problems.extend(compare_digests(got, self.expected))

    def negative_check(self, child: Child) -> str | None:
        """Corrupt one CSV of a copy of ``child``'s outputs; the gate must object."""
        copy = self.work / "corrupted"
        shutil.copytree(child.out, copy)
        victim = copy / ("sweep_summary.csv" if self.argv[0] == "sweep" else "summary.csv")
        data = bytearray(victim.read_bytes())
        i = max(j for j, b in enumerate(data) if chr(b).isdigit())
        data[i] = ord("1") if data[i] != ord("1") else ord("2")
        victim.write_bytes(bytes(data))
        found = compare_digests(digest_csvs(copy), self.expected)
        shutil.rmtree(copy)
        name = victim.relative_to(copy).as_posix()
        if found == [f"digest mismatch {name}"]:
            return None
        return f"corrupted {name} was not reported by the gate (got {found})"


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _last_value(path: Path) -> int:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 200))
        last = fh.read().splitlines()[-1].decode("ascii")
    value = last.split(",")[1]
    return 0 if value == "value" else round(float(value))


def digest_csvs(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def compare_digests(got: dict[str, str], want: dict[str, str]) -> list[str]:
    problems = [f"missing {name}" for name in sorted(want.keys() - got.keys())]
    problems += [f"unexpected {name}" for name in sorted(got.keys() - want.keys())]
    problems += [f"digest mismatch {name}" for name in sorted(want.keys() & got.keys()) if got[name] != want[name]]
    return problems


# -- metrics ---------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it, else the maximum."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", ordered[min(n - 1, int(p / 100 * n))]
    return "max", ordered[-1]


def layer_metrics(child: Child) -> dict[str, float]:
    """Per-module metrics of one traced run (a sweep sums its members)."""
    agg: dict[str, list[float]] = {}
    for record in child.records:
        for name, (calls, total, covered) in record["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += covered

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    counts = child.counts()
    closed = calls("switch.end_interval")
    by_count = sum(r["counters"]["closed_by_count"] for r in child.records)
    loop = agg.get("engine.loop", [0, 0.0, 0.0])
    members = [r for r in child.records if r["kind"] == "member"]
    if members:
        serial = sum(r["end"] - r["start"] for r in members)
        makespan = max(r["end"] for r in members) - min(r["start"] for r in members)
        workers = min(len(members), os.cpu_count() or 1)
        parallel_eff = serial / (workers * makespan)
    else:
        parallel_eff = 1.0
    return {
        "scenario.parse_s": total("scenario.parse"),
        "scenario.build_s": total("scenario.build"),
        "engine.init_s": total("engine.init"),
        "engine.loop_s": loop[1],
        "engine.loop_self_s": loop[1] - loop[2],
        "engine.events": counts["events"],
        "engine.events_per_cell": counts["events"] / counts["cells"],
        "engine.pending_peak": max(r["counters"]["pending_peak"] for r in child.records),
        "engine.audit_s": total("engine.audit"),
        "engine.audits": calls("engine.audit"),
        "protocol.next_cell_calls": calls("protocol.next_cell"),
        "protocol.next_cell_s": total("protocol.next_cell"),
        "protocol.on_backward_rm_calls": calls("protocol.on_backward_rm"),
        "protocol.on_backward_rm_s": total("protocol.on_backward_rm"),
        "protocol.rule6_cuts": counts["rule6_cuts"],
        "switch.enqueue_calls": calls("switch.enqueue"),
        "switch.enqueue_s": total("switch.enqueue"),
        "switch.pop_calls": calls("switch.pop"),
        "switch.stamp_calls": calls("switch.stamp"),
        "switch.stamp_s": total("switch.stamp"),
        "switch.intervals_closed": closed,
        "switch.closed_by_count_ratio": by_count / closed if closed else 0.0,
        "switch.max_queue": counts["max_queue"],
        "metrics.hook_calls": calls("metrics.hook"),
        "metrics.hook_s": total("metrics.hook"),
        "metrics.summary_s": total("metrics.summary"),
        "cli.write_s": total("cli.write"),
        "cli.output_bytes": sum(p.stat().st_size for p in child.out.rglob("*") if p.is_file()),
        "cli.sweep_parallel_eff": parallel_eff,
    }


def end_to_end_samples(probes: list[Child], runs: list[Child], calibrated: bool) -> dict[str, list[float]]:
    """Per-child samples; ``calibrated`` scales host times to the reference host."""

    def scale(c: Child) -> float:
        return c.scale if calibrated else 1.0

    return {
        "wall_s": [c.wall_s * scale(c) for c in runs],
        "setup_s": [c.setup_s() * scale(c) for c in probes if c.records],
        "cells_per_s": [c.counts()["cells"] / (c.wall_s * scale(c)) for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
    }


# -- command line ------------------------------------------------------------


def measure(bench: Bench, seconds: int) -> tuple[list[Child], list[Child], list[Child], list[float]]:
    """Set-up probes, untraced runs and traced runs, until ``seconds`` of runs.

    Without tracing, the reference workload is timed before the first and
    after every round, and each child of a round is scaled by the mean of
    the two reference times around it.  The host's speed drifts by tens of
    percent over seconds to minutes; the scale takes that drift out.
    """
    bench.launch("probe")  # untimed: compiles the package into the bytecode cache
    probes: list[Child] = []
    runs: list[Child] = []
    traced: list[Child] = []
    references = [] if bench.trace else [bench.reference()]
    measured = 0.0  # seconds spent in full runs
    while True:
        # Probes are spread over the first runs, so that the set-up median
        # samples the host over more than one short stretch of time.
        batch = []
        if not bench.trace and len(runs) < MIN_RUNS:
            batch += [bench.probe() for _ in range(PROBES_PER_RUN)]
        round_start = clock()
        for mode in ("run", "trace") if bench.trace else ("run",):
            batch.append(bench.full_run(mode))
        measured += clock() - round_start
        if not bench.trace:
            references.append(bench.reference())
            scale = REFERENCE_NOMINAL_S / ((references[-2] + references[-1]) / 2)
            for child in batch:
                child.scale = scale
        for child in batch:
            {"probe": probes, "run": runs, "trace": traced}[child.mode].append(child)
        per_round = measured / len(runs)
        enough = bench.trace or len(runs) >= MIN_RUNS
        if enough and measured + per_round > seconds:
            return probes, runs, traced, references
        if bench.remaining() < per_round * 1.5:
            return probes, runs, traced, references


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "abrsim" / "__init__.py").is_file():
        print("perfbench: no src/abrsim here; run from the root of an abrsim checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "method": METHOD,
    }
    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    try:
        probes, runs, traced, references = measure(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    children = probes + runs + traced
    failed = [c for c in children if c.problems]
    for c in failed:
        print(f"FAILED {c.mode} child: {'; '.join(c.problems)}", file=sys.stderr)
    for problem in bench.problems:
        print(f"FAILED reference workload: {problem}", file=sys.stderr)
    correct = not failed and not bench.problems and bench.negative_checked

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment: nproc={environment['nproc']} python={environment['python']} "
          f"loadavg_at_start={environment['loadavg_at_start']}")
    print(f"method: {METHOD}")
    print(f"gate: {'pinned digests' if bench.pinned else 'digests equal across runs (unpinned seed)'}; "
          f"{len(bench.expected or {})} CSV files")
    if bench.observed:
        combined = hashlib.sha256(json.dumps(bench.observed, sort_keys=True).encode()).hexdigest()
        print(f"csv digest (sha256 over every CSV's sha256): {combined}")

    samples = end_to_end_samples(probes, runs, calibrated=not bench.trace)
    raw = end_to_end_samples(probes, runs, calibrated=False)
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    if references:
        print(f"reference workload: median {median(references):.6g} s over {len(references)} runs; "
              f"host times below are scaled to {REFERENCE_NOMINAL_S} s (raw medians in brackets)")
    print(f"{'metric':<16} {'unit':<8} {'n':>3} {'median':>14} {'tail':>6} {'value':>14} {'raw median':>14}")
    for name, values in samples.items():
        if values:
            label, tail = tail_percentile(values)
            print(f"{name:<16} {units[name]:<8} {len(values):>3} {median(values):>14.6g} {label:>6} "
                  f"{tail:>14.6g} {'(' + format(median(raw[name]), '.6g') + ')':>14}")
    print(f"{'fail_ratio':<16} {'ratio':<8} {len(children):>3} {len(failed) / len(children):>14.6g}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment,
        "pinned": bench.pinned,
        "digests": bench.observed,
        "counts": bench.reference_counts,
        "samples": samples,
        "raw_samples": raw,
        "reference_s": references,
        "fail_ratio": len(failed) / len(children),
        "failures": [c.problems for c in failed] + bench.problems,
    }

    if bench.trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        good = [c for c in traced if c.layers]
        layers = {}
        if good:
            layers = {name: median([c.layers[name] for c in good]) for name in good[0].layers}
            layers["trace.overhead_ratio"] = median([c.wall_s for c in traced]) / median([c.wall_s for c in runs])
        for name in names:
            if name in layers:
                print(f"{name:<32} {units[name]:<8} {len(good):>3} {layers[name]:>16.6g}")
        result["layers"] = layers
        result["spans"] = [r["spans"] for c in traced for r in c.records]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in names if name in layers}
        correct = correct and set(layers) == set(names)
    else:
        metrics = {
            m["name"]: {"value": median(samples[m["name"]]), "unit": m["unit"]}
            for m in benchmark["end_to_end"]
            if samples[m["name"]]
        }
        correct = correct and len(metrics) == len(benchmark["end_to_end"])

    results_dir = bench.base / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": len(children), "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
