"""One benchmark child process: drive abrsim's command line in-process.

    python3 perfbench/child.py '<json spec>'

The spec holds ``src`` (directory that contains the ``abrsim`` package),
``argv`` (an ``abrsim`` command line), ``records`` (directory for the JSON
records this process and its sweep workers write) and ``mode``:

* ``run``   - run the command with the lightest hooks: the time the first
  ``Engine`` is ready, the engines' deterministic counts, and the start and
  end of each sweep member.
* ``probe`` - stop right after each ``Engine(...)`` is built, before the
  first event; the parent times set-up with it.
* ``trace`` - also wrap the public functions of every module in timed
  spans and sample the pending-event high-water between 1 ms slices of
  ``run_until``.

Everything is patched from this file; ``src/abrsim`` is not modified.
Spans are aggregated in memory (calls, total seconds, seconds covered by
child spans) and written to the record when the process's run or sweep
member ends.  Sweep workers inherit the patches because the process pool
forks them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class ProbeDone(Exception):
    """Raised right after an Engine is built in probe mode."""


class Tracer:
    """Per-process span aggregates and the engines built in one scope."""

    def __init__(self, records_dir: str):
        self.records_dir = records_dir
        self.stack = [0.0]  # seconds covered by children of each open span
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.spans: list = []  # (name, start, end, depth) of the coarse spans
        self.counters = {"closed_by_count": 0, "pending_peak": 0}
        self.engines: list = []
        self.ready: list[float] = []
        self.written = 0

    def reset(self) -> None:
        """Forget everything; a forked sweep worker starts each member here."""
        self.stack[:] = [0.0]
        for entry in self.agg.values():
            entry[:] = [0, 0.0, 0.0]
        self.spans.clear()
        for key in self.counters:
            self.counters[key] = 0
        self.engines.clear()
        self.ready.clear()

    def wrap(self, fn, name: str, keep: bool = False):
        """Time every call of ``fn`` under ``name``; ``keep`` also records each span."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                stack[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += child
                if keep:
                    spans.append((name, start, end, len(stack) - 1))

        return timed

    def write(self, kind: str, **extra) -> None:
        record = {
            "kind": kind,
            "pid": os.getpid(),
            "ready": list(self.ready),
            "engines": [engine_counts(e) for e in self.engines],
            "agg": self.agg,
            "spans": self.spans,
            "counters": self.counters,
            **extra,
        }
        path = os.path.join(self.records_dir, f"{os.getpid()}-{self.written}.json")
        self.written += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def engine_counts(engine) -> dict[str, int]:
    """Deterministic simulated counts; they must repeat exactly between runs."""
    vcs = engine.vcs.values()
    ports = [p for sw in engine.switches.values() for p in sw.ports.values()]
    return {
        "events": engine.events_processed,
        "cells": sum(vc.delivered for vc in vcs),
        "rule6_cuts": sum(vc.state.rule6_count for vc in vcs),
        "max_queue": max((p.max_queue for p in ports), default=0),
    }


def install(tracer: Tracer, mode: str) -> None:
    """Patch abrsim for ``mode`` (see the module docstring); outputs are unchanged."""
    from abrsim import cli, engine, metrics, protocol, switch
    from abrsim.units import PS_PER_MS

    Engine = engine.Engine
    original_init = Engine.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.ready.append(clock())
        tracer.engines.append(self)
        if mode == "probe":
            tracer.write("probe")
            raise ProbeDone

    original_worker = cli._sweep_worker

    @functools.wraps(original_worker)  # keeps the name the pool pickles it by
    def sweep_member(*args, **kwargs):
        tracer.reset()
        start = clock()
        result = original_worker(*args, **kwargs)
        tracer.write("member", start=start, end=clock())
        return result

    cli._sweep_worker = sweep_member

    if mode != "trace":
        Engine.__init__ = init
        return

    wrap = tracer.wrap
    Engine.__init__ = wrap(init, "engine.init", keep=True)

    original_run_until = Engine.run_until

    def run_until(self, t_end):
        # Same events in the same order: each slice processes every event
        # up to its end, and handlers only read ``now`` while processing.
        counters = tracer.counters
        while True:
            t = min(t_end, (self.now // PS_PER_MS + 1) * PS_PER_MS)
            original_run_until(self, t)
            counters["pending_peak"] = max(counters["pending_peak"], len(self._heap))
            if t >= t_end:
                return

    Engine.run_until = wrap(run_until, "engine.loop", keep=True)
    Engine.audit = wrap(Engine.audit, "engine.audit", keep=True)

    cli.parse_scenario = wrap(cli.parse_scenario, "scenario.parse", keep=True)
    cli.to_topology = wrap(cli.to_topology, "scenario.build", keep=True)
    cli._write_outputs = wrap(cli._write_outputs, "cli.write", keep=True)
    cli.execute_run = wrap(cli.execute_run, "cli.execute_run", keep=True)

    protocol.next_cell = wrap(protocol.next_cell, "protocol.next_cell")
    protocol.on_backward_rm = wrap(protocol.on_backward_rm, "protocol.on_backward_rm")
    protocol.turnaround = wrap(protocol.turnaround, "protocol.turnaround")

    Port = switch.PortState
    Port.enqueue = wrap(Port.enqueue, "switch.enqueue")
    Port.pop = wrap(Port.pop, "switch.pop")
    Port.stamp_backward = wrap(Port.stamp_backward, "switch.stamp")
    original_end_interval = Port.end_interval

    def end_interval(self, now):
        if self.accum_cells >= self.interval_cell_limit:
            tracer.counters["closed_by_count"] += 1
        return original_end_interval(self, now)

    Port.end_interval = wrap(end_interval, "switch.end_interval")

    for hook in ("start_vc", "start_switch", "acr_change", "delivery",
                 "queue_sample", "backward_rm", "deviation"):
        setattr(metrics.Recorder, hook, wrap(getattr(metrics.Recorder, hook), "metrics.hook"))
    metrics.throughput = wrap(metrics.throughput, "metrics.summary")
    metrics.oscillation_count = wrap(metrics.oscillation_count, "metrics.summary")


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from abrsim import cli

    tracer = Tracer(spec["records"])
    install(tracer, spec["mode"])
    try:
        code = cli.main(spec["argv"])
    except ProbeDone:
        return 0
    tracer.write("main")
    return code


if __name__ == "__main__":
    sys.exit(main())
