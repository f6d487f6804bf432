"""Helpers shared by the engine and parts tests."""

import os
import re
from contextlib import contextmanager
from unittest import mock

from abrsim import engine


@contextmanager
def cpus(n):
    """Run the block as on a host with ``n`` CPUs: ``os.cpu_count()`` is the
    only input that decides how a run or a sweep forks."""
    with mock.patch.object(os, "cpu_count", lambda: n):
        yield


def per_cell_part(topology, specs):
    """Stands in for ``engine.part_type``: the per-cell ``Part`` for every part."""
    return engine.Part


@contextmanager
def per_cell():
    """Build every part of the engines made in the block as the per-cell
    ``Part``, the reference that ``OneVcPart`` is checked against, and
    the only part that has delay lines and sinks."""
    with mock.patch.object(engine, "part_type", per_cell_part):
        yield


def delay_lines(holder):
    """Every delay line of an engine's or a part's VCs: each VC's forward
    lines, then its backward lines."""
    return [line for vc in holder.vcs.values() for line in (*vc.fwd, *vc.bwd)]


def snapshot(eng):
    """Everything a run leaves behind, each part's sequence numbers and
    pending events included, for comparing two ways of driving it."""
    rec = eng.recorder
    ports = {
        p.name: (p.busy_from, p.last_departure, p.accum_cells, p.interval_start,
                 sorted(p.active_vcs), p.ccr_table, p.fair_share, p.load_factor, p.max_queue)
        for sw in eng.switches.values()
        for p in sw.ports.values()
    }
    vcs = {
        vc_id: (vc.state, vc.delivered, vc.turned, vc.bwd_delivered, list(vc.sink))
        for vc_id, vc in eng.vcs.items()
    }
    return {
        "events": eng.events_processed,
        "now": eng.now,
        "parts": [(part.now, part.seq, part.events) for part in eng.parts],
        "acr": {vc: (tr.times, tr.values) for vc, tr in rec.acr.items()},
        "recv": {vc: list(times) for vc, times in rec.recv.items()},
        "queues": rec.queues,
        "first_backward": rec.first_backward,
        "deviations": list(rec.deviations.items()),
        "audits_passed": rec.audits_passed,
        "pending": [sorted(entry[:2] for entry in part.heap) for part in eng.parts],
        "lines": [list(line) for line in delay_lines(eng)],
        "rms": [list(line.rms) for line in delay_lines(eng)],
        "ports": ports,
        "vcs": vcs,
        "audit": eng.audit(),
    }


def without_events(files):
    """A run's files by name, with ``meta.txt``'s ``events_processed`` line
    left out: the one line in which a one-VC part's run differs from the
    per-cell ``Part``'s."""
    line = rb"\nevents_processed = \d+\n"
    return {name: re.sub(line, b"\n", data) for name, data in files.items()}
