"""Helpers shared by the engine and parts tests."""


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
