"""ABR source and destination end-system behavior.

A source paces cells at its allowed cell rate (ACR), starting each cycle
of ``nrm`` cells with one forward RM cell.  The destination turns forward
RM cells around; switches along the way back stamp an explicit rate into
them, and the source adjusts ACR to that feedback.

The safety valve modeled here is the no-feedback cutoff: immediately
before each forward RM cell, if at least ``crm`` forward RM cells have
gone out since the last backward RM cell with BN=0 arrived, ACR is cut by
``acr * cdf`` (never below MCR).  The check runs once per RM emission and
the counter is reset only by feedback, so with feedback absent the cut
repeats on every subsequent RM cell and the rate decays geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import check_cdf, crm_from_tbe
from .units import CELL_BITS, CellRate, SimTime, PS_PER_MS, cell_tx_time

# Keep-alive spacing once ACR has decayed all the way to zero (possible
# only when cdf == 1 and mcr == 0).  A truly silent source could never be
# restarted by feedback, so it keeps probing with one forward RM cell per
# 100 ms; runs report the engagement as a modeling deviation.
QUIESCENT_PROBE_GAP: SimTime = 100 * PS_PER_MS


@dataclass
class RmFields:
    """Control fields of an RM cell.

    ``bn`` is False for source-generated cells (the only kind modeled;
    switches here never originate RM cells).  ``er`` starts at the
    source's PCR and is only ever lowered along the path back.  A cell's
    direction is not a field: the delay line that carries it runs one
    way, and the destination turns this same object around.
    """

    bn: bool
    er: CellRate
    ccr: CellRate


@dataclass(frozen=True)
class SourceParams:
    """Per-VC rate parameters, in cells/second.

    The one rule for a valid source.  ``crm`` and ``tbe`` must agree:
    crm == crm_from_tbe(tbe, nrm).  There is no size cap on either; crm
    values far beyond 8 bits are the point.
    """

    pcr: CellRate
    mcr: CellRate
    icr: CellRate
    nrm: int = 32
    rif: float = 1.0
    cdf: float = 1 / 16
    crm: int = 32
    tbe: int = 1024

    def __post_init__(self):
        if not 0 <= self.mcr <= self.icr <= self.pcr:
            mcr, icr, pcr = (f"{r * CELL_BITS / 1e6:g}" for r in (self.mcr, self.icr, self.pcr))
            raise ValueError(
                f"need 0 <= mcr <= icr <= pcr, got mcr={mcr} icr={icr} pcr={pcr} Mbps"
            )
        cell_tx_time(self.pcr, "pcr_mbps")
        for rate, key in ((self.icr, "icr_mbps"), (self.mcr, "mcr_mbps")):
            if rate > 0:  # 0 is allowed (the source probes); any other rate is timed
                cell_tx_time(rate, key)
        if not 0.0 < self.rif <= 1.0:
            raise ValueError(f"rif must be in (0, 1], got {self.rif}")
        check_cdf(self.cdf)
        if not isinstance(self.crm, int):
            raise ValueError(f"crm must be an integer, got {self.crm}")
        if self.crm < 1:
            raise ValueError(f"crm must be >= 1, got {self.crm}")
        implied = crm_from_tbe(self.tbe, self.nrm)  # the nrm and tbe rules
        if self.crm != implied:
            raise ValueError(
                f"crm ({self.crm}) inconsistent with ceil(tbe/nrm) = "
                f"{implied} (tbe={self.tbe}, nrm={self.nrm})"
            )


@dataclass
class SourceState:
    """Mutable per-VC source machine.

    ``gap`` is the pacing gap at the current ACR; ``_set_acr`` writes the
    two together.
    """

    acr: CellRate
    gap: SimTime = 0
    unacked_fwd_rm: int = 0
    cells_since_rm: int = 0
    next_departure: SimTime = 0
    cells_sent_total: int = 0
    rule6_count: int = 0
    first_rule6_cells: int | None = None


def _set_acr(state: SourceState, acr: CellRate) -> None:
    """The one writer of ACR, and of the pacing gap it implies."""
    state.acr = acr
    state.gap = cell_tx_time(acr, "acr") if acr > 0 else QUIESCENT_PROBE_GAP


def new_state(params: SourceParams) -> SourceState:
    # cells_since_rm starts one short of a full cycle so that the very
    # first cell on the wire is an RM cell.
    state = SourceState(acr=params.icr, cells_since_rm=params.nrm - 1)
    _set_acr(state, params.icr)
    return state


def apply_rule6(state: SourceState, params: SourceParams) -> bool:
    """No-feedback cutoff check, run immediately before each forward RM cell.

    Returns True when the cut fired.  Firing does not reset the counter,
    so the cut repeats on successive RM cells until feedback arrives.
    """
    if state.unacked_fwd_rm < params.crm:
        return False
    _set_acr(state, max(params.mcr, state.acr - state.acr * params.cdf))
    state.rule6_count += 1
    if state.first_rule6_cells is None:
        state.first_rule6_cells = state.cells_sent_total
    return True


def on_backward_rm(state: SourceState, params: SourceParams, rm: RmFields) -> None:
    """Apply explicit-rate feedback from one backward RM cell.

    A BN=0 cell proves the round-trip path is alive and resets the
    unanswered-RM counter; a BN=1 cell adjusts the rate but leaves the
    counter alone.  The rate moves by at most ``rif * pcr`` upward, is
    capped by the explicit rate, and stays inside [mcr, pcr].
    """
    if not rm.bn:
        state.unacked_fwd_rm = 0
    wanted = min(state.acr + params.rif * params.pcr, rm.er)
    _set_acr(state, min(max(wanted, params.mcr), params.pcr))


def next_cell(state: SourceState, params: SourceParams, now: SimTime) -> RmFields | None:
    """Emit the next cell of a persistent source and reschedule its pacing.

    Returns the cell's RM fields, or None for a data cell, which carries
    nothing.  Caller must hold ``now >= state.next_departure``.  Every
    ``nrm``-th cell is a forward RM cell carrying ccr = current ACR and
    er = PCR; the cutoff check runs just before it.  A source whose ACR
    has decayed to zero emits only keep-alive RM probes every 100 ms.
    """
    if state.acr == 0 or state.cells_since_rm == params.nrm - 1:
        apply_rule6(state, params)
        rm = RmFields(bn=False, er=params.pcr, ccr=state.acr)
        state.unacked_fwd_rm += 1
        state.cells_since_rm = 0
    else:
        rm = None
        state.cells_since_rm += 1
    state.cells_sent_total += 1
    state.next_departure = now + state.gap
    return rm


def turnaround(rm: RmFields) -> RmFields:
    """Destination behavior: a forward RM cell goes back, fields intact.

    The engine no longer calls this: the destination puts the forward
    ``RmFields`` object itself on the backward line, whose route says
    which way it runs.  It stays because ``perfbench/child.py`` wraps it
    by name.
    """
    return rm
