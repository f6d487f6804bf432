"""Closed-form calculators for sizing the no-feedback rate cutoff.

These functions answer, without running the simulator, the questions the
simulator answers empirically: how many unanswered RM cells a source
should tolerate before cutting its rate (``min_crm``), how many cells fit
in flight on a path (``flight_capacity``), what rate remains after a run
of cutoff decrements (``decay_after``), and when the cutoff condition
triggers at all (``trigger_predicate``).

``decay_after`` is computed by iterating the per-RM decrement, exactly as
a live source does; ``decay_closed_form`` is the power-law shortcut and
is validated against the iterated version in the test suite.  Keep both:
they are intentionally independent routes to the same number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .units import CELL_BITS, CellRate, SimTime, cell_tx_time, ps_to_ms, ps_to_s


def check_count(key: str, value: int, low: int = 1) -> None:
    """The one count rule: an integer from ``low`` up to the largest float,
    as sources, switches and the calculators mix counts with rates."""
    if not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{key} must be at most {sys.float_info.max:g}")


@dataclass(frozen=True)
class PathSpec:
    """A round-trip path: RTT, bottleneck link rate, RM interleave, hops.

    ``rtt`` is the full round-trip time in picoseconds.  ``hops`` counts
    bottleneck (long-delay) hops in series; the required cutoff threshold
    scales linearly with it.
    """

    rtt: SimTime
    link_rate: CellRate
    nrm: int = 32
    hops: int = 1

    def __post_init__(self):
        if self.rtt < 0:
            raise ValueError(f"rtt must be >= 0, got {self.rtt}")
        cell_tx_time(self.link_rate, "link_rate")
        if ps_to_s(self.rtt) * self.link_rate == math.inf:
            raise ValueError(
                "the cell count overflows: the round trip is too long at this rate, got "
                f"rtt = {ps_to_ms(self.rtt):g} ms at {self.link_rate * CELL_BITS / 1e6:g} Mbps"
            )
        check_count("nrm", self.nrm)
        check_count("hops", self.hops)


def crm_from_tbe(tbe: int, nrm: int) -> int:
    """Cutoff threshold implied by a transient buffer exposure of ``tbe`` cells.

    One RM cell is sent per ``nrm`` cells, so the threshold is the ceiling
    of ``tbe / nrm``.  Both are counts, checked before dividing, nrm
    first: a tbe derived as crm * nrm is 0 when nrm is.
    """
    check_count("nrm", nrm)
    check_count("tbe", tbe)
    return -(-tbe // nrm)


# cdf is either 0 or a power of two between 1/64 and 1.
VALID_CDF = (0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)


def check_cdf(cdf: float) -> None:
    """The one cdf rule, shared by sources and the decay calculators."""
    if cdf not in VALID_CDF:
        raise ValueError(f"cdf must be 0 or a power of two in [1/64, 1], got {cdf}")


def flight_capacity(path: PathSpec) -> int:
    """Cells needed to fill the path both ways: RTT times the link rate."""
    return math.ceil(ps_to_s(path.rtt) * path.link_rate)


def min_crm(path: PathSpec) -> int:
    """Smallest cutoff threshold that never triggers on an idle-free path.

    The threshold must cover a full round trip of RM cells,
    ``RTT * rate / nrm``, rounded up (rounding down would allow spurious
    rate cuts), and at least 1, the crm rule; it scales with the number
    of bottleneck hops.
    """
    per_hop = math.ceil(ps_to_s(path.rtt) * path.link_rate / path.nrm)
    return max(1, per_hop) * path.hops


def _check_decay(icr: CellRate, cdf: float, mcr: CellRate, k: int) -> None:
    """Inputs a source could have: a valid cdf, mcr <= icr, timed rates; and k >= 0."""
    check_cdf(cdf)
    if mcr > icr:
        mcr, icr = (f"{r * CELL_BITS / 1e6:g}" for r in (mcr, icr))
        raise ValueError(f"mcr must be <= icr, got mcr={mcr} icr={icr} Mbps")
    for rate, key in ((icr, "icr"), (mcr, "mcr")):
        if rate > 0:  # as ``SourceParams`` times them
            cell_tx_time(rate, key)
    check_count("k", k, 0)


def decay_after(icr: CellRate, cdf: float, mcr: CellRate, k: int) -> CellRate:
    """Rate left after the cutoff has fired on ``k + 1`` consecutive RM cells.

    Iterates the per-RM decrement ``acr <- max(mcr, acr - acr*cdf)`` from
    ``icr``: one decrement for the triggering RM cell plus ``k`` more for
    the RM cells that follow with still no feedback.  This is bit-for-bit
    what the simulated source computes.  The iteration stops early at a
    fixed point (MCR, zero, or a rate whose decrement rounds to zero),
    where every further decrement returns the same value.
    """
    _check_decay(icr, cdf, mcr, k)
    acr = icr
    for _ in range(k + 1):
        cut = max(mcr, acr - acr * cdf)
        if cut == acr:
            break
        acr = cut
    return acr


def decay_closed_form(icr: CellRate, cdf: float, mcr: CellRate, k: int) -> CellRate:
    """Power-law form of ``decay_after``; cross-check only."""
    _check_decay(icr, cdf, mcr, k)
    return max(mcr, icr * (1.0 - cdf) ** (k + 1))


def trigger_predicate(fwd_rate: CellRate, bwd_rate: CellRate, crm: int) -> bool:
    """True when the cutoff condition holds for the given RM cell rates.

    The cutoff fires when backward RM cells return at less than 1/crm of
    the forward RM rate, i.e. when ``fwd_rate >= crm * bwd_rate``.  The
    boundary case is inclusive.
    """
    if fwd_rate <= 0:
        raise ValueError(f"forward rate must be > 0, got {fwd_rate}")
    check_count("crm", crm)
    return fwd_rate >= crm * bwd_rate
