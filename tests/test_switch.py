import math
import random
from collections import deque

import pytest

from abrsim.protocol import RmFields
from abrsim.switch import PortState, SwitchParams
from abrsim.units import PS_PER_SEC, mbps_to_cps, us_to_ps

OC3 = mbps_to_cps(155.52)
TARGET = 0.9 * OC3


def make_port(**params):
    """A port on an OC-3 link; ``params`` override the ``SwitchParams`` defaults."""
    return PortState(
        name="sw->next",
        link_rate=OC3,
        prop_delay=us_to_ps(5),
        params=SwitchParams(**params),
    )


def fwd_rm(ccr=mbps_to_cps(140)):
    return RmFields(False, OC3, ccr)


def bwd_rm(er=OC3):
    return RmFields(False, er=er, ccr=0.0)


# -- enqueue -----------------------------------------------------------------


def test_enqueue_appends_and_tracks_vc():
    port = make_port()
    assert port.enqueue("vc1", None, now=10) == 10 + port.tx_time
    assert port.pop(10) == 1
    assert port.active_vcs == {"vc1"}
    assert port.max_queue == 1


def test_forward_rm_updates_ccr_table():
    port = make_port()
    port.enqueue("vc1", fwd_rm(ccr=mbps_to_cps(140)), now=10)
    assert port.ccr_table["vc1"] == mbps_to_cps(140)


def test_thirtieth_cell_closes_interval():
    port = make_port()
    for i in range(29):
        port.enqueue("vc1", None, now=i + 1)
    assert port.accum_cells == 29
    assert port.load_factor == math.inf  # nothing measured yet
    port.enqueue("vc1", None, now=30)
    assert port.accum_cells == 0  # reset by the close
    assert port.interval_start == 30
    assert port.load_factor == 30 * PS_PER_SEC / 30 / TARGET


def test_elapsed_time_closes_interval_on_enqueue():
    port = make_port()
    port.enqueue("vc1", None, now=us_to_ps(20))
    assert port.accum_cells == 0
    assert port.interval_start == us_to_ps(20)
    assert port.load_factor * TARGET == pytest.approx(5e4, rel=1e-12)


def test_enqueue_before_both_limits_keeps_interval_open():
    port = make_port()
    port.enqueue("vc1", None, now=us_to_ps(19))
    assert port.accum_cells == 1
    assert port.interval_start == 0
    assert (port.fair_share, port.load_factor) == (TARGET, math.inf)


def test_arrival_after_idle_intervals_closes_the_first_at_its_deadline():
    # five cells in the first 20 us interval, then silence until 107 us:
    # the late arrival closes [0, 20) with its own measurement, skips the
    # four empty intervals after it, and opens its count in [100, 120)
    port = make_port(interval_cell_limit=1000)
    for i in range(5):
        port.enqueue("vc1", None, now=i + 1)
    port.enqueue("late", None, now=us_to_ps(107))
    assert port.load_factor * TARGET == pytest.approx(5 / 20e-6, rel=1e-12)
    assert port.fair_share == TARGET / 1
    assert port.interval_start == us_to_ps(100)
    assert port.accum_cells == 1
    assert port.active_vcs == {"late"}


def test_arrival_at_the_deadline_is_counted_and_closes_the_interval():
    port = make_port(interval_cell_limit=1000)
    port.enqueue("vc1", None, now=1)
    port.enqueue("b", None, now=us_to_ps(20))
    assert port.load_factor * TARGET == pytest.approx(2 / 20e-6, rel=1e-12)
    assert port.fair_share == TARGET / 2
    assert port.interval_start == us_to_ps(20)
    assert port.accum_cells == 0


# -- end_interval -------------------------------------------------------------


def test_measurement_numbers_for_a_full_interval():
    # 30 cells in 20 us: input 1.5e6 cells/s; load factor against a 90%
    # target on OC-3 is 1.5e6 / (0.9 * 366792.45) = 4.544
    port = make_port(interval_cell_limit=1000)
    for i in range(30):
        port.enqueue("vc1", None, now=i)
    port.end_interval(us_to_ps(20))
    assert port.load_factor * TARGET == pytest.approx(1.5e6, rel=1e-12)
    assert port.fair_share == TARGET / 1
    assert port.load_factor == pytest.approx(1.5e6 / TARGET, rel=1e-12)
    assert port.load_factor == pytest.approx(4.5439, rel=1e-4)


def test_idle_interval_retains_previous_measurement():
    port = make_port(interval_cell_limit=1000)
    for i in range(30):
        port.enqueue("vc1", None, now=i)
    port.end_interval(us_to_ps(20))
    first = (port.fair_share, port.load_factor)
    port.end_interval(us_to_ps(40))  # nothing arrived
    assert (port.fair_share, port.load_factor) == first


def test_two_vcs_count_as_two_active():
    port = make_port(interval_cell_limit=1000)
    port.enqueue("a", None, now=1)
    port.enqueue("b", None, now=2)
    port.end_interval(us_to_ps(20))
    assert port.fair_share == TARGET / 2


def test_zero_duration_close_is_harmless():
    port = make_port()
    port.enqueue("vc1", None, now=0)
    port.end_interval(0)
    assert (port.fair_share, port.load_factor) == (TARGET, math.inf)


# -- compute_er ----------------------------------------------------------------


def test_er_with_no_measurement_is_the_target_rate():
    port = make_port()
    assert port.compute_er("vc1") == TARGET


def test_er_single_vc_is_capped_at_target():
    # one VC at 140 Mbps with load factor 1: its own share exceeds the
    # target, so the offer is exactly the target (139.97 Mbps on OC-3)
    port = make_port()
    port.ccr_table["vc1"] = mbps_to_cps(140)
    port.fair_share, port.load_factor = TARGET / 1, 1.0
    er = port.compute_er("vc1")
    assert er == TARGET
    assert er == pytest.approx(mbps_to_cps(139.968), rel=1e-12)


def test_er_two_symmetric_vcs_split_the_target():
    port = make_port()
    port.ccr_table["a"] = TARGET / 2
    port.ccr_table["b"] = TARGET / 2
    port.fair_share, port.load_factor = TARGET / 2, 1.0
    assert port.compute_er("a") == pytest.approx(TARGET / 2, rel=1e-12)
    assert port.compute_er("b") == pytest.approx(TARGET / 2, rel=1e-12)
    assert port.compute_er("a") + port.compute_er("b") == pytest.approx(TARGET, rel=1e-12)


def test_er_underloaded_vc_gets_boosted_share():
    # load factor 1/2 doubles the vc share so the source can ramp up
    port = make_port()
    port.ccr_table["a"] = TARGET / 4
    port.ccr_table["b"] = TARGET / 4
    port.fair_share, port.load_factor = TARGET / 2, 0.5
    assert port.compute_er("a") == pytest.approx(TARGET / 2, rel=1e-12)


class LiteralIntervals:
    """The port's measurement as the docs word it, one interval at a time.

    Each interval keeps the VC of every arrival in a list.  Before an
    arrival or a stamp at ``now``, every interval whose deadline is
    ``< now`` closes at its deadline, one by one.  An arrival is counted,
    then closes its interval if the count reached the limit or ``now`` is
    at or past the deadline.  A close that finds arrivals over a positive
    duration replaces the measurement; any other close keeps it.
    """

    def __init__(self, count_limit, time_limit):
        self.count_limit = count_limit
        self.time_limit = time_limit
        self.start = 0
        self.arrivals: list[str] = []
        self.last = None  # (cells, duration, VCs) of the last non-empty closed interval
        self.ccr: dict[str, float] = {}

    def close(self, t):
        if t > self.start:
            if self.arrivals:
                self.last = (len(self.arrivals), t - self.start, len(set(self.arrivals)))
            self.start = t
        self.arrivals = []

    def advance(self, now):
        while self.start + self.time_limit < now:
            self.close(self.start + self.time_limit)

    def arrive(self, vc, ccr, now):
        self.advance(now)
        self.arrivals.append(vc)
        if ccr is not None:
            self.ccr[vc] = ccr
        if len(self.arrivals) >= self.count_limit or now - self.start >= self.time_limit:
            self.close(now)

    def er(self, vc):
        """``PAPER.md``: min(max(fair_share, ccr / load_factor), target)."""
        if self.last is None:
            return TARGET
        cells, duration, active = self.last
        load_factor = cells * PS_PER_SEC / duration / TARGET
        return min(max(TARGET / active, self.ccr.get(vc, 0.0) / load_factor), TARGET)


@pytest.mark.parametrize("seed", range(6))
def test_er_matches_a_literal_interval_model(seed):
    # Arrivals from four VCs on a quarter-interval grid, with exact ties,
    # arrivals and stamps on deadlines, idle gaps across several deadlines,
    # count closes at the interval's own start, and forward RM cells
    # whose CCR ranges from 0 to above the target.
    rng = random.Random(seed)
    count_limit = rng.choice((1, 3, 7, 30))
    limit = us_to_ps(20)
    port = make_port(interval_cell_limit=count_limit, interval_time_limit=limit)
    model = LiteralIntervals(count_limit, limit)
    vcs = ("a", "b", "c", "d")
    ccrs = (0.0, TARGET / 8, TARGET / 3, TARGET, 1.3 * TARGET)
    now = 0
    for _ in range(600):
        now += rng.choice((0, 0, 1, limit // 4, limit // 2, limit, 3 * limit + 1, 5 * limit))
        if rng.random() < 0.2:  # land exactly on the current deadline
            now = max(now, model.start + limit)
        vc = rng.choice(vcs)
        if rng.random() < 0.25:
            rm = bwd_rm()
            port.stamp_backward(rm, vc, now)
            model.advance(now)
            assert rm.er == model.er(vc)
        else:
            ccr = rng.choice(ccrs) if rng.random() < 0.4 else None
            port.enqueue(vc, None if ccr is None else fwd_rm(ccr), now)
            model.arrive(vc, ccr, now)
        assert port.interval_start == model.start
        for other in vcs:
            assert port.compute_er(other) == model.er(other)


# -- stamping -------------------------------------------------------------------


def test_stamp_lowers_er():
    port = make_port()
    rm = bwd_rm(er=OC3)
    port.stamp_backward(rm, "vc1", now=10)
    assert rm.er == TARGET


def test_stamp_keeps_smaller_incumbent():
    port = make_port()
    rm = bwd_rm(er=mbps_to_cps(10))
    port.stamp_backward(rm, "vc1", now=10)
    assert rm.er == mbps_to_cps(10)


def test_stamp_through_two_ports_folds_min():
    # ports of two switches in series with different targets: the
    # delivered er is the smaller offer
    port_a = make_port(target_utilization=0.9)
    port_b = make_port(target_utilization=0.7)
    rm = bwd_rm(er=OC3)
    port_a.stamp_backward(rm, "vc1", now=10)
    port_b.stamp_backward(rm, "vc1", now=10)
    assert rm.er == pytest.approx(0.7 * OC3, rel=1e-12)


def overloaded_by_two_vcs():
    # 30 cells from two VCs in the first 20 us: load factor 4.5 with
    # ccr = target, so each VC is offered the fair share, target / 2
    port = make_port(interval_cell_limit=1000)
    for i in range(30):
        port.enqueue("ab"[i % 2], fwd_rm(ccr=TARGET), now=i + 1)
    return port


def test_stamp_after_an_unvisited_deadline_sees_that_intervals_measurement():
    port = overloaded_by_two_vcs()
    before = bwd_rm()
    port.stamp_backward(before, "a", now=us_to_ps(19))
    assert before.er == TARGET  # no interval has closed yet
    after = bwd_rm()
    port.stamp_backward(after, "a", now=us_to_ps(61))
    assert after.er == pytest.approx(TARGET / 2, rel=1e-12)
    assert port.load_factor * TARGET == pytest.approx(30 / 20e-6, rel=1e-12)
    assert port.interval_start == us_to_ps(60)


def test_stamp_at_the_deadline_leaves_the_interval_open():
    port = overloaded_by_two_vcs()
    rm = bwd_rm()
    port.stamp_backward(rm, "a", now=us_to_ps(20))
    assert rm.er == TARGET  # the previous (absent) measurement
    assert port.interval_start == 0
    assert port.accum_cells == 30


# -- FIFO service ------------------------------------------------------------------


def test_pop_is_fifo():
    # a burst leaves back to back, one transmission time apart, in
    # arrival order; an arrival to an idle port leaves one tx_time later
    port = make_port()
    out = [port.enqueue("vc1", None, now=i) for i in range(5)]
    assert out == [port.tx_time * (k + 1) for k in range(5)]
    late = 10 * port.tx_time
    assert port.enqueue("vc1", None, now=late) == late + port.tx_time


def test_backlog_counts_cells_until_their_departure():
    port = make_port()
    first = port.enqueue("vc1", None, now=0)
    second = port.enqueue("vc1", None, now=0)
    assert port.pop(first) == 2  # departing at now still counts
    assert port.pop(first + 1) == 1
    assert port.pop(second) == 1
    assert port.pop(second + 1) == 0


def test_arrival_at_the_previous_departure_continues_the_busy_period():
    port = make_port()
    first = port.enqueue("vc1", None, now=0)
    second = port.enqueue("vc1", None, now=first)
    assert second == first + port.tx_time
    assert port.pop(first) == 2  # the departing cell and the arrival
    assert port.max_queue == 2


def test_port_conserves_cells():
    port = make_port()
    for i in range(100):
        port.enqueue("vc1", None, now=i)
    tx = port.tx_time
    assert port.pop(40 * tx + 50) == 100 - 40  # the first 40 departed
    assert port.pop(40 * tx + 50) == 100 - 40  # a read changes nothing
    # cell k departs at (k + 1) tx, and counts until then
    assert [port.pop(tx * (k + 1)) for k in range(40, 100)] == list(range(60, 0, -1))
    assert port.pop(100 * tx + 1) == 0
    assert port.max_queue == 100


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_backlog_matches_a_list_of_departures(seed):
    # The plain model: every departure kept in a list, in the backlog
    # while it is >= now.  Gaps around tx_time end and continue busy
    # periods at and near the exact picosecond of the last departure.
    rng = random.Random(seed)
    port = make_port()
    tx = port.tx_time
    departures: list[int] = []
    max_queue = now = 0
    for _ in range(400):
        gap = rng.choice((0, 1, tx - 1, tx, tx + 1, 2 * tx, rng.randrange(4 * tx)))
        probe = now + rng.randrange(gap + 1)  # a read between two arrivals
        assert port.pop(probe) == sum(d >= probe for d in departures)
        now += gap
        backlog = sum(d >= now for d in departures) + 1
        max_queue = max(max_queue, backlog)
        departures.append(max([now, *departures[-1:]]) + tx)
        assert port.enqueue("vc1", None, now) == departures[-1]
        assert port.pop(now) == backlog
        assert port.max_queue == max_queue


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_enqueue_matches_a_literal_fifo(seed):
    # A literal FIFO: a deque of the departure times of the cells still
    # in the port; a cell leaves it once its departure is before now.
    # Arrivals tie exactly, keep the port busy, or find it idle.
    rng = random.Random(seed)
    port = make_port()
    tx = port.tx_time
    fifo: deque[int] = deque()
    max_queue = now = 0
    for _ in range(500):
        now += rng.choice((0, 0, 1, tx // 2, tx, 2 * tx, 40 * tx))
        while fifo and fifo[0] < now:
            fifo.popleft()
        fifo.append((fifo[-1] if fifo else now) + tx)
        max_queue = max(max_queue, len(fifo))
        assert port.enqueue("vc1", None, now) == fifo[-1]
        assert port.max_queue == max_queue
        assert port.pop(now) == len(fifo)


def test_port_rejects_bad_parameters():
    # Ports are built from SwitchParams, which holds the one check.
    with pytest.raises(ValueError, match="target_utilization"):
        SwitchParams(target_utilization=0.0)
    with pytest.raises(ValueError, match="target_utilization"):
        SwitchParams(target_utilization=1.5)
    with pytest.raises(ValueError, match="interval_cells"):
        SwitchParams(interval_cell_limit=0)
    with pytest.raises(ValueError, match="interval_us"):
        SwitchParams(interval_time_limit=0)
    SwitchParams(target_utilization=1.0, interval_cell_limit=1, interval_time_limit=1)
