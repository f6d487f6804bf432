import random
from array import array

import pytest

from abrsim.metrics import StepTrace, oscillation_count, throughput
from abrsim.units import CELL_BITS, PS_PER_MS, mbps_to_cps


def make_recv(samples):
    """Delivery times from (time, cumulative count) samples: one per count step."""
    times = array("q")
    count = 0
    for t, cumulative in samples:
        times.extend([t] * (cumulative - count))
        count = cumulative
    return times


# -- throughput ----------------------------------------------------------------


def test_throughput_of_a_steady_stream():
    # 1000 cells over 1 ms
    trace = make_recv(((i + 1) * PS_PER_MS // 1000, i + 1) for i in range(1000))
    got = throughput(trace, 0, PS_PER_MS)
    assert got == pytest.approx(1000 * CELL_BITS / 1e-3 / 1e6, rel=1e-9)


def test_throughput_zero_when_nothing_arrives_in_window():
    trace = make_recv([(0, 5)])
    assert throughput(trace, PS_PER_MS, 2 * PS_PER_MS) == 0.0


def test_throughput_uses_last_sample_at_or_before_the_edge():
    trace = make_recv([(10, 1), (20, 2), (30, 3)])
    # edge exactly on a sample includes it
    assert throughput(trace, 10, 30) == pytest.approx((3 - 1) * CELL_BITS * 1e12 / 20 / 1e6)
    # edge between samples interpolates as a step
    assert throughput(trace, 15, 25) == pytest.approx((2 - 1) * CELL_BITS * 1e12 / 10 / 1e6)


def test_throughput_before_first_sample_counts_from_zero():
    trace = make_recv([(100, 7)])
    assert throughput(trace, 0, 200) == pytest.approx(7 * CELL_BITS * 1e12 / 200 / 1e6)


def test_throughput_rejects_empty_window():
    trace = make_recv([(0, 1)])
    with pytest.raises(ValueError):
        throughput(trace, 5, 5)
    with pytest.raises(ValueError):
        throughput(trace, 10, 5)


def test_time_weighted_window_throughputs_compose():
    # conservation implies the mean of adjacent windows weighted by their
    # lengths equals the whole-window number
    rng = random.Random(11)
    trace = array("q")
    t = 0
    for _ in range(5000):
        t += rng.randint(1, 10**9)
        trace.append(t)
    edges = sorted(rng.sample(range(1, t), 7))
    cuts = [0] + edges + [t]
    whole = throughput(trace, 0, t)
    weighted = sum(
        throughput(trace, a, b) * (b - a) for a, b in zip(cuts, cuts[1:])
    ) / t
    assert weighted == pytest.approx(whole, rel=1e-9)


# -- step traces and oscillation counting ------------------------------------------


def test_step_trace_value_lookup():
    trace = StepTrace(initial=5.0)
    trace.add(10, 7.0)
    trace.add(20, 3.0)
    assert trace.value_at(0) == 5.0
    assert trace.value_at(10) == 7.0
    assert trace.value_at(15) == 7.0
    assert trace.value_at(25) == 3.0


def test_step_trace_rejects_time_reversal():
    trace = StepTrace(0.0)
    trace.add(10, 1.0)
    with pytest.raises(ValueError):
        trace.add(5, 2.0)


def test_constant_trace_has_no_oscillations():
    trace = StepTrace(initial=mbps_to_cps(140))
    assert oscillation_count(trace, mbps_to_cps(10), mbps_to_cps(130), 0, 10**12) == 0


def test_square_wave_oscillations_are_counted():
    low, high = 1.0, 9.0
    trace = StepTrace(initial=10.0)
    t = 0
    for _ in range(4):  # four dips down and back up
        t += 100
        trace.add(t, 0.5)
        t += 100
        trace.add(t, 10.0)
    # low -> high -> low excursions: the wave starts high, so the first
    # completed excursion needs dip, rise, dip
    assert oscillation_count(trace, low, high, 0, t) == 3
    # a window clipped to a single dip has none
    assert oscillation_count(trace, low, high, 0, 150) == 0


def test_mid_band_wobble_does_not_count():
    trace = StepTrace(initial=5.0)
    t = 0
    for v in (4.0, 6.0, 4.0, 6.0):
        t += 10
        trace.add(t, v)
    assert oscillation_count(trace, 1.0, 9.0, 0, t) == 0


def test_oscillation_rejects_bad_thresholds():
    trace = StepTrace(0.0)
    with pytest.raises(ValueError):
        oscillation_count(trace, 5.0, 5.0, 0, 10)
