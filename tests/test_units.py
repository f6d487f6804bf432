import random
import re

import pytest

from abrsim.units import (
    CELL_BITS,
    PS_PER_SEC,
    cell_tx_time,
    cps_to_mbps,
    mbps_to_cps,
    ms_to_ps,
    ps_to_ms,
    us_to_ps,
)


def test_zero_rate_converts_to_zero():
    assert mbps_to_cps(0) == 0.0
    assert cps_to_mbps(0) == 0.0


def test_oc3_rate_in_cells_per_second():
    # direct arithmetic: 155.52e6 bits/s over 424-bit cells
    assert mbps_to_cps(155.52) == pytest.approx(155.52e6 / 424, rel=1e-12)
    assert mbps_to_cps(155.52) == pytest.approx(366792.4528301887, rel=1e-12)


def test_140mbps_rate_in_cells_per_second():
    assert mbps_to_cps(140) == pytest.approx(140e6 / 424, rel=1e-12)
    assert mbps_to_cps(140) == pytest.approx(330188.6792452830, rel=1e-12)


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        mbps_to_cps(-1)
    with pytest.raises(ValueError):
        cps_to_mbps(-0.5)


def test_cell_tx_time_one_cell_per_second():
    assert cell_tx_time(1.0) == PS_PER_SEC


def test_cell_tx_time_oc3():
    rate = mbps_to_cps(155.52)
    assert cell_tx_time(rate) == round(PS_PER_SEC / rate) == 2_726_337


def test_cell_tx_time_140mbps():
    rate = mbps_to_cps(140)
    assert cell_tx_time(rate) == round(PS_PER_SEC / rate) == 3_028_571


def test_cell_tx_time_zero_rate_rejected():
    with pytest.raises(ValueError):
        cell_tx_time(0.0)


@pytest.mark.parametrize(
    "rate, ps",
    [(1.0, PS_PER_SEC), (1.99e12, 1), (2e12, None), (2.4e12, None), (float("inf"), None),
     (5.7e-297, round(PS_PER_SEC / 5.7e-297)), (5.5e-297, None), (1e-300, None),
     (0.0, None), (-1.0, None), (float("nan"), None)],
)
def test_cell_tx_time_is_finite_and_at_least_one_picosecond(rate, ps):
    # 2e12 cells/s is 0.5 ps, which rounds to 0; below about 5.6e-297
    # cells/s the time overflows a float
    if ps is None:
        with pytest.raises(ValueError, match="^link must "):
            cell_tx_time(rate, "link")
    else:
        assert cell_tx_time(rate, "link") == ps


def test_round_trip_conversion_is_identity():
    rng = random.Random(8151)
    for _ in range(10**6):
        mbps = rng.uniform(0.0, 1e4)
        back = cps_to_mbps(mbps_to_cps(mbps))
        assert back == pytest.approx(mbps, rel=1e-12)


def test_cell_tx_time_strictly_decreasing_in_rate():
    # geometric grid keeps neighboring rates far enough apart that the
    # picosecond rounding cannot produce ties
    rate = 1.0
    prev = cell_tx_time(rate)
    while rate < 1e9:
        rate *= 1.01
        cur = cell_tx_time(rate)
        assert cur < prev
        prev = cur


def test_time_helpers_are_exact_at_scenario_scales():
    assert ms_to_ps(275) == 275 * 10**9
    assert us_to_ps(5) == 5 * 10**6
    assert ps_to_ms(ms_to_ps(1200.5)) == 1200.5


@pytest.mark.parametrize(
    "convert, value, unit",
    [(ms_to_ps, 1e300, "ms"), (us_to_ps, 1e303, "us"), (ms_to_ps, float("nan"), "ms")],
)
def test_times_beyond_the_picosecond_clock_are_value_errors(convert, value, unit):
    message = f"must fit the picosecond clock, got {value:g} {unit}"
    with pytest.raises(ValueError, match=re.escape(message)):
        convert(value)


def test_cell_size_is_53_bytes():
    assert CELL_BITS == 53 * 8
