import math
import random
import re
import sys

import pytest

from abrsim.analysis import (
    PathSpec,
    crm_from_tbe,
    decay_after,
    decay_closed_form,
    flight_capacity,
    min_crm,
    trigger_predicate,
)
from abrsim.scenario import SourceCfg
from abrsim.units import mbps_to_cps, ms_to_ps

OC3 = mbps_to_cps(155.52)
OC12 = mbps_to_cps(622.08)


# -- crm_from_tbe ---------------------------------------------------------


def test_crm_from_tbe_exact_division():
    assert crm_from_tbe(1024, 32) == 32


def test_crm_from_tbe_rounds_up():
    assert crm_from_tbe(1025, 32) == 33


def test_crm_from_tbe_24bit_tbe_gives_19bit_crm():
    assert crm_from_tbe(2**24 - 1, 32) == 524_288 == 2**19


def test_crm_from_tbe_rejects_nonpositive():
    with pytest.raises(ValueError):
        crm_from_tbe(0, 32)
    with pytest.raises(ValueError):
        crm_from_tbe(100, 0)


@pytest.mark.parametrize("cfg, message", [
    (SourceCfg(tbe=100.5), "tbe must be an integer, got 100.5"),
    (SourceCfg(nrm=32.5, tbe=1024), "nrm must be an integer, got 32.5"),
])
def test_a_non_integer_tbe_or_nrm_is_named_before_crm_is_derived(cfg, message):
    # crm is derived from tbe and nrm when only tbe is given: a float crm
    # must not be what the error names
    with pytest.raises(ValueError, match=f"^{message}$"):
        cfg.resolved()


def test_crm_from_tbe_ceiling_properties():
    rng = random.Random(424)
    for _ in range(10**5):
        tbe = rng.randint(1, 2**24)
        nrm = rng.randint(1, 256)
        crm = crm_from_tbe(tbe, nrm)
        assert crm * nrm >= tbe
        assert (crm - 1) * nrm < tbe


# -- min_crm and flight_capacity -----------------------------------------


def test_min_crm_oc3_satellite():
    # ceil(0.550 s * 366792.45 cells/s / 32) computed directly
    path = PathSpec(rtt=ms_to_ps(550), link_rate=OC3, nrm=32, hops=1)
    assert min_crm(path) == math.ceil(0.550 * OC3 / 32) == 6305


def test_min_crm_oc12_is_four_times_oc3_within_ceiling_slack():
    oc3 = min_crm(PathSpec(rtt=ms_to_ps(550), link_rate=OC3, nrm=32))
    oc12 = min_crm(PathSpec(rtt=ms_to_ps(550), link_rate=OC12, nrm=32))
    # 4*ceil(x) and ceil(4x) may differ by up to 3
    assert 0 <= 4 * oc3 - oc12 <= 3


def test_min_crm_scales_exactly_with_hops():
    for hops in (1, 2, 3, 8):
        path = PathSpec(rtt=ms_to_ps(550), link_rate=OC12, nrm=32, hops=hops)
        single = PathSpec(rtt=ms_to_ps(550), link_rate=OC12, nrm=32, hops=1)
        assert min_crm(path) == hops * min_crm(single)


def test_min_crm_is_at_least_one_rm_cell_per_hop():
    # crm >= 1 is the source rule, whatever the round trip holds
    assert min_crm(PathSpec(rtt=0, link_rate=OC3)) == 1
    assert min_crm(PathSpec(rtt=0, link_rate=OC3, hops=3)) == 3
    assert min_crm(PathSpec(rtt=1, link_rate=OC3, nrm=32)) == 1
    crm = min_crm(PathSpec(rtt=0, link_rate=OC3, nrm=32))
    SourceCfg(crm=crm).resolved()  # a source can take it


def test_min_crm_monotone():
    rng = random.Random(7)
    base = PathSpec(rtt=ms_to_ps(550), link_rate=OC3, nrm=32, hops=1)
    for _ in range(200):
        rtt = ms_to_ps(rng.uniform(1, 1200))
        rate = rng.uniform(1e3, 1e7)
        nrm = rng.randint(2, 128)
        a = min_crm(PathSpec(rtt=rtt, link_rate=rate, nrm=nrm))
        assert min_crm(PathSpec(rtt=rtt + ms_to_ps(50), link_rate=rate, nrm=nrm)) >= a
        assert min_crm(PathSpec(rtt=rtt, link_rate=rate * 2, nrm=nrm)) >= a
        assert min_crm(PathSpec(rtt=rtt, link_rate=rate, nrm=nrm, hops=3)) >= a
        assert min_crm(PathSpec(rtt=rtt, link_rate=rate, nrm=nrm + 1)) <= a
    assert min_crm(base) == 6305


def test_flight_capacity_oc3_satellite():
    assert flight_capacity(PathSpec(rtt=ms_to_ps(550), link_rate=OC3)) == 201_736


def test_flight_capacity_zero_rtt():
    assert flight_capacity(PathSpec(rtt=0, link_rate=OC3)) == 0


def test_flight_capacity_consistent_with_min_crm():
    rng = random.Random(99)
    for _ in range(500):
        path = PathSpec(
            rtt=ms_to_ps(rng.uniform(0.1, 1200)),
            link_rate=rng.uniform(1e3, 1e7),
            nrm=rng.randint(1, 128),
        )
        via_flight = -(-flight_capacity(path) // path.nrm)
        assert abs(via_flight - min_crm(path)) <= 1


def test_path_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        PathSpec(rtt=-1, link_rate=OC3)
    with pytest.raises(ValueError, match=r"^link_rate must be > 0, got 0 Mbps$"):
        PathSpec(rtt=0, link_rate=0.0)
    with pytest.raises(ValueError, match="^link_rate must give a cell time of at least 1 ps"):
        PathSpec(rtt=0, link_rate=mbps_to_cps(1e9))  # the rule of a run's rates
    with pytest.raises(ValueError):
        PathSpec(rtt=0, link_rate=OC3, nrm=0)
    with pytest.raises(ValueError):
        PathSpec(rtt=0, link_rate=OC3, hops=0)


@pytest.mark.parametrize("call, key", [
    (lambda: min_crm(PathSpec(rtt=ms_to_ps(550), link_rate=OC3, nrm=10**400)), "nrm"),
    (lambda: PathSpec(rtt=0, link_rate=OC3, hops=10**400), "hops"),
    (lambda: decay_closed_form(OC3, 1 / 16, 0.0, 10**400), "k"),
    (lambda: decay_after(OC3, 1 / 16, 0.0, 10**400), "k"),
    (lambda: trigger_predicate(1e5, 1.0, 10**400), "crm"),
], ids=["min-crm-nrm", "hops", "decay-closed-form-k", "decay-after-k", "trigger-crm"])
def test_a_count_beyond_the_largest_float_is_named(call, key):
    # the calculators mix counts with rates: such a count would overflow a float
    message = f"{key} must be at most {sys.float_info.max:g}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- decay ---------------------------------------------------------------


def test_decay_single_cut():
    # one-step decrement: 140 * (1 - 1/16)
    assert decay_after(mbps_to_cps(140), 1 / 16, 0.0, 0) == pytest.approx(
        mbps_to_cps(140) * 15 / 16, rel=1e-15
    )
    assert decay_after(mbps_to_cps(140), 1 / 16, 0.0, 0) == pytest.approx(
        mbps_to_cps(131.25), rel=1e-12
    )


def test_decay_cdf_one_removes_everything():
    assert decay_after(mbps_to_cps(140), 1.0, 0.0, 0) == 0.0


def test_decay_floors_at_mcr():
    assert decay_after(mbps_to_cps(140), 1 / 16, mbps_to_cps(50), 1000) == mbps_to_cps(50)


@pytest.mark.parametrize(
    "cdf, mcr", [(1 / 64, 0.0), (1 / 2, 0.0), (1 / 16, mbps_to_cps(50)), (1.0, 0.0), (0.0, 0.0)]
)
def test_decay_stops_at_its_fixed_point(cdf, mcr):
    # The iteration reaches MCR, zero or a rate whose decrement rounds to
    # zero; from there every cut repeats it, so k = 10**12 returns at once.
    icr = mbps_to_cps(140)
    acr = icr
    for _ in range(200_000):
        acr = max(mcr, acr - acr * cdf)
    assert decay_after(icr, cdf, mcr, 10**12) == acr
    assert decay_after(icr, cdf, mcr, 199_999) == acr


def test_decay_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decay_after(1.0, 1.5, 0.0, 0)
    with pytest.raises(ValueError):
        decay_after(1.0, 0.5, 0.0, -1)
    with pytest.raises(ValueError, match="cdf must be 0 or a power of two"):
        decay_after(1.0, 0.05, 0.0, 0)
    with pytest.raises(ValueError, match="cdf must be 0 or a power of two"):
        decay_closed_form(1.0, 0.05, 0.0, 0)
    for decay in (decay_after, decay_closed_form):
        with pytest.raises(ValueError, match="mcr must be <= icr"):
            decay(1.0, 1 / 16, 2.0, 0)


CELL_TIME = "must give a cell time of at least 1 ps that fits the picosecond clock"


@pytest.mark.parametrize("decay", [decay_after, decay_closed_form])
@pytest.mark.parametrize("icr_mbps, mcr_mbps, message", [
    (1e9, 0.0, f"icr {CELL_TIME}, got 1e+09 Mbps"),
    (1e-300, 0.0, f"icr {CELL_TIME}, got 1e-300 Mbps"),
    (140.0, 1e-300, f"mcr {CELL_TIME}, got 1e-300 Mbps"),
], ids=["icr-beyond-the-clock", "icr-below-the-clock", "mcr-below-the-clock"])
def test_decay_takes_only_rates_a_source_can_have(decay, icr_mbps, mcr_mbps, message):
    # a rate above 0 must give a cell time on the clock, as a source's must
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decay(mbps_to_cps(icr_mbps), 1 / 16, mbps_to_cps(mcr_mbps), 0)
    assert decay(0.0, 1 / 16, 0.0, 0) == 0.0  # a rate of 0 is allowed, as in a source


def test_decay_iterated_matches_closed_form():
    rng = random.Random(616)
    for _ in range(10**4):
        icr = rng.uniform(1.0, 4e5)
        cdf = rng.choice((0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0))
        mcr = rng.choice((0.0, icr * rng.random()))
        k = rng.randint(0, 500)
        iterated = decay_after(icr, cdf, mcr, k)
        closed = decay_closed_form(icr, cdf, mcr, k)
        if closed == 0.0:
            assert iterated == 0.0
        else:
            assert abs(iterated - closed) / closed <= 1e-9


# -- trigger predicate ----------------------------------------------------


def test_trigger_obvious_case():
    assert trigger_predicate(1000.0, 10.0, 32) is True


def test_trigger_equal_rates_do_not_fire():
    assert trigger_predicate(500.0, 500.0, 32) is False


def test_trigger_boundary_is_inclusive():
    r = 123.456
    assert trigger_predicate(32 * r, r, 32) is True


def test_trigger_just_below_boundary_does_not_fire():
    r = 123.456
    boundary = 32 * r
    assert trigger_predicate(math.nextafter(boundary, 0.0), r, 32) is False


def test_trigger_scale_invariance():
    rng = random.Random(31)
    for _ in range(2000):
        fwd = rng.uniform(1.0, 1e6)
        bwd = rng.uniform(0.0, 1e6)
        crm = rng.randint(1, 10**6)
        base = trigger_predicate(fwd, bwd, crm)
        # powers of two scale floats exactly, including at the boundary
        for alpha in (0.25, 0.5, 2.0, 1024.0):
            assert trigger_predicate(alpha * fwd, alpha * bwd, crm) is base


def test_trigger_requires_positive_forward_rate():
    with pytest.raises(ValueError):
        trigger_predicate(0.0, 1.0, 32)
