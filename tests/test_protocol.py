import random

import pytest

from abrsim.analysis import decay_after
from abrsim.protocol import (
    QUIESCENT_PROBE_GAP,
    RmFields,
    SourceParams,
    SourceState,
    apply_rule6,
    new_state,
    next_cell,
    on_backward_rm,
)
from abrsim.units import cell_tx_time, mbps_to_cps

PCR = mbps_to_cps(155.52)
ICR = mbps_to_cps(140)


def make_params(**kw):
    defaults = dict(pcr=PCR, mcr=0.0, icr=ICR, nrm=32, rif=1.0, cdf=1 / 16, crm=32, tbe=1024)
    defaults.update(kw)
    return SourceParams(**defaults)


# -- parameter validation --------------------------------------------------


def test_params_accept_table_defaults():
    p = make_params()
    assert p.crm == 32 and p.tbe == 1024


def test_params_reject_rate_ordering_violations():
    with pytest.raises(ValueError):
        make_params(mcr=ICR, icr=0.0)
    with pytest.raises(ValueError):
        make_params(icr=PCR * 2)


def test_params_reject_non_power_of_two_cdf():
    with pytest.raises(ValueError):
        make_params(cdf=0.05)
    with pytest.raises(ValueError):
        make_params(cdf=1 / 128)


def test_params_accept_all_valid_cdfs():
    for cdf in (0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0):
        make_params(cdf=cdf)


def test_params_reject_inconsistent_crm_tbe():
    with pytest.raises(ValueError):
        make_params(crm=33, tbe=1024)
    make_params(crm=33, tbe=1025)  # ceil(1025/32) == 33


def test_params_allow_large_crm():
    # far beyond 8 bits; a 24-bit tbe implies a 19-bit crm
    make_params(crm=2**19, tbe=(2**19) * 32)


def test_params_reject_bad_rif():
    with pytest.raises(ValueError):
        make_params(rif=0.0)
    with pytest.raises(ValueError):
        make_params(rif=1.5)


# -- rate cutoff (rule 6) --------------------------------------------------


def test_cutoff_below_threshold_leaves_rate_alone():
    params = make_params()
    state = new_state(params)
    state.unacked_fwd_rm = 31
    assert apply_rule6(state, params) is False
    assert state.acr == ICR


def test_cutoff_at_threshold_cuts_by_cdf():
    params = make_params()
    state = new_state(params)
    state.unacked_fwd_rm = 32
    assert apply_rule6(state, params) is True
    assert state.acr == pytest.approx(ICR * (1 - 1 / 16), rel=1e-15)
    assert state.acr == pytest.approx(mbps_to_cps(131.25), rel=1e-12)


def test_cutoff_clamps_to_mcr():
    params = make_params(mcr=mbps_to_cps(0.4), icr=mbps_to_cps(0.5), cdf=1.0)
    state = new_state(params)
    state.unacked_fwd_rm = 32
    apply_rule6(state, params)
    assert state.acr == mbps_to_cps(0.4)


def test_cutoff_does_not_reset_its_own_counter():
    # with no feedback the cut repeats on every successive RM cell
    params = make_params()
    state = new_state(params)
    state.unacked_fwd_rm = 32
    apply_rule6(state, params)
    assert state.unacked_fwd_rm == 32
    apply_rule6(state, params)
    assert state.acr == pytest.approx(ICR * (1 - 1 / 16) ** 2, rel=1e-12)


# -- feedback --------------------------------------------------------------


def bwd(er_mbps, bn=False):
    return RmFields(bn=bn, er=mbps_to_cps(er_mbps), ccr=0.0)


def test_feedback_jumps_to_explicit_rate():
    params = make_params()
    state = new_state(params)
    state.acr = mbps_to_cps(1)
    state.unacked_fwd_rm = 57
    on_backward_rm(state, params, bwd(140))
    # min(1 + 155.52, 140) then clamp into [mcr, pcr]
    assert state.acr == mbps_to_cps(140)
    assert state.unacked_fwd_rm == 0


def test_feedback_at_current_rate_is_a_fixed_point():
    params = make_params()
    state = new_state(params)
    state.acr = mbps_to_cps(140)
    on_backward_rm(state, params, bwd(140))
    assert state.acr == mbps_to_cps(140)
    assert state.unacked_fwd_rm == 0


def test_feedback_with_bn_set_adjusts_rate_but_keeps_counter():
    params = make_params()
    state = new_state(params)
    state.acr = mbps_to_cps(140)
    state.unacked_fwd_rm = 7
    on_backward_rm(state, params, bwd(50, bn=True))
    assert state.acr == mbps_to_cps(50)
    assert state.unacked_fwd_rm == 7


def test_feedback_increase_is_capped_by_er_then_pcr():
    params = make_params(rif=1 / 2)
    state = new_state(params)
    state.acr = mbps_to_cps(10)
    on_backward_rm(state, params, bwd(20))
    assert state.acr == mbps_to_cps(20)  # er caps before the rif step does
    state.acr = mbps_to_cps(10)
    on_backward_rm(state, params, bwd(155.52))
    # one additive step of rif * pcr, not all the way to er
    assert state.acr == pytest.approx(mbps_to_cps(10) + 0.5 * params.pcr, rel=1e-12)
    for _ in range(5):
        on_backward_rm(state, params, bwd(155.52))
    assert state.acr == params.pcr


# -- emission pacing and interleaving ---------------------------------------


def drive(state, params, n):
    """The next ``n`` cells' RM fields, None for each data cell."""
    return [next_cell(state, params, state.next_departure) for _ in range(n)]


def test_one_rm_cell_per_nrm_cells():
    params = make_params()
    state = new_state(params)
    cells = drive(state, params, 32)
    assert sum(rm is not None for rm in cells) == 1
    assert sum(rm is None for rm in cells) == 31
    assert cells[0] is not None  # the first cell on the wire is an RM cell


def test_exactly_nrm_minus_one_data_cells_between_rm_cells():
    params = make_params()
    state = new_state(params)
    cells = drive(state, params, 32 * 40)
    rm_positions = [i for i, rm in enumerate(cells) if rm is not None]
    gaps = [b - a for a, b in zip(rm_positions, rm_positions[1:])]
    assert all(g == 32 for g in gaps)


def test_cutoff_first_fires_after_exactly_crm_times_nrm_cells():
    params = make_params()
    state = new_state(params)
    drive(state, params, 1024)
    assert state.rule6_count == 0  # 32 RM cells sent, none answered, no cut yet
    drive(state, params, 1)  # the 33rd RM emission attempt
    assert state.rule6_count == 1
    assert state.first_rule6_cells == 1024


def test_inter_cell_gap_follows_acr():
    params = make_params()
    state = new_state(params)
    t0 = state.next_departure
    next_cell(state, params, t0)
    assert state.next_departure - t0 == cell_tx_time(ICR) == 3_028_571


def test_rm_cells_carry_current_rate_and_peak_er():
    params = make_params()
    state = new_state(params)
    cells = drive(state, params, 1024 + 32 * 3 + 1)
    rms = [rm for rm in cells if rm is not None]
    for rm in rms:
        assert rm.bn is False
        assert rm.er == params.pcr


def test_no_feedback_decay_matches_analysis_oracle_exactly():
    # the ccr stamped into RM cell crm+1+k must equal the iterated-decrement
    # calculator at k, bit for bit
    params = make_params()
    state = new_state(params)
    cells = drive(state, params, 1024 + 32 * 60)
    rms = [rm for rm in cells if rm is not None]
    for k in range(50):
        expected = decay_after(params.icr, params.cdf, params.mcr, k)
        assert rms[params.crm + k].ccr == expected


def test_acr_stays_in_mcr_pcr_over_random_operation_sequences():
    rng = random.Random(2024)
    params = make_params(mcr=mbps_to_cps(0.5), icr=mbps_to_cps(140), cdf=1 / 16)
    state = new_state(params)
    for _ in range(10**5):
        op = rng.random()
        if op < 0.7:
            next_cell(state, params, state.next_departure)
        else:
            er = rng.uniform(0.0, params.pcr * 1.2)
            on_backward_rm(
                state,
                params,
                RmFields(bn=rng.random() < 0.1, er=er, ccr=0.0),
            )
        assert params.mcr <= state.acr <= params.pcr


def test_unacked_counter_matches_trace_replay():
    # unacked == RM cells emitted minus RM cells emitted before the last
    # BN=0 backward receipt
    rng = random.Random(55)
    params = make_params()
    state = new_state(params)
    rm_emitted = 0
    rm_at_last_reset = 0
    for _ in range(20000):
        if rng.random() < 0.9:
            if next_cell(state, params, state.next_departure) is not None:
                rm_emitted += 1
        else:
            bn = rng.random() < 0.2
            on_backward_rm(
                state, params, RmFields(bn=bn, er=params.pcr, ccr=0.0)
            )
            if not bn:
                rm_at_last_reset = rm_emitted
        assert state.unacked_fwd_rm == rm_emitted - rm_at_last_reset


# -- quiescent keep-alive ----------------------------------------------------


def test_cdf_one_decays_to_quiescent_probing():
    params = make_params(cdf=1.0)
    state = new_state(params)
    drive(state, params, 1024)
    t0 = state.next_departure
    probe = next_cell(state, params, t0)  # cut to zero fires here
    assert probe is not None
    assert state.acr == 0.0
    assert state.next_departure == t0 + QUIESCENT_PROBE_GAP
    probe2 = next_cell(state, params, state.next_departure)
    assert probe2.ccr == 0.0


def test_decay_past_the_clock_is_an_error_that_names_acr():
    # mcr = 0 and cdf = 1/2: each cut halves ACR, and after about 1,000
    # cuts the pacing gap no longer fits the picosecond clock
    params = make_params(cdf=1 / 2)
    state = new_state(params)
    with pytest.raises(ValueError, match="^acr must give a cell time of at least 1 ps"):
        drive(state, params, 32 * 2000)
    assert 900 < state.rule6_count < 1100


def test_feedback_restarts_a_quiescent_source():
    params = make_params(cdf=1.0)
    state = new_state(params)
    drive(state, params, 1025)
    assert state.acr == 0.0
    on_backward_rm(state, params, bwd(140))
    assert state.acr == mbps_to_cps(140)
    now = state.next_departure
    next_cell(state, params, now)
    assert state.acr > 0
    assert state.next_departure == now + cell_tx_time(state.acr)


@pytest.mark.parametrize("cdf", [1 / 16, 1.0])
def test_pacing_gap_follows_every_acr_write(cdf):
    # Rule-6 cuts (with cdf = 1 down to zero, then at zero), BN=0 and BN=1
    # feedback, feedback to zero and a restart: after each, the gap is the
    # one ACR implies, and it spaces the next two departures.
    params = make_params(cdf=cdf)
    state = new_state(params)

    def check():
        for _ in range(2):
            assert state.gap == (
                cell_tx_time(state.acr) if state.acr > 0 else QUIESCENT_PROBE_GAP
            )
            now = state.next_departure
            next_cell(state, params, now)
            assert state.next_departure - now == state.gap

    for _ in range(600):
        check()
    assert state.rule6_count >= 5 and (state.acr == 0) == (cdf == 1.0)
    for er_mbps, bn in ((140, False), (20, True), (0, True), (80, False), (155.52, False)):
        on_backward_rm(state, params, bwd(er_mbps, bn))
        check()
    assert state.acr == PCR

