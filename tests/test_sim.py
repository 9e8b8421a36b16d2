"""Simulator checks: distributional sanity for the finite-system sampler
and the channel paths, exact hand-worked cases for the FIFO queue."""
import dataclasses
import math

import numpy as np
import pytest

import cdmacal as cc

from conftest import single_state_model
from oracles import finite_sinr_direct


def test_single_user_is_matched_filter():
    # k = 1: no interference, SINR = p1 |s1|^2 / sigma2 with E|s1|^2 = 1
    sigma2 = 0.25
    sinr, p1 = cc.sample_finite_sinr_batch(48, 1, sigma2, 4000, seed=9)
    assert np.all(sinr > 0)
    ratio = sinr / p1 * sigma2             # |s1|^2 samples, mean 1, var 1/m
    assert ratio.mean() == pytest.approx(1.0, abs=4 / math.sqrt(48 * 4000))
    assert ratio.std() == pytest.approx(1 / math.sqrt(48), rel=0.15)


def test_finite_sinr_concentrates_on_decoupled_value():
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0)
    beta = cc.solve_fixed_point(cfg).beta
    sinr, p1 = cc.sample_finite_sinr_batch(96, 48, cfg.sigma2, 1500, seed=31)
    assert np.mean(sinr / p1) * beta == pytest.approx(1.0, abs=0.05)


def test_finite_sinr_woodbury_matches_direct_solve():
    for k, sigma2 in ((8, 0.5), (16, 1e-3), (1, 0.25)):
        sinr, p1 = cc.sample_finite_sinr_batch(16, k, sigma2, 64, seed=5)
        want, p1_want = finite_sinr_direct(16, k, sigma2, 64, seed=5)
        assert np.array_equal(p1, p1_want)
        assert np.allclose(sinr, want, rtol=1e-9, atol=0)


def test_finite_sinr_single_draw_and_validation():
    sinr, p1 = cc.sample_finite_sinr_batch(16, 8, 0.5, 1, seed=4)
    assert sinr.shape == p1.shape == (1,)
    assert sinr[0] > 0 and p1[0] > 0
    with pytest.raises(ValueError):
        cc.sample_finite_sinr_batch(0, 1, 0.5, 1)
    with pytest.raises(ValueError):
        cc.sample_finite_sinr_batch(8, 2, 0.0, 1)


def test_chain_paths_reproduce_stationary_law(ref_model):
    states = cc.simulate_fsmc(ref_model, 400_000, seed=17)
    occ = np.bincount(states, minlength=ref_model.n_states) / len(states)
    # correlated samples: allow a generous multiple of the iid error
    assert np.abs(occ - ref_model.pi).max() < 0.01


def test_chain_paths_reproduce_transition_rows(ref_model):
    states = cc.simulate_fsmc(ref_model, 300_000, seed=23)
    src, dst = states[:-1], states[1:]
    for l in range(ref_model.n_states):
        mask = src == l
        n_l = int(mask.sum())
        if n_l < 2000:
            continue
        for j in (l - 1, l, l + 1):
            if not 0 <= j < ref_model.n_states:
                continue
            p_hat = np.mean(dst[mask] == j)
            p_true = ref_model.transition[l, j]
            se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / n_l)
            assert abs(p_hat - p_true) < 4 * se + 1e-9, (l, j)


def test_chain_respects_adjacency(ref_model):
    states = cc.simulate_fsmc(ref_model, 50_000, seed=3)
    assert np.abs(np.diff(states)).max() <= 1


def test_zero_doppler_path_is_constant():
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=0.0)
    model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
    states = cc.simulate_fsmc(model, 5000, seed=2)
    assert np.all(states == states[0])


def test_chain_reproducible_and_seed_sensitive(ref_model):
    a = cc.simulate_fsmc(ref_model, 10_000, seed=5)
    b = cc.simulate_fsmc(ref_model, 10_000, seed=5)
    c = cc.simulate_fsmc(ref_model, 10_000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    forced = cc.simulate_fsmc(ref_model, 100, seed=5, init_state=3)
    assert forced[0] == 3


def test_queue_slower_server_accumulates_delay():
    # service 2 blocks/slot, arrivals 3 per slot for 10 slots: block i
    # finishes when cumulative service 2(t+1) reaches 3(i+1)
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(3.0), 10, seed=0,
                                   drain_slot_cap=100)
    assert np.array_equal(trace.delays_slots, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
    assert trace.undelivered == 0
    assert trace.epochs == 10
    assert trace.backlog_peak == pytest.approx(10.0)
    assert not trace.unstable


def test_queue_fast_server_serves_same_slot():
    trace = cc.simulate_fifo_queue(single_state_model(6.0),
                                   cc.PeriodicSource(3.0), 50, seed=0)
    assert np.array_equal(trace.delays_slots, np.zeros(50, dtype=np.int64))
    assert trace.backlog_peak == 0.0


def test_queue_exact_rate_match_has_zero_delay():
    trace = cc.simulate_fifo_queue(single_state_model(3.0),
                                   cc.PeriodicSource(3.0), 50, seed=0)
    assert np.array_equal(trace.delays_slots, np.zeros(50, dtype=np.int64))


def test_queue_zero_arrivals_have_zero_delay(ref_model):
    trace = cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(0.0), 2000,
                                   seed=8)
    assert trace.epochs == 2000
    assert np.all(trace.delays_slots == 0)
    assert trace.undelivered == 0


def test_queue_periodic_batches():
    # 6 blocks every 3 slots into a 2-block/slot server: the batch finishes
    # exactly one period later regardless of phase
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(6.0, tau_slots=3), 60,
                                   seed=12, drain_slot_cap=60)
    assert trace.undelivered == 0
    assert np.all(trace.delays_slots == 2)


def test_queue_overload_hits_backlog_cap():
    trace = cc.simulate_fifo_queue(single_state_model(0.0),
                                   cc.PeriodicSource(1.0), 1000, seed=0,
                                   backlog_cap=50.0)
    assert trace.unstable
    assert trace.n_slots < 1000
    assert trace.undelivered == trace.epochs
    assert len(trace.delays_slots) == 0


def test_queue_drain_completes_late_blocks(ref_model):
    src = cc.PeriodicSource(4.0)          # heavy but under the 4.76 mean rate
    trace = cc.simulate_fifo_queue(ref_model, src, 30_000, seed=14)
    assert trace.undelivered == 0
    assert len(trace.delays_slots) == trace.epochs
    assert trace.backlog_peak > 0


def test_queue_reports_censoring_when_drain_capped():
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(3.0), 10, seed=0,
                                   drain_slot_cap=0)
    assert trace.undelivered > 0
    assert len(trace.delays_slots) + trace.undelivered == trace.epochs


def test_queue_reproducible(ref_model):
    src = cc.PeriodicSource(1.663)
    a = cc.simulate_fifo_queue(ref_model, src, 20_000, seed=77)
    b = cc.simulate_fifo_queue(ref_model, src, 20_000, seed=77)
    assert np.array_equal(a.delays_slots, b.delays_slots)
    assert np.array_equal(a.service_blocks, b.service_blocks)


def test_violation_frequency_counts():
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(3.0), 10, seed=0,
                                   drain_slot_cap=100)
    # delays [1 1 2 2 3 3 4 4 5 5]: 4 of 10 exceed 3
    freq, se = trace.violation_frequency(3)
    assert freq == pytest.approx(0.4)
    assert se == pytest.approx(math.sqrt(0.4 * 0.6 / 10))
    freq0, _ = trace.violation_frequency(5)
    assert freq0 == 0.0
    q = trace.delay_quantiles((0.5,))
    assert q[0.5] == pytest.approx(3.0)


def test_queue_input_validation(ref_model):
    with pytest.raises(ValueError):
        cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(1.0), 0)
    with pytest.raises(ValueError):
        cc.simulate_fsmc(ref_model, -1)
    with pytest.raises(ValueError):
        cc.simulate_fsmc(ref_model, 10, init_state=99)
