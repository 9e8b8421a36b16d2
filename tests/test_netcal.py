"""Queueing-bound checks against enumeration oracles and closed forms.

The arrival MGF is compared with explicit window counting, the service MGF
with exhaustive path enumeration and a dense logsumexp recursion, the
delay search with a per-theta bisection, and the delay bound with the geometric
closed form available for a constant-rate server.  The throughput search
is checked for its lattice certificate and its degenerate outcomes.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdmacal as cc
from cdmacal.netcal import _theta_stats

from conftest import single_state_model
from oracles import (arrival_log_mgf_enumeration, random_chain,
                     service_log_mgf_enumeration,
                     service_log_mgf_table_logsumexp, theta_stats_bisection)


def _chain_model(pi, p, rates):
    return cc.FsmcModel(transition=p, pi=pi, rates_bps_hz=rates / 4.0,
                        rates_blocks=rates, thresholds_linear=np.zeros(len(pi)),
                        gamma_bar=1.0, t_b_s=2e-3, f_m_hz=0.0)


def test_arrival_mgf_matches_window_enumeration():
    for delta in (0.0, 0.5, 2.25):
        for tau in (1, 2, 3, 5):
            src = cc.PeriodicSource(delta * tau, tau_slots=tau)
            for theta in (1e-3, 0.3, 4.0):
                for t in range(0, 13):
                    want = arrival_log_mgf_enumeration(delta * tau, tau, theta, t)
                    assert src.log_mgf(theta, t) == pytest.approx(
                        want, abs=1e-12), (delta, tau, theta, t)


@settings(max_examples=150, deadline=None)
@given(delta=st.floats(0.0, 5.0), tau=st.integers(1, 6),
       theta=st.floats(1e-3, 4.0), t=st.integers(0, 40))
def test_arrival_mgf_window_enumeration_property(delta, tau, theta, t):
    src = cc.PeriodicSource(delta, tau_slots=tau)
    want = arrival_log_mgf_enumeration(delta, tau, theta, t)
    assert src.log_mgf(theta, t) == pytest.approx(want, abs=1e-9)


def test_arrival_mgf_vector_time_and_zero_rate():
    src = cc.PeriodicSource(1.5, tau_slots=3)
    ts = np.arange(10)
    vec = src.log_mgf(0.7, ts)
    assert vec.shape == (10,)
    assert vec[0] == 0.0
    zero = cc.PeriodicSource(0.0, tau_slots=2)
    assert np.all(zero.log_mgf(2.0, ts) == 0.0)
    assert cc.arrival_mgf(zero, 2.0, 7) == 1.0


def test_service_mgf_matches_path_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        pi, p, rates = random_chain(rng, n, sparse=bool(rng.random() < 0.4))
        svc = cc.ServiceMgf(_chain_model(pi, p, rates))
        t = int(rng.integers(1, 9))
        for theta in (0.1, 1.0, 7.3):
            want = service_log_mgf_enumeration(pi, p, rates, theta, t)
            got = svc.log_mgf(theta, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (n, t, theta)
            assert svc.mgf(theta, t) == pytest.approx(
                math.exp(want), rel=1e-11)
            checked += 1
    assert checked == 300


def _assert_table_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin])
                  <= 1e-12 * np.maximum(1.0, np.abs(want[fin])))


def test_service_mgf_table_matches_logsumexp_recursion():
    rng = np.random.default_rng(77)
    grid = cc.default_theta_grid()
    for trial in range(24):
        n = int(rng.integers(1, 9))
        pi, p, rates = random_chain(rng, n, max_rate=(3.0, 30.0)[trial % 2],
                                    sparse=trial % 3 == 1)
        if trial % 4 == 3:
            rates[0] = 0.0                          # force an outage state
        got = cc.ServiceMgf(_chain_model(pi, p, rates)).table(grid, 300)
        want = service_log_mgf_table_logsumexp(pi, p, rates, grid, 300)
        _assert_table_close(got, want)


def test_service_mgf_table_keeps_mass_a_linear_recursion_underflows():
    # from the 30-block state the chain must pass through the zero-rate
    # state, whose weight e^{-1500} underflows on the linear scale
    pi, p = np.array([1 / 3, 2 / 3]), np.array([[0.0, 1.0], [0.5, 0.5]])
    rates = np.array([0.0, 30.0])
    got = cc.ServiceMgf(_chain_model(pi, p, rates)).table(50.0, 40)
    assert got[0, 2] == pytest.approx(-1500 + math.log(2 / 3), abs=1e-12)
    _assert_table_close(got, service_log_mgf_table_logsumexp(pi, p, rates,
                                                             [50.0], 40))
    single = cc.ServiceMgf(single_state_model(20.0)).table(50.0, 300)[0]
    assert np.array_equal(single, -1000.0 * np.arange(301))


def test_service_mgf_at_time_zero_is_one(ref_service):
    assert ref_service.mgf(0.37, 0) == 1.0
    assert ref_service.log_mgf(5.0, 0) == 0.0


def test_service_mgf_decreasing_in_theta(ref_service):
    # e^{-theta S} shrinks pointwise in theta for nonnegative service
    vals = [ref_service.log_mgf(th, 40) for th in (0.01, 0.1, 1.0, 10.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_service_mgf_table_cache_consistent(ref_model):
    svc = cc.ServiceMgf(ref_model)
    thetas = np.array([0.05, 0.7])
    short = svc.table(thetas, 16)
    full = svc.table(thetas, 64)
    assert np.array_equal(short, full[:, :17])
    fresh = cc.ServiceMgf(ref_model).table(thetas, 64)
    assert np.array_equal(full, fresh)


def test_constant_rate_server_meets_guarantee_in_one_slot():
    # single state at rate r, arrivals delta < r: the truncated sum is
    # geometric, F(tau) = e^{-theta r tau} / (1 - e^{theta(delta - r)}),
    # so any tau >= 1 works at large theta and the optimum sits at the
    # top of the grid
    svc = cc.ServiceMgf(single_state_model(6.0))
    grid = cc.default_theta_grid()
    res = cc.delay_bound(cc.PeriodicSource(3.0), svc, 1e-2, theta_grid=grid,
                         refine=0)
    assert res.d_slots == 1.0
    assert res.theta_star == grid.max()
    assert res.valid and not res.unstable


@pytest.mark.parametrize("delta,rate,eps,hi", [
    (1.0, 2.0, 1e-3, 50.0),     # plenty of exponent headroom: d = 1
    (1.0, 2.0, 1e-3, 2.0),      # grid capped low so several slots are needed
    (1.0, 2.0, 1e-5, 2.0),
    (1.5, 2.0, 1e-4, 0.8),
])
def test_constant_rate_server_matches_geometric_closed_form(delta, rate, eps, hi):
    svc = cc.ServiceMgf(single_state_model(rate))
    grid = cc.default_theta_grid(hi=hi)

    def closed_form_d(theta):
        ratio = math.exp(theta * (delta - rate))
        tau = (-math.log(eps) - math.log1p(-ratio)) / (theta * rate)
        return max(1, math.ceil(tau - 1e-12))

    want = min(closed_form_d(th) for th in grid)
    res = cc.delay_bound(cc.PeriodicSource(delta), svc, eps, theta_grid=grid,
                         refine=0, horizon_slots=4000)
    assert res.d_slots == want


def test_zero_arrivals_reduce_to_service_suffix_sums(ref_model, ref_service):
    eps = 1e-2
    horizon = 512
    grid = cc.default_theta_grid()
    res = cc.delay_bound(cc.PeriodicSource(0.0), ref_service, eps,
                         horizon_slots=horizon, theta_grid=grid, refine=0)
    table = ref_service.table(grid, horizon)
    best = math.inf
    for row in table:
        suffix = np.logaddexp.accumulate(row[::-1])[::-1]
        hit = np.nonzero(suffix <= math.log(eps))[0]
        if hit.size:
            best = min(best, int(hit[0]))
    assert res.d_slots == best


def test_delay_bound_monotone_in_epsilon(ref_service):
    src = cc.PeriodicSource(1.5)
    ds = [cc.delay_bound(src, ref_service, e).d_slots
          for e in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(b <= a for a, b in zip(ds, ds[1:]))


def test_delay_bound_monotone_in_arrival_rate(ref_service):
    ds = [cc.delay_bound(cc.PeriodicSource(d), ref_service, 1e-2).d_slots
          for d in (0.5, 1.0, 2.0, 3.0, 4.0)]
    assert all(b >= a for a, b in zip(ds, ds[1:]))


def test_delay_bound_improves_with_faster_server(ref_model):
    src = cc.PeriodicSource(1.5)
    base = cc.delay_bound(src, cc.ServiceMgf(ref_model), 1e-2)
    import dataclasses
    faster = dataclasses.replace(ref_model, rates_blocks=ref_model.rates_blocks * 2)
    quick = cc.delay_bound(src, cc.ServiceMgf(faster), 1e-2)
    assert quick.d_slots <= base.d_slots


def test_theta_stats_matches_bisection_oracle(ref_model, ref_service):
    grid = cc.default_theta_grid(points=25)
    logms = ref_service.table(grid, 601)
    mean_rate = float(ref_model.pi @ ref_model.rates_blocks)
    checked = 0
    for tau in (1, 2, 3, 5, 7):
        for load in (0.3, 0.9, 1.2):                 # 1.2: overloaded
            src = cc.PeriodicSource(load * mean_rate * tau, tau_slots=tau)
            # 601, 602 and 98 slots: multiples of some periods, not of others
            for horizon in (600, 601, 97):
                for eps in (1e-1, 1e-2, 1e-4):
                    log_eps = math.log(eps)
                    rows = logms[:, :horizon + 1]
                    d, lt, dec = _theta_stats(src, grid, rows, log_eps)
                    d_o, lt_o, dec_o = theta_stats_bisection(src, grid, rows,
                                                             log_eps)
                    assert np.array_equal(dec, dec_o), (tau, load, horizon, eps)
                    assert np.array_equal(d, d_o), (tau, load, horizon, eps)
                    both = np.isfinite(d)
                    assert np.allclose(lt[both], lt_o[both], rtol=1e-9,
                                       atol=0), (tau, load, horizon, eps)
                    checked += int(both.sum())
    assert checked > 200


def test_longer_period_bursts_delay_more(ref_service):
    # same mean rate, burstier release: the bound cannot improve
    d1 = cc.delay_bound(cc.PeriodicSource(1.2, 1), ref_service, 1e-2).d_slots
    d4 = cc.delay_bound(cc.PeriodicSource(4.8, 4), ref_service, 1e-2).d_slots
    assert d4 >= d1


def test_denser_theta_grid_never_hurts(ref_service):
    src = cc.PeriodicSource(2.0)
    coarse = cc.default_theta_grid(points=20)
    dense = cc.default_theta_grid(points=39)      # superset of the coarse grid
    assert np.allclose(dense[::2], coarse, rtol=1e-12)
    d_coarse = cc.delay_bound(src, ref_service, 1e-2, theta_grid=coarse,
                              refine=0).d_slots
    d_dense = cc.delay_bound(src, ref_service, 1e-2, theta_grid=dense,
                             refine=0).d_slots
    assert d_dense <= d_coarse
    refined = cc.delay_bound(src, ref_service, 1e-2, theta_grid=coarse,
                             refine=2).d_slots
    assert refined <= d_coarse


def test_overloaded_source_flagged_unstable(ref_model, ref_service):
    mean_rate = float(ref_model.pi @ ref_model.rates_blocks)
    res = cc.delay_bound(cc.PeriodicSource(mean_rate * 1.2), ref_service, 1e-2)
    assert math.isinf(res.d_slots)
    assert res.unstable
    assert not res.valid
    assert math.isnan(res.theta_star)


def test_short_horizon_gives_inf_but_not_unstable(ref_service):
    # stable load that simply needs more than 24 slots to certify
    res = cc.delay_bound(cc.PeriodicSource(4.0), ref_service, 1e-4,
                         horizon_slots=24)
    assert math.isinf(res.d_slots)
    assert not res.unstable
    assert not res.valid


def test_delay_bound_input_validation(ref_service):
    src = cc.PeriodicSource(1.0)
    with pytest.raises(ValueError):
        cc.delay_bound(src, ref_service, 0.0)
    with pytest.raises(ValueError):
        cc.delay_bound(src, ref_service, 1.0)
    with pytest.raises(ValueError):
        cc.delay_bound(src, ref_service, 1e-2, theta_grid=[0.0, 1.0])
    for bad in ([0.1, math.nan], [0.1, math.inf]):
        with pytest.raises(ValueError):
            cc.delay_bound(src, ref_service, 1e-2, theta_grid=bad)
    with pytest.raises(ValueError):
        cc.delay_bound(src, ref_service, 1e-2, refine=1, refine_points=1)
    with pytest.raises(ValueError):
        cc.PeriodicSource(-1.0)
    with pytest.raises(ValueError):
        cc.PeriodicSource(1.0, tau_slots=0)


def test_capacity_limit_is_the_weighted_rate_sum(ref_cfg, ref_model):
    want = ref_cfg.alpha * ref_cfg.w_hz * float(
        np.dot(ref_model.pi, ref_model.rates_bps_hz))
    assert cc.capacity_limit(ref_cfg, ref_model) == pytest.approx(want, rel=1e-15)


def test_throughput_search_returns_lattice_certificate(ref_cfg, ref_model,
                                                       ref_service):
    res = cc.delay_constrained_throughput(ref_cfg, ref_model, epsilon=1e-2,
                                          d_guarantee_slots=100,
                                          service=ref_service)
    assert not res.infeasible and not res.capped
    k = res.lambda_blocks / res.resolution_blocks
    assert k == pytest.approx(round(k), abs=1e-9)
    assert res.delay_at_lambda.d_slots <= 100
    assert res.delay_at_lambda.valid
    assert res.delay_above.d_slots > 100
    assert res.lambda_bps == pytest.approx(
        ref_cfg.alpha * res.lambda_blocks * ref_cfg.n_b_bits / ref_cfg.t_b_s)
    assert res.lambda_bps < res.c_lim_bps


def test_throughput_grows_with_looser_guarantee(ref_cfg, ref_model, ref_service):
    lam = [cc.delay_constrained_throughput(ref_cfg, ref_model, epsilon=1e-2,
                                           d_guarantee_slots=d,
                                           service=ref_service).lambda_blocks
           for d in (40, 100, 200)]
    assert lam[0] <= lam[1] <= lam[2]


def test_zero_guarantee_is_infeasible(ref_cfg, ref_model, ref_service):
    res = cc.delay_constrained_throughput(ref_cfg, ref_model, epsilon=1e-2,
                                          d_guarantee_slots=0,
                                          service=ref_service)
    assert res.infeasible
    assert res.lambda_blocks == 0.0
    assert res.delay_above is not None
    assert res.delay_above.d_slots > 0


def test_all_outage_channel_carries_nothing(ref_cfg):
    model = single_state_model(0.0)
    res = cc.delay_constrained_throughput(ref_cfg, model, epsilon=1e-2,
                                          d_guarantee_slots=100)
    assert res.infeasible and res.lambda_blocks == 0.0
    assert cc.capacity_limit(ref_cfg, model) == 0.0


def test_deterministic_server_saturates_to_its_rate(ref_cfg):
    # the search stops at the service rate or one lattice step below it:
    # above delta = rate the infinite-horizon sum diverges and the point
    # is rejected even though the truncated sum is tiny
    model = single_state_model(6.0)
    res = cc.delay_constrained_throughput(ref_cfg, model, epsilon=1e-2,
                                          d_guarantee_slots=50)
    assert not res.infeasible
    assert 6.0 - 2.5 * res.resolution_blocks <= res.lambda_blocks <= 6.0 + 1e-9


def test_throughput_input_validation(ref_cfg, ref_model, ref_service):
    with pytest.raises(ValueError):
        cc.delay_constrained_throughput(ref_cfg, ref_model, epsilon=1e-2,
                                        d_guarantee_slots=-1,
                                        service=ref_service)
    with pytest.raises(ValueError):
        cc.delay_constrained_throughput(ref_cfg, ref_model, epsilon=1e-2,
                                        d_guarantee_slots=10,
                                        resolution_blocks=0.0,
                                        service=ref_service)
