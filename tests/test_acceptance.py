"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with the measured quantities and its
runtime, then asserts.  Budgets are wall-clock upper limits; the checks
themselves are statistical or exact as noted.
"""
import math
import time

import numpy as np
from scipy import integrate

import cdmacal as cc
from cdmacal.largesys import interference_integral

from conftest import single_state_model
from oracles import (arrival_log_mgf_enumeration,
                     constellation_capacity_quadrature,
                     finite_sinr_all_users, interference_integral_closed_form,
                     periodic_log_mgf, random_chain, service_log_mgf,
                     service_log_mgf_enumeration)

PUBLISHED_PI = {
    -2.0: [0.622, 0.234, 0.127, 0.017, 0.00044, 1.43e-7],
    4.0: [0.25, 0.184, 0.261, 0.203, 0.096, 0.01, 3.991e-7],
}


def _report(num, name, ok, detail, t0, budget_s):
    elapsed = time.perf_counter() - t0
    line = (f"ACCEPTANCE {num} {name}: {'PASS' if ok and elapsed < budget_s else 'FAIL'}"
            f" ({detail}; {elapsed:.1f}s of {budget_s:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget_s, line


def test_acceptance_1_stationary_distribution():
    t0 = time.perf_counter()
    worst_abs = 0.0
    worst_ratio = 1.0
    for snr_db, published in PUBLISHED_PI.items():
        cfg = cc.SystemConfig(snr_avg_db=snr_db, alpha=0.5, f_m_hz=20.0)
        model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
        for l, want in enumerate(published):
            got = float(model.pi[l])
            if want >= 1e-3:
                worst_abs = max(worst_abs, abs(got - want))
            else:
                worst_ratio = max(worst_ratio, got / want, want / got)
    ok = worst_abs <= 5e-3 and worst_ratio <= 10.0
    _report(1, "stationary distribution vs published vectors", ok,
            f"max abs err {worst_abs:.2e} (tol 5e-3), "
            f"max small-entry ratio {worst_ratio:.2f} (tol 10)", t0, 1.0)


def test_acceptance_2_mode_thresholds():
    t0 = time.perf_counter()
    table = cc.default_mode_table()
    checks = cc.verify_thresholds(table, tol_db=0.3)
    worst = max(abs(c.error_db) for c in checks)
    # the rule against the one-dimensional oracle at every solved threshold
    worst_quad = max(
        abs(cc.constellation_capacity(table[c.mode_index], g)
            - constellation_capacity_quadrature(c.label, g))
        for c in checks if c.solvable
        for g in [cc.db_to_linear(c.solved_db)])
    ok = (len(checks) == 6 and all(c.solvable for c in checks)
          and all(c.within_tol for c in checks) and worst_quad <= 1e-5)
    _report(2, "capacity thresholds within 0.3 dB", ok,
            f"worst |err| {worst:.3f} dB, worst |quadrature - oracle| "
            f"{worst_quad:.1e} bps/Hz (tol 1e-5)", t0, 300.0)


def test_acceptance_3_finite_system_convergence():
    # every user of 600 draws is tagged; the per-draw means have a standard
    # error of 6e-4.  The statistic's finite-system bias is O(1/m): it reads
    # 0.0064 at m 128, 0.0035 at m 256 and 0.0017 at m 512 (same seed), so
    # the tolerance is that 0.0064 as a bias bound plus 5 standard errors.
    t0 = time.perf_counter()
    sigma2 = 10 ** -0.6
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0)
    beta = cc.solve_fixed_point(cfg).beta
    per_draw = finite_sinr_all_users(256, 128, sigma2, 600, seed=2718).mean(axis=1)
    rel = abs(float(np.mean(per_draw)) * beta - 1.0)
    se = float(np.std(per_draw, ddof=1)) * beta / math.sqrt(per_draw.size)
    ok = rel <= 0.01
    _report(3, "finite-system SINR matches the decoupled value", ok,
            f"|mean(SINR/p)*beta - 1| = {rel:.4f} (se {se:.4f}, tol 0.01), "
            f"m=256, 600 draws of 128 users", t0, 600.0)


def test_acceptance_4_bound_holds_in_simulation(ref_model):
    t0 = time.perf_counter()
    eps = 1e-2
    res = cc.delay_constrained_throughput(ref_model, epsilon=eps,
                                          d_guarantee_slots=100)
    d_bound = res.delay_at_lambda.d_slots
    src = cc.PeriodicSource(res.lambda_blocks)
    trace = cc.simulate_fifo_queue(ref_model, src, 1_000_000, seed=314159)
    freq, se = trace.violation_frequency(d_bound)
    ok = (trace.epochs >= 1_000_000 and trace.undelivered == 0
          and freq <= eps + 3 * se)
    _report(4, "delay bound holds over a one-million-block run", ok,
            f"lambda {res.lambda_blocks:.3f} blk/slot, d_bound {d_bound:.0f}, "
            f"P(delay>d) = {freq:.2e} <= {eps + 3 * se:.2e}", t0, 600.0)


def test_acceptance_5_throughput_trends(ref_cfg, ref_model):
    t0 = time.perf_counter()
    eps, d_g = 1e-2, 100
    step_bps = ref_cfg.alpha * 1e-3 * ref_cfg.n_b_bits / ref_cfg.t_b_s
    slack = step_bps + 1e-9
    problems = []
    over_cap = []

    def tput(cfg, model, *, eps=eps, d_g=d_g):
        r = cc.delay_constrained_throughput(model, epsilon=eps,
                                            d_guarantee_slots=d_g)
        lam_bps = r.lambda_blocks * (cfg.alpha * cfg.n_b_bits / cfg.t_b_s)
        cap_bps = cfg.alpha * cfg.w_hz * float(model.pi @ cfg.modes.rates_bps_hz)
        if lam_bps > cap_bps + 1e-6:
            over_cap.append((cfg.snr_avg_db, cfg.alpha, lam_bps))
        return lam_bps

    # (a) guarantee and violation-probability axes
    lam_d = [tput(ref_cfg, ref_model, d_g=d)
             for d in (20, 40, 60, 80, 100, 120, 140)]
    if any(b < a - slack for a, b in zip(lam_d, lam_d[1:])):
        problems.append(f"not monotone in guarantee: {lam_d}")
    lam_e = [tput(ref_cfg, ref_model, eps=e)
             for e in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)]
    if any(b < a - slack for a, b in zip(lam_e, lam_e[1:])):
        problems.append(f"not monotone in epsilon: {lam_e}")

    # (b) average-SNR axis
    lam_s = []
    for snr in (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0):
        cfg = cc.SystemConfig(snr_avg_db=snr, alpha=0.5, f_m_hz=20.0)
        model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
        lam_s.append(tput(cfg, model))
    if any(b < a - slack for a, b in zip(lam_s, lam_s[1:])):
        problems.append(f"not monotone in SNR: {lam_s}")

    # (c) load axis: unimodal, with the maximiser moving down as the
    # guarantee tightens
    alphas = np.round(np.arange(0.2, 1.21, 0.1), 10)

    def load_curve(d):
        out = []
        for a in alphas:
            cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=float(a), f_m_hz=20.0)
            model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
            out.append(tput(cfg, model, d_g=d))
        return out

    def unimodal(vals, tol):
        peak = int(np.argmax(vals))
        rising = all(b >= a - tol for a, b in zip(vals[:peak + 1],
                                                  vals[1:peak + 1]))
        falling = all(b <= a + tol for a, b in zip(vals[peak:], vals[peak + 1:]))
        return rising and falling, peak

    curve_loose = load_curve(100)
    curve_tight = load_curve(30)
    uni_l, peak_l = unimodal(curve_loose, slack)
    uni_t, peak_t = unimodal(curve_tight, slack)
    if not uni_l:
        problems.append(f"load curve at d=100 not unimodal: {curve_loose}")
    if not uni_t:
        problems.append(f"load curve at d=30 not unimodal: {curve_tight}")
    if alphas[peak_t] > alphas[peak_l] + 1e-9:
        problems.append(f"optimum load rose when guarantee tightened: "
                        f"{alphas[peak_l]} -> {alphas[peak_t]}")
    if over_cap:
        problems.append(f"points above the ergodic limit: {over_cap}")

    ok = not problems
    _report(5, "throughput trends across guarantee, epsilon, SNR, load", ok,
            "; ".join(problems) if problems else
            f"all monotone/unimodal, optimum load {alphas[peak_l]:.1f} -> "
            f"{alphas[peak_t]:.1f} as guarantee tightens, all below capacity",
            t0, 1800.0)


def test_acceptance_6_oracle_equivalence(ref_model):
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    worst_service = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        pi, p, rates = random_chain(rng, n, sparse=bool(rng.random() < 0.5))
        model = cc.FsmcModel(transition=p, pi=pi, rates_blocks=rates)
        t = int(rng.integers(1, 9))
        theta = float(rng.uniform(0.05, 5.0))
        want = math.exp(service_log_mgf_enumeration(pi, p, rates, theta, t))
        got = math.exp(service_log_mgf(model, theta, t))
        worst_service = max(worst_service, abs(got - want) / want)

    worst_integral = 0.0
    for beta in np.geomspace(1e-4, 1e4, 33):
        a = interference_integral(beta)
        b = interference_integral_closed_form(beta)
        worst_integral = max(worst_integral, abs(a - b) / abs(b))

    worst_arrival = 0.0
    for delta, tau in ((0.7, 1), (2.0, 3), (5.5, 4)):
        src = cc.PeriodicSource(delta, tau_slots=tau)
        for theta in (0.1, 1.0, 3.0):
            for t in range(0, 12):
                want = arrival_log_mgf_enumeration(delta, tau, theta, t)
                got = periodic_log_mgf(src, theta, t)
                rel = abs(math.exp(got) - math.exp(want)) / math.exp(want)
                worst_arrival = max(worst_arrival, rel)

    ok = (worst_service <= 1e-12 and worst_integral <= 1e-10
          and worst_arrival <= 1e-12)
    _report(6, "enumeration and closed-form oracles", ok,
            f"service rel {worst_service:.1e} (tol 1e-12), integral rel "
            f"{worst_integral:.1e} (tol 1e-10), arrival rel {worst_arrival:.1e}"
            " (tol 1e-12)", t0, 60.0)


def test_acceptance_7_degenerate_identities(ref_model):
    t0 = time.perf_counter()
    problems = []

    # alpha I(sigma^2) underflows at the smallest positive load
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=5e-324, f_m_hz=20.0)
    ch = cc.solve_fixed_point(cfg)
    if ch.beta != cfg.sigma2:
        problems.append(f"zero load: beta {ch.beta} != sigma2 {cfg.sigma2}")

    frozen_cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=0.0)
    frozen = cc.build_fsmc(frozen_cfg, cc.solve_fixed_point(frozen_cfg))
    if not np.array_equal(frozen.transition, np.eye(frozen.n_states)):
        problems.append("zero Doppler: transition matrix is not the identity")

    zero_src = cc.PeriodicSource(0.0)
    trace = cc.simulate_fifo_queue(ref_model, zero_src, 50_000, seed=99)
    if not (trace.epochs == 50_000 and np.all(trace.delays_slots == 0)
            and trace.undelivered == 0):
        problems.append("zero arrivals: simulated delays not identically 0")
    mgf_dev = max(abs(periodic_log_mgf(zero_src, th, t))
                  for th in (0.01, 1.0, 30.0) for t in range(0, 200, 17))
    if mgf_dev != 0.0:
        problems.append(f"zero arrivals: MGF deviates from 1 by e^{mgf_dev}")

    cap = cc.constellation_capacity("qpsk", 0.0)
    if not 0.0 <= cap <= 1e-12:
        problems.append(f"zero SNR: capacity {cap} is not 0")

    ok = not problems
    _report(7, "degenerate identities", ok,
            "; ".join(problems) if problems else
            "zero load, zero Doppler, zero arrivals, zero SNR all exact",
            t0, 60.0)
