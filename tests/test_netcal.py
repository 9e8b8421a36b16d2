"""Queueing-bound checks against enumeration oracles and closed forms.

The arrival MGF is compared with explicit window counting, the service MGF
with exhaustive path enumeration and a dense logsumexp recursion, the
oracles' log-domain matrix product with 50-digit sums, the spectral closed
form with the log-domain kernel it replaced, with 50-digit arithmetic at
the edge of its stable set and with truncated sums and their geometric
tail bound, and the delay bound with the geometric closed form available
for a constant-rate server.  Every certificate the searches return is
re-checked by the oracle sum, and the throughput search is checked for its
lattice certificate and its degenerate outcomes.  The integer search
gallops from a guess to plain bisection's answer within a probe budget,
and the throughput search, whatever its rate proposal and the theta its
probes start from, returns the rate, flag and delay that plain bisection
over the rate lattice and the delay returns, each of its probes answered
there by a full minimisation, and a theta* that certifies the delay; on a
near-periodic chain that theta* holds at 60 digits.  The rate proposal,
which reads the spectrum alone, is finite on random chains, and a
throughput point stays within its budget of ln F evaluations and
eigensolves.  The chord-line minorant that certifies a refusal never
exceeds the minimum of a random convex function.
A chain that is not a reversible birth-death chain is refused by name.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdmacal as cc
from cdmacal import netcal

from conftest import single_state_model
from oracles import (_log_chain, arrival_log_mgf_enumeration,
                     first_true_bisection, lattice_refusal, log_matmul,
                     log_matmul_mp, log_violation_bound_log_domain,
                     log_violation_bound_mp,
                     periodic_log_mgf, random_birth_death_chain, random_chain,
                     service_log_mgf, service_log_mgf_enumeration,
                     service_log_mgf_table_logsumexp,
                     throughput_lattice_bisection, violation_bound_oracle)

# the theta grid of the former truncated bound, kept as a yardstick
GRID = np.geomspace(1e-4, 50.0, 60)
# delay_constrained_throughput's default lattice spacing
RES = 1e-3


def _chain_model(pi, p, rates):
    return cc.FsmcModel(transition=p, pi=pi, rates_blocks=rates)


def _oracle(model, source, theta, d, horizon):
    return violation_bound_oracle(model.pi, model.transition,
                                  model.rates_blocks, source.delta_blocks,
                                  source.tau_slots, theta, d, horizon)


def _assert_certificate(model, source, bound, epsilon=1e-2):
    """The oracle's upper bound on F at (d, theta*) meets epsilon; the
    horizon doubles until it does or the oracle's tail is negligible."""
    assert bound.valid and math.isfinite(bound.d_slots)
    d = int(bound.d_slots)
    horizon = d + 1000
    for _ in range(8):
        partial, upper = _oracle(model, source, bound.theta_star, d, horizon)
        if upper <= math.log(epsilon) or upper - partial[-1] < 1e-12:
            break
        horizon *= 2
    assert upper <= math.log(epsilon), (source, bound, upper)


def _grid_delay(model, source, eps, theta):
    """Smallest d with ln F_theta(d) <= ln eps at one fixed theta."""
    f = lambda d: cc.log_violation_bound(source, model, theta, d)
    if not f(1 << 20) <= math.log(eps):
        return math.inf
    lo, hi = 0, 1 << 20
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 1 and f(mid) <= math.log(eps):
            hi = mid
        else:
            lo = mid
    return hi


def test_arrival_mgf_matches_window_enumeration():
    for delta in (0.0, 0.5, 2.25):
        for tau in (1, 2, 3, 5):
            src = cc.PeriodicSource(delta * tau, tau_slots=tau)
            for theta in (1e-3, 0.3, 4.0):
                for t in range(0, 13):
                    want = arrival_log_mgf_enumeration(delta * tau, tau, theta, t)
                    assert periodic_log_mgf(src, theta, t) == pytest.approx(
                        want, abs=1e-12), (delta, tau, theta, t)


@settings(max_examples=150, deadline=None)
@given(delta=st.floats(0.0, 5.0), tau=st.integers(1, 6),
       theta=st.floats(1e-3, 4.0), t=st.integers(0, 40))
def test_arrival_mgf_window_enumeration_property(delta, tau, theta, t):
    src = cc.PeriodicSource(delta, tau_slots=tau)
    want = arrival_log_mgf_enumeration(delta, tau, theta, t)
    assert periodic_log_mgf(src, theta, t) == pytest.approx(want, abs=1e-9)


def test_arrival_mgf_vector_time_and_zero_rate():
    src = cc.PeriodicSource(1.5, tau_slots=3)
    ts = np.arange(10)
    vec = periodic_log_mgf(src, 0.7, ts)
    assert vec.shape == (10,)
    assert vec[0] == 0.0
    zero = cc.PeriodicSource(0.0, tau_slots=2)
    assert np.all(periodic_log_mgf(zero, 2.0, ts) == 0.0)
    assert periodic_log_mgf(zero, 2.0, 7) == 0.0


def test_service_mgf_matches_path_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        pi, p, rates = random_chain(rng, n, sparse=bool(rng.random() < 0.4))
        model = _chain_model(pi, p, rates)
        t = int(rng.integers(1, 9))
        for theta in (0.1, 1.0, 7.3):
            want = service_log_mgf_enumeration(pi, p, rates, theta, t)
            got = service_log_mgf(model, theta, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (n, t, theta)
            checked += 1
    assert checked == 300


def _assert_table_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin])
                  <= 1e-12 * np.maximum(1.0, np.abs(want[fin])))


def _table(model, thetas, horizon):
    """ln Ms(theta, t) for t = 0..horizon, column t from column t - 1 by one
    log-domain product ln w_t = ln w_{t-1} (x) ln(P D)."""
    row, lpd = _log_chain(model.pi, model.transition, model.rates_blocks,
                          np.asarray(thetas, dtype=float))
    columns = [np.zeros(np.shape(thetas))]
    for t in range(1, horizon + 1):
        columns.append(np.logaddexp.reduce(row[..., 0, :], axis=-1))
        if t < horizon:
            row = log_matmul(row, lpd)
    return np.stack(columns, axis=-1)


def test_service_mgf_table_matches_logsumexp_recursion():
    # the whole table by one step per column, and the oracles' repeated
    # squaring at a few horizons, odd and even, powers of two and not
    rng = np.random.default_rng(77)
    ts = [1, 2, 3, 64, 255, 300]
    for trial in range(24):
        n = int(rng.integers(1, 9))
        pi, p, rates = random_chain(rng, n, max_rate=(3.0, 30.0)[trial % 2],
                                    sparse=trial % 3 == 1)
        if trial % 4 == 3:
            rates[0] = 0.0                          # force an outage state
        model = _chain_model(pi, p, rates)
        want = service_log_mgf_table_logsumexp(pi, p, rates, GRID, 300)
        _assert_table_close(_table(model, GRID, 300), want)
        _assert_table_close(np.stack([service_log_mgf(model, GRID, t)
                                      for t in ts], axis=-1), want[:, ts])


def test_service_mgf_table_keeps_mass_a_linear_recursion_underflows():
    # from the 30-block state the chain must pass through the zero-rate
    # state, whose weight e^{-1500} underflows on the linear scale
    pi, p = np.array([1 / 3, 2 / 3]), np.array([[0.0, 1.0], [0.5, 0.5]])
    rates = np.array([0.0, 30.0])
    got = _table(_chain_model(pi, p, rates), np.array([50.0]), 40)
    assert got[0, 2] == pytest.approx(-1500 + math.log(2 / 3), abs=1e-12)
    _assert_table_close(got, service_log_mgf_table_logsumexp(pi, p, rates,
                                                             [50.0], 40))
    single = _table(single_state_model(20.0), 50.0, 300)
    assert np.array_equal(single, -1000.0 * np.arange(301))


def test_service_mgf_at_time_zero_is_one(ref_model):
    assert service_log_mgf(ref_model, 0.37, 0) == 0.0
    assert service_log_mgf(ref_model, 5.0, 0) == 0.0


def test_service_mgf_decreasing_in_theta(ref_model):
    # e^{-theta S} shrinks pointwise in theta for nonnegative service
    vals = [service_log_mgf(ref_model, th, 40) for th in (0.01, 0.1, 1.0, 10.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_log_matmul_matches_50_digit_log_sum_exp(n, batched):
    # ln(P D) operands: -inf off a tridiagonal band, one all -inf row of the
    # left factor and one all -inf column of the right, and decays theta R
    # up to 1500 that underflow on the linear scale; the -inf pattern is
    # exact, finite entries agree within 4 ulp, and nothing warns
    rng = np.random.default_rng(n)
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    thetas = np.array([1e-3, 1.0, 50.0]) if batched else np.array(50.0)

    def operand():
        with np.errstate(divide="ignore"):
            log_p = np.log(rng.random((n, n)) * band)
        return log_p - np.multiply.outer(thetas, rng.uniform(0, 30, n))[..., None, :]
    a, b = operand(), operand()
    a[..., rng.integers(n), :] = -math.inf
    b[..., :, rng.integers(n)] = -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_matmul(a, b)
    want = log_matmul_mp(a, b)
    assert got.shape == want.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin])
                  <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(want[fin])))
    assert n == 1 or want[fin].min() < -745     # e^x underflows to 0


def test_stable_set_is_the_perron_test_even_where_the_float_solve_failed():
    # one block per slot at rate 400 (a one-state chain, and a two-state
    # chain whose second state has no mass), theta 1, tau 3, d 1: delta
    # 1150 < tau R is stable although e^{theta delta} overflows the
    # former linear solve, and reads the 50-digit closed form; delta >= tau R
    # (and delta = R = 2 at tau 1, where I - e^{theta delta} P D is singular)
    # reads +inf
    two = _chain_model(np.array([1.0, 0.0]), np.eye(2), np.array([400.0, 400.0]))
    for model in (single_state_model(400.0), two):
        got = netcal._log_f(model, 1.0, 3, 1, 1150.0)
        want = log_violation_bound_mp(model.pi, model.transition,
                                      model.rates_blocks, 1150.0, 3, 1.0, 1)
        assert got == pytest.approx(want, rel=1e-14) and round(want, 2) == 348.90
        assert math.isfinite(netcal._log_f(model, 1.0, 3, 1, 700.0))
        for delta in (1200.0, 1201.0, 1e300):
            assert netcal._log_f(model, 1.0, 3, 1, delta) == math.inf
    for delta in (2.0, 1000.0):
        assert netcal._log_f(single_state_model(2.0), 1.0, 1, 1, delta) == math.inf


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       tau=st.integers(1, 7), load=st.floats(0.0, 1.5),
       log_theta=st.floats(-6.0, 2.0), d=st.integers(1, 40))
@example(seed=1024, n=1, tau=6, load=1.0, log_theta=0.0, d=1)
def test_exact_bound_matches_truncated_oracle(seed, n, tau, load, log_theta, d):
    rng = np.random.default_rng(seed)
    pi, p, rates = random_birth_death_chain(rng, n)
    model = _chain_model(pi, p, rates)
    src = cc.PeriodicSource(load * tau * max(float(pi @ rates), 0.1), tau)
    theta = math.exp(log_theta)
    got = cc.log_violation_bound(src, model, theta, d)
    rho = np.abs(np.linalg.eigvals(p * np.exp(-theta * rates))).max()
    if not theta * src.delta_blocks + tau * math.log(rho) < 0:
        assert got == math.inf               # outside the stable set
        return
    partial, upper = _oracle(model, src, theta, d, d + 300 * tau)
    # never below a truncated sum, never above the oracle's upper bound
    assert np.all(got >= partial - 1e-12 * max(1.0, abs(got)))
    assert got <= upper + 1e-12 * max(1.0, abs(got))
    if upper - partial[-1] <= 1e-12:        # the oracle's tail is negligible
        assert abs(got - partial[-1]) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       max_rate=st.sampled_from([3.0, 30.0]), tau=st.integers(1, 7),
       load=st.floats(0.0, 1.5), log_theta=st.floats(-12.0, 2.0),
       d=st.integers(1, 2000))
def test_spectral_form_matches_the_log_domain_kernel(seed, n, max_rate, tau,
                                                     load, log_theta, d):
    # the former log-semiring kernel (log-domain powers of P D and an L x L
    # solve, on the float P) on random birth-death chains.  Where the
    # stability margin m = -(theta delta + tau ln rho) exceeds 1e-4, the
    # float P and the stochastic chain the kernel's mu_1 reads differ by
    # about 1e-17 / m in ln F, so both agree within 1e-10 at rates up to 3;
    # at rates up to 30, terms of negative eigenvalues can cancel, and the
    # kernel may then only bound F from above.  It is finite wherever the
    # solve is, away from the edge, and the solve reads +inf on the stable
    # set only where e^{theta delta} overflows or at the edge
    rng = np.random.default_rng(seed)
    pi, p, rates = random_birth_death_chain(rng, n, max_rate)
    delta = load * tau * max(float(pi @ rates), 0.1)
    theta = math.exp(log_theta)
    got = netcal._log_f(_chain_model(pi, p, rates), theta, tau, d, delta)
    want = log_violation_bound_log_domain(pi, p, rates, delta, tau, theta, d)
    rho = np.abs(np.linalg.eigvals(p * np.exp(-theta * rates))).max()
    margin = -(theta * delta + tau * math.log(rho))
    tol = 1e-10 * max(1.0, abs(want))
    if math.isfinite(want) and margin > 1e-4:
        assert got >= want - tol, (got, want)
        if max_rate == 3.0:
            assert got <= want + tol, (got, want)
    if math.isfinite(want) and margin > 1e-9:
        assert math.isfinite(got)
    if math.isfinite(got) and not math.isfinite(want):
        assert theta * delta > 700 or abs(margin) < 1e-9, (margin, theta * delta)


@pytest.mark.parametrize("theta, d, want", [
    (2.0, 2, -60.18232155679395), (5.0, 2, -150.18232155679397),
    (50.0, 2, -1500.182321556794), (5.0, 3, -151.79175946922805)])
def test_cancelling_eigen_sum_gives_an_upper_bound(theta, d, want):
    # P = [[0, 1], [1/2, 1/2]] has eigenvalues of both signs; at rate 30 in
    # the second state and d 2 their terms cancel to e^{-30 theta} of their
    # size, below the sum's rounding: a plain eigen-sum reads +inf at theta 5.
    # The kernel then stands by ln of the sum of the terms' absolute values,
    # an upper bound, and reads the 50-digit value (want) where the sum holds
    pi, p = np.array([1 / 3, 2 / 3]), np.array([[0.0, 1.0], [0.5, 0.5]])
    rates = np.array([0.0, 30.0])
    assert log_violation_bound_mp(pi, p, rates, 0.0, 1, theta, d) == pytest.approx(
        want, rel=1e-15)
    got = netcal._log_f(_chain_model(pi, p, rates), theta, 1, d, 0.0)
    assert want - 1e-12 * abs(want) <= got < math.inf
    if d == 3:                              # even power: no cancellation
        assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("margin", [1e-3, 1e-6])
def test_certificate_near_the_stability_limit_holds_on_both_chains(ref_model,
                                                                   margin):
    # a batch a relative margin below the mean service rate: the delay bound
    # (165 030 slots at 1e-3, 2.6e8 at 1e-6) holds at 60 digits on the float
    # P and on the stochastic chain it rounds (ROADMAP item 1)
    src = cc.PeriodicSource(float(ref_model.pi @ ref_model.rates_blocks)
                            * (1 - margin))
    res = cc.delay_bound(src, ref_model, 1e-2)
    assert res.valid and not res.unstable
    for stochastic in (False, True):
        log_f = log_violation_bound_mp(
            ref_model.pi, ref_model.transition, ref_model.rates_blocks,
            src.delta_blocks, 1, res.theta_star, int(res.d_slots), dps=60,
            stochastic=stochastic)
        assert log_f <= math.log(1e-2), (margin, stochastic, res, log_f)


def test_printed_theta_certifies_its_delay_on_a_near_periodic_chain():
    # a two-state chain whose first state has no self-loop, at tau 5 and a
    # one-slot guarantee: ln F is not convex in theta there, and a full
    # minimisation at the reported delay stops at a theta (4.18761) where
    # ln F is -4.506 at 60 digits, above ln epsilon, while the decided probe
    # that certified the rate held at theta 4.40492 (-4.624)
    pi1 = 0.73180692
    ratio = (1 - pi1) / pi1
    pi, p = np.array([1 - pi1, pi1]), np.array([[0.0, 1.0], [ratio, 1 - ratio]])
    rates = np.array([7.83595831, 23.00699054])
    model = _chain_model(pi, p, rates)
    res = cc.delay_constrained_throughput(model, epsilon=1e-2,
                                          d_guarantee_slots=1, tau_slots=5)
    bound = res.delay_at_lambda
    assert bound.valid and bound.d_slots == 1
    src = cc.PeriodicSource(res.lambda_blocks * 5, 5)
    assert cc.log_violation_bound(src, model, bound.theta_star,
                                  1) <= math.log(1e-2)
    for stochastic in (False, True):
        log_f = log_violation_bound_mp(pi, p, rates, src.delta_blocks, 5,
                                       bound.theta_star, 1, dps=60,
                                       stochastic=stochastic)
        assert log_f <= math.log(1e-2), (stochastic, res, log_f)


def test_chains_that_are_not_reversible_birth_death_are_refused_by_name():
    # random_chain's P is dense and its pi is not P's stationary law (at
    # default_rng(19530) ||pi P - pi||_1 = 0.36); a tridiagonal P with one
    # rate missing, and pi off detailed balance by more than rounding
    rng = np.random.default_rng(19530)
    dense = _chain_model(*random_chain(rng, int(rng.integers(1, 6))))
    src = cc.PeriodicSource(0.9 * 2 * float(dense.pi @ dense.rates_blocks), 2)
    with pytest.raises(ValueError, match="transition row 0 has an entry off the "
                                         "tridiagonal band"):
        cc.delay_bound(src, dense, 0.3)
    pi, p, rates = random_birth_death_chain(np.random.default_rng(5), 4)
    p = p.copy()
    p[2, 2] += p[2, 1]
    p[2, 1] = 0.0
    with pytest.raises(ValueError, match=r"pi\[1\] transition\[1, 2\] and pi\[2\] "
                                         r"transition\[2, 1\]: one rate is zero"):
        cc.log_violation_bound(cc.PeriodicSource(0.1), _chain_model(pi, p, rates),
                               0.1, 5)
    pi, p, rates = random_birth_death_chain(np.random.default_rng(5), 4)
    pi = pi * (1 + np.array([0, 0, 4, 0]) * np.finfo(float).eps)
    with pytest.raises(ValueError, match=r"pi\[1\] transition\[1, 2\] and pi\[2\] "
                                         r"transition\[2, 1\]: .* the flows differ"):
        cc.log_violation_bound(cc.PeriodicSource(0.1), _chain_model(pi, p, rates),
                               0.1, 5)


def test_constant_rate_server_meets_guarantee_in_one_slot():
    # single state at rate r, arrivals delta < r: the sum is geometric,
    # F(tau) = e^{-theta r tau} / (1 - e^{theta(delta - r)}), which falls
    # without bound as theta grows, so one slot always suffices
    res = cc.delay_bound(cc.PeriodicSource(3.0), single_state_model(6.0), 1e-2)
    assert res.d_slots == 1.0
    assert res.valid and not res.unstable
    th = res.theta_star
    assert -6.0 * th - math.log1p(-math.exp(-3.0 * th)) <= math.log(1e-2)


@pytest.mark.parametrize("delta,rate,eps,theta", [
    (1.0, 2.0, 1e-3, 50.0),
    (1.0, 2.0, 1e-3, 2.0),
    (1.0, 2.0, 1e-5, 2.0),
    (1.5, 2.0, 1e-4, 0.8),
])
def test_constant_rate_server_matches_geometric_closed_form(delta, rate, eps, theta):
    model = single_state_model(rate)
    src = cc.PeriodicSource(delta)
    for tau in (1, 2, 7, 100):
        want = -theta * rate * tau - math.log1p(-math.exp(theta * (delta - rate)))
        got = cc.log_violation_bound(src, model, theta, tau)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), tau
    res = cc.delay_bound(src, model, eps)
    assert res.d_slots == 1.0
    th = res.theta_star
    assert (-th * rate - math.log1p(-math.exp(th * (delta - rate)))
            <= math.log(eps))


def test_zero_arrivals_reduce_to_service_suffix_sums(ref_model):
    eps = 1e-2
    src = cc.PeriodicSource(0.0)
    for theta in (1e-3, 0.05, 1.0, 30.0):
        partial, upper = _oracle(ref_model, src, theta, 10, 2000)
        got = cc.log_violation_bound(src, ref_model, theta, 10)
        assert partial[-1] - 1e-12 <= got <= upper + 1e-12
    table = service_log_mgf_table_logsumexp(
        ref_model.pi, ref_model.transition, ref_model.rates_blocks, GRID, 512)
    best = math.inf
    for row in table:
        suffix = np.logaddexp.accumulate(row[::-1])[::-1]
        hit = np.nonzero(suffix <= math.log(eps))[0]
        if hit.size:
            best = min(best, int(hit[0]))
    res = cc.delay_bound(src, ref_model, eps)
    assert 1 <= res.d_slots <= best
    _assert_certificate(ref_model, src, res, eps)


def test_delay_bound_monotone_in_epsilon(ref_model):
    src = cc.PeriodicSource(1.5)
    ds = [cc.delay_bound(src, ref_model, e).d_slots
          for e in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(b <= a for a, b in zip(ds, ds[1:]))


def test_delay_bound_monotone_in_arrival_rate(ref_model):
    ds = [cc.delay_bound(cc.PeriodicSource(d), ref_model, 1e-2).d_slots
          for d in (0.5, 1.0, 2.0, 3.0, 4.0)]
    assert all(b >= a for a, b in zip(ds, ds[1:]))


def test_delay_bound_improves_with_faster_server(ref_model):
    src = cc.PeriodicSource(1.5)
    base = cc.delay_bound(src, ref_model, 1e-2)
    import dataclasses
    faster = dataclasses.replace(ref_model, rates_blocks=ref_model.rates_blocks * 2)
    quick = cc.delay_bound(src, faster, 1e-2)
    assert quick.d_slots <= base.d_slots


def test_delay_bound_matches_oracle_sums(ref_model):
    # d is certified at theta* by the oracle's upper bound, and d - 1 is
    # refused at every grid theta: unstable there, or ln F above ln eps
    # with the value itself bracketed by the oracle
    mean_rate = float(ref_model.pi @ ref_model.rates_blocks)
    checked = 0
    for tau in (1, 2, 3, 5, 7):
        for load in (0.3, 0.6, 1.2):                 # 1.2: overloaded
            src = cc.PeriodicSource(load * mean_rate * tau, tau_slots=tau)
            for eps in (1e-1, 1e-2, 1e-4):
                res = cc.delay_bound(src, ref_model, eps)
                if load > 1:
                    assert res.unstable and not res.valid
                    continue
                _assert_certificate(ref_model, src, res, eps)
                d = int(res.d_slots)
                for theta in GRID[::3] if d > 1 else ():
                    got = cc.log_violation_bound(src, ref_model, theta, d - 1)
                    assert got > math.log(eps), (tau, load, eps, theta)
                    partial, upper = _oracle(ref_model, src, theta, d - 1,
                                             d + 20 * tau)
                    assert partial[-1] <= got + 1e-12 * abs(got)
                    assert got <= upper + 1e-12 * abs(got)
                checked += 1
    assert checked == 30


def test_longer_period_bursts_delay_more(ref_model):
    # same mean rate, burstier release: the bound cannot improve
    d1 = cc.delay_bound(cc.PeriodicSource(1.2, 1), ref_model, 1e-2).d_slots
    d4 = cc.delay_bound(cc.PeriodicSource(4.8, 4), ref_model, 1e-2).d_slots
    assert d4 >= d1


def test_denser_theta_grid_never_hurts(ref_model):
    # the delay each grid theta certifies on its own, from the exact sum:
    # a superset grid does no worse, and the exact theta* beats every grid
    src = cc.PeriodicSource(2.0)
    coarse, dense = GRID[::6], GRID[::3]
    assert set(coarse) <= set(dense)
    d_coarse = min(_grid_delay(ref_model, src, 1e-2, th) for th in coarse)
    d_dense = min(_grid_delay(ref_model, src, 1e-2, th) for th in dense)
    d_full = min(_grid_delay(ref_model, src, 1e-2, th) for th in GRID)
    res = cc.delay_bound(src, ref_model, 1e-2)
    assert res.d_slots <= d_full <= d_dense <= d_coarse < math.inf
    _assert_certificate(ref_model, src, res)


def test_overloaded_source_flagged_unstable(ref_model):
    mean_rate = float(ref_model.pi @ ref_model.rates_blocks)
    res = cc.delay_bound(cc.PeriodicSource(mean_rate * 1.2), ref_model, 1e-2)
    assert math.isinf(res.d_slots)
    assert res.unstable
    assert not res.valid
    assert math.isnan(res.theta_star)
    at_mean = cc.delay_bound(cc.PeriodicSource(mean_rate), ref_model, 1e-2)
    assert at_mean.unstable


def test_slow_stable_load_is_certified_not_unstable(ref_model):
    # stable loads that need many slots get a finite certificate, however
    # close to the mean service rate they are
    mean_rate = float(ref_model.pi @ ref_model.rates_blocks)
    for delta, eps in ((0.99 * mean_rate, 1e-2), (4.0, 1e-4)):
        src = cc.PeriodicSource(delta)
        res = cc.delay_bound(src, ref_model, eps)
        assert 24 < res.d_slots < math.inf
        assert res.valid and not res.unstable
        assert cc.log_violation_bound(src, ref_model, res.theta_star,
                                      int(res.d_slots)) <= math.log(eps)
    _assert_certificate(ref_model, src, res, eps)


def test_delay_bound_input_validation(ref_model):
    src = cc.PeriodicSource(1.0)
    with pytest.raises(ValueError):
        cc.delay_bound(src, ref_model, 0.0)
    with pytest.raises(ValueError):
        cc.delay_bound(src, ref_model, 1.0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            cc.log_violation_bound(src, ref_model, bad, 10)
    for bad in (0, 2.5, -1):
        with pytest.raises(ValueError):
            cc.log_violation_bound(src, ref_model, 0.1, bad)
    with pytest.raises(ValueError):
        cc.PeriodicSource(-1.0)
    with pytest.raises(ValueError):
        cc.PeriodicSource(1.0, tau_slots=0)


def test_theta_search_without_a_stable_theta_raises_no_warning():
    # the largest batch below tau pi R, which _stable admits: the stable set
    # is an interval of theta below the float resolution, so the bracket
    # must come from the +inf verdicts alone, and the minimiser must never
    # meet +inf inside it
    rng = np.random.default_rng(19530)
    model = _chain_model(*random_birth_death_chain(rng, int(rng.integers(2, 6))))
    src = cc.PeriodicSource(np.nextafter(2 * float(model.pi @ model.rates_blocks), 0), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        netcal._best_theta(src, model, 1, math.log(0.3))
        cc.delay_bound(src, model, 0.3)


def test_throughput_search_returns_lattice_certificate(ref_model):
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=100)
    assert not res.infeasible
    k = res.lambda_blocks / RES
    assert k == pytest.approx(round(k), abs=1e-9)
    assert res.delay_at_lambda.d_slots <= 100
    _assert_certificate(ref_model, cc.PeriodicSource(res.lambda_blocks),
                        res.delay_at_lambda)
    # the next lattice point fails the guarantee
    above = cc.PeriodicSource(res.lambda_blocks + RES)
    assert cc.delay_bound(above, ref_model, 1e-2).d_slots > 100
    assert res.lambda_blocks < float(ref_model.pi @ ref_model.rates_blocks)


def test_throughput_grows_with_looser_guarantee(ref_model):
    lam = []
    for d in (40, 100, 200):
        res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                              d_guarantee_slots=d)
        _assert_certificate(ref_model, cc.PeriodicSource(res.lambda_blocks),
                            res.delay_at_lambda)
        lam.append(res.lambda_blocks)
    assert lam[0] <= lam[1] <= lam[2]


def test_bursty_source_certifies_the_exact_rate(ref_model):
    # tau 5 at the reference point: the exact sum certifies 1.673 blocks
    # per slot within 100 slots
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=100, tau_slots=5)
    assert res.lambda_blocks >= 1.673 - 1e-9
    assert res.delay_at_lambda.d_slots <= 100
    _assert_certificate(ref_model, cc.PeriodicSource(5 * res.lambda_blocks, 5),
                        res.delay_at_lambda)
    above = cc.PeriodicSource(5 * (res.lambda_blocks + RES), 5)
    assert cc.delay_bound(above, ref_model, 1e-2).d_slots > 100


@pytest.mark.parametrize("tau", [1, 5])
@pytest.mark.parametrize("d_guarantee", [40, 100, 200])
def test_reported_delay_matches_the_unbounded_search(ref_model,
                                                     d_guarantee, tau):
    # the throughput searches the reported delay only up to the guarantee;
    # it must equal the public search over all delays, and each exponent
    # must certify it
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=d_guarantee,
                                          tau_slots=tau)
    assert not res.infeasible
    full = cc.delay_bound(cc.PeriodicSource(res.lambda_blocks * tau, tau),
                          ref_model, 1e-2)
    assert res.delay_at_lambda.d_slots == full.d_slots <= d_guarantee
    for bound in (res.delay_at_lambda, full):
        assert cc.log_violation_bound(
            cc.PeriodicSource(res.lambda_blocks * tau, tau), ref_model,
            bound.theta_star, int(bound.d_slots)) <= math.log(1e-2), bound


def test_zero_guarantee_is_infeasible(ref_model):
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=0)
    assert res.infeasible
    assert res.lambda_blocks == 0.0
    # the first lattice point is refused: its delay bound exceeds 0 slots
    first = cc.PeriodicSource(RES)
    assert cc.delay_bound(first, ref_model, 1e-2).d_slots > 0


def test_all_outage_channel_carries_nothing():
    model = single_state_model(0.0)
    res = cc.delay_constrained_throughput(model, epsilon=1e-2,
                                          d_guarantee_slots=100)
    assert res.infeasible and res.lambda_blocks == 0.0


def test_deterministic_server_saturates_to_its_rate():
    # the search stops at the service rate or one lattice step below it:
    # at and above delta = rate the sum diverges and the point is rejected
    model = single_state_model(6.0)
    res = cc.delay_constrained_throughput(model, epsilon=1e-2,
                                          d_guarantee_slots=50)
    assert not res.infeasible
    assert 6.0 - 2.5 * RES <= res.lambda_blocks <= 6.0 + 1e-9


def test_throughput_input_validation(ref_model):
    with pytest.raises(ValueError):
        cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                        d_guarantee_slots=-1)
    with pytest.raises(ValueError):
        cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                        d_guarantee_slots=10,
                                        resolution_blocks=0.0)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError):
            cc.delay_constrained_throughput(ref_model, epsilon=eps,
                                            d_guarantee_slots=10)


def test_whole_number_arguments_refused_by_name(ref_model):
    src = cc.PeriodicSource(1.0)
    calls = {
        "tau_slots": lambda x: cc.PeriodicSource(1.0, tau_slots=x),
        "d_slots": lambda x: cc.log_violation_bound(src, ref_model, 0.1, x),
        "d_guarantee_slots": lambda x: cc.delay_constrained_throughput(
            ref_model, epsilon=1e-2, d_guarantee_slots=x),
    }
    for name, call in calls.items():
        for bad in (math.nan, math.inf, -math.inf, 1.5):
            with pytest.raises(ValueError, match="%s must be a whole number" % name):
                call(bad)


def _convex_min(f, kind, a, b, edge):
    """(minimiser, minimum) over x <= edge (every x when edge is None) of
    f, the max or the log-sum-exp of a_i x + b_i, with slopes of both signs."""
    if kind == "max":               # the minimum sits where two pieces cross
        x = min(((b[j] - b[i]) / (a[i] - a[j]) for i in range(len(a))
                 for j in range(i) if a[i] != a[j]), key=f)
    else:                           # the root of the increasing derivative
        lo, hi = -1e3, 1e3
        for _ in range(200):
            mid = (lo + hi) / 2
            w = np.exp(a * mid + b - np.max(a * mid + b))
            lo, hi = (mid, hi) if w @ a < 0 else (lo, mid)
        x = (lo + hi) / 2
    x = x if edge is None else min(x, edge)
    return x, f(x)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["max", "lse"]),
       slopes=st.lists(st.floats(0.1, 5), min_size=2, max_size=6),
       signs=st.lists(st.booleans(), min_size=6, max_size=6),
       offsets=st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       grid=st.lists(st.integers(0, 160), min_size=1, max_size=12),
       edge=st.one_of(st.none(), st.floats(-5, 5)))
def test_minorant_never_exceeds_the_minimum(kind, slopes, signs, offsets, grid,
                                            edge):
    # random convex functions, +inf beyond a random edge, sampled with
    # repeats on a grid of spacing 1/16 over [-5, 5]: the bound may not
    # exceed the minimum, and is -inf unless samples lie on both sides of it
    a = np.array([s if up else -s for s, up in zip(slopes, signs)])
    a[0], a[1] = -slopes[0], slopes[1]          # bounded below
    b = np.array(offsets[:len(a)])
    f = lambda x: float(np.max(a * x + b) if kind == "max"
                        else np.logaddexp.reduce(a * x + b))
    x_min, f_min = _convex_min(f, kind, a, b, edge)
    xs = [i / 16 - 5 for i in grid]
    samples = {x: math.inf if edge is not None and x > edge else f(x) for x in xs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = netcal._minorant(samples)
    assert bound <= f_min + 1e-9 * (1 + abs(f_min)), (bound, x_min, f_min)
    if not min(xs) < x_min < max(xs):
        assert bound == -math.inf


@settings(max_examples=400, deadline=None)
@given(lo=st.integers(0, 40), width=st.one_of(st.none(), st.integers(1, 300)),
       n_off=st.integers(1, 400), kind=st.sampled_from(
           ["none", "below", "above", "exact", "minus", "plus", "any"]),
       off=st.integers(0, 100), any_guess=st.integers(-600, 600))
def test_first_true_gallops_to_the_bisection_answer(lo, width, n_off, kind,
                                                    off, any_guess):
    # a step predicate that turns true at lo + n_off, with hi (when given)
    # counting as true; the guess, which needs hi, may sit outside (lo, hi)
    # or miss by one
    hi = None if width is None else lo + width
    step_at = lo + n_off
    n = first_true_bisection(lambda x: x >= step_at, lo, hi)
    guess = None if hi is None else {
        "none": None, "below": lo - off, "above": hi + off, "exact": n,
        "minus": n - 1, "plus": n + 1, "any": any_guess}[kind]
    probes = []

    def holds(x):
        probes.append(x)
        return x >= step_at
    assert netcal._first_true(holds, lo, hi, guess) == n
    assert all(lo < x and (hi is None or x < hi) for x in probes)
    if guess is not None:
        assert len(probes) <= 2 * math.ceil(math.log2(abs(n - guess) + 2)) + 2


def _lattice_case_model(ref_model, chain_seed):
    if chain_seed is None:
        return ref_model
    rng = np.random.default_rng(chain_seed)
    return _chain_model(*random_birth_death_chain(rng, int(rng.integers(1, 5))))


# seeds that are no theta at all, at either end of the floats, or past the
# stable set ("beyond", see _beyond_stable_set)
BAD_SEEDS = [math.nan, 0.0, math.inf, 1e-300, 1e300, "beyond"]


def _beyond_stable_set(model, delta, tau):
    """A theta where batch delta reads +inf: doublings from 1, the last one
    tried where every theta is stable (a constant-rate server)."""
    theta = 1.0
    for _ in range(64):
        if netcal.log_violation_bound(cc.PeriodicSource(delta, tau), model,
                                      theta, 1) == math.inf:
            break
        theta *= 2
    return theta


def _check_against_lattice_bisection(model, eps, d, tau, monkeypatch, bad=None,
                                     seed=None, res_blocks=1e-3):
    """The throughput result equals plain bisection's in rate, flag and
    delay, and its theta* certifies the delay.  A bad rate, when given,
    replaces the proposal's (an int is an offset in lattice steps from the
    answer), and a bad seed the proposal's theta.  The returned point holds
    and the one above is refused."""
    want = throughput_lattice_bisection(model, eps, d, res_blocks, tau)
    if seed == "beyond":
        seed = _beyond_stable_set(model, want[0] * tau, tau)
    if bad is not None or seed is not None:
        rate_proposal = netcal._rate_proposal

        def proposal(*args):
            rate, theta = rate_proposal(*args)
            if bad is not None:
                rate = want[0] + bad * res_blocks if isinstance(bad, int) else bad
            return rate, theta if seed is None else seed
        monkeypatch.setattr(netcal, "_rate_proposal", proposal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cc.delay_constrained_throughput(
            model, epsilon=eps, d_guarantee_slots=d, resolution_blocks=res_blocks,
            tau_slots=tau)
    monkeypatch.undo()
    got = (res.lambda_blocks, res.infeasible, res.delay_at_lambda.d_slots,
           res.delay_at_lambda.theta_star)
    assert got[:3] == want[:3] and math.isnan(got[3]) == math.isnan(want[3])
    if math.isfinite(got[2]):
        assert netcal.log_violation_bound(
            cc.PeriodicSource(res.lambda_blocks * tau, tau), model, got[3],
            int(got[2])) <= math.log(eps), (got, want)
    k = round(res.lambda_blocks / res_blocks)
    refused = lattice_refusal(model, eps, d, res_blocks, tau)
    assert refused(k + 1) and (k == 0 or not refused(k))


@settings(max_examples=25, deadline=None)
@given(chain_seed=st.one_of(st.none(), st.integers(0, 2**16)),
       tau=st.sampled_from([1, 3, 5]), d=st.sampled_from([1, 2, 10, 100, 1000]),
       eps=st.sampled_from([1e-4, 1e-2, 0.3]),
       bad=st.sampled_from([None, None, 0.0, 1e300, math.nan, 50, -50]),
       seed=st.sampled_from([None, None] + BAD_SEEDS))
def test_throughput_matches_plain_lattice_bisection(ref_model, chain_seed, tau,
                                                    d, eps, bad, seed):
    with pytest.MonkeyPatch.context() as mp:
        _check_against_lattice_bisection(_lattice_case_model(ref_model, chain_seed),
                                         eps, d, tau, mp, bad, seed)


@pytest.mark.parametrize("d, tau, res_blocks", [
    (100, 1, 10.0),         # the reference point, refused at its first step
    (1, 1, 1e-3),           # a one-slot guarantee, refused at its first step
    (100001, 3, 1e-3),      # near the stability limit: delay 89228 of 100001
])
def test_decided_probes_match_full_minimisation(ref_model, monkeypatch, d, tau,
                                                res_blocks):
    # the oracle answers every lattice and delay probe by a full
    # minimisation over theta; the certified refusals must agree with it
    _check_against_lattice_bisection(ref_model, 1e-2, d, tau, monkeypatch,
                                     res_blocks=res_blocks)


@pytest.mark.parametrize("bad", [0.0, 1e300, math.inf, math.nan, 50, -50, 1, -1])
@pytest.mark.parametrize("server, d, tau", [(None, 100, 1), (6.0, 50, 3)])
def test_bad_rate_proposals_resume_to_the_lattice_maximum(ref_model, monkeypatch,
                                                          bad, server, d, tau):
    # proposals far below, far above, not a number, and off by 50 or 1 steps;
    # the constant-rate server's answer sits one step below its stability
    # limit, with a delay far below the guarantee
    model = ref_model if server is None else single_state_model(server)
    _check_against_lattice_bisection(model, 1e-2, d, tau, monkeypatch, bad)


@pytest.mark.parametrize("bad, seed", [(None, seed) for seed in BAD_SEEDS]
                         + list(zip([0.0, 1e300, math.nan, 50, -1, 1], BAD_SEEDS)))
@pytest.mark.parametrize("server, d, tau", [(None, 100, 1), (6.0, 50, 3)])
def test_bad_seeds_resume_to_the_lattice_maximum(ref_model, monkeypatch, bad,
                                                 seed, server, d, tau):
    # each bad seed with the proposal's own rate, then paired with a bad rate
    model = ref_model if server is None else single_state_model(server)
    _check_against_lattice_bisection(model, 1e-2, d, tau, monkeypatch, bad, seed)


def _count_work(monkeypatch):
    """Counters of ln F evaluations and per-theta eigensolves, from an empty
    memo."""
    counts = {"log_f": 0, "eigh": 0}
    log_f, eigh = netcal._log_f, np.linalg.eigh

    def counted_log_f(*args):
        counts["log_f"] += 1
        return log_f(*args)

    def counted_eigh(*args):
        counts["eigh"] += 1
        return eigh(*args)
    monkeypatch.setattr(netcal, "_log_f", counted_log_f)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    netcal._spectrum.cache_clear()
    return counts


@pytest.mark.parametrize("d, tau", [(60, 1), (100, 1), (140, 1), (100, 5)])
def test_throughput_point_evaluation_budget(ref_model, monkeypatch,
                                            d, tau):
    # ln F evaluations and per-theta eigensolves per throughput point at the
    # reference point: the rate proposal reads the spectrum alone, then the
    # decided probes that confirm it, each starting from the best theta of
    # the probe before it, whose theta at the reported delay is theta*; a
    # theta that reads +inf costs an eigensolve too, and a theta met again
    # costs none (8-9 evaluations and 14-18 eigensolves measured)
    counts = _count_work(monkeypatch)
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=d, tau_slots=tau)
    assert not res.infeasible
    assert counts["log_f"] <= 12 and counts["eigh"] <= 22, counts


def test_long_guarantee_evaluation_budget(ref_model, monkeypatch):
    # a guarantee of 10 000 slots: the delay gallops down to 9890, each
    # probe starting from the theta of the one before it (34 evaluations and
    # 32 eigensolves measured)
    counts = _count_work(monkeypatch)
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=10000)
    assert res.delay_at_lambda.d_slots == 9890
    assert counts["log_f"] <= 40 and counts["eigh"] <= 40, counts


@pytest.mark.parametrize("d, res_blocks", [(100, 10.0), (1, 1e-3)])
def test_infeasible_point_evaluation_budget(ref_model, monkeypatch,
                                            d, res_blocks):
    # a point refused at its first lattice step reports the zero-rate
    # source's delay by doubling from one slot; each probe stops once it is
    # decided, and the one that held at the reported delay gives theta*
    # (73-79 evaluations and 9 eigensolves measured)
    counts = _count_work(monkeypatch)
    res = cc.delay_constrained_throughput(ref_model, epsilon=1e-2,
                                          d_guarantee_slots=d,
                                          resolution_blocks=res_blocks)
    assert res.infeasible and res.delay_at_lambda.valid
    assert counts["log_f"] <= 90 and counts["eigh"] <= 16, counts


@settings(max_examples=60, deadline=None)
@given(chain_seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 6),
       outage=st.booleans(), tau=st.sampled_from([1, 3, 5]),
       d=st.sampled_from([1, 2, 10, 100, 1000]),
       eps=st.sampled_from([1e-4, 1e-2, 0.3]))
@example(chain_seed=0, n_states=1, outage=False, tau=1, d=1, eps=1e-4)
def test_rate_proposal_is_finite_and_the_result_is_plain_bisection(
        chain_seed, n_states, outage, tau, d, eps):
    # random chains, one-state ones, outage states and self-loops near 0
    # (negative eigenvalues) among them, and guarantees of 1, 2 and 10 slots,
    # where the Perron term need not dominate F: each proposal the throughput
    # search makes, with warnings as errors, raises nothing and gives a
    # finite rate and a finite theta > 0, and the result is plain bisection's.
    # The example is a one-state chain at d_g 1 whose lambda_1^tau underflows
    # inside the search range
    model = _chain_model(*random_birth_death_chain(
        np.random.default_rng(chain_seed), n_states, outage=outage))
    proposals, rate_proposal = [], netcal._rate_proposal

    def spy(*args):
        proposals.append(rate_proposal(*args))
        return proposals[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netcal, "_rate_proposal", spy)
        _check_against_lattice_bisection(model, eps, d, tau, mp)
    for rate, theta in proposals:
        assert math.isfinite(rate) and 0 < theta < math.inf, (rate, theta)
