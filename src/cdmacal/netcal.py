"""Moment-generating-function calculus for the delay-constrained throughput.

The FSMC service over t slots has the Laplace-domain MGF

    Ms(theta, t) = w_t 1,   w_t = pi D (P D)^{t-1},   D = diag(e^{-theta Rb}),

with Ms(theta, 0) = 1 (empty interval serves nothing), where Rb are the
per-state block rates.  A periodic source delivering delta blocks every tau
slots with random phase has, for t = q tau + r with 0 <= r < tau,

    Ma(theta, t) = e^{theta delta q} b_r,   b_r = 1 - r/tau + (r/tau) e^{theta delta}.

The steady-state probability that a block waits more than tau_d slots is
bounded by

    F_theta(tau_d) = sum_{s >= tau_d} Ma(theta, s - tau_d) Ms(theta, s).

Summing over q first gives a matrix geometric series.  The chain is a
reversible birth-death chain (Keilson 1979), so P D = G^-1 M G with g_j =
sqrt(pi_j e^{-theta Rb_j}) and M_ij = sqrt(P_ij P_ji) e^{-theta (Rb_i +
Rb_j) / 2} symmetric, and with M = V Lambda V^T, for tau_d >= 1,

    F_theta(tau_d) = sum_k c_k lambda_k^{tau_d - 1} (sum_{r < tau} b_r lambda_k^r)
                     / (1 - e^{theta delta} lambda_k^tau),   c_k = (v_k . g)^2,

converging exactly when e^{theta delta} lambda_1^tau < 1 (the effective-
capacity test, lambda_1 the Perron root): one eigensolve per theta, then
O(L tau) work per delta and tau_d.  F_theta(0) >= 1, so every delay bound
is at least one slot.

ln F is convex in theta (sums and products of log-convex MGFs), so one
bounded scalar minimisation over the stable set replaces any theta grid;
the Perron test alone decides that set, and the bracket comes from the
values of ln F, +inf outside it.  The stable set is empty when delta >=
tau pi Rb.  The epsilon-quantile delay bound is the smallest tau_d with
min_theta ln F <= ln epsilon, found by doubling and bisection because F is
non-increasing in tau_d.

Throughput is the largest rate on a lattice of spacing ``resolution_blocks``
that meets the guarantee d.  max_theta delta_P(theta) / tau (the
effective-bandwidth / effective-capacity duality) proposes the rate, where
delta_P is the batch at which the Perron term of F_theta(d), which
usually dominates F near the root, alone meets epsilon: a closed form in
the spectrum, with no value of ln F.  The proposal only chooses where the
probes start: the exact lattice predicate confirms it, or gallops outward
from it and bisects, and the reported delay gallops down from d.
Each probe is decided: it holds at the first theta with ln F <= ln
epsilon, and is refused once chord lines through the values met bound the
convex ln F above ln epsilon.  A probe starts from the best theta of the
probe before it (the proposal's maximiser for the first); theta* is the
theta at which the probe at the reported delay held, so it meets epsilon.
"""
from dataclasses import dataclass
import functools
import math

import numpy as np

from ._search import minimize_bounded
from .errors import whole_number


@dataclass(frozen=True)
class PeriodicSource:
    """delta_blocks arriving every tau_slots, random phase."""

    delta_blocks: float
    tau_slots: int = 1

    def __post_init__(self):
        if not (self.delta_blocks >= 0 and math.isfinite(self.delta_blocks)):
            raise ValueError("delta_blocks must be nonnegative and finite")
        whole_number("tau_slots", self.tau_slots, 1)


def _perron_gap(up, diag, down, decay, m_off, y):
    """mu_1 = 1 - lambda_1 of M (band m_off) as y.y / y.(I - M)^-1 y, y ~ its
    Perron vector, by an L D L^T elimination with pivots summed from positive
    terms (I - P D has row sums sum_j P_ij (1 - e^{-theta R_j})); 0 if singular."""
    q, dec = (-np.expm1(-decay)).tolist(), np.exp(-decay).tolist()
    row, z, quad = diag[0] * q[0], y[0], 0.0    # row: row sum of row i
    try:
        for i in range(len(y) - 1):
            row += up[i] * q[i + 1]
            piv = row + up[i] * dec[i + 1]
            quad += z * z / piv
            row = diag[i + 1] * q[i + 1] + down[i] * (q[i] + dec[i] / piv * row)
            z = y[i + 1] + m_off[i] / piv * z
        quad += z * z / row
    except ZeroDivisionError:
        return 0.0
    return sum(v * v for v in y) / quad


@functools.lru_cache(maxsize=256)
def _spectrum(model, theta):
    """_log_f's theta-only part, kept since searches revisit theta, and all the
    rate proposal reads: ln lambda_1, ln g's scale and, lambda_k descending,
    ln c_k, ln |r_k|, r_k < 0."""
    log_sym, log_pi, up, diag, down = model.birth_death
    decay = theta * model.rates_blocks
    log_m, log_g = log_sym - (decay[:, None] + decay) / 2, log_pi - decay
    top, g_top = log_m.max(), log_g.max()       # scaled: no mass underflows
    lam, vec = np.linalg.eigh(np.exp(log_m - top))
    log_lam1 = math.log(lam[-1]) + top
    if log_lam1 > -math.log(2):
        log_lam1 = math.log1p(-_perron_gap(
            up, diag, down, decay, np.exp(np.diagonal(log_m, 1)).tolist(),
            np.abs(vec[:, -1]).tolist()))
    with np.errstate(divide="ignore"):
        log_c = np.log(np.square(np.exp((log_g - g_top) / 2) @ vec[:, ::-1]))
        log_ratio = np.minimum(np.log(np.abs(lam[::-1] / lam[-1])), 0.0)
    return log_lam1, g_top, log_c, log_ratio, lam[::-1] < 0


def _log_f(model, theta, tau, d_slots, delta):
    """ln F_theta(d) at batch delta, +inf where delta is unstable, as the sum of
    the L tau terms c_k r_k^{d-1+r} b_r lambda_1^r / (1 - e^{theta delta}
    lambda_k^tau), or where terms of negative lambda_k cancel a checked, not
    proven, bound on F."""
    log_lam1, g_top, log_c, log_ratio, neg = _spectrum(model, theta)
    e = theta * delta + tau * (log_ratio + log_lam1)  # ln|e^{theta delta} lambda_k^tau|
    if not e[0] < 0:                                  # the Perron term diverges
        return math.inf
    power = np.arange(d_slots - 1, d_slots - 1 + tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = log_c[:, None] + np.where(power > 0, log_ratio[:, None] * power, 0.0)
        if tau > 1:     # ln b_r lambda_1^r, b_r = 1 - r/tau + (r/tau) e^{theta delta}
            r = np.arange(tau)
            log_stay, log_move = (np.log1p(-r / tau) + r * log_lam1,
                                  np.log(r / tau) + r * log_lam1)
    sign = np.where(neg[:, None] & (power % 2 == 1), -1.0, 1.0) if neg[-1] else None
    bound = math.ulp(1.0) * len(neg) * (d_slots + tau + 1)
    flip = neg & (tau % 2 == 1)                       # lambda_k^tau < 0
    den = -np.expm1(e) if sign is None else np.where(flip, 1 + np.exp(e), -np.expm1(e))
    t -= np.log(den)[:, None]
    if tau > 1:
        t += np.logaddexp(log_stay, log_move + theta * delta)
    w = np.exp(t - (t_top := t.max()))
    total = w.sum()
    s = total if sign is None else (sign * w).sum() + bound * total
    return float(g_top + (d_slots - 1) * log_lam1 + t_top
                 + math.log(s if s > 2 * bound * total else total))


def log_violation_bound(source, model, theta, d_slots):
    """ln F_theta(d) for an integer d >= 1 by the closed form; +inf where
    theta lies outside the stable set."""
    theta = float(theta)
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError("theta must be finite and nonnegative")
    d_slots = whole_number("d_slots", d_slots, 1)
    return _log_f(model, theta, source.tau_slots, d_slots, source.delta_blocks)


def _stable(source, model):
    """Whether the stable set is nonempty: delta < tau pi Rb."""
    return source.delta_blocks < source.tau_slots * float(model.pi @ model.rates_blocks)


def _minorant(samples):
    """Lower bound, up to rounding, on the minimum of a convex f (+inf outside
    an interval) from samples {x: f(x)}: it lies next to the smallest sample,
    where chord lines bound f from below; -inf when that sample is at an end."""
    xs = sorted(samples)
    fs = [samples[x] for x in xs]
    m = fs.index(min(fs))
    if not 0 < m < len(xs) - 1:
        return -math.inf

    def line(j, x):                 # chord over samples j, j + 1, at x
        if 0 <= j < len(xs) - 1 and max(fs[j], fs[j + 1]) < math.inf:
            return fs[j] + (fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j]) * (x - xs[j])
        return -math.inf
    return min(max(min(line(j, xs[i]), line(j, xs[i + 1])) for j in (i - 1, i + 1))
               for i in (m - 1, m))


class _Refused(Exception):
    """A decided search found that no theta meets epsilon."""


def _best_theta(source, model, d_slots, log_eps, seed=math.nan):
    """(theta, ln F_theta(d)) at the first theta met with ln F <= log_eps, or
    at the best one met once the minorant of the values met lies above
    log_eps by more than a rounding margin; (nan, inf) when no stable theta
    is found.  The search meets ``seed`` first.

    The bracket comes from the values of ln F alone, +inf off the stable
    set and at theta = 0: the walk meets one over the mean service rate,
    then doubles theta while ln F falls.  Once it meets +inf at hi, it
    probes midway between theta and hi: +inf moves hi in, a value below
    ln F(theta) moves theta up, and any other value closes the bracket, so
    the bounded minimiser only sees the convex, finite part.  Every stage
    stops at ln F <= log_eps.  A search whose seed reads finite walks from
    the seed instead, in steps of ln theta that start at 0.01 and double up
    to ln 2: down while ln F falls, which closes the bracket at the seed's
    side, and otherwise up as above, so both bracket ends stay finite.
    """
    seen = {}

    def f(th):
        seen[th] = fx = _log_f(model, th, source.tau_slots, d_slots,
                               source.delta_blocks)
        if _minorant(seen) > log_eps + 1e-9 * (1 + abs(log_eps)):
            raise _Refused
        return fx
    try:
        lo = theta = 0.0
        fx = hi = f_hi = math.inf
        x, grow = 1.0 / float(model.pi @ model.rates_blocks), 2.0
        if 0 < seed < math.inf and f(seed) < math.inf:
            theta, fx, grow = seed, seen[seed], 1.01
            while fx > log_eps and (fn := f(x := theta / grow)) < fx:
                hi, f_hi, theta, fx, grow = theta, fx, x, fn, min(grow * grow, 2.0)
            lo, x = x, grow * theta
        while f_hi == math.inf and theta < x < hi and fx > log_eps:
            fn = f(x)
            if fn < fx:
                lo, theta, fx = theta, x, fn
            else:
                hi, f_hi = x, fn
            grow = min(grow * grow, 2.0)
            x = grow * theta if hi == math.inf else (theta + hi) / 2
        if f_hi == math.inf or fx <= log_eps:  # stopped early, or hi is next to theta
            return (theta, fx) if theta else (math.nan, math.inf)
        x, fun = minimize_bounded(f, lo, hi, 1e-9 * hi, log_eps)
        return (x, fun) if fun < fx else (theta, fx)
    except _Refused:
        return min(seen.items(), key=lambda item: item[1])


@dataclass(frozen=True)
class DelayBoundResult:
    """epsilon-quantile delay bound and the exponent that certifies it;
    epsilon stays with the caller."""

    d_slots: float              # smallest certified delay, or inf
    theta_star: float           # theta with ln F_theta(d) <= ln eps (nan when d is inf)
    valid: bool                 # the exact certificate is finite
    unstable: bool              # the stable set is empty


def _first_true(holds, lo, hi=None, guess=None):
    """Smallest integer n > lo with holds(n), for a predicate that is false
    up to some n and true from there on; holds(lo) counts as false and hi,
    when given, as true, neither with a probe.  Probes gallop 1, 2, 4, ...
    away from guess, which needs hi, down while holds and up while not (up
    from lo when neither is given), and then the bracket bisects."""
    if guess is not None or hi is None:
        g = lo if guess is None else max(lo, min(guess, hi))
        up = g == lo or (g != hi and not holds(g))
        lo, hi, step = (g, hi, 1) if up else (lo, g, -1)
        while lo < (x := g + step) and (hi is None or x < hi):
            lo, hi = (lo, x) if holds(x) else (x, hi)
            if (hi == x) == up:                 # g and x now bracket n
                break
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _delay_search(source, model, epsilon, top=None, seed=math.nan):
    """``delay_bound``, galloping down from ``top``, which ``seed`` certifies,
    when given; each probe then meets the theta of the probe before it, the
    first ``seed``.  theta* is the theta of the probe that held at d."""
    if _stable(source, model):
        log_eps = math.log(epsilon)
        thetas = {top: seed}

        def holds(d):
            # No stable theta (nan) comes from the Perron test, which does not
            # involve d, so it holds at every delay and ends the search at d = 1.
            nonlocal seed
            theta, fx = _best_theta(source, model, d, log_eps, seed)
            if top:     # galloping down from top, the best theta moves little
                seed = theta
            thetas[d] = theta
            return math.isnan(theta) or fx <= log_eps
        d = _first_true(holds, 0, top, top)
        if not math.isnan(theta := thetas[d]):
            return DelayBoundResult(d_slots=float(d), theta_star=theta,
                                    valid=True, unstable=False)
    return DelayBoundResult(d_slots=math.inf, theta_star=math.nan,
                            valid=False, unstable=True)


def delay_bound(source, model, epsilon):
    """Smallest delay tau_d whose violation probability bound drops below epsilon.

    F is non-increasing in tau_d, so tau_d is searched by doubling from one
    slot and then bisection over decided probes; theta* is where tau_d held.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return _delay_search(source, model, epsilon)


def capacity_limit(cfg, model):
    """Ergodic rate ceiling: alpha * W * sum_l R_l pi_l, in bits per second."""
    return float(cfg.alpha * cfg.w_hz * (model.pi @ model.rates_bps_hz))


@dataclass(frozen=True)
class ThroughputResult:
    """Largest lattice arrival rate whose delay bound meets the guarantee;
    epsilon, the guarantee, the lattice spacing and tau stay with the caller."""

    lambda_blocks: float        # per-user arrival rate, blocks per slot
    lambda_bps: float           # aggregate bits per second: alpha*lambda*Nb/Tb
    c_lim_bps: float
    delay_at_lambda: DelayBoundResult
    infeasible: bool            # the first lattice point is refused


def _rate_proposal(model, tau, d_g, log_eps):
    """(max_theta delta_P(theta) / tau, its theta) from the memoised spectrum
    alone, by one search over four decades of ln theta from -ln epsilon /
    (d_g max Rb), below which Ms(theta, d_g) alone exceeds epsilon.  delta_P
    is the batch at which the Perron term of F_theta(d_g) alone meets
    epsilon: x = e^{theta delta} = (1 - p a) / (lambda_1^tau + p b), p = c_1
    lambda_1^{d_g - 1} / epsilon, a and b = sum_r (1 - r/tau) and (r/tau)
    lambda_1^r.  Where delta_P <= 0 the objective is tanh(miss / 2) >= 0,
    miss = ln of that term at the zero batch over epsilon, and 1 where
    lambda_1 is not below 1.  Where the Perron term does not dominate F near
    the root the proposal is off, and the lattice probes gallop further."""
    r = np.arange(tau)

    def neg_delta(x):
        theta = math.exp(x)
        log_lam1, g_top, log_c = _spectrum(model, theta)[:3]
        if not log_lam1 < 0:
            return 1.0
        lam_r = np.exp(r * log_lam1)
        log_p = g_top + log_c[0] + (d_g - 1) * log_lam1 - log_eps
        log_pa = log_p + math.log((1 - r / tau) @ lam_r)
        with np.errstate(divide="ignore"):      # b = 0 at tau 1
            log_den = np.logaddexp(tau * log_lam1, log_p + np.log(r / tau @ lam_r))
        if log_pa < 0 and (delta := (math.log1p(-math.exp(log_pa)) - log_den)
                           / theta) > 0:
            return float(-delta)
        return math.tanh((log_p + math.log(lam_r.sum())
                          - math.log(-math.expm1(tau * log_lam1))) / 2)
    x_lo = math.log(-log_eps / (d_g * model.rates_blocks.max()))
    x, fun = minimize_bounded(neg_delta, x_lo, x_lo + math.log(1e4), 1e-2)
    return -fun / tau, math.exp(x)


def delay_constrained_throughput(cfg, model, *, epsilon, d_guarantee_slots,
                                 resolution_blocks=1e-3, tau_slots=1):
    """Largest lattice arrival rate whose delay bound meets the guarantee.

    A point is refused when its stable set is empty or min_theta ln
    F_theta(d_guarantee) > ln epsilon, monotone in the rate.  This exact
    predicate confirms the rate proposal (its point holds, the next is
    refused) or gallops outward from it and bisects; the reported delay
    gallops down from the guarantee.  A probe starts from the best theta of
    the probe before it: the proposal's for the first lattice probe, the one
    that certified the rate for the first delay probe.  It stops at the
    first theta that meets epsilon or at the first minorant that certifies a
    refusal; theta* is the theta at which the probe at the reported delay
    held, the lattice probe's that certified the rate at the guarantee.
    """
    d_g = whole_number("d_guarantee_slots", d_guarantee_slots, 0)
    if not resolution_blocks > 0:
        raise ValueError("resolution_blocks must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    log_eps = math.log(epsilon)

    def source(k):
        return PeriodicSource(k * resolution_blocks * tau_slots, tau_slots)

    seed = held = math.nan      # the last probe's best theta; the last that held

    def refused(k):
        nonlocal seed, held
        src = source(k)
        if not (d_g >= 1 and _stable(src, model)):
            return True
        seed, fx = _best_theta(src, model, d_g, log_eps, seed)
        if fx <= log_eps:
            held = seed
        return not fx <= log_eps

    infeasible = refused(1)
    k, top = 0, None
    if not infeasible:
        k_stab = _first_true(lambda k: not _stable(source(k), model), 1)
        lam, seed = _rate_proposal(model, tau_slots, d_g, log_eps)
        guess = math.floor(lam / resolution_blocks) + 1 if math.isfinite(lam) else None
        k, top = _first_true(refused, 1, k_stab, guess) - 1, d_g
    lam = k * resolution_blocks
    return ThroughputResult(
        lambda_blocks=lam, lambda_bps=lam * (cfg.alpha * cfg.n_b_bits / cfg.t_b_s),
        c_lim_bps=capacity_limit(cfg, model), infeasible=infeasible,
        delay_at_lambda=_delay_search(source(k), model, epsilon, top, held))
