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

Summing over q first turns this into a matrix geometric series with the
closed form, for tau_d >= 1,

    F_theta(tau_d) = w_{tau_d} z,   z = sum_{r < tau} b_r (P D)^r y,
    y = (I - e^{theta delta} (P D)^tau)^{-1} 1,

which converges exactly when e^{theta delta} rho(P D)^tau < 1, the
effective-capacity stability test.  F_theta(0) >= 1, so every delay bound is
at least one slot.  ln w_t stays in the log domain (repeated squaring of
ln(P D), each product entry one pairwise log-sum-exp over its terms), so
mass that underflows on the linear scale is kept.  On the stable set y >= 1
entrywise, so y and z are solved on the linear scale, where an underflowed
entry is negligible next to the 1; a solve that is not finite and >= 1
marks theta unstable, which for the Z-matrix I - e^{theta delta} (P D)^tau
is the same test.

ln F is convex in theta (sums and products of log-convex MGFs), so one
bounded scalar minimisation over the stable set replaces any theta grid;
the solve alone decides that set, and the bracket comes from the values
of ln F, +inf outside it.  The stable set is empty when delta >= tau pi
Rb.  The epsilon-quantile delay bound is the smallest tau_d with min_theta
ln F <= ln epsilon, found by doubling and bisection because F is
non-increasing in tau_d.

Throughput is the largest rate on a lattice of spacing ``resolution_blocks``
that meets the guarantee d.  w_d does not involve delta, so per theta the
batch delta*(theta) with ln F_theta(d) = ln epsilon is a root over L x L
solves, and max_theta delta*(theta) / tau (the effective-bandwidth /
effective-capacity duality) proposes the rate.  The exact lattice predicate
confirms it, or gallops outward from it and bisects; the reported delay
gallops down from d.  Each probe is decided: it holds at the first theta
with ln F <= ln epsilon, and is refused once chord lines through the values
met bound the convex ln F above ln epsilon; one full minimisation reports theta*.
"""
from dataclasses import dataclass
import functools
import math

import numpy as np

from ._search import find_root, minimize_bounded
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


def _log_matmul(a, b):
    """ln(e^a @ e^b) over the last two axes: each output entry is one
    pairwise log-sum-exp over its terms, so no term underflows before it is
    summed, and -inf terms, even a whole column of them, need no shift and
    raise no warning."""
    return np.logaddexp.reduce(a[..., :, :, None] + b[..., None, :, :], axis=-2)


def _log_kernel(model, theta):
    """ln(pi D) as a one-row matrix and ln(P D); theta may carry leading axes."""
    decay = np.multiply.outer(theta, model.rates_blocks)
    log_pi, log_p = model.log_chain
    return (log_pi - decay)[..., None, :], log_p - decay[..., None, :]


def _log_w(row, sq, t):
    """ln w_t for t >= 1 from (ln(pi D), ln(P D)), by repeated squaring of
    log-domain products; theta may carry leading axes, and a zero entry of
    pi or P stays an exact -inf."""
    k = t - 1
    while k:
        if k & 1:
            row = _log_matmul(row, sq)
        k >>= 1
        if k:
            sq = _log_matmul(sq, sq)
    return row[..., 0, :]


def _log_f_solver(model, theta, tau, d_slots):
    """delta -> ln F_theta(d) at one theta, tau and d, +inf where delta is
    unstable: ln (P D)^r for r <= tau is formed once, ln w_d once at the
    first stable delta, and each delta costs one L x L solve."""
    row, lpd = _log_kernel(model, theta)
    powers = [lpd]
    for _ in range(1, tau):
        powers.append(_log_matmul(powers[-1], lpd))
    eye, ones, r = np.eye(len(lpd)), np.ones(len(lpd)), np.arange(1, tau) / tau
    log_w = functools.cache(lambda: _log_w(row, lpd, d_slots))
    log_stay, log_move = np.log1p(-r), np.log(r)    # b_r = 1 - r + r e^{theta delta}

    def log_f(delta):
        with np.errstate(over="ignore"):
            try:
                y = np.linalg.solve(eye - np.exp(theta * delta + powers[-1]), ones)
            except np.linalg.LinAlgError:
                return math.inf
            if not (y.min() >= 1 and y.max() < math.inf):     # false on NaN
                return math.inf
            z = y
            if tau > 1:
                log_b = np.logaddexp(log_stay, log_move + theta * delta)
                for lb, power in zip(log_b, powers):
                    z = z + np.exp(lb + power) @ y
                if not z.max() < math.inf:
                    return math.inf
        return float(np.logaddexp.reduce(log_w() + np.log(z)))
    return log_f


def log_violation_bound(source, model, theta, d_slots):
    """ln F_theta(d) for an integer d >= 1 by the closed form; +inf where
    theta lies outside the stable set."""
    theta = float(theta)
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError("theta must be finite and nonnegative")
    d_slots = whole_number("d_slots", d_slots, 1)
    return _log_f_solver(model, theta, source.tau_slots, d_slots)(source.delta_blocks)


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


def _best_theta(source, model, d_slots, log_eps, decide=False, hint=None):
    """(theta, ln F_theta(d)) at the minimiser of ln F over the stable set,
    or at the first theta met with ln F <= log_eps while ln F still falls;
    (nan, inf) when no stable theta is found.  ``decide`` stops at the first
    theta met with ln F <= log_eps, or at the best one met once the minorant
    of the values met lies above log_eps by more than a rounding margin; a
    decided search meets ``hint`` first.

    The bracket comes from the values of ln F alone, +inf off the stable
    set and at theta = 0: the walk meets one over the mean service rate,
    then doubles theta while ln F falls.  Once it meets +inf at hi, it
    probes midway between theta and hi: +inf moves hi in, a value below
    ln F(theta) moves theta up, and any other value closes the bracket, so
    the bounded minimiser only sees the convex, finite part.  The first
    finite value and the doubling stop at ln F <= log_eps, the midway probes
    above the first finite value only in a decided search.
    """
    seen, stop = {}, log_eps if decide else -math.inf

    def f(th):
        seen[th] = fx = _log_f_solver(model, th, source.tau_slots,
                                      d_slots)(source.delta_blocks)
        if decide and _minorant(seen) > log_eps + 1e-9 * (1 + abs(log_eps)):
            raise _Refused
        return fx
    try:
        if decide and hint is not None and f(hint) <= log_eps:
            return hint, seen[hint]
        lo = theta = 0.0
        fx = hi = f_hi = math.inf
        x = 1.0 / float(model.pi @ model.rates_blocks)
        while (f_hi == math.inf and theta < x < hi
               and fx > (stop if lo and hi < math.inf else log_eps)):
            fn = f(x)
            if fn < fx:
                lo, theta, fx = theta, x, fn
            else:
                hi, f_hi = x, fn
            x = 2 * theta if hi == math.inf else (theta + hi) / 2
        if f_hi == math.inf:        # stopped early, or hi is next to theta
            return (theta, fx) if theta else (math.nan, math.inf)
        x, fun = minimize_bounded(f, lo, hi, 1e-9 * hi, stop)
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


def _delay_search(source, model, epsilon, top=None):
    """``delay_bound``, galloping down from ``top`` when it certifies."""
    if _stable(source, model):
        log_eps = math.log(epsilon)

        def holds(d):
            # No stable theta (nan) comes from the solve for y, which does not
            # involve d, so it holds at every delay and ends the search at d = 1.
            theta, fx = _best_theta(source, model, d, log_eps, decide=True)
            return math.isnan(theta) or fx <= log_eps
        d = _first_true(holds, 0, top, top)
        theta = _best_theta(source, model, d, log_eps)[0]
        if not math.isnan(theta):
            return DelayBoundResult(d_slots=float(d), theta_star=theta,
                                    valid=True, unstable=False)
    return DelayBoundResult(d_slots=math.inf, theta_star=math.nan,
                            valid=False, unstable=True)


def delay_bound(source, model, epsilon):
    """Smallest delay tau_d whose violation probability bound drops below epsilon.

    F is non-increasing in tau_d, so tau_d is searched by doubling from one
    slot and then bisection over decided probes; theta* minimises fully.
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


def _rate_proposal(model, tau, d_g, log_eps, resolution):
    """max_theta delta*(theta) / tau, delta* the root of tanh((ln epsilon -
    ln F_theta(d_g)) / 2), by one search over four decades of ln theta from
    -ln epsilon / (d_g max Rb), below which Ms(theta, d_g) alone exceeds
    epsilon.  The theta that certify a batch form an interval that shrinks
    as it grows, so delta* is quasi-concave; where no batch is certified the
    objective is how far the zero batch misses."""
    top = tau * float(model.pi @ model.rates_blocks)

    def neg_delta(x):
        log_f = _log_f_solver(model, math.exp(x), tau, d_g)
        h = lambda delta: math.tanh((log_eps - log_f(delta)) / 2)
        h0, h_top = h(0.0), min(h(top), 0.0)    # certified at top: root at top
        if not h0 > 0:
            return -h0
        return -find_root(h, 0.0, top, 1e-3 * tau * resolution, fa=h0, fb=h_top)[0]
    x_lo = math.log(-log_eps / (d_g * model.rates_blocks.max()))
    return -minimize_bounded(neg_delta, x_lo, x_lo + math.log(1e4), 1e-2)[1] / tau


def delay_constrained_throughput(cfg, model, *, epsilon, d_guarantee_slots,
                                 resolution_blocks=1e-3, tau_slots=1):
    """Largest lattice arrival rate whose delay bound meets the guarantee.

    A point is refused when its stable set is empty or min_theta ln
    F_theta(d_guarantee) > ln epsilon, monotone in the rate.  This exact
    predicate confirms the rate proposal (its point holds, the next is
    refused) or gallops outward from it and bisects; the reported delay
    gallops down from the guarantee.  A probe tries the best theta of the
    point above first, stops at the first theta that meets epsilon or at the
    first minorant that certifies a refusal, so one full minimisation, at
    the reported delay, gives theta*.
    """
    d_g = whole_number("d_guarantee_slots", d_guarantee_slots, 0)
    if not resolution_blocks > 0:
        raise ValueError("resolution_blocks must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    log_eps = math.log(epsilon)

    def source(k):
        return PeriodicSource(k * resolution_blocks * tau_slots, tau_slots)

    best = {}                   # lattice point -> best theta its probe met

    def refused(k):
        src = source(k)
        if not (d_g >= 1 and _stable(src, model)):
            return True
        theta, fx = _best_theta(src, model, d_g, log_eps, decide=True,
                                hint=best.get(k + 1))
        if not math.isnan(theta):
            best[k] = theta
        return not fx <= log_eps

    infeasible = refused(1)
    k, top = 0, None
    if not infeasible:
        k_stab = _first_true(lambda k: not _stable(source(k), model), 1)
        lam = _rate_proposal(model, tau_slots, d_g, log_eps, resolution_blocks)
        guess = math.floor(lam / resolution_blocks) + 1 if math.isfinite(lam) else None
        k, top = _first_true(refused, 1, k_stab, guess) - 1, d_g
    lam = k * resolution_blocks
    return ThroughputResult(
        lambda_blocks=lam, lambda_bps=lam * (cfg.alpha * cfg.n_b_bits / cfg.t_b_s),
        c_lim_bps=capacity_limit(cfg, model), infeasible=infeasible,
        delay_at_lambda=_delay_search(source(k), model, epsilon, top))
