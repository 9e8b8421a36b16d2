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
ln(P D) with each output entry shifted by its own maximum), so mass that
underflows on the linear scale is kept.  On the stable set y >= 1
entrywise, so y and z are solved on the linear scale, where an underflowed
entry is negligible next to the 1; a solve that is not finite and >= 1
marks theta unstable, which for the Z-matrix I - e^{theta delta} (P D)^tau
is the same test.

ln F is convex in theta (sums and products of log-convex MGFs), so one
bounded scalar minimisation over the stable set (0, theta_stab) replaces
any theta grid; theta_stab is the root of theta delta + tau ln rho(P D).
The stable set is empty when delta >= tau pi Rb.  The epsilon-quantile
delay bound is the smallest tau_d with min_theta ln F <= ln epsilon, found
by doubling and bisection because F is non-increasing in tau_d.

Throughput is the largest sustainable arrival rate, found by integer
bisection on a lattice of spacing ``resolution_blocks``: the reported rate
lambda satisfies the guarantee while lambda + resolution does not.  Both
searches go through one integer search for the first n where a monotone
predicate holds.
"""
from dataclasses import dataclass
import functools
import math

import numpy as np
from scipy import optimize


@dataclass(frozen=True)
class PeriodicSource:
    """delta_blocks arriving every tau_slots, random phase."""

    delta_blocks: float
    tau_slots: int = 1

    def __post_init__(self):
        if not (self.delta_blocks >= 0 and math.isfinite(self.delta_blocks)):
            raise ValueError("delta_blocks must be nonnegative and finite")
        if int(self.tau_slots) != self.tau_slots or self.tau_slots < 1:
            raise ValueError("tau_slots must be a positive integer")

    @property
    def mean_rate_blocks(self):
        return self.delta_blocks / self.tau_slots

    def log_mgf(self, theta, t):
        """ln Ma(theta, t) for integer slot counts t >= 0 (broadcasts)."""
        if np.any(np.less(theta, 0)):
            raise ValueError("theta must be nonnegative")
        t = np.asarray(t)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        q, rem = np.divmod(t, self.tau_slots)
        r = rem / self.tau_slots
        base = theta * self.delta_blocks * q
        with np.errstate(divide="ignore"):
            bump = np.logaddexp(np.log1p(-r), np.log(r) + theta * self.delta_blocks)
        out = base + np.where(rem == 0, 0.0, bump)
        return out if out.ndim else float(out)


def arrival_mgf(source, theta, t):
    """Ma(theta, t) on the linear scale (may overflow to inf for huge theta*t)."""
    return np.exp(source.log_mgf(theta, t))


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta) & (theta >= 0)):
        raise ValueError("theta must be finite and nonnegative")
    return theta


def _log_matmul(a, b):
    """ln(e^a @ e^b) over the last two axes; each output entry is shifted by
    its own largest term, so no term underflows before it is summed."""
    s = a[..., :, :, None] + b[..., None, :, :]
    top = s.max(axis=-2)
    top[np.isneginf(top)] = 0.0                     # all -inf: stays -inf
    s -= top[..., None, :]
    out = np.exp(s, out=s).sum(axis=-2)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += top
    return out


def _log_kernel(model, theta):
    """ln(pi D) as a one-row matrix and ln(P D); theta may carry leading axes."""
    decay = np.multiply.outer(theta, model.rates_blocks)
    with np.errstate(divide="ignore"):
        log_pi, log_p = np.log(model.pi), np.log(model.transition)
    return (log_pi - decay)[..., None, :], log_p - decay[..., None, :]


def _log_w(model, theta, t):
    """ln w_t = ln(pi D (P D)^{t-1}) for t >= 1, by repeated squaring."""
    row, sq = _log_kernel(model, theta)
    k = t - 1
    while k:
        if k & 1:
            row = _log_matmul(row, sq)
        k >>= 1
        if k:
            sq = _log_matmul(sq, sq)
    return row[..., 0, :]


def service_log_mgf(model, theta, t):
    """ln Ms(theta, t) for an integer t >= 0, exact in the log domain.

    theta may be an array; the result has its shape.
    """
    theta = _check_theta(theta)
    if int(t) != t or t < 0:
        raise ValueError("t must be a nonnegative integer")
    if t == 0:
        out = np.zeros(theta.shape)
    else:
        out = np.logaddexp.reduce(_log_w(model, theta, int(t)), axis=-1)
    return out if out.ndim else float(out)


def log_violation_bound(source, model, theta, d_slots):
    """ln F_theta(d) for an integer d >= 1 by the closed form; +inf where
    theta lies outside the stable set."""
    theta = float(_check_theta(theta))
    if int(d_slots) != d_slots or d_slots < 1:
        raise ValueError("d_slots must be a positive integer")
    _, lpd = _log_kernel(model, theta)
    n = lpd.shape[0]
    log_b = source.log_mgf(theta, np.arange(1, source.tau_slots))
    phases, power = [np.eye(n)], lpd                # b_r (P D)^r, ln (P D)^r
    with np.errstate(over="ignore"):
        for lb in log_b:
            phases.append(np.exp(lb + power))
            power = _log_matmul(power, lpd)
        kernel = np.exp(theta * source.delta_blocks + power)
        try:
            y = np.linalg.solve(np.eye(n) - kernel, np.ones(n))
        except np.linalg.LinAlgError:
            return math.inf
        if not np.all((y >= 1) & (y < math.inf)):
            return math.inf
        z = sum(ph @ y for ph in phases)
    if not np.all(z < math.inf):
        return math.inf
    return float(np.logaddexp.reduce(_log_w(model, theta, int(d_slots)) + np.log(z)))


def _log_stability(source, model, theta):
    """theta delta + tau ln rho(P D): negative exactly on the stable set."""
    pd = model.transition * np.exp(-theta * model.rates_blocks)
    with np.errstate(divide="ignore"):
        log_rho = np.log(np.abs(np.linalg.eigvals(pd)).max())
    return theta * source.delta_blocks + source.tau_slots * log_rho


def _stable(source, model):
    """Whether the stable set is nonempty: delta < tau pi Rb."""
    return source.delta_blocks < source.tau_slots * float(model.pi @ model.rates_blocks)


def _best_theta(source, model, d_slots, log_eps):
    """(theta, ln F_theta(d)) at the minimiser of ln F over the stable set,
    or at the first theta met with ln F <= log_eps while ln F still falls;
    (nan, inf) when no stable theta is found.

    The bracket comes from the inputs: starting at one over the mean
    service rate, theta halves until ln F is finite and doubles while ln F
    falls.  An upper end where ln F is infinite is moved in to theta_stab,
    so the bounded minimiser only sees the convex, finite part.
    """
    f = lambda th: log_violation_bound(source, model, th, d_slots)
    theta = 1.0 / float(model.pi @ model.rates_blocks)
    fx, hi, f_hi = f(theta), None, math.inf
    while fx == math.inf:
        hi, theta = theta, theta / 2
        if theta == 0:
            return math.nan, math.inf
        fx = f(theta)
    lo = 0.0
    while hi is None and fx > log_eps:
        fn = f(2 * theta)
        if fn < fx:
            lo, theta, fx = theta, 2 * theta, fn
        else:
            hi, f_hi = 2 * theta, fn
    if fx <= log_eps:
        return theta, fx
    g = lambda th: _log_stability(source, model, th)
    if f_hi == math.inf and g(theta) < 0 < g(hi):
        hi = optimize.brentq(g, theta, hi, xtol=1e-12 * hi)
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-9 * hi})
    return (float(res.x), float(res.fun)) if res.fun < fx else (theta, fx)


@dataclass(frozen=True)
class DelayBoundResult:
    """epsilon-quantile delay bound and the exponent that certifies it."""

    d_slots: float              # smallest certified delay, or inf
    theta_star: float           # theta with ln F_theta(d) <= ln eps (nan when d is inf)
    epsilon: float
    valid: bool                 # the exact certificate is finite
    unstable: bool              # the stable set is empty


def _first_true(holds, lo, hi=None):
    """Smallest integer n > lo with holds(n), for a predicate that is false
    up to some n and true from there on; holds(lo) counts as false.  hi,
    when given, counts as true without a probe; otherwise the bracket
    doubles from lo + 1."""
    if hi is None:
        hi = lo + 1
        while not holds(hi):
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _delay_search(source, model, epsilon, top=None):
    """``delay_bound``, searched in (0, top] when ``top`` is known to certify."""
    if _stable(source, model):
        log_eps = math.log(epsilon)
        best = functools.cache(lambda d: _best_theta(source, model, d, log_eps))
        # No stable theta (nan) comes from the solve for y, which does not
        # involve d, so it holds at every delay and ends the search at d = 1.
        d = _first_true(lambda d: math.isnan(best(d)[0]) or best(d)[1] <= log_eps,
                        0, top)
        theta = best(d)[0]
        if not math.isnan(theta):
            return DelayBoundResult(d_slots=float(d), theta_star=theta,
                                    epsilon=epsilon, valid=True, unstable=False)
    return DelayBoundResult(d_slots=math.inf, theta_star=math.nan,
                            epsilon=epsilon, valid=False, unstable=True)


def delay_bound(source, model, epsilon):
    """Smallest delay tau_d whose violation probability bound drops below epsilon.

    F is non-increasing in tau_d, so tau_d is searched by doubling from one
    slot and then bisection, each probe minimising ln F over theta.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return _delay_search(source, model, epsilon)


def capacity_limit(cfg, model):
    """Ergodic rate ceiling: alpha * W * sum_l R_l pi_l, in bits per second."""
    return float(cfg.alpha * cfg.w_hz * (model.pi @ model.rates_bps_hz))


@dataclass(frozen=True)
class ThroughputResult:
    """Largest lattice arrival rate whose delay bound meets the guarantee."""

    lambda_blocks: float        # per-user arrival rate, blocks per slot
    lambda_bps: float           # aggregate bits per second: alpha*lambda*Nb/Tb
    c_lim_bps: float
    epsilon: float
    d_guarantee_slots: int
    resolution_blocks: float
    tau_slots: int
    delay_at_lambda: DelayBoundResult
    infeasible: bool            # guarantee unattainable even as lambda -> 0


def delay_constrained_throughput(cfg, model, *, epsilon, d_guarantee_slots,
                                 resolution_blocks=1e-3, tau_slots=1):
    """Bisect the arrival-rate lattice for the delay-constrained throughput.

    A lattice point is refused when min_theta ln F_theta(d_guarantee) > ln
    epsilon, which is monotone in the rate, so the returned point is exactly
    the lattice maximum and the point above it is the last refused probe.
    The bisection's top, the first point with an empty stable set, is found
    without evaluating the bound; the delay bound reported at the returned
    point is searched in (0, d_guarantee], which is known to certify.
    """
    if int(d_guarantee_slots) != d_guarantee_slots or d_guarantee_slots < 0:
        raise ValueError("d_guarantee_slots must be a nonnegative integer")
    if not resolution_blocks > 0:
        raise ValueError("resolution_blocks must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    log_eps, d_g = math.log(epsilon), int(d_guarantee_slots)

    def source(k):
        return PeriodicSource(k * resolution_blocks * tau_slots, tau_slots)

    def refused(k):
        src = source(k)
        return not (d_g >= 1 and _stable(src, model)
                    and _best_theta(src, model, d_g, log_eps)[1] <= log_eps)

    infeasible = refused(1)
    if infeasible:
        k, top = 0, None
    else:
        k_stab = _first_true(lambda k: not _stable(source(k), model), 1)
        k, top = _first_true(refused, 1, k_stab) - 1, d_g
    lam = k * resolution_blocks
    return ThroughputResult(
        lambda_blocks=lam, lambda_bps=lam * (cfg.alpha * cfg.n_b_bits / cfg.t_b_s),
        c_lim_bps=capacity_limit(cfg, model), epsilon=epsilon,
        d_guarantee_slots=d_g, resolution_blocks=resolution_blocks,
        tau_slots=tau_slots, infeasible=infeasible,
        delay_at_lambda=_delay_search(source(k), model, epsilon, top))
