"""Moment-generating-function calculus for the delay-constrained throughput.

The FSMC service over t slots has the Laplace-domain MGF

    Ms(theta, t) = pi diag(e^{-theta Rb}) (P diag(e^{-theta Rb}))^{t-1} 1,

with Ms(theta, 0) = 1 (empty interval serves nothing), where Rb are the
per-state block rates.  A periodic source delivering delta blocks every tau
slots with random phase has

    Ma(theta, t) = e^{theta delta floor(t/tau)} (1 + frac(t/tau) (e^{theta delta} - 1)).

The steady-state probability that a block waits more than tau_d slots is
bounded by

    inf_theta  sum_{s = tau_d}^{inf}  Ma(theta, s - tau_d) Ms(theta, s),

so the epsilon-quantile delay bound is the smallest tau_d making the sum
drop below epsilon for some theta > 0.  Sums are truncated at a horizon
with a geometric tail estimate, and theta is optimised on a log-spaced grid
with local refinement around the grid minimiser.  All arithmetic stays in
the log domain: ln Ms advances one slot by one ``np.logaddexp`` per nonzero
diagonal of P, and the search sums each residue class of slots mod tau by a
suffix ``logaddexp.accumulate``, giving the truncated sum at every tau_d.

Throughput is the largest sustainable arrival rate, found by integer
bisection on a lattice of spacing ``resolution_blocks``: the reported rate
lambda satisfies the guarantee while lambda + resolution does not (or the
search cap was hit, which is flagged).
"""
from dataclasses import dataclass
import math

import numpy as np

from .fsmc import FsmcModel

_STABILITY_WINDOW = 16


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


class ServiceMgf:
    """Evaluator for the FSMC service MGF with a per-theta table cache.

    The state vector ln(pi D (P D)^{t-1}) is propagated once per theta up to
    the requested horizon and memoised, so sweeps that probe many arrival
    rates against one channel pay for each theta only once.  A slot
    log-adds w[i] + ln P[i, i+k] into state i+k along each nonzero diagonal
    k of P (3 for a birth-death chain), exact for any P.  The cache is a
    plain dict with atomic insertions; workers that need isolation should
    hold their own evaluator.
    """

    def __init__(self, model: FsmcModel):
        self.model = model
        p = model.transition
        n = p.shape[0]
        with np.errstate(divide="ignore"):
            self._log_pi = np.log(model.pi)
            # (source slice, target slice, ln P along diagonal k); the main
            # diagonal comes first and is always kept, as it spans every state
            self._diagonals = [
                (slice(max(0, -k), n - max(0, k)), slice(max(0, k), n - max(0, -k)),
                 np.log(np.diagonal(p, k))[:, None])
                for k in sorted(range(1 - n, n), key=abs)
                if k == 0 or np.diagonal(p, k).any()]
        self._rates = model.rates_blocks
        self._cache = {}

    def table(self, thetas, horizon_slots):
        """ln Ms rows for each theta, columns t = 0..horizon_slots."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(thetas) & (thetas >= 0)):
            raise ValueError("theta must be finite and nonnegative")
        missing = [th for th in thetas
                   if th not in self._cache or self._cache[th].shape[0] < horizon_slots + 1]
        if missing:
            rows = self._compute(np.array(missing), horizon_slots)
            for th, row in zip(missing, rows):
                self._cache[th] = row
        return np.vstack([self._cache[th][:horizon_slots + 1] for th in thetas])

    def _compute(self, thetas, horizon):
        # states along axis 0, so each diagonal moves contiguous rows
        out = np.empty((horizon + 1, len(thetas)))
        out[0] = 0.0
        if horizon == 0:
            return out.T
        decay = self._rates[:, None] * thetas[None, :]
        lw = self._log_pi[:, None] - decay
        out[1] = np.logaddexp.reduce(lw, axis=0)
        (_, _, lp_main), *off_main = self._diagonals
        for t in range(2, horizon + 1):
            nxt = lw + lp_main
            for src, tgt, lp in off_main:
                np.logaddexp(nxt[tgt], lw[src] + lp, out=nxt[tgt])
            nxt -= decay
            lw = nxt
            np.logaddexp.reduce(lw, axis=0, out=out[t])
        return out.T

    def log_mgf(self, theta, t):
        """ln Ms(theta, t) for one theta and integer t >= 0."""
        return float(self.table(theta, int(t))[0, int(t)])

    def mgf(self, theta, t):
        return math.exp(self.log_mgf(theta, t))


def default_theta_grid(lo=1e-4, hi=50.0, points=60):
    return np.geomspace(lo, hi, points)


@dataclass(frozen=True)
class DelayBoundResult:
    """epsilon-quantile delay bound with its truncation diagnostics."""

    d_slots: float              # smallest certified delay, or inf
    theta_star: float           # optimising theta (nan when d is inf)
    epsilon: float
    horizon_slots: int
    tail_bound: float           # geometric estimate of the neglected tail
    valid: bool                 # finite d and tail_bound < 0.01 * epsilon
    unstable: bool              # no grid theta had a decaying summand


def _theta_stats(source, thetas, logms, log_eps):
    """Vectorised delay search over the theta grid for a periodic source.

    With a = theta delta and tau the period, Ma(theta, q tau + r) =
    e^{a q} b_r where b_r = 1 - r/tau + (r/tau) e^{a}, so the truncated sum
    F(tau_d) = sum_{s >= tau_d} Ma(s - tau_d) Ms(s) splits over the phase r:
    F(tau_d) = sum_r b_r H(tau_d + r), with H(s) = sum_{q >= 0} e^{a q}
    Ms(s + q tau) one suffix sum within the residue class of s mod tau.
    F is non-increasing in tau_d, so d is the first slot with
    ln F <= ln epsilon.

    Returns (d, log_tail, decaying) per theta; d is inf where the summand
    does not decay at the horizon or no truncated sum meets epsilon, and
    log_tail (the geometric estimate of the neglected tail) is inf with it.
    """
    m, t1 = logms.shape
    tau = source.tau_slots
    a = thetas * source.delta_blocks
    n_q = -(-(t1 + tau - 1) // tau)          # room for H(s) up to s = t1 + tau - 2
    aq = a[:, None] * (np.arange(n_q * tau) // tau)     # a q at slot q tau + r
    w = np.full(aq.shape, -np.inf)
    np.add(logms, aq[:, :t1], out=w[:, :t1])
    g = np.logaddexp.accumulate(w.reshape(m, n_q, tau)[:, ::-1], axis=1)[:, ::-1]
    log_h = w                               # w is spent: reuse its buffer
    np.subtract(g, aq.reshape(g.shape), out=log_h.reshape(g.shape))

    log_b = source.log_mgf(thetas[:, None], np.arange(tau))    # ln b_r
    log_f = log_h[:, :t1]
    for r in range(1, tau):
        log_f = np.logaddexp(log_f, log_b[:, r:r + 1] + log_h[:, r:r + t1])

    ok = log_f <= log_eps
    d = np.where(ok.any(axis=1), ok.argmax(axis=1).astype(float), np.inf)

    k = min(_STABILITY_WINDOW, t1 - 1)
    v = source.log_mgf(thetas[:, None], np.arange(t1 - k - 1, t1)) + logms[:, -k - 1:]
    finished = np.isneginf(v[:, -1])        # summand already underflowed: converged
    with np.errstate(invalid="ignore"):
        slope = np.diff(v, axis=1).max(axis=1)
    decaying = finished | (slope < 0)
    d = np.where(decaying, d, np.inf)

    certified = np.isfinite(d)
    last = np.where(certified, t1 - 1 - d, 0).astype(int)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_tail = (source.log_mgf(thetas, last) + logms[:, -1] + slope
                    - np.log1p(-np.exp(np.minimum(slope, -1e-300))))
    log_tail = np.where(finished, -np.inf, log_tail)
    return d, np.where(certified, log_tail, np.inf), decaying


def delay_bound(source, service, epsilon, *, horizon_slots=4000,
                theta_grid=None, refine=1, refine_points=9):
    """Smallest delay tau_d whose violation probability bound drops below epsilon.

    theta is searched on a log-spaced grid, then ``refine`` zoom passes of
    ``refine_points`` log-spaced values bracket the grid minimiser.  The
    result carries the geometric tail estimate of the truncated sum; the
    ``valid`` flag requires it below one percent of epsilon.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if horizon_slots < 2:
        raise ValueError("horizon_slots must be at least 2")
    thetas = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, float)
    if not np.all(np.isfinite(thetas) & (thetas > 0)):
        raise ValueError("theta grid must be positive and finite")
    if refine > 0 and refine_points < 2:
        raise ValueError("refine_points must be at least 2")
    log_eps = math.log(epsilon)

    d, log_tail, decaying = _theta_stats(
        source, thetas, service.table(thetas, horizon_slots), log_eps)
    all_unstable = not bool(decaying.any())

    def pick(thetas, d, log_tail):
        finite = np.isfinite(d)
        if not finite.any():
            return math.inf, math.nan, math.inf
        dbest = d[finite].min()
        cand = finite & (d == dbest)
        sub = np.where(cand)[0]
        j = sub[np.argmin(log_tail[sub])]
        return float(dbest), float(thetas[j]), float(log_tail[j])

    best_d, best_theta, best_lt = pick(thetas, d, log_tail)

    if math.isfinite(best_d) and refine > 0 and len(thetas) > 1:
        ratio = (thetas.max() / thetas.min()) ** (1.0 / (len(thetas) - 1))
        center = best_theta
        for _ in range(refine):
            zoom = np.geomspace(center / ratio, center * ratio, refine_points)
            dz, ltz, _ = _theta_stats(source, zoom, service.table(zoom, horizon_slots),
                                      log_eps)
            dz_best, th_z, lt_z = pick(zoom, dz, ltz)
            if dz_best < best_d or (dz_best == best_d and lt_z < best_lt):
                best_d, best_theta, best_lt = dz_best, th_z, lt_z
            center = best_theta
            ratio = ratio ** (2.0 / (refine_points - 1))

    tail = math.exp(best_lt) if best_lt > -math.inf else 0.0
    if not math.isfinite(best_d):
        tail = math.inf
    valid = math.isfinite(best_d) and tail < 0.01 * epsilon
    return DelayBoundResult(d_slots=best_d, theta_star=best_theta, epsilon=epsilon,
                            horizon_slots=horizon_slots, tail_bound=tail,
                            valid=valid, unstable=all_unstable)


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
    delay_at_lambda: DelayBoundResult | None
    delay_above: DelayBoundResult | None    # certificate: next lattice point fails
    infeasible: bool            # guarantee unattainable even as lambda -> 0
    capped: bool                # search cap reached; rate reported at the cap


def delay_constrained_throughput(cfg, model, *, epsilon, d_guarantee_slots,
                                 resolution_blocks=1e-3, tau_slots=1,
                                 horizon_slots=4000, theta_grid=None,
                                 service=None, refine_final=1):
    """Bisect the arrival-rate lattice for the delay-constrained throughput.

    Feasibility of a lattice point k uses the unrefined theta grid, making
    the predicate monotone and the returned k exactly the lattice maximum;
    the reported bound at the winner is then re-evaluated with refinement
    (which can only lower the delay, so the certificate stands).
    """
    if int(d_guarantee_slots) != d_guarantee_slots or d_guarantee_slots < 0:
        raise ValueError("d_guarantee_slots must be a nonnegative integer")
    if not resolution_blocks > 0:
        raise ValueError("resolution_blocks must be positive")
    if service is None:
        service = ServiceMgf(model)
    c_lim = capacity_limit(cfg, model)
    bits_per_block_rate = cfg.alpha * cfg.n_b_bits / cfg.t_b_s

    def bound_at(k, refine):
        src = PeriodicSource(k * resolution_blocks * tau_slots, tau_slots)
        return delay_bound(src, service, epsilon, horizon_slots=horizon_slots,
                           theta_grid=theta_grid, refine=refine)

    def make(k, delay_at, delay_above, infeasible, capped):
        lam = k * resolution_blocks
        return ThroughputResult(
            lambda_blocks=lam, lambda_bps=lam * bits_per_block_rate,
            c_lim_bps=c_lim, epsilon=epsilon,
            d_guarantee_slots=int(d_guarantee_slots),
            resolution_blocks=resolution_blocks, tau_slots=tau_slots,
            delay_at_lambda=delay_at, delay_above=delay_above,
            infeasible=infeasible, capped=capped)

    first = bound_at(1, refine=0)
    if not first.d_slots <= d_guarantee_slots:
        zero = delay_bound(PeriodicSource(0.0, tau_slots), service, epsilon,
                           horizon_slots=horizon_slots, theta_grid=theta_grid,
                           refine=refine_final)
        return make(0, zero, first, infeasible=True, capped=False)

    rate_cap = float(np.max(model.rates_blocks))
    k_hi = max(2, math.ceil(rate_cap / resolution_blocks) + 1)
    top = bound_at(k_hi, refine=0)
    if top.d_slots <= d_guarantee_slots:
        return make(k_hi, bound_at(k_hi, refine=refine_final), None,
                    infeasible=False, capped=True)

    lo, hi = 1, k_hi
    hi_bound = top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        b = bound_at(mid, refine=0)
        if b.d_slots <= d_guarantee_slots:
            lo = mid
        else:
            hi, hi_bound = mid, b
    return make(lo, bound_at(lo, refine=refine_final), hi_bound,
                infeasible=False, capped=False)
