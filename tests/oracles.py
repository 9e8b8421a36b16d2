"""Brute-force reference implementations used only by the test suite.

Each function recomputes a production quantity by a method that shares no
code with the library: explicit window counting for the arrival MGF,
exhaustive path enumeration for the service MGF, a dense ``logsumexp``
matrix-vector recursion for the service MGF table, a per-theta
bisection for the delay search, and a direct m x m solve for the
finite-system SINR.
"""
import math

import numpy as np
from scipy.special import logsumexp


def arrival_log_mgf_enumeration(delta, tau, theta, t):
    """ln E[e^{theta A(t)}] by counting source epochs in every window phase.

    Epochs sit at integer multiples of tau on the slot line; a window of t
    slots starting at w covers w .. w+t-1 and the phase w is uniform over
    one period.
    """
    counts = []
    for w in range(tau):
        if t == 0:
            counts.append(0)
        else:
            first = math.ceil(w / tau)
            last = math.floor((w + t - 1) / tau)
            counts.append(max(0, last - first + 1))
    return float(logsumexp([theta * delta * n for n in counts]) - math.log(tau))


def service_log_mgf_enumeration(pi, p, rates, theta, t):
    """ln E[e^{-theta S(t)}] summed over all |S|^t state paths, start in pi."""
    n = len(pi)
    if t == 0:
        return 0.0
    paths = np.indices((n,) * t).reshape(t, -1)
    w = pi[paths[0]].astype(float)
    for i in range(1, t):
        w = w * p[paths[i - 1], paths[i]]
    s = rates[paths].sum(axis=0)
    mask = w > 0
    if not mask.any():
        return -math.inf
    return float(logsumexp(-theta * s[mask], b=w[mask]))


def random_chain(rng, n_states, max_rate=3.0, sparse=False):
    """Random row-stochastic chain with nonnegative rates (not necessarily
    reversible or tridiagonal)."""
    p = rng.random((n_states, n_states))
    if sparse:
        p = p * (rng.random((n_states, n_states)) < 0.6)
        p[np.arange(n_states), np.arange(n_states)] += 0.1
    p /= p.sum(axis=1, keepdims=True)
    pi = rng.random(n_states) + 0.05
    pi /= pi.sum()
    rates = np.sort(rng.random(n_states)) * max_rate
    if rng.random() < 0.3:
        rates[0] = 0.0                      # outage-style bottom state
    return pi, p, rates


def service_log_mgf_table_logsumexp(pi, p, rates, thetas, horizon):
    """ln Ms(theta, t) rows for t = 0..horizon by a dense log-domain
    vector-matrix product per slot: w <- logsumexp_i(w_i + ln P_ij) - theta R_j."""
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_p = np.log(p)
    out = np.empty((len(thetas), horizon + 1))
    out[:, 0] = 0.0
    if horizon == 0:
        return out
    decay = thetas[:, None] * np.asarray(rates)[None, :]
    lw = log_pi[None, :] - decay
    out[:, 1] = logsumexp(lw, axis=1)
    for t in range(2, horizon + 1):
        lw = logsumexp(lw[:, :, None] + log_p[None, :, :], axis=1) - decay
        out[:, t] = logsumexp(lw, axis=1)
    return out


def theta_stats_bisection(source, thetas, logms, log_eps, window=16):
    """Per-theta delay search: (d, log_tail, decaying) per theta.

    The truncated sum ln F(tau_d) = logsumexp_s(ln Ma(s - tau_d) + ln Ms(s))
    is evaluated directly and bisected on tau_d; the summand decays when its
    largest step over the last ``window`` slots is negative (or it has
    underflowed), and the tail is the geometric continuation of that step.
    """
    t1 = logms.shape[1]
    s = np.arange(t1)
    d_out = np.full(len(thetas), np.inf)
    tail_out = np.full(len(thetas), np.inf)
    decaying = np.zeros(len(thetas), dtype=bool)
    for i, theta in enumerate(thetas):
        logma = source.log_mgf(theta, s)
        row = logms[i]

        def log_f(tau):
            return logsumexp(logma[:t1 - tau] + row[tau:])

        k = min(window, t1 - 1)
        v = logma + row
        end = v[-1]
        finished = math.isinf(end) and end < 0
        slope = float(np.diff(v[-k - 1:]).max()) if not finished else -math.inf
        if not finished and slope >= 0:
            continue
        decaying[i] = True
        if log_f(t1 - 1) > log_eps:
            continue
        lo, hi = 0, t1 - 1                      # hi certified, lo maybe not
        if log_f(0) <= log_eps:
            hi = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if log_f(mid) <= log_eps:
                hi = mid
            else:
                lo = mid
        d_out[i] = hi
        if finished:
            tail_out[i] = -np.inf
        else:
            last = logma[t1 - 1 - hi] + row[-1]
            tail_out[i] = last + slope - math.log1p(-math.exp(slope))
    return d_out, tail_out, decaying


def finite_sinr_direct(m, k, sigma2, n, seed):
    """(sinr, p1) from the same draws as ``sample_finite_sinr_batch`` in one
    chunk, with p1 s1^H (sigma2 I + A A^H)^-1 s1 by a direct m x m solve."""
    rng = np.random.default_rng(seed)
    s = (rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k)))
    s /= math.sqrt(2 * m)
    h = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / math.sqrt(2)
    p = np.abs(h) ** 2
    a = s[:, :, 1:] * np.sqrt(p[:, None, 1:])
    cov = a @ a.conj().transpose(0, 2, 1) + sigma2 * np.eye(m)
    s1 = s[:, :, 0]
    x = np.linalg.solve(cov, s1[:, :, None])[:, :, 0]
    return p[:, 0] * np.real(np.sum(s1.conj() * x, axis=1)), p[:, 0]
