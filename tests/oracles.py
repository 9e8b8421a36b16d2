"""Brute-force reference implementations used only by the test suite.

Each function recomputes a production quantity by a method that shares no
code with the library: explicit window counting for the arrival MGF,
exhaustive path enumeration for the service MGF, a dense ``logsumexp``
matrix-vector recursion for the service MGF table, 50-digit sums of
exponentials for the log-domain matrix product, truncated sums with a
geometric tail bound and the closed form in 50-digit arithmetic for the
delay bound, bisection for the large-system fixed point, arbitrary
precision for the interference integral's closed form, a direct m x m
solve for the finite-system SINR, one-dimensional adaptive quadrature of
the PAM sums and a two-dimensional product Gauss-Hermite rule over the
complex points for the constellation capacity, a per-state loop over the
library's own crossing rates and occupancies for the chain's bands (the
construction ``build_fsmc`` replaced, so that its P can be held bit for
bit), a per-slot walk for the chain path, and whole-path arrays instead of chunks, or Lindley's
recursion slot by slot in exact rational arithmetic, for the FIFO queue's
departures.  The exponential SNR density and the dB
conversion are the textbook formulas the pipeline is built on, kept here
because only tests read them.  The finite-system SINR sampler is a Monte
Carlo check of the large-system fixed point that only tests call, so it
lives here too, next to its direct-solve reference and an estimator that
tags every user of a draw at the cost of one k x k solve.  The plain bisections
over the rate lattice and the delay keep the library's exact ln F and
answer each probe by ``best_theta_full``, the library's former full
minimisation over theta: they are what the throughput search's rate
proposal, galloping and decided probes must reproduce.  The service MGF
through the library's log-domain kernel and the arrival MGF's closed form
were public library functions that only tests called; they live here as
the quantities the oracles above are held to.
"""
from fractions import Fraction
import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import integrate
from scipy.special import logsumexp

from cdmacal import netcal
from cdmacal._search import minimize_bounded
from cdmacal.errors import SlowFadingViolation, whole_number
from cdmacal.fsmc import _edges, level_crossing_rate, stationary_distribution


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
    logs = [theta * delta * n for n in counts]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs)) - math.log(tau)


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


def random_birth_death_chain(rng, n_states, max_rate=3.0, outage=None):
    """Random tridiagonal chain (pi, P, rates) with pi in detailed balance
    with P, built as ``build_fsmc`` builds its chain: each edge carries a
    flow c_l = pi_l P_{l,l+1} = pi_{l+1} P_{l+1,l}, and each rate is c_l
    over pi.  Each state splits its room to move between its two edges, and
    an edge may take all the room both ends give it, so self-loops reach 0
    (exactly, where one state's room decides).  ``outage`` (drawn with
    probability 0.3 when None) zeroes the bottom state's rate."""
    pi = rng.random(n_states) + 0.05
    pi /= pi.sum()
    share = rng.random(n_states)            # room for the up edge, of 1
    share[0], share[-1] = 1.0, 0.0          # an end state has one edge
    use = np.where(rng.random(n_states) < 0.3, 1.0, rng.random(n_states))
    flow = use[:-1] * np.minimum(pi[:-1] * share[:-1], pi[1:] * (1 - share[1:]))
    up, down = flow / pi[:-1], flow / pi[1:]
    p = np.diag(up, 1) + np.diag(down, -1)
    p[np.diag_indices(n_states)] = np.maximum(1.0 - p.sum(axis=1), 0.0)
    rates = np.sort(rng.random(n_states)) * max_rate
    if rng.random() < 0.3 if outage is None else outage:
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


def log_matmul(a, b):
    """ln(e^a @ e^b) over the last two axes: each output entry is one
    pairwise log-sum-exp over its terms, so no term underflows before it is
    summed, and -inf terms, even a whole column of them, need no shift and
    raise no warning."""
    return np.logaddexp.reduce(a[..., :, :, None] + b[..., None, :, :], axis=-2)


def _log_chain(pi, p, rates, theta):
    """ln(pi D) as a one-row matrix and ln(P D), -inf where an entry is 0;
    theta may carry leading axes."""
    decay = np.multiply.outer(theta, np.asarray(rates, dtype=float))
    with np.errstate(divide="ignore"):
        log_pi, log_p = np.log(pi), np.log(p)
    return (log_pi - decay)[..., None, :], log_p - decay[..., None, :]


def log_w(row, sq, t):
    """ln w_t = ln(pi D (P D)^{t-1}) for t >= 1 from (ln(pi D), ln(P D)), by
    repeated squaring of log-domain products; theta may carry leading axes,
    and a zero entry of pi or P stays an exact -inf."""
    k = t - 1
    while k:
        if k & 1:
            row = log_matmul(row, sq)
        k >>= 1
        if k:
            sq = log_matmul(sq, sq)
    return row[..., 0, :]


def service_log_mgf(model, theta, t):
    """ln Ms(theta, t) for an integer t >= 0 through the log-domain kernel
    ``log_w`` on any chain; theta may be an array and the result has its
    shape."""
    theta = np.asarray(theta, dtype=float)
    if t == 0:
        out = np.zeros(theta.shape)
    else:
        lw = log_w(*_log_chain(model.pi, model.transition, model.rates_blocks,
                               theta), t)
        out = np.logaddexp.reduce(lw, axis=-1)
    return out if out.ndim else float(out)


def log_violation_bound_log_domain(pi, p, rates, delta, tau, theta, d):
    """ln F_theta(d) = ln w_d z of the netcal closed form, d >= 1, on any
    chain: ln w_d by ``log_w``, ln (P D)^r for r <= tau by log-domain
    products, and y = (I - e^{theta delta} (P D)^tau)^{-1} 1 and z by an
    L x L solve on the linear scale; +inf unless y is finite and >= 1 and
    z is finite (the former library kernel)."""
    row, lpd = _log_chain(pi, p, rates, float(theta))
    powers = [lpd]
    for _ in range(1, tau):
        powers.append(log_matmul(powers[-1], lpd))
    n = len(lpd)
    r = np.arange(1, tau) / tau
    with np.errstate(over="ignore"):
        try:
            y = np.linalg.solve(np.eye(n) - np.exp(theta * delta + powers[-1]),
                                np.ones(n))
        except np.linalg.LinAlgError:
            return math.inf
        if not (y.min() >= 1 and y.max() < math.inf):
            return math.inf
        z = y
        log_b = np.logaddexp(np.log1p(-r), np.log(r) + theta * delta)
        for lb, power in zip(log_b, powers):
            z = z + np.exp(lb + power) @ y
        if not z.max() < math.inf:
            return math.inf
    return float(np.logaddexp.reduce(log_w(row, lpd, d) + np.log(z)))


def log_matmul_mp(a, b, dps=50):
    """ln(e^a @ e^b) over the last two axes, leading axes broadcast, each
    entry a sum of exponentials in ``dps``-digit arithmetic with its -inf
    terms dropped, then rounded to float; -inf where every term is."""
    import mpmath as mp

    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    out = np.empty(lead + (a.shape[-2], b.shape[-1]))
    with mp.workdps(dps):
        for *head, i, j in np.ndindex(out.shape):
            terms = [mp.exp(mp.mpf(x) + mp.mpf(y))
                     for x, y in zip(a[(*head, i)], b[(*head, slice(None), j)])
                     if x > -math.inf and y > -math.inf]
            out[(*head, i, j)] = float(mp.log(mp.fsum(terms))) if terms else -math.inf
    return out


def periodic_log_mgf(source, theta, t):
    """ln Ma(theta, t) of a ``PeriodicSource`` by its closed form, for
    integer slot counts t >= 0 (broadcasts)."""
    q, rem = np.divmod(np.asarray(t), source.tau_slots)
    r = rem / source.tau_slots
    a = theta * source.delta_blocks
    with np.errstate(divide="ignore"):
        bump = np.logaddexp(np.log1p(-r), np.log(r) + a)
    out = a * q + np.where(rem == 0, 0.0, bump)
    return out if out.ndim else float(out)


def violation_bound_oracle(pi, p, rates, delta, tau, theta, d, horizon):
    """(partial, upper) for sum_{s >= d} Ma(theta, s - d) Ms(theta, s), d >= 1.

    partial[i] is ln of the sum truncated at s = d + i, up to s = horizon,
    from window counting and a dense logsumexp recursion; upper is ln of the
    last partial sum plus a geometric bound on the rest, inf when no bound
    is found.  The bound takes a positive vector v >= 1 near the Perron
    vector of P D with rho' = max_i (P D v)_i / v_i, so that
    Ms(theta, T + k) <= rho'^k (w_T . v), and Ma(theta, t) <= e^{a (t/tau + 1)}
    with a = theta delta.
    """
    with np.errstate(divide="ignore"):
        log_pi, log_p = np.log(pi), np.log(p)
    decay = theta * np.asarray(rates, dtype=float)
    lw = log_pi - decay
    terms = []
    for s in range(1, horizon + 1):
        if s > 1:
            lw = np.logaddexp.reduce(lw[:, None] + log_p, axis=0) - decay
        if s >= d:
            terms.append(arrival_log_mgf_enumeration(delta, tau, theta, s - d)
                         + np.logaddexp.reduce(lw))
    partial = np.logaddexp.accumulate(terms)

    pd = p * np.exp(-decay)
    vals, vecs = np.linalg.eig(pd)
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    if not v.min() > 0:
        return partial, math.inf
    v = v / v.min()
    a = theta * delta
    log_x = a / tau + math.log(float(np.max(pd @ v / v)))
    if not log_x < 0:
        return partial, math.inf
    log_tail = (logsumexp(lw + np.log(v)) + a * (1 + (horizon - d) / tau)
                + log_x - math.log(-math.expm1(log_x)))
    return partial, float(np.logaddexp(partial[-1], log_tail))


def log_violation_bound_mp(pi, p, rates, delta, tau, theta, d, dps=50,
                           stochastic=False):
    """ln F_theta(d) = ln w_d z of the netcal closed form, d >= 1, in dps-digit
    arithmetic: w_d = pi D (P D)^{d-1} by repeated squaring and y by an LU
    solve, with no log-domain shifts; +inf unless y is finite and >= 1.
    ``stochastic`` takes the chain whose diagonal is P_ii = 1 - sum_{j != i}
    P_ij at full precision, the chain the float P only rounds; otherwise the
    float P is taken as exact."""
    import mpmath as mp

    with mp.workdps(dps):
        n, theta, a = len(pi), mp.mpf(theta), mp.exp(mp.mpf(theta) * mp.mpf(delta))
        chain = [[mp.mpf(p[i][j]) for j in range(n)] for i in range(n)]
        if stochastic:
            for i in range(n):
                chain[i][i] = 1 - mp.fsum(chain[i][j] for j in range(n) if j != i)
        pd = mp.matrix([[chain[i][j] * mp.exp(-theta * mp.mpf(rates[j]))
                         for j in range(n)] for i in range(n)])
        w = mp.matrix([[mp.mpf(pi[j]) * mp.exp(-theta * mp.mpf(rates[j]))
                        for j in range(n)]])
        sq, k = pd, d - 1
        while k:
            if k & 1:
                w = w * sq
            k >>= 1
            if k:
                sq = sq * sq
        powers = [mp.eye(n)]
        for _ in range(tau):
            powers.append(powers[-1] * pd)
        try:
            y = mp.lu_solve(mp.eye(n) - a * powers[tau], mp.ones(n, 1))
        except ZeroDivisionError:
            return math.inf
        if not all(mp.isfinite(v) and v >= 1 for v in y):
            return math.inf
        z = y
        for r in range(1, tau):
            z = z + (1 - mp.mpf(r) / tau + mp.mpf(r) / tau * a) * (powers[r] * y)
        return float(mp.log((w * z)[0]))


def fixed_point_bisection(sigma2, alpha, integral, iters=200):
    """Root of b - sigma2 - alpha * integral(b) on [sigma2, sigma2 + alpha]
    by plain bisection."""
    lo, hi = sigma2, sigma2 + alpha
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid - sigma2 - alpha * integral(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def interference_integral_closed_form(beta, dps=40):
    """Closed form beta * (1 - beta e^beta E1(beta)), via arbitrary precision
    (E1 underflows and e^beta overflows in double precision for large beta)."""
    import mpmath as mp

    with mp.workdps(dps):
        b = mp.mpf(beta)
        return float(b * (1 - b * mp.exp(b) * mp.e1(b)))


def sample_finite_sinr_batch(m, k, sigma2, n, seed=None, chunk=128):
    """Draw n finite-system SINR samples; returns (sinr, p1) arrays.

    Signatures are i.i.d. CN(0, I/m) columns, channel gains CN(0, 1); the
    tagged user's SINR is p1 * s1^H M^-1 s1 with M = sigma2 I + A A^H the
    interference-plus-noise covariance over users 2..k (A = columns
    sqrt(p_j) s_j).  By the Woodbury identity
    s1^H M^-1 s1 = (|s1|^2 - y^H (sigma2 I + A^H A)^-1 y) / sigma2 with
    y = A^H s1, a batched solve of order k - 1 instead of m.
    """
    m, k = whole_number("m", m, 1), whole_number("k", k, 1)
    n, chunk = whole_number("n", n, 0), whole_number("chunk", chunk, 1)
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite: {sigma2!r}")
    rng = np.random.default_rng(seed)
    sinr = np.empty(n)
    p1 = np.empty(n)
    done = 0
    eye = sigma2 * np.eye(k - 1)
    while done < n:
        c = min(chunk, n - done)
        s = (rng.standard_normal((c, m, k)) + 1j * rng.standard_normal((c, m, k)))
        s /= math.sqrt(2 * m)
        h = (rng.standard_normal((c, k)) + 1j * rng.standard_normal((c, k))) / math.sqrt(2)
        p = np.abs(h) ** 2
        a = s[:, :, 1:] * np.sqrt(p[:, None, 1:])
        a_h = a.conj().transpose(0, 2, 1)
        s1 = s[:, :, 0]
        y = a_h @ s1[:, :, None]
        x = np.linalg.solve(a_h @ a + eye, y)
        quad = (np.sum(np.abs(s1) ** 2, axis=1)
                - np.real(np.sum(y.conj() * x, axis=(1, 2)))) / sigma2
        sinr[done:done + c] = p[:, 0] * quad
        p1[done:done + c] = p[:, 0]
        done += c
    return sinr, p1


def finite_sinr_all_users(m, k, sigma2, n, seed=None, chunk=32):
    """SINR_j / p_j of every user j in each of n finite systems, shape (n, k).

    Draws systems the way ``sample_finite_sinr_batch`` does, but every user
    is the tagged one.  With G = S^H S and C = sigma2 I + S P S^H, the push-through
    identity gives S^H C^-1 S = (sigma2 I + G P)^-1 G, whose diagonal is
    q_j = s_j^H C^-1 s_j; Sherman-Morrison removes user j from C, so
    s_j^H M_j^-1 s_j = q_j / (1 - p_j q_j) with M_j = C - p_j s_j s_j^H.
    One k x k solve per draw.
    """
    m, k = whole_number("m", m, 1), whole_number("k", k, 1)
    n, chunk = whole_number("n", n, 0), whole_number("chunk", chunk, 1)
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite: {sigma2!r}")
    rng = np.random.default_rng(seed)
    ratio = np.empty((n, k))
    eye = sigma2 * np.eye(k)
    for done in range(0, n, chunk):
        c = min(chunk, n - done)
        s = (rng.standard_normal((c, m, k)) + 1j * rng.standard_normal((c, m, k)))
        s /= math.sqrt(2 * m)
        h = (rng.standard_normal((c, k)) + 1j * rng.standard_normal((c, k))) / math.sqrt(2)
        p = np.abs(h) ** 2
        g = s.conj().transpose(0, 2, 1) @ s
        q = np.real(np.diagonal(np.linalg.solve(eye + g * p[:, None, :], g),
                                axis1=1, axis2=2))
        ratio[done:done + c] = q / (1 - p * q)
    return ratio


def finite_sinr_direct(m, k, sigma2, n, seed, tagged=0):
    """(sinr, p1) from the same draws as ``sample_finite_sinr_batch`` and
    ``finite_sinr_all_users`` in one chunk, with p1 s1^H (sigma2 I + A A^H)^-1 s1
    by a direct m x m solve; user ``tagged`` plays user 1."""
    rng = np.random.default_rng(seed)
    s = (rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k)))
    s /= math.sqrt(2 * m)
    h = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / math.sqrt(2)
    p = np.abs(h) ** 2
    others = [j for j in range(k) if j != tagged]
    a = s[:, :, others] * np.sqrt(p[:, None, others])
    cov = a @ a.conj().transpose(0, 2, 1) + sigma2 * np.eye(m)
    s1 = s[:, :, tagged]
    x = np.linalg.solve(cov, s1[:, :, None])[:, :, 0]
    return p[:, tagged] * np.real(np.sum(s1.conj() * x, axis=1)), p[:, tagged]


def pam_capacity_quadrature(levels, gamma):
    """Capacity (bits/symbol) of equiprobable real levels on the complex AWGN
    channel with unit noise variance at SNR gamma, by one ``integrate.quad``
    per level over the real noise component u, density exp(-u^2)/sqrt(pi):

        C = log2 M - (1/M) sum_b E_u[ log2 sum_b' exp(-d^2 - 2 u d) ],
        d = sqrt(gamma) (b - b').
    """
    levels = np.asarray(levels, dtype=float)
    s = math.sqrt(gamma)
    total = 0.0
    for b in levels:
        d = s * (b - levels)

        def f(u):
            return (math.exp(-u * u) / math.sqrt(math.pi)
                    * np.logaddexp.reduce(-d * d - 2 * u * d))

        val, err = integrate.quad(f, -np.inf, np.inf, limit=400,
                                  epsabs=1e-12, epsrel=1e-11)
        assert err < 1e-9
        total += val
    return math.log2(len(levels)) - total / (len(levels) * math.log(2))


def constellation_capacity_quadrature(name, gamma):
    """Capacity of a named constellation (bpsk, qpsk, 16-qam, 64-qam) in
    bps/Hz.  BPSK is 2-PAM; a unit-energy square QAM is two unit-energy PAMs
    at half the SNR each, so C_QAM(gamma) = 2 C_PAM(gamma / 2) exactly."""
    side = {"bpsk": 2, "qpsk": 2, "16-qam": 4, "64-qam": 8}[name]
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    levels /= math.sqrt(np.mean(levels ** 2))
    if name == "bpsk":
        return pam_capacity_quadrature(levels, gamma)
    return 2.0 * pam_capacity_quadrature(levels, gamma / 2.0)


def constellation_points(name):
    """Unit-average-energy complex points of a named constellation (bpsk,
    qpsk, 16-qam, 64-qam): a square grid of odd levels, scaled."""
    if name == "bpsk":
        return np.array([1.0, -1.0], dtype=complex)
    side = {"qpsk": 2, "16-qam": 4, "64-qam": 8}[name]
    lv = np.arange(-(side - 1), side, 2, dtype=float)
    pts = (lv[:, None] + 1j * lv[None, :]).ravel()
    return pts / math.sqrt(np.mean(np.abs(pts) ** 2))


def constellation_capacity_product_rule(points, gamma):
    """Capacity in bps/Hz of an arbitrary complex point set with unit average
    energy, by a 64 x 64 product Gauss-Hermite rule over the real and
    imaginary part of the circular noise:

        C = log2 M - (1/M) sum_b E_v[ log2 sum_b' exp(-|d|^2 - 2 Re(conj(v) d)) ],
        d = sqrt(gamma) (b - b').

    This is the two-dimensional rule the library's per-axis PAM rule must
    reproduce to rounding; it costs 64^2 M^2 terms.
    """
    pts = np.asarray(points, dtype=complex)
    m = len(pts)
    nodes, weights = hermgauss(64)
    weights = weights / weights.sum()
    d = math.sqrt(gamma) * (pts[:, None] - pts[None, :])
    # v = x_i + j x_k splits the summand into a real-part and an
    # imaginary-part factor, so the inner sums are one matrix product per b
    x = nodes[None, :, None]
    re = np.exp(x ** 2 - (x + d.real[:, None, :]) ** 2)
    im = np.exp(x ** 2 - (x + d.imag[:, None, :]) ** 2)
    inner = np.log(re @ im.transpose(0, 2, 1))
    mean_log = float(np.einsum("i,bik,k->", weights, inner, weights)) / m
    return max(0.0, math.log2(m) - mean_log / math.log(2))


def post_detection_snr_pdf(gamma_bar):
    """Exponential post-detection SNR density with mean gamma_bar, zero below 0."""
    return lambda g: math.exp(-g / gamma_bar) / gamma_bar if g >= 0 else 0.0


def linear_to_db(x):
    """Power ratio in dB, the inverse of ``db_to_linear``; 0 maps to -inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(x)
    return out if out.ndim else float(out)


def fsmc_transition_loop(cfg, channel):
    """``build_fsmc``'s transition matrix, filled one state at a time: the
    up and down probabilities N(Gamma) T_b / pi_l, a zero-occupancy refusal
    at the first state that moves, then one refusal naming every state whose
    probabilities leave [0, 1]."""
    gamma_bar = channel.gamma_bar
    pi = stationary_distribution(cfg.modes.thresholds_linear, gamma_bar)
    L = len(pi)
    crossings = level_crossing_rate(_edges(cfg.modes.thresholds_linear),
                                    gamma_bar, cfg.f_m_hz) * cfg.t_b_s
    up = np.zeros(L)
    down = np.zeros(L)
    bad = []
    for l in range(L):
        for target, rate in ((up, crossings[l + 1] if l < L - 1 else 0.0),
                             (down, crossings[l] if l > 0 else 0.0)):
            if rate == 0.0:
                continue
            if pi[l] <= 0.0:
                raise SlowFadingViolation(
                    [l], f"state has zero occupancy but boundary crossing rate {rate:.3g}")
            target[l] = rate / pi[l]
        if up[l] > 1.0 or down[l] > 1.0 or up[l] + down[l] > 1.0:
            bad.append(l)
    if bad:
        raise SlowFadingViolation(
            bad, f"f_m_hz={cfg.f_m_hz}, t_b_s={cfg.t_b_s} make one-step "
                 "probabilities leave [0, 1]; shorten the slot or reduce the Doppler")
    p = np.zeros((L, L))
    idx = np.arange(L)
    p[idx, idx] = 1.0 - up - down
    p[idx[:-1], idx[:-1] + 1] = up[:-1]
    p[idx[1:], idx[1:] - 1] = down[1:]
    return p


def fsmc_path_loop(model, n_slots, seed=None, init_state=None):
    """Mode-chain path by one Python step per slot, from the same draws as
    ``simulate_fsmc``: one uniform for the start state when init_state is
    None, then one per slot after the first."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_slots, dtype=np.int64)
    if n_slots == 0:
        return out
    p = model.transition
    n_states = model.n_states
    lo = [float(p[s, s - 1]) if s > 0 else 0.0 for s in range(n_states)]
    mid = [lo[s] + float(p[s, s]) for s in range(n_states)]
    if init_state is None:
        cum = np.cumsum(model.pi)
        state = int(min(np.searchsorted(cum, rng.random(), side="right"),
                        n_states - 1))
    else:
        state = init_state
    out[0] = state
    for t, ut in enumerate(rng.random(n_slots - 1).tolist(), start=1):
        if ut < lo[state]:
            state -= 1
        elif ut >= mid[state]:
            state += 1
        out[t] = state
    return out


def fifo_queue_whole_array(model, source, n_slots, seed=None):
    """Slotted FIFO queue over whole-path arrays, with a drain of at most
    n_slots extra slots drawn in growing blocks: the library's queue before
    it became one chunked loop.  Returns the QueueTrace fields as a
    namespace."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    drain_slot_cap = n_slots
    phase = 0 if source.tau_slots == 1 else int(rng.integers(source.tau_slots))
    states = fsmc_path_loop(model, n_slots, seed=rng)
    rates = model.rates_blocks

    delta = source.delta_blocks
    tau = source.tau_slots
    t_idx = np.arange(n_slots)
    epoch_count_by_slot = np.where(t_idx >= phase, (t_idx - phase) // tau + 1, 0)
    ca = delta * epoch_count_by_slot

    epoch_slots = np.arange(phase, n_slots, tau)
    epochs = len(epoch_slots)
    levels = delta * (np.arange(epochs) + 1.0)

    def departures(cs_all, ca_all):
        e = ca_all - cs_all
        return cs_all + np.minimum(np.minimum.accumulate(e), 0.0)

    cs = np.cumsum(rates[states])

    # extend service (no new arrivals) until every epoch departs or the cap hits
    if epochs:
        total = levels[-1]
        extra_used = 0
        while extra_used < drain_slot_cap:
            d_arr = departures(cs, np.concatenate((ca,
                               np.full(len(cs) - len(ca), ca[-1]))))
            if d_arr[-1] >= total:
                break
            mean_rate = max(float(model.pi @ rates), 1e-12)
            need = int(min(drain_slot_cap - extra_used,
                           max(1024, 1.5 * (total - d_arr[-1]) / mean_rate)))
            more = fsmc_path_loop(model, need + 1, seed=rng,
                                  init_state=int(states[-1]))[1:]
            states = np.concatenate((states, more))
            cs = np.cumsum(rates[states])
            extra_used += need

    ca_ext = np.concatenate((ca, np.full(len(cs) - len(ca),
                                         ca[-1] if len(ca) else 0.0)))
    dep = departures(cs, ca_ext)

    if epochs:
        dep_slot = np.searchsorted(dep, levels - 1e-12 * levels, side="left")
        served = dep_slot < len(dep)
        # a block cannot depart before its own arrival slot (relevant at delta=0)
        delays = np.maximum(dep_slot[served] - epoch_slots[served], 0)
        undelivered = int(np.sum(~served))
    else:
        delays = np.zeros(0, dtype=np.int64)
        undelivered = 0

    return SimpleNamespace(delays_slots=delays.astype(np.int64),
                           epochs=epochs, undelivered=undelivered)


def fifo_queue_exact(model, source, n_slots, seed=None):
    """Slotted FIFO queue by Lindley's recursion one slot at a time, every
    sum a Fraction, on the library's draws (the phase, then the chain path
    over the window and n_slots of drain).  Batch k arrives at a_k = phase +
    k tau; the departures D(t) = S(t) + min(0, min_{s <= t} (A(s) - S(s)))
    first reach its level delta (k + 1), less the library's 1e-12 of it, at
    its departure slot, no earlier than a_k.  The sums carry exact
    denominators, so keep n to a few thousand slots.  Returns the
    QueueTrace fields as a namespace."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    delta, tau = Fraction(source.delta_blocks), source.tau_slots
    phase = 0 if tau == 1 else int(rng.integers(tau))
    arrivals = list(range(phase, n_slots, tau))
    rates = [Fraction(r) for r in model.rates_blocks.tolist()]
    margin = 1 - Fraction(1e-12)
    served = low = Fraction(0)
    arrived, delays = 0, []
    for t, state in enumerate(fsmc_path_loop(model, 2 * n_slots, seed=rng).tolist()):
        if len(delays) == len(arrivals):
            break
        arrived += arrived < len(arrivals) and arrivals[arrived] == t
        served += rates[state]
        low = min(low, delta * arrived - served)
        while len(delays) < arrived and (
                served + low >= delta * (len(delays) + 1) * margin):
            delays.append(t - arrivals[len(delays)])
    return SimpleNamespace(delays_slots=np.array(delays, dtype=np.int64),
                           epochs=len(arrivals),
                           undelivered=len(arrivals) - len(delays))


def first_true_bisection(holds, lo, hi=None):
    """Smallest integer n > lo with holds(n) for a monotone predicate, by
    doubling from lo + 1 >= 1 (when hi is not given) and plain bisection;
    holds(lo) counts as false and hi as true."""
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


def best_theta_full(source, model, d_slots, log_eps):
    """(theta, ln F_theta(d)) at the minimiser of the library's ln F over the
    stable set, or at the first theta met with ln F <= log_eps while ln F
    still falls; (nan, inf) when no stable theta is found.  The library's
    former full minimisation: the walk of ``netcal._best_theta`` from one
    over the mean service rate, whose midway probes and bounded minimiser
    do not stop at log_eps, with no seed and no refusal by the minorant."""
    stop = -math.inf

    def f(th):
        return netcal._log_f(model, th, source.tau_slots, d_slots,
                             source.delta_blocks)
    lo = theta = 0.0
    fx = hi = f_hi = math.inf
    x, grow = 1.0 / float(model.pi @ model.rates_blocks), 2.0
    while (f_hi == math.inf and theta < x < hi
           and fx > (stop if lo and hi < math.inf else log_eps)):
        fn = f(x)
        if fn < fx:
            lo, theta, fx = theta, x, fn
        else:
            hi, f_hi = x, fn
        grow = min(grow * grow, 2.0)
        x = grow * theta if hi == math.inf else (theta + hi) / 2
    if f_hi == math.inf or fx <= stop:  # stopped early, or hi is next to theta
        return (theta, fx) if theta else (math.nan, math.inf)
    x, fun = minimize_bounded(f, lo, hi, 1e-9 * hi, stop)
    return (x, fun) if fun < fx else (theta, fx)


def lattice_refusal(model, epsilon, d_g, resolution, tau):
    """The throughput search's exact predicate: k -> whether lattice point k
    is refused (empty stable set, or min_theta ln F_theta(d_g) > ln eps),
    by ``best_theta_full`` rather than the decided probe."""
    log_eps = math.log(epsilon)

    def refused(k):
        src = netcal.PeriodicSource(k * resolution * tau, tau)
        return not (d_g >= 1 and netcal._stable(src, model)
                    and best_theta_full(src, model, d_g, log_eps)[1] <= log_eps)
    return refused


def throughput_lattice_bisection(model, epsilon, d_g, resolution, tau):
    """(lambda_blocks, infeasible, d_slots, theta_star) by plain bisection
    over the rate lattice with the exact predicate, and the reported delay by
    plain bisection over (0, d_g] (doubling from one slot when even the first
    lattice point is refused), each probe minimising ln F fully by
    ``best_theta_full``, whose theta at the reported delay is theta_star."""
    log_eps = math.log(epsilon)
    refused = lattice_refusal(model, epsilon, d_g, resolution, tau)
    source = lambda k: netcal.PeriodicSource(k * resolution * tau, tau)
    infeasible = refused(1)
    if infeasible:
        k, top = 0, None
    else:
        k_stab = first_true_bisection(
            lambda k: not netcal._stable(source(k), model), 1)
        k, top = first_true_bisection(refused, 1, k_stab) - 1, d_g
    src, d, theta = source(k), math.inf, math.nan
    if netcal._stable(src, model):
        best = functools.cache(
            lambda d: best_theta_full(src, model, d, log_eps))
        d = first_true_bisection(
            lambda d: math.isnan(best(d)[0]) or best(d)[1] <= log_eps, 0, top)
        theta = best(d)[0]
        d = math.inf if math.isnan(theta) else float(d)
    return k * resolution, infeasible, d, theta
