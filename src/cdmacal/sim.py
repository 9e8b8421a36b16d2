"""Monte Carlo oracles: finite-system SINR, channel paths, FIFO queueing.

These simulators exist to check the analytical pipeline from the outside:
the finite-dimensional LMMSE SINR should concentrate on the decoupled
value, simulated channel paths should reproduce the chain statistics, and
measured queueing delays should violate the calculus bound no more often
than epsilon.

Queue accounting: arrivals land at slot boundaries before that slot's
service (the conservative choice).  A block's delay is the number of whole
slots after its arrival slot until its last bit has departed, so a block
fully served within its arrival slot has delay 0.  This matches the
virtual-delay quantity the MGF bound controls.
"""
from dataclasses import dataclass
import math

import numpy as np

from .errors import whole_number
from .fsmc import FsmcModel
from .netcal import PeriodicSource


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


# Slots per block of the chain's prefix scan.
_BLOCK = 64


def simulate_fsmc(model: FsmcModel, n_slots, seed=None, init_state=None):
    """Simulate the mode chain for n_slots from init_state, or else from pi.

    Slot t's draw u maps state s to s - 1 if u < P[s, s-1], to s + 1 if
    u >= P[s, s-1] + P[s, s]; these maps compose, so the path is a prefix
    scan.  Each block of ``_BLOCK`` slots steps all L start states at once,
    then the block ends are chained: the same path as a per-slot walk.
    """
    n_slots = whole_number("n_slots", n_slots, 0)
    rng = np.random.default_rng(seed)
    out = np.empty(n_slots, dtype=np.int64)
    if n_slots == 0:
        return out
    p = model.transition
    n_states = model.n_states
    if init_state is None:
        cum = np.cumsum(model.pi)
        state = int(min(np.searchsorted(cum, rng.random(), side="right"),
                        n_states - 1))
    else:
        state = whole_number("init_state", init_state, 0, n_states - 1)
    m = n_slots - 1
    blk = max(1, min(_BLOCK, m))
    nb = -(-m // blk)
    # NaN pads the last block; its pad slots follow the path's end and are cut
    pad = np.full(nb * blk - m, np.nan)
    u = np.append(rng.random(m), pad).reshape(nb, blk).T[:, :, None]
    lo = np.append(0.0, np.diagonal(p, -1))
    mid = lo + np.diagonal(p)
    s = np.arange(n_states, dtype=np.min_scalar_type(n_states))
    seen = np.empty((blk, nb, n_states), dtype=s.dtype)
    for j, uj in enumerate(u):
        seen[j] = s = s - (uj < lo[s]) + (uj >= mid[s])
    starts = [state]
    for row in seen[-1].tolist():
        starts.append(row[starts[-1]])
    out[0] = state
    out[1:] = seen[:, np.arange(nb), starts[:-1]].T.reshape(-1)[:m]
    return out


@dataclass(frozen=True)
class QueueTrace:
    """Result of a slotted FIFO run: one delay per delivered arrival epoch."""

    delays_slots: np.ndarray      # one sample per delivered epoch (batch last bit)
    n_slots: int                  # arrival window length
    epochs: int                   # arrival epochs = delivered + undelivered
    undelivered: int              # epochs never fully served (censored)
    backlog_peak: float           # up to the cut when unstable
    unstable: bool                # backlog cap exceeded; run stopped there

    def violation_frequency(self, d_slots):
        """Fraction of blocks with delay > d_slots, censored epochs counted as
        violations, plus its binomial standard error."""
        if self.epochs == 0:
            return 0.0, 0.0
        bad = int(np.sum(self.delays_slots > d_slots)) + self.undelivered
        f = bad / self.epochs
        return f, math.sqrt(f * (1 - f) / self.epochs)

    def delay_quantiles(self, qs=(0.5, 0.9, 0.99, 0.999)):
        """Empirical delay quantiles over all epochs, censored ones counted as
        +inf: the q-quantile is the smallest whole d with
        ``violation_frequency(d)[0] <= 1 - q``."""
        if self.epochs == 0:
            return {q: math.nan for q in qs}
        d = np.concatenate((self.delays_slots, np.full(self.undelivered, np.inf)))
        return {q: float(np.quantile(d, q, method="inverted_cdf")) for q in qs}


# Slots per pass of the queue loop; bounds its working memory.
_CHUNK = 1 << 16


def simulate_fifo_queue(model: FsmcModel, source: PeriodicSource, n_slots,
                        seed=None, backlog_cap=1e9):
    """Feed a periodic source through the FSMC server and record block delays.

    The chain starts from its stationary law; for periods longer than one
    slot the arrival phase is drawn uniformly.  After the arrival window the
    server keeps running, for at most n_slots extra slots, until every block
    has departed; anything still queued then is reported as ``undelivered``.
    If the backlog tops ``backlog_cap`` the run stops at that slot and is
    flagged unstable.

    Departures are D(t) = S(t) + min(0, min_{s<=t} [A(s) - S(s)]) for
    cumulative arrivals A and service S.  One loop walks the path in chunks
    of ``_CHUNK`` slots and carries S, the running minimum, the chain state
    and the first epoch not yet departed into the next chunk, so memory
    beyond one delay per epoch does not grow with n_slots.
    """
    n_slots = whole_number("n_slots", n_slots, 1)
    if not backlog_cap >= 0:
        raise ValueError("backlog_cap must be a nonnegative number or inf")
    rng = np.random.default_rng(seed)
    delta, tau = source.delta_blocks, int(source.tau_slots)
    phase = 0 if tau == 1 else int(rng.integers(tau))
    rates = model.rates_blocks
    epochs = len(range(phase, n_slots, tau))
    service, low, state, nxt = 0.0, 0.0, None, 0
    peak, unstable, delays = 0.0, False, []
    t0 = 0
    while not unstable and (t0 < n_slots or (nxt < epochs and t0 < 2 * n_slots)):
        t1 = min(t0 + _CHUNK, n_slots if t0 < n_slots else 2 * n_slots)
        if state is None:
            path = simulate_fsmc(model, t1 - t0, seed=rng)
        else:
            path = simulate_fsmc(model, t1 - t0 + 1, seed=rng,
                                 init_state=state)[1:]
        state = int(path[-1])
        t = np.arange(t0, t1)
        # epochs arrived by slot t; none arrive after the window
        arrived = np.where(t >= phase,
                           (np.minimum(t, n_slots - 1) - phase) // tau + 1, 0)
        ca = delta * arrived
        cs = np.cumsum(np.concatenate(([service], rates[path])))[1:]
        lows = np.minimum.accumulate(np.concatenate(([low], ca - cs)))[1:]
        dep = cs + lows
        if t0 < n_slots:
            backlog = ca - dep
            over = np.flatnonzero(backlog > backlog_cap)
            if len(over):
                unstable = True
                t1 = t0 + int(over[0]) + 1
                dep, backlog = dep[:t1 - t0], backlog[:t1 - t0]
                epochs = int(arrived[t1 - t0 - 1])
            peak = max(peak, float(backlog.max()))
        k = np.arange(nxt, int(arrived[len(dep) - 1]))
        levels = delta * (k + 1.0)
        slot = np.searchsorted(dep, levels - np.maximum(1e-9, 1e-12 * levels))
        done = slot < len(dep)
        # a block cannot depart before its own arrival slot (relevant at delta=0)
        delays.append(np.maximum(t0 + slot[done] - (phase + k[done] * tau), 0))
        nxt += int(np.count_nonzero(done))
        service, low, t0 = cs[-1], lows[-1], t1
    return QueueTrace(
        delays_slots=np.concatenate(delays),
        n_slots=t0 if unstable else n_slots,
        epochs=epochs,
        undelivered=epochs - nxt,
        backlog_peak=peak,
        unstable=unstable,
    )
