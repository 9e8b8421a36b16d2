"""Monte Carlo counterparts: channel paths and FIFO queueing.

These simulators check the analytical pipeline from the outside: simulated
channel paths should reproduce the chain statistics, and measured queueing
delays should violate the calculus bound no more often than epsilon.

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
    epochs: int                   # arrival epochs = delivered + undelivered
    undelivered: int              # epochs never fully served (censored)

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
                        seed=None):
    """Feed a periodic source through the FSMC server and record block delays.

    The chain starts from its stationary law; for periods longer than one
    slot the arrival phase is drawn uniformly.  After the arrival window the
    server keeps running, for at most n_slots extra slots, until every block
    has departed; anything still queued then is reported as ``undelivered``.
    No constant is counted in blocks, so scaling the service rates and the
    batch size by one factor leaves the delays unchanged.

    Departures are D(t) = S(t) + min(0, min_{s<=t} [A(s) - S(s)]) for
    cumulative arrivals A and service S.  One loop walks the path in chunks
    of ``_CHUNK`` slots and carries S, the running minimum, the chain state
    and the first epoch not yet departed into the next chunk, so memory
    beyond one delay per epoch does not grow with n_slots.
    """
    n_slots = whole_number("n_slots", n_slots, 1)
    rng = np.random.default_rng(seed)
    delta, tau = source.delta_blocks, int(source.tau_slots)
    phase = 0 if tau == 1 else int(rng.integers(tau))
    rates = model.rates_blocks
    epochs = len(range(phase, n_slots, tau))
    service, low, state, nxt, delays = 0.0, 0.0, None, 0, []
    t0 = 0
    while t0 < n_slots or (nxt < epochs and t0 < 2 * n_slots):
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
        k = np.arange(nxt, int(arrived[-1]))
        levels = delta * (k + 1.0)
        slot = np.searchsorted(dep, levels - 1e-12 * levels)
        done = slot < len(dep)
        # a block cannot depart before its own arrival slot (relevant at delta=0)
        delays.append(np.maximum(t0 + slot[done] - (phase + k[done] * tau), 0))
        nxt += int(np.count_nonzero(done))
        service, low, t0 = cs[-1], lows[-1], t1
    return QueueTrace(np.concatenate(delays), epochs, epochs - nxt)
